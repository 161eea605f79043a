"""Special functions used by the kernels and the test statistics.

`gamma_log_density` is the one gamma normalisation, in Stirling form: the
kernel density, the gamma mixing marginal and the incomplete gamma read it.
The regularized incomplete gamma takes the classical split, power series for
``x < a + 1`` and modified-Lentz continued fraction otherwise, each times
x**a e**-x / Gamma(a) from that density: within 1e-12 of scipy's up to shape
1e6 (6.4e-14 there at x = a +- 4 sqrt(a)).  Its arguments broadcast, and a
lane stops once it converges, so array and scalar calls agree bitwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, ParameterDomainError

_EPS = 1.0e-15
_TINY = 1.0e-300
_MAX_ITER = 20000


def per_shape(f, shapes) -> np.ndarray:
    """f(s) at every entry of the array `shapes`, one call of the scalar f per
    distinct shape; an f that returns k numbers adds a leading axis of k."""
    if np.ndim(shapes) == 0:
        return np.array(f(float(shapes)))
    uniq, inv = np.unique(np.ravel(shapes), return_inverse=True)
    values = np.array([f(s) for s in uniq.tolist()]).T
    return np.take(values, inv, axis=-1).reshape(values.shape[:-1] + np.shape(shapes))


def _stirling_terms(s: float) -> tuple:
    """(log(2 pi s)/2, R(s)), R(s) = lgamma(s) - [(s - 1/2) log s - s + log(2 pi)/2]."""
    half_log = 0.5 * math.log(2.0 * math.pi * s)
    if s <= 15.0:
        return half_log, math.lgamma(s) - (s - 0.5) * math.log(s) + s - 0.5 * math.log(2.0 * math.pi)
    r = 1.0 / (s * s)
    return half_log, (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / s


def gamma_log_density(rate, shape, x):
    """log of the Gamma(rate, shape) density at x > 0, broadcast over the three.

    With t = rate*x/shape and Stirling's formula for lgamma(shape),

        log f = log(rate) - log(2 pi shape)/2 - R(shape) + (shape-1) log t - shape (t-1),

    so no two large terms cancel: the textbook form does, shape*log(rate) and
    lgamma(shape) among them, and loses digits at shapes of 1e4 and above.
    """
    t = rate * np.asarray(x, dtype=np.float64) / shape
    half_log, remainder = per_shape(_stirling_terms, shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # t is 0 only where rate*x/shape underflows
        power = np.where(shape != 1.0, (shape - 1.0) * np.log(t), 0.0)
    const = np.log(rate) - half_log - remainder
    return const + power - shape * (t - 1.0)


def _converged(step, state: tuple, what: str) -> np.ndarray:
    """Per lane, the value at the first iteration i = 1, 2, ... whose
    ``step(i, *state) -> (done, value, state)`` marks it done (it then leaves the state)."""
    out = np.empty(state[0].shape)
    lanes = np.arange(out.size)
    for i in range(1, _MAX_ITER + 1):
        done, value, state = step(i, *state)
        if np.count_nonzero(done):  # cheaper than .any() on short arrays
            out[lanes[done]] = value[done]
            keep = np.flatnonzero(~done)  # one index array for every gather
            if not keep.size:
                return out
            lanes = lanes[keep]
            state = [v[keep] for v in state]
    raise AccuracyError(
        f"incomplete gamma {what} did not converge in {_MAX_ITER} iterations", math.nan, math.inf
    )


def _prefactor(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x**a e**-x / Gamma(a) = x f(x; rate 1, shape a), f the Stirling-form density."""
    return np.exp(np.log(x) + gamma_log_density(1.0, a, x))


def _gamma_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lower regularized P(a, x) by series, lane-wise, valid for 0 < x < a + 1."""

    def step(i, xs, ap, delt, summ):
        ap += 1.0
        delt = delt * xs / ap
        summ += delt
        return delt < summ * _EPS, summ, (xs, ap, delt, summ)  # every term is positive

    return _converged(step, (x, a.copy(), 1.0 / a, 1.0 / a), "series") * _prefactor(a, x)


def _gamma_cf(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Upper regularized Q(a, x) by continued fraction, lane-wise, valid for x >= a + 1."""

    def step(i, av, b, c, d, h):
        an = -i * (i - av)
        b = b + 2.0
        d = an * d + b
        np.copyto(d, _TINY, where=np.abs(d) < _TINY)
        c = b + an / c
        np.copyto(c, _TINY, where=np.abs(c) < _TINY)
        d = 1.0 / d
        delt = d * c
        h *= delt
        return np.abs(delt - 1.0) < _EPS, h, (av, b, c, d, h)

    b = x + 1.0 - a
    state = (a, b, np.full(x.shape, 1.0 / _TINY), 1.0 / b, 1.0 / b)
    return _prefactor(a, x) * _converged(step, state, "continued fraction")


def _incomplete_gamma(a, x, upper: bool):
    """P(a, x), or Q(a, x) when `upper`, broadcast over a and x."""
    aa, xa = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(x, dtype=np.float64))
    scalar = aa.ndim == 0
    ok = (aa > 0.0) & np.isfinite(aa)
    if not ok.all():
        raise ParameterDomainError(f"incomplete gamma shape must be positive, got a={aa[~ok][0]}")
    if np.any(xa < 0.0) or np.any(np.isnan(xa)):
        raise ParameterDomainError("incomplete gamma argument must be >= 0")
    shape = aa.shape
    aa, xa = aa.ravel(), xa.ravel()
    out = np.full(xa.shape, 0.0 if upper else 1.0)  # the value at x = inf
    zero = xa == 0.0
    out[zero] = 1.0 if upper else 0.0
    lo = ~zero & (xa < aa + 1.0)
    hi = np.isfinite(xa) & ~lo & ~zero
    if lo.any():
        p = _gamma_series(aa[lo], xa[lo])
        out[lo] = 1.0 - p if upper else p
    if hi.any():
        q = _gamma_cf(aa[hi], xa[hi])
        out[hi] = q if upper else 1.0 - q
    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if scalar else out.reshape(shape)


def regularized_incomplete_gamma(a, x):
    """Lower regularized incomplete gamma P(a, x).

    Parameters
    ----------
    a : float or ndarray
        Shape(s), strictly positive and finite.
    x : float or ndarray
        Evaluation point(s), nonnegative (``inf`` allowed and maps to 1).

    Returns
    -------
    float or ndarray
        P(a, x) in [0, 1], of the broadcast shape of `a` and `x` (a float
        when both are scalars); monotone nondecreasing in x.

    Raises
    ------
    AccuracyError
        If a lane does not converge within the iteration cap.
    """
    return _incomplete_gamma(a, x, upper=False)


def regularized_incomplete_gamma_upper(a, x):
    """Upper regularized incomplete gamma Q(a, x) = 1 - P(a, x), computed directly."""
    return _incomplete_gamma(a, x, upper=True)


def chi_square_sf(x: float, df: float) -> float:
    """Survival function of the chi-square distribution with `df` degrees of freedom."""
    if x <= 0.0:
        return 1.0
    return float(regularized_incomplete_gamma_upper(df / 2.0, x / 2.0))


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution.

    Uses the alternating series for large arguments and the Jacobi-theta dual
    series for small ones.
    """
    if lam <= 0.0:
        return 1.0
    if lam < 0.4:
        # cdf = sqrt(2*pi)/lam * sum exp(-(2k-1)^2 pi^2 / (8 lam^2))
        s = 0.0
        for k in range(1, 40):
            term = math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * lam * lam))
            s += term
            if term < 1e-18 * max(s, 1e-300):
                break
        return min(1.0, max(0.0, 1.0 - math.sqrt(2.0 * math.pi) / lam * s))
    s = 0.0
    sign = 1.0
    for j in range(1, 200):
        term = math.exp(-2.0 * j * j * lam * lam)
        s += sign * term
        if term < 1e-18:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * s))


def ks_statistic_lambda(d: float, n: float) -> float:
    """Finite-sample scaling of a one-sample KS statistic (Stephens)."""
    rn = math.sqrt(n)
    return d * (rn + 0.12 + 0.11 / rn)


def ks_one_sample_pvalue(d: float, n: int) -> float:
    """Asymptotic p-value of a one-sample KS statistic at sample size n."""
    return kolmogorov_sf(ks_statistic_lambda(d, n))
