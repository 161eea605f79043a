"""Special functions used by the kernels and the test statistics.

The regularized incomplete gamma function is computed with the classical
split: power series for ``x < a + 1``, modified-Lentz continued fraction
otherwise, targeting absolute error below 1e-12.  Both arguments may be
arrays; they broadcast against each other, and each lane stops iterating as
soon as it has converged, so a lane's value does not depend on the other
lanes of the call (an array call equals the element-wise scalar calls
bitwise).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, ParameterDomainError

_EPS = 1.0e-15
_TINY = 1.0e-300
_MAX_ITER = 20000


def _lgamma(a: np.ndarray) -> np.ndarray:
    """log Gamma element-wise, one ``math.lgamma`` call per distinct shape."""
    uniq, inv = np.unique(a, return_inverse=True)
    return np.array([math.lgamma(v) for v in uniq])[inv]


def _not_converged(what: str) -> AccuracyError:
    return AccuracyError(
        f"incomplete gamma {what} did not converge in {_MAX_ITER} iterations", math.nan, math.inf
    )


def _gamma_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lower regularized P(a, x) by series, lane-wise, valid for 0 < x < a + 1."""
    out = np.empty_like(x)
    lanes = np.arange(x.size)
    xs, ap = x, a.copy()
    delt = 1.0 / a
    summ = delt.copy()
    for _ in range(_MAX_ITER):
        ap += 1.0
        delt = delt * xs / ap
        summ += delt
        done = delt < summ * _EPS  # every term is positive
        if np.count_nonzero(done):  # cheaper than .any() on short arrays
            out[lanes[done]] = summ[done]
            keep = ~done
            if not np.count_nonzero(keep):
                break
            lanes, xs, ap, delt, summ = lanes[keep], xs[keep], ap[keep], delt[keep], summ[keep]
    else:
        raise _not_converged("series")
    return out * np.exp(-x + a * np.log(x) - _lgamma(a))


def _gamma_cf(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Upper regularized Q(a, x) by continued fraction, lane-wise, valid for x >= a + 1."""
    out = np.empty_like(x)
    lanes = np.arange(x.size)
    av = a
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - av)
        b = b + 2.0
        d = an * d + b
        np.copyto(d, _TINY, where=np.abs(d) < _TINY)
        c = b + an / c
        np.copyto(c, _TINY, where=np.abs(c) < _TINY)
        d = 1.0 / d
        delt = d * c
        h *= delt
        done = np.abs(delt - 1.0) < _EPS
        if np.count_nonzero(done):
            out[lanes[done]] = h[done]
            keep = ~done
            if not np.count_nonzero(keep):
                break
            lanes, av, b, c, d, h = lanes[keep], av[keep], b[keep], c[keep], d[keep], h[keep]
    else:
        raise _not_converged("continued fraction")
    return np.exp(-x + a * np.log(x) - _lgamma(a)) * out


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
