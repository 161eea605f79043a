"""Exact finite-dimensional mixture probabilities.

``joint_interarrival_probability`` evaluates

    P(W in box) = integral of  prod_k [F_k(b_k; theta) - F_k(a_k; theta)]
                  over the mixing measure,

by adaptive Gauss-Kronrod quadrature over the mixing support (an exact sum
for atomic mixing).  ``cylinder_probability_density_form`` evaluates the same
quantity for gamma-kernel models through nested density integrals instead of
CDF factors; it exists as an independent second evaluation route, and any
disagreement between the two routes beyond combined tolerance indicates a
convention error in the model rather than something to renormalize away.

Each marginal of the mixing measure brings its own quadrature rule
(`Marginal.integrate`): unbounded supports are compactified with
theta = c*u/(1-u), and gamma and beta marginals are integrated in power
coordinates such as v = theta**shape, which absorb the density's power
singularities exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .construction import MrpModel
from .errors import (
    AccuracyError,
    ConfigurationError,
    ParameterDomainError,
    UnsupportedModelError,
)
from .kernels import KernelSpec, Marginal, kernel_cdf_batch
from .quadrature import adaptive_gauss_kronrod


@dataclass(frozen=True)
class BoxQuery:
    """A finite-dimensional box (a_1, b_1] x ... x (a_r, b_r] for W_1..W_r."""

    bounds: tuple

    def __post_init__(self):
        bb = tuple((float(a), float(b)) for a, b in self.bounds)
        object.__setattr__(self, "bounds", bb)
        if not bb:
            raise ConfigurationError("box query needs at least one coordinate")
        for i, (a, b) in enumerate(bb):
            if math.isnan(a) or math.isnan(b) or not a < b:
                raise ConfigurationError(f"box coordinate {i + 1} needs a < b, got ({a}, {b})")

    @classmethod
    def upper(cls, *ws: float) -> "BoxQuery":
        """CDF-style box {W_1 <= w_1, ..., W_r <= w_r}."""
        return cls(tuple((-math.inf, float(w)) for w in ws))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def permuted(self, perm: Sequence[int]) -> "BoxQuery":
        return BoxQuery(tuple(self.bounds[p] for p in perm))


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for the mixture quadratures."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    max_box_dim: int = 16

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ConfigurationError("tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class ExactResult:
    value: float
    error: float
    method: str


# ---------------------------------------------------------------------------
# per-theta box factors
# ---------------------------------------------------------------------------


def _box_factor_batch(spec: KernelSpec, thetas: np.ndarray, query: BoxQuery) -> np.ndarray:
    """prod_k [F_k(b_k; theta) - F_k(a_k; theta)] for each theta, from one CDF call.

    The upper bounds of all coordinates and the lower bounds that carry mass
    below them are evaluated together as the columns of one batch.
    """
    r = query.dim
    lower = [k for k, (lo, _) in enumerate(query.bounds) if lo > 0.0]
    indices = list(range(1, r + 1)) + [k + 1 for k in lower]
    xs = [hi for _, hi in query.bounds] + [query.bounds[k][0] for k in lower]
    cdf = kernel_cdf_batch(spec, indices, thetas, xs)
    factors = cdf[:, :r]
    factors[:, lower] -= cdf[:, r:]
    out = factors[:, 0]
    for k in range(1, r):
        out = out * factors[:, k]
    return out


# ---------------------------------------------------------------------------
# integration of a bounded function against the mixing measure
# ---------------------------------------------------------------------------


def _integrate_marginal(m: Marginal, g, cfg: QuadratureConfig, clip=None, breakpoints=()):
    """integral of density_m(x)*g(x) by the marginal's own rule, at cfg's tolerances."""
    return m.integrate(g, clip, breakpoints, cfg.rel_tol, cfg.abs_tol, cfg.max_subdivisions)


def _tighter(cfg: QuadratureConfig, factor: float = 0.1) -> QuadratureConfig:
    return replace(cfg, rel_tol=cfg.rel_tol * factor, abs_tol=cfg.abs_tol * factor)


def _peak_breakpoints(m: Marginal, k: float, lam: float) -> list:
    """Panel edges around the peak of density_m(theta) * theta**k * exp(-lam*theta).

    That product is the shape of a count pmf's integrand over the mixing
    measure (exactly so for an exponential kernel, whose count weight is
    Poisson).  For a large count it is a narrow peak far out in the mixing
    tail, which the nodes of the first wide panel can straddle: the panel
    then reports a small error for a value that misses most of the peak.
    The edges bracket the region within a factor e**-20 of the maximum.
    """
    lo, hi = m.support()
    ref = m.mean()
    centre = k / lam
    grid = np.geomspace(min(ref, centre) * 1e-2, max(ref, centre) * 1e2, 2001)
    grid = grid[(grid > lo) & (grid < hi)]
    if grid.size == 0:
        return []
    with np.errstate(divide="ignore"):
        logf = np.log(m.density_batch(grid)) + k * np.log(grid) - lam * grid
    top = int(np.argmax(logf))
    near = grid[logf > logf[top] - 20.0]
    return [float(near[0]), float(grid[top]), float(near[-1])]


def _integrate_mixing(model: MrpModel, g_batch, cfg: QuadratureConfig, peak=None):
    """integral of g(theta) d(mixing); g_batch maps a theta batch to values.

    Returns (value, error_bound, converged, method).  For two-dimensional
    product mixing the double integral is iterated one-dimensional adaptive
    quadrature: outer over the second coordinate, inner over the first.
    `peak = (k, lam)` says that g is shaped like theta**k * exp(-lam*theta);
    one-dimensional mixing then adds panel edges around the integrand's peak.
    """
    mixing = model.mixing
    if mixing.dim == 1:
        m = mixing.marginals[0]
        breaks = _peak_breakpoints(m, *peak) if peak else ()
        res = _integrate_marginal(m, g_batch, cfg, breakpoints=breaks)
        return res.scalar_value, res.scalar_error, res.converged, "quadrature-gk15"
    if mixing.dim > 2:
        raise UnsupportedModelError("product mixing beyond two dimensions is not supported")
    m1, m2 = mixing.marginals
    inner_cfg = _tighter(cfg)
    state = {"err": 0.0, "ok": True}

    def outer_integrand(t2s: np.ndarray) -> np.ndarray:
        # one vector-valued inner integral: component j is the inner integral
        # at the outer node t2s[j]
        def g1(t1s: np.ndarray) -> np.ndarray:
            th = np.column_stack([np.repeat(t1s, t2s.size), np.tile(t2s, t1s.size)])
            return g_batch(th).reshape(t1s.size, t2s.size)

        res = _integrate_marginal(m1, g1, inner_cfg)
        state["err"] = max(state["err"], float(res.error.max()))
        state["ok"] = state["ok"] and res.converged
        return res.value

    res2 = _integrate_marginal(m2, outer_integrand, cfg)
    return (
        res2.scalar_value,
        res2.scalar_error + state["err"],
        res2.converged and state["ok"],
        "quadrature-gk15-iterated",
    )


def _atomic_sum(model: MrpModel, g_batch) -> tuple[float, str]:
    """sum_i w_i g(atom_i) over atomic mixing, and the method name."""
    mixing = model.mixing
    th = np.asarray(mixing.atoms, dtype=np.float64)
    th = th if model.param_dim > 1 else th[:, 0]
    method = "point-mass" if mixing.kind == "dirac" else "discrete-sum"
    return float(np.dot(mixing.weights, g_batch(th))), method


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def joint_interarrival_probability(
    model: MrpModel, query: BoxQuery, cfg: Optional[QuadratureConfig] = None
) -> ExactResult:
    """P(W_1 in (a_1,b_1], ..., W_r in (a_r,b_r]) for the mixture model.

    Atomic mixing is summed exactly; continuous mixing is integrated by
    adaptive Gauss-Kronrod quadrature.  The returned error estimate bounds
    the quadrature error; non-convergence raises :class:`AccuracyError`
    carrying the best estimate.
    """
    cfg = cfg or DEFAULT_CONFIG
    if query.dim > cfg.max_box_dim:
        raise ConfigurationError(
            f"box dimension {query.dim} exceeds the configured cap {cfg.max_box_dim}"
        )
    spec = model.kernel

    def g(thetas: np.ndarray) -> np.ndarray:
        return _box_factor_batch(spec, thetas, query)

    if model.mixing.is_atomic:
        p, method = _atomic_sum(model, g)
        return ExactResult(p, 4.0 * np.finfo(float).eps * query.dim * len(model.mixing.atoms), method)
    value, err, ok, method = _integrate_mixing(model, g, cfg)
    if not ok:
        raise AccuracyError(
            f"quadrature did not converge within {cfg.max_subdivisions} subdivisions "
            f"(best estimate {value!r} +/- {err!r})",
            value,
            err,
        )
    return ExactResult(value, err, method)


def example16_closed_form(w1: float, w2: float) -> float:
    """Closed-form P(W_1 <= w1, W_2 <= w2) for the bundled `example16` model.

    The model has an exponential kernel whose rate scales with the index
    (multiplier n) and gamma mixing with rate 2, shape 1; the probability is

        w2/(w2+1) - 2*[1/(w1+2) - 1/(w1+2*w2+2)].
    """
    if w1 < 0.0 or w2 < 0.0:
        raise ParameterDomainError(f"arguments must be nonnegative, got ({w1}, {w2})")
    return w2 / (w2 + 1.0) - 2.0 * (1.0 / (w1 + 2.0) - 1.0 / (w1 + 2.0 * w2 + 2.0))


def _poisson_weight_batch(spec: KernelSpec, thetas: np.ndarray, n: int, t: float) -> np.ndarray:
    """P(N_t = n | theta) for a constant exponential kernel: the Poisson pmf at lam = theta*a*t."""
    lam = np.asarray(thetas, dtype=np.float64) * (spec.rate_map.a * t)
    if n == 0:
        return np.exp(-lam)
    with np.errstate(divide="ignore"):
        return np.exp(n * np.log(lam) - lam - math.lgamma(n + 1.0))


def count_pmf(
    model: MrpModel, t: float, n: int, cfg: Optional[QuadratureConfig] = None
) -> ExactResult:
    """P(N_t = n) for a proper (constant-family) model.

    Uses P(N_t = n) = integral of [F_{T_n}(t; theta) - F_{T_{n+1}}(t; theta)]
    over the mixing measure, where T_n given theta is a gamma law whose shape
    accumulates over the n summed interarrivals.  For an exponential kernel
    the bracket is the Poisson weight, which is integrated directly: the
    difference of two CDFs near 1 would lose every digit of a small pmf.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not model.is_proper_mrp:
        raise UnsupportedModelError(
            "count law has no product form for an index-dependent kernel family"
        )
    if n < 0 or n != int(n):
        raise ConfigurationError(f"count must be a nonnegative integer, got {n!r}")
    if t < 0.0:
        raise ConfigurationError(f"time must be nonnegative, got {t!r}")
    n = int(n)
    if t == 0.0:
        return ExactResult(1.0 if n == 0 else 0.0, 0.0, "boundary")
    spec = model.kernel

    def g(thetas: np.ndarray) -> np.ndarray:
        if spec.family == "exponential":
            return _poisson_weight_batch(spec, thetas, n, t)
        # T_n given theta sums n interarrivals of the constant family
        cdf = kernel_cdf_batch(spec, 1, thetas, [t, t], n_terms=[n, n + 1])
        return cdf[:, 0] - cdf[:, 1]

    if model.mixing.is_atomic:
        p, method = _atomic_sum(model, g)
        return ExactResult(p, 8.0 * np.finfo(float).eps, method)
    # given theta the count weight peaks near theta = n * shape / (a * t)
    shape = 1.0 if spec.family == "exponential" else spec.shape
    peak = (n * shape, spec.rate_map.a * t) if n > 0 and model.param_dim == 1 else None
    value, err, ok, method = _integrate_mixing(model, g, cfg, peak)
    if not ok:
        raise AccuracyError(
            f"count pmf quadrature did not converge (best {value!r} +/- {err!r})", value, err
        )
    return ExactResult(value, err, method)


# ---------------------------------------------------------------------------
# density-form evaluation route (independent of the CDF implementation)
# ---------------------------------------------------------------------------


def _gamma_mass_below_vec(rates: np.ndarray, shape: float, x: float, cfg: QuadratureConfig):
    """integral over (0, x] of the gamma density, vector valued over rates.

    Computed by quadrature of the density (not the CDF special function):
    substituting u = omega**shape makes the integrand smooth at the origin:

        G(x) = rate**s / Gamma(s) * (1/s) * integral_0^{x**s} exp(-rate*u**(1/s)) du.
    """
    if x <= 0.0:
        return np.zeros(rates.shape[0]), 0.0, True
    s = shape
    consts = np.exp(s * np.log(rates) - math.lgamma(s)) / s

    def integrand(u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            w = u[:, None] ** (1.0 / s)
            return np.exp(-rates[None, :] * w)

    if math.isfinite(x):
        res = adaptive_gauss_kronrod(
            integrand, 0.0, x**s, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
            max_subdivisions=cfg.max_subdivisions,
        )
        return consts * res.value, float(np.max(consts * res.error)), res.converged
    return np.ones(rates.shape[0]), 0.0, True  # total mass is the analytic constant


def _density_form_factors(
    spec: KernelSpec, rates: np.ndarray, shape: float, query: BoxQuery, cfg: QuadratureConfig
):
    """prod_k integral over C_k of the per-index density, vector over theta nodes."""
    out = np.ones(rates.shape[0])
    err = 0.0
    ok = True
    for k, (lo, hi) in enumerate(query.bounds, start=1):
        rk = rates * spec.rate_map.multiplier(k)
        upper, e1, ok1 = _gamma_mass_below_vec(rk, shape, hi, cfg)
        if lo > 0.0:
            lower, e2, ok2 = _gamma_mass_below_vec(rk, shape, lo, cfg)
        else:
            lower, e2, ok2 = 0.0, 0.0, True
        out = out * (upper - lower)
        err += e1 + e2
        ok = ok and ok1 and ok2
    return out, err, ok


def cylinder_probability_density_form(
    model: MrpModel,
    query: BoxQuery,
    cfg: Optional[QuadratureConfig] = None,
    theta_set=None,
) -> ExactResult:
    """Box probability for gamma-kernel models through nested density integrals.

    Supported configurations: a constant gamma kernel with fixed shape under
    one-dimensional product mixing (gamma mixing among them), or with shape
    tied to the second parameter component under two-dimensional product
    mixing.  `theta_set` optionally restricts the
    parameter region (an interval, or a pair of intervals), turning the
    result into P(W in box, Theta in E); the default is the full support.
    """
    cfg = cfg or DEFAULT_CONFIG
    spec = model.kernel
    mixing = model.mixing
    if spec.family != "gamma" or not spec.is_constant_family or mixing.is_atomic:
        raise UnsupportedModelError(
            "density-form evaluation supports constant gamma kernel families under "
            "product mixing only"
        )
    inner_cfg = _tighter(cfg)
    state = {"err": 0.0, "ok": True}

    if mixing.dim == 1:
        s = float(spec.shape)
        clip = None
        if theta_set is not None:
            lo, hi = theta_set
            clip = (max(0.0, float(lo)), float(hi))

        def g(thetas: np.ndarray) -> np.ndarray:
            rates = thetas * spec.rate_map.a
            vals, err, ok = _density_form_factors(spec, rates, s, query, inner_cfg)
            state["err"] = max(state["err"], err)
            state["ok"] = state["ok"] and ok
            return vals

        res = _integrate_marginal(mixing.marginals[0], g, cfg, clip=clip)
        value, err, ok = res.scalar_value, res.scalar_error + state["err"], res.converged and state["ok"]
        method = "density-form-gk15"
    else:  # build_model matched the two-dimensional mixing with a theta2-shaped kernel
        m1, m2 = mixing.marginals
        clip1 = clip2 = None
        if theta_set is not None:
            (lo1, hi1), (lo2, hi2) = theta_set
            clip1 = (max(0.0, float(lo1)), float(hi1))
            clip2 = (max(0.0, float(lo2)), float(hi2))

        def outer_integrand(t2s: np.ndarray) -> np.ndarray:
            vals = np.empty_like(t2s)
            for j, t2 in enumerate(t2s):

                def g1(t1s: np.ndarray) -> np.ndarray:
                    rates = t1s * spec.rate_map.a
                    v, err, ok = _density_form_factors(spec, rates, float(t2), query, inner_cfg)
                    state["err"] = max(state["err"], err)
                    state["ok"] = state["ok"] and ok
                    return v

                res1 = _integrate_marginal(m1, g1, inner_cfg, clip=clip1)
                state["err"] = max(state["err"], res1.scalar_error)
                state["ok"] = state["ok"] and res1.converged
                vals[j] = res1.scalar_value
            return vals

        res = _integrate_marginal(m2, outer_integrand, cfg, clip=clip2)
        value, err, ok = res.scalar_value, res.scalar_error + state["err"], res.converged and state["ok"]
        method = "density-form-gk15-iterated"
    if not ok:
        raise AccuracyError(
            f"density-form quadrature did not converge (best {value!r} +/- {err!r})", value, err
        )
    return ExactResult(value, err, method)
