"""Exact finite-dimensional mixture probabilities.

``joint_interarrival_probability`` evaluates

    P(W in box) = integral of  prod_k [F_k(b_k; theta) - F_k(a_k; theta)]
                  over the mixing measure,

by adaptive Gauss-Kronrod quadrature over the mixing support (an exact sum
for atomic mixing).  ``cylinder_probability_density_form`` evaluates the same
quantity for gamma-kernel models with per-theta factors that integrate the
kernel density instead of calling the CDF special function.  Both routes
share one mixing integration (`_integrate_mixing`) and stay independent in
the per-theta factor; any disagreement between them beyond combined
tolerance indicates a convention error in the model rather than something
to renormalize away.

Each marginal of the mixing measure brings its own quadrature rule
(`Marginal.integrate`): unbounded supports are compactified with
theta = c*u/(1-u), and gamma and beta marginals are integrated in power
coordinates such as v = theta**shape, which absorb the density's power
singularities exactly; a gamma marginal of shape >= 1, whose density is
bounded, is integrated in theta itself.

Every route takes one `QuadratureConfig` (tolerances and panel limit; see
`quadrature`, which owns it and its defaults) and passes it whole to the
marginals' rules; a nested inner integral runs at `cfg.tighter()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .construction import MrpModel
from .errors import (
    AccuracyError,
    ConfigurationError,
    ParameterDomainError,
    UnsupportedModelError,
)
from .kernels import SHAPE_FROM_THETA2, KernelSpec, Marginal, kernel_cdf_batch
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, adaptive_gauss_kronrod

# the largest box dimension a query may have
MAX_BOX_DIM = 16


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
class ExactResult:
    value: float
    error: float
    method: str


# ---------------------------------------------------------------------------
# per-theta box factors
# ---------------------------------------------------------------------------


def _box_columns(query: BoxQuery) -> tuple[list, list, list]:
    """(kernel indices, points, lower) of a box's factor columns: the upper
    bounds of all coordinates, then the lower bounds of the coordinates in
    `lower`, those that carry mass below them."""
    lower = [k for k, (lo, _) in enumerate(query.bounds) if lo > 0.0]
    indices = list(range(1, query.dim + 1)) + [k + 1 for k in lower]
    xs = [hi for _, hi in query.bounds] + [query.bounds[k][0] for k in lower]
    return indices, xs, lower


def _box_product(columns: np.ndarray, lower: list) -> np.ndarray:
    """prod_k [upper_k - lower_k] per row of a batch laid out by `_box_columns`."""
    r = columns.shape[1] - len(lower)
    factors = columns[:, :r]
    factors[:, lower] -= columns[:, r:]
    out = factors[:, 0]
    for k in range(1, r):
        out = out * factors[:, k]
    return out


def _box_factor_batch(spec: KernelSpec, thetas: np.ndarray, query: BoxQuery) -> np.ndarray:
    """prod_k [F_k(b_k; theta) - F_k(a_k; theta)] for each theta, from one CDF call."""
    indices, xs, lower = _box_columns(query)
    return _box_product(kernel_cdf_batch(spec, indices, thetas, xs), lower)


# ---------------------------------------------------------------------------
# integration of a bounded function against the mixing measure
# ---------------------------------------------------------------------------


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


def _integrate_mixing(model: MrpModel, g_batch, cfg: QuadratureConfig, peak=None, clip=None):
    """integral of g(theta) d(mixing); g_batch maps a theta batch to values.

    Returns (value, error_bound, converged, method).  For two-dimensional
    product mixing the double integral is iterated one-dimensional adaptive
    quadrature: outer over the second coordinate, inner over the first.
    `peak = (k, lam)` says that g is shaped like theta**k * exp(-lam*theta);
    one-dimensional mixing then adds panel edges around the integrand's peak.
    `clip`, one (lo, hi) interval per mixing dimension inside the support,
    restricts the integral to that box.
    """
    mixing = model.mixing
    clips = clip or (None, None)
    if mixing.dim == 1:
        m = mixing.marginals[0]
        breaks = _peak_breakpoints(m, *peak) if peak else ()
        res = m.integrate(g_batch, cfg, clips[0], breaks)
        return res.scalar_value, res.scalar_error, res.converged, "quadrature-gk15"
    if mixing.dim > 2:
        raise UnsupportedModelError("product mixing beyond two dimensions is not supported")
    m1, m2 = mixing.marginals
    inner_cfg = cfg.tighter()
    state = {"err": 0.0, "ok": True}

    def outer_integrand(t2s: np.ndarray) -> np.ndarray:
        # one vector-valued inner integral: component j is the inner integral
        # at the outer node t2s[j]
        def g1(t1s: np.ndarray) -> np.ndarray:
            th = np.column_stack([np.repeat(t1s, t2s.size), np.tile(t2s, t1s.size)])
            return g_batch(th).reshape(t1s.size, t2s.size)

        res = m1.integrate(g1, inner_cfg, clips[0])
        state["err"] = max(state["err"], float(res.error.max()))
        state["ok"] = state["ok"] and res.converged
        return res.value

    res2 = m2.integrate(outer_integrand, cfg, clips[1])
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
    model: MrpModel, query: BoxQuery, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> ExactResult:
    """P(W_1 in (a_1,b_1], ..., W_r in (a_r,b_r]) for the mixture model.

    Atomic mixing is summed exactly; continuous mixing is integrated by
    adaptive Gauss-Kronrod quadrature.  The returned error estimate bounds
    the quadrature error; non-convergence raises :class:`AccuracyError`
    carrying the best estimate.
    """
    if query.dim > MAX_BOX_DIM:
        raise ConfigurationError(f"box dimension {query.dim} exceeds the cap {MAX_BOX_DIM}")
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
    model: MrpModel, t: float, n: int, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> ExactResult:
    """P(N_t = n) for a proper (constant-family) model.

    Uses P(N_t = n) = integral of [F_{T_n}(t; theta) - F_{T_{n+1}}(t; theta)]
    over the mixing measure, where T_n given theta is a gamma law whose shape
    accumulates over the n summed interarrivals.  For an exponential kernel
    the bracket is the Poisson weight, which is integrated directly: the
    difference of two CDFs near 1 would lose every digit of a small pmf.
    """
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


def _gamma_mass_below_vec(rates, shapes, xs, cfg: QuadratureConfig):
    """Gamma(rate, shape) mass of (0, x] per lane, by quadrature of the density.

    The arguments broadcast to one lane shape.  Substituting
    omega = x * v**(1/s) puts every lane on [0, 1], smooth at the origin,

        G(x) = (rate*x)**s / Gamma(s+1) * integral_0^1 exp(-rate*x*v**(1/s)) dv,

    so all lanes share one vector-valued adaptive integral.  Returns (mass,
    per-lane error bound, converged); x <= 0 holds mass 0 and x = inf mass 1.
    """
    rates, shapes, xs = np.broadcast_arrays(rates, shapes, xs)
    mass = np.where(xs > 0.0, 1.0, 0.0)
    err = np.zeros(mass.shape)
    lanes = (xs > 0.0) & (xs < math.inf)
    if not lanes.any():
        return mass, err, True
    c, s = rates[lanes] * xs[lanes], shapes[lanes]
    inv_s = 1.0 / s

    def integrand(v: np.ndarray) -> np.ndarray:
        with np.errstate(under="ignore"):
            return np.exp(-c * v[:, None] ** inv_s)

    res = adaptive_gauss_kronrod(integrand, 0.0, 1.0, cfg)
    uniq, inv = np.unique(s, return_inverse=True)  # few distinct shapes, many lanes
    with np.errstate(divide="ignore"):  # c = 0 (a zero rate) holds mass 0
        const = np.exp(s * np.log(c) - np.array([math.lgamma(v + 1.0) for v in uniq])[inv])
    mass[lanes] = const * res.value
    err[lanes] = const * res.error
    return mass, err, res.converged


def _theta_clip(mixing, theta_set) -> tuple:
    """`theta_set` as one (lo, hi) per mixing dimension, cut to the support (maybe empty)."""
    try:
        sets = [(float(lo), float(hi)) for lo, hi in ([theta_set] if mixing.dim == 1 else theta_set)]
    except (TypeError, ValueError):
        sets = []
    if len(sets) != mixing.dim or not all(lo < hi for lo, hi in sets):  # false for a NaN bound
        raise ConfigurationError(
            f"theta_set needs {mixing.dim} interval(s) (lo, hi) with lo < hi, got {theta_set!r}"
        )
    return tuple((max(lo, a), min(hi, b)) for (lo, hi), (a, b) in zip(sets, mixing.support_box()))


def cylinder_probability_density_form(
    model: MrpModel,
    query: BoxQuery,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    theta_set=None,
) -> ExactResult:
    """Box probability for gamma-kernel models through density integrals.

    Supported configurations: a constant gamma kernel with fixed shape under
    one-dimensional product mixing (gamma mixing among them), or with shape
    tied to the second parameter component under two-dimensional product
    mixing.  The per-theta factor integrates the kernel density, independent
    of the CDF special function; the mixing integral is the one
    `joint_interarrival_probability` uses.  `theta_set` restricts the
    parameter region, turning the result into P(W in box, Theta in E): an
    interval (lo, hi) under one-dimensional mixing, a pair of them under
    two-dimensional mixing; the default is the full support.  A wrong number
    of intervals, a NaN bound or lo >= hi raises ConfigurationError; a set
    that misses the support gives 0.
    """
    spec = model.kernel
    mixing = model.mixing
    if spec.family != "gamma" or not spec.is_constant_family or mixing.is_atomic:
        raise UnsupportedModelError(
            "density-form evaluation supports constant gamma kernel families under "
            "product mixing only"
        )
    method = "density-form-gk15" if mixing.dim == 1 else "density-form-gk15-iterated"
    clip = None if theta_set is None else _theta_clip(mixing, theta_set)
    if clip and any(lo >= hi for lo, hi in clip):
        return ExactResult(0.0, 0.0, method)
    inner_cfg = cfg.tighter()
    indices, xs, lower = _box_columns(query)
    mult = np.array([spec.rate_map.multiplier(k) for k in indices])
    factor_err, factor_ok = 0.0, True

    def g(thetas: np.ndarray) -> np.ndarray:
        # a theta's factor error bound is the sum of its columns' bounds
        nonlocal factor_err, factor_ok
        rates = (thetas[:, 0] if thetas.ndim == 2 else thetas)[:, None] * mult
        shapes = thetas[:, 1:2] if spec.shape == SHAPE_FROM_THETA2 else float(spec.shape)
        mass, err, ok = _gamma_mass_below_vec(rates, shapes, xs, inner_cfg)
        factor_err, factor_ok = max(factor_err, float(err.sum(axis=1).max())), factor_ok and ok
        return _box_product(mass, lower)

    value, err, ok, _ = _integrate_mixing(model, g, cfg, clip=clip)
    err += factor_err
    if not (ok and factor_ok):
        raise AccuracyError(
            f"density-form quadrature did not converge (best {value!r} +/- {err!r})", value, err
        )
    return ExactResult(value, err, method)
