"""Exact finite-dimensional mixture probabilities.

``joint_interarrival_probabilities`` evaluates, for a batch of boxes,

    P(W in box) = integral of  prod_k [F_k(b_k; theta) - F_k(a_k; theta)]
                  over the mixing measure,

and ``count_pmfs`` the count law at a batch of (t, n) points the same way.
The queries share mixing integrals whose integrand has one column per query,
each integrated to its own tolerance; so the results of one integral share
its `n_panels` and `n_calls`, while each keeps its own value, error bound and
`converged` flag.  The integrand's memory grows with its columns, so a call
takes consecutive integrals of at most `MAX_BATCH` queries (`MAX_BATCH_2D` on
a 2-D mixing measure), however many queries it is given.
``joint_interarrival_probability`` and ``count_pmf`` are batches of one.
``cylinder_probability_density_form`` evaluates the box probability
for gamma-kernel models with per-theta factors that integrate the kernel
density instead of calling the CDF special function.  Each route is a
per-theta integrand and one call of the mixing measure's own integral
(`MixingMeasure.integrate`: an exact sum over atoms, or adaptive
Gauss-Kronrod quadrature by each marginal's rule, whose initial panels the
marginal places itself; `count_pmf` only names its integrand's shape as a
tilt, theta**k * exp(-lam*theta)); the routes stay independent in the
per-theta factor, so any disagreement between them beyond combined tolerance
indicates a convention error in the model rather than something to
renormalize away.

Every route takes one `QuadratureConfig` (tolerances and panel limit; see
`quadrature`, which owns it and its defaults) and passes it whole to the
mixing integral; a nested inner integral runs at `cfg.tighter()`.
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
from .kernels import KernelSpec, MixingMeasure, kernel_cdf_batch, kernel_law
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureResult, adaptive_gauss_kronrod
from .special import per_shape

# the largest box dimension a query may have
MAX_BOX_DIM = 16
# the most queries answered with one mixing integral; it bounds the
# integrand's columns, and so its memory, which a 2-D mixing measure's tensor
# grid of nodes multiplies: there a quarter of the columns
MAX_BATCH = 64
MAX_BATCH_2D = MAX_BATCH // 4
_EPS = np.finfo(float).eps


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
    """An exact value, its error bound, how it was computed and what it cost.

    `n_panels` and `n_calls` count the mixing integral's quadrature panels and
    integrand calls; an atomic sum or a boundary value takes neither.  The
    results of one integral report the same `n_panels` and `n_calls`: the
    cost of that integral, not of one query.
    """

    value: float
    error: float
    method: str
    n_panels: int = 0
    n_calls: int = 0
    converged: bool = True


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


# ---------------------------------------------------------------------------
# mixing integrals: method names, the convergence check
# ---------------------------------------------------------------------------


def _method(mixing: MixingMeasure, route: str = "quadrature") -> str:
    """How a route's mixing integral is taken: a sum over atoms or a (2-D iterated) GK15 rule."""
    if mixing.is_atomic:
        return "point-mass" if mixing.kind == "dirac" else "discrete-sum"
    return f"{route}-gk15" + ("-iterated" if mixing.dim > 1 else "")


def _batch(res: QuadratureResult, errors, method: str, met=True) -> list[ExactResult]:
    """One result per column of a batch's mixing integral, in Python floats, with
    `errors` as the columns' bounds; a column converged if it met its tolerance
    and `met` holds for it."""
    return [
        ExactResult(float(v), float(e), method, res.n_panels, res.n_calls, bool(ok))
        for v, e, ok in zip(res.value, errors, res.met & met)
    ]


def _in_batches(model: MrpModel, queries: list, answer) -> list[ExactResult]:
    """``answer(batch)`` on consecutive batches of the size `model` allows, joined."""
    size = MAX_BATCH if model.param_dim == 1 else MAX_BATCH_2D
    return [r for lo in range(0, len(queries), size) for r in answer(queries[lo:lo + size])]


def require_converged(result: ExactResult, cfg: QuadratureConfig) -> ExactResult:
    """`result` if it converged, else AccuracyError carrying its best estimate."""
    if not result.converged:
        raise AccuracyError(
            f"{result.method} did not converge within {cfg.max_subdivisions} subdivisions "
            f"(best estimate {result.value!r} +/- {result.error!r})",
            result.value,
            result.error,
        )
    return result


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def validate_box(query: BoxQuery) -> BoxQuery:
    """`query`, or ConfigurationError if it has more than MAX_BOX_DIM coordinates."""
    if query.dim > MAX_BOX_DIM:
        raise ConfigurationError(f"box dimension {query.dim} exceeds the cap {MAX_BOX_DIM}")
    return query


def joint_interarrival_probabilities(
    model: MrpModel, boxes: Sequence[BoxQuery], cfg: QuadratureConfig = DEFAULT_CONFIG
) -> list[ExactResult]:
    """P(W_1 in (a_1,b_1], ..., W_r in (a_r,b_r]) for each box, in order.

    Every box is validated before any is answered.  Atomic mixing is summed
    exactly; continuous mixing is integrated by adaptive Gauss-Kronrod
    quadrature, one integral per batch of at most `MAX_BATCH` boxes, whose
    integrand evaluates every box's factor columns in one CDF call.  Each
    result's error estimate bounds its own quadrature error, and a box whose
    integral missed its tolerance within the panel limit comes back with
    `converged=False` and its best estimate.  An AccuracyError raised by the
    integrand (the incomplete gamma function) ends the whole call.
    """
    boxes = [validate_box(q) for q in boxes]
    spec, mixing = model.kernel, model.mixing

    def answer(batch: list) -> list[ExactResult]:
        layouts = [_box_columns(q) for q in batch]
        indices = [i for ind, _, _ in layouts for i in ind]
        xs = [x for _, pts, _ in layouts for x in pts]
        stops = np.cumsum([0] + [len(ind) for ind, _, _ in layouts]).tolist()

        def g(thetas: np.ndarray) -> np.ndarray:
            # every box's factor per theta, from one CDF call
            cdf = kernel_cdf_batch(spec, indices, thetas, xs)
            return np.column_stack([
                _box_product(cdf[:, a:b], lower)
                for a, b, (_, _, lower) in zip(stops, stops[1:], layouts)
            ])

        res = mixing.integrate(g, cfg)
        # an atomic sum is exact up to the rounding of its factors
        errors = (
            [4.0 * _EPS * q.dim * len(mixing.atoms) for q in batch] if mixing.is_atomic else res.error
        )
        return _batch(res, errors, _method(mixing))

    return _in_batches(model, boxes, answer)


def joint_interarrival_probability(
    model: MrpModel, query: BoxQuery, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> ExactResult:
    """P(W_1 in (a_1,b_1], ..., W_r in (a_r,b_r]) for the mixture model.

    `joint_interarrival_probabilities` on a batch of one; non-convergence
    raises :class:`AccuracyError` carrying the best estimate.
    """
    return require_converged(joint_interarrival_probabilities(model, [query], cfg)[0], cfg)


def example16_closed_form(w1: float, w2: float) -> float:
    """Closed-form P(W_1 <= w1, W_2 <= w2) for the bundled `example16` model.

    The model has an exponential kernel whose rate scales with the index
    (multiplier n) and gamma mixing with rate 2, shape 1; the probability is

        w2/(w2+1) - 2*[1/(w1+2) - 1/(w1+2*w2+2)].
    """
    if w1 < 0.0 or w2 < 0.0:
        raise ParameterDomainError(f"arguments must be nonnegative, got ({w1}, {w2})")
    return w2 / (w2 + 1.0) - 2.0 * (1.0 / (w1 + 2.0) - 1.0 / (w1 + 2.0 * w2 + 2.0))


def _poisson_weights(
    spec: KernelSpec, thetas: np.ndarray, ts: np.ndarray, ns: np.ndarray
) -> np.ndarray:
    """P(N_t = n | theta) per theta (rows) and (t, n) point (columns) for a constant
    exponential kernel: the Poisson pmf at lam = theta*a*t."""
    lam = np.multiply.outer(np.asarray(thetas, dtype=np.float64), spec.rate_map.a * ts)
    lgam = np.array([math.lgamma(n + 1.0) for n in ns.tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):  # n = 0 at lam = 0 takes exp(-lam)
        logp = ns * np.log(lam) - lam - lgam
    return np.where(ns == 0, np.exp(-lam), np.exp(logp))


def validate_count(model: MrpModel, t: float, n: int) -> tuple:
    """(t, n) with n as an int, or the typed error a count query at (t, n) on
    `model` raises."""
    if not model.is_proper_mrp:
        raise UnsupportedModelError(
            "count law has no product form for an index-dependent kernel family"
        )
    if n < 0 or n != int(n):
        raise ConfigurationError(f"count must be a nonnegative integer, got {n!r}")
    if not 0.0 <= t < math.inf:  # false for NaN too
        raise ConfigurationError(f"time must be finite and nonnegative, got {t!r}")
    return t, int(n)


def count_pmfs(
    model: MrpModel, points: Sequence[tuple], cfg: QuadratureConfig = DEFAULT_CONFIG
) -> list[ExactResult]:
    """P(N_t = n) for each (t, n) point, in order, for a proper (constant-family) model.

    Uses P(N_t = n) = integral of [F_{T_n}(t; theta) - F_{T_{n+1}}(t; theta)]
    over the mixing measure, where T_n given theta is a gamma law whose shape
    accumulates over the n summed interarrivals.  For an exponential kernel
    the bracket is the Poisson weight, which is integrated directly: the
    difference of two CDFs near 1 would lose every digit of a small pmf.
    Every point is validated before any is answered; t = 0 is a boundary
    value, and the other points of a batch share one mixing integral, in
    batches as in `joint_interarrival_probabilities`.
    """
    points = [validate_count(model, t, n) for t, n in points]
    spec, mixing = model.kernel, model.mixing
    # given theta the count weight has the shape theta**(n*shape) * exp(-a*t*theta);
    # only one-dimensional mixing reads a tilt, and there the shape is the fixed one
    shape = float(spec.shape or 1.0) if mixing.dim == 1 else 1.0

    def answer(batch: list) -> list[ExactResult]:
        results = [ExactResult(1.0 if n == 0 else 0.0, 0.0, "boundary") for _, n in batch]
        live = [i for i, (t, _) in enumerate(batch) if t > 0.0]
        if not live:
            return results
        ts = np.array([batch[i][0] for i in live], dtype=np.float64)
        ns = np.array([batch[i][1] for i in live])

        def g(thetas: np.ndarray) -> np.ndarray:
            if spec.family == "exponential":
                return _poisson_weights(spec, thetas, ts, ns)
            # T_n given theta sums n interarrivals of the constant family
            terms = np.stack([ns, ns + 1], axis=1).ravel()
            cdf = kernel_cdf_batch(spec, 1, thetas, np.repeat(ts, 2), n_terms=terms)
            return cdf[:, 0::2] - cdf[:, 1::2]

        tilts = [(batch[i][1] * shape, spec.rate_map.a * batch[i][0]) for i in live]
        res = mixing.integrate(g, cfg, tilts=tilts)
        errors = [8.0 * _EPS] * len(live) if mixing.is_atomic else res.error
        for i, result in zip(live, _batch(res, errors, _method(mixing))):
            results[i] = result
        return results

    return _in_batches(model, points, answer)


def count_pmf(
    model: MrpModel, t: float, n: int, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> ExactResult:
    """P(N_t = n) for a proper (constant-family) model.

    `count_pmfs` on a batch of one; non-convergence raises
    :class:`AccuracyError` carrying the best estimate.
    """
    return require_converged(count_pmfs(model, [(t, n)], cfg)[0], cfg)


# ---------------------------------------------------------------------------
# density-form evaluation route (independent of the CDF implementation)
# ---------------------------------------------------------------------------


def _gamma_mass_below_vec(rates, shapes, xs, cfg: QuadratureConfig):
    """Gamma(rate, shape) mass of (0, x] per lane, by quadrature of the density.

    The arguments broadcast to one lane shape.  Substituting
    omega = x * w**(2/s) puts every lane on [0, 1],

        G(x) = (rate*x)**s / Gamma(s+1) * integral_0^1 2w exp(-rate*x*w**(2/s)) dw,

    so all lanes share one vector-valued adaptive integral, which refines
    every lane wherever any needs it.  The power 2/s (1/s in v = w**2) keeps
    the integrand's singular power at the origin weak and a lane's mass
    there wide, about (rate*x)**(-s/2), so few panels gather at 0.  Returns
    (mass, per-lane error bound, converged); x <= 0 holds mass 0 and x = inf
    mass 1.
    """
    rates, shapes, xs = np.broadcast_arrays(rates, shapes, xs)
    mass = np.where(xs > 0.0, 1.0, 0.0)
    err = np.zeros(mass.shape)
    lanes = (xs > 0.0) & (xs < math.inf)
    if not lanes.any():
        return mass, err, True
    c, s = rates[lanes] * xs[lanes], shapes[lanes]
    neg_c, power = -c, 2.0 / s

    def integrand(w: np.ndarray) -> np.ndarray:
        # exp(-c * w**power) * 2w, computed in place
        with np.errstate(divide="ignore", under="ignore"):
            out = np.multiply.outer(np.log(w), power)
            np.exp(out, out=out)
            out *= neg_c
            np.exp(out, out=out)
            out *= 2.0 * w[:, None]
        return out

    res = adaptive_gauss_kronrod(integrand, 0.0, 1.0, cfg)
    with np.errstate(divide="ignore"):  # c = 0 (a zero rate) holds mass 0
        const = np.exp(s * np.log(c) - per_shape(math.lgamma, s + 1.0))
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
    method = _method(mixing, "density-form")
    clip = None if theta_set is None else _theta_clip(mixing, theta_set)
    if clip and any(lo >= hi for lo, hi in clip):
        return ExactResult(0.0, 0.0, method)
    inner_cfg = cfg.tighter()
    indices, xs, lower = _box_columns(query)
    factor_err, factor_ok = 0.0, True

    def g(thetas: np.ndarray) -> np.ndarray:
        # a theta's factor error bound is the sum of its columns' bounds
        nonlocal factor_err, factor_ok
        mass, err, ok = _gamma_mass_below_vec(*kernel_law(spec, indices, thetas), xs, inner_cfg)
        factor_err, factor_ok = max(factor_err, float(err.sum(axis=1).max())), factor_ok and ok
        return _box_product(mass, lower)

    res = mixing.integrate(g, cfg, clip)
    return require_converged(_batch(res, res.error + factor_err, method, factor_ok)[0], cfg)
