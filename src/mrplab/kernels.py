"""Parameterized distribution kernels and mixing measures.

Conventions
-----------
Gamma parameters are **rate first, shape second**: ``Gamma(rate, shape)`` has
density ``rate**shape / Gamma(shape) * x**(shape-1) * exp(-rate*x)``.  Many
libraries use scale instead of rate; everything in this package (kernels,
mixing measures, model files) is rate-first.

A kernel family is indexed: the law at index ``n`` uses the effective rate
``(a + b*n) * theta_rate``.  A constant family (``b == 0``) has the same law
at every index; ``b != 0`` expresses index-dependent families such as an
exponential kernel whose rate scales with the index.

Sampling is reproducible from a single uniform stream: exponentials by
inverse CDF, gammas by the Marsaglia-Tsang squeeze (with the shape<1 boost).
Scalar and batch sampling share one code path, so they agree bitwise for the
same stream; so do scalar and batch CDF evaluation.

A mixing measure is either finite and atomic (`DiscreteMixing`, with
`DiracMixing` its one-atom case) or a product of one-dimensional marginals
(`ProductRectangleMixing`, with `GammaMixing` its one-gamma case).  Each
marginal carries the quadrature rule that integrates a function against it;
the exact routes and the mass check both use that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigurationError,
    ParameterDomainError,
    UnsupportedOperationError,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureResult,
    adaptive_gauss_kronrod,
    integrate_half_line,
)
from .rng import StreamBank, UniformStream
from .special import regularized_incomplete_gamma

KERNEL_FAMILIES = ("exponential", "gamma")

# shape tag tying a gamma kernel's shape to the second parameter component
SHAPE_FROM_THETA2 = "theta2"

# a gamma marginal's initial tail breakpoint lies where its density falls
# below peak * cfg.abs_tol * _TAIL_CUT_RATIO
_TAIL_CUT_RATIO = 1e-3


# ---------------------------------------------------------------------------
# kernel specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateMap:
    """Affine index-to-rate-multiplier map: multiplier(n) = a + b*n."""

    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigurationError("rate_map coefficients must be finite")
        if self.b < 0.0 or self.a < 0.0 or self.a + self.b <= 0.0:
            raise ConfigurationError(
                f"rate_map must give a positive multiplier for every index >= 1, "
                f"got a={self.a}, b={self.b}"
            )

    def multiplier(self, index: int) -> float:
        return self.a + self.b * index

    @property
    def is_constant(self) -> bool:
        return self.b == 0.0

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b}


@dataclass(frozen=True)
class KernelSpec:
    """An indexed family of one-dimensional distributions parameterized by theta."""

    family: str
    rate_map: RateMap = field(default_factory=RateMap)
    shape: Optional[Union[float, str]] = None

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ConfigurationError(
                f"unknown kernel family {self.family!r}; expected one of {KERNEL_FAMILIES}"
            )
        if self.family == "gamma":
            if self.shape is None:
                raise ConfigurationError("gamma kernel requires a shape")
            if isinstance(self.shape, str):
                if self.shape != SHAPE_FROM_THETA2:
                    raise ConfigurationError(
                        f"gamma shape must be a positive number or {SHAPE_FROM_THETA2!r}"
                    )
            elif not self.shape > 0.0:
                raise ConfigurationError(f"gamma shape must be positive, got {self.shape}")
        elif self.shape is not None:
            raise ConfigurationError(f"{self.family} kernel takes no shape parameter")

    @property
    def param_dim(self) -> int:
        return 2 if self.shape == SHAPE_FROM_THETA2 else 1

    @property
    def is_constant_family(self) -> bool:
        return self.rate_map.is_constant

    def to_dict(self) -> dict:
        d: dict = {"family": self.family, "rate_map": self.rate_map.to_dict()}
        if self.shape is not None:
            d["shape"] = self.shape
        return d


def _coerce_theta(spec: KernelSpec, theta) -> tuple:
    if np.isscalar(theta):
        pt = (float(theta),)
    else:
        pt = tuple(float(v) for v in theta)
    if len(pt) != spec.param_dim:
        raise ParameterDomainError(
            f"theta has {len(pt)} component(s); kernel expects {spec.param_dim}"
        )
    if not pt[0] > 0.0:
        raise ParameterDomainError(
            f"kernel rate parameter must be positive: component 0 of theta is {pt[0]}"
        )
    if spec.param_dim == 2 and not pt[1] > 0.0:
        raise ParameterDomainError(
            f"kernel shape parameter must be positive: component 1 of theta is {pt[1]}"
        )
    return pt


def _check_index(index: int) -> int:
    if not isinstance(index, (int, np.integer)) or index < 1:
        raise ParameterDomainError(f"kernel index must be a positive integer, got {index!r}")
    return int(index)


def _rate_and_shape(spec: KernelSpec, index: int, theta: tuple) -> tuple[float, Optional[float]]:
    rate = spec.rate_map.multiplier(index) * theta[0]
    if spec.family == "gamma":
        shape = theta[1] if spec.shape == SHAPE_FROM_THETA2 else float(spec.shape)
        return rate, shape
    return rate, None


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------


def kernel_cdf(spec: KernelSpec, index: int, theta, x: float) -> float:
    """CDF of the index-n member of the kernel family at parameter theta.

    Right-continuous and nondecreasing in x; 0 for x <= 0, since the mass
    lives on the open half line.
    """
    pt = _coerce_theta(spec, theta)
    return float(kernel_cdf_batch(spec, index, np.array([pt]), float(x))[0])


def kernel_cdf_batch(spec: KernelSpec, index, thetas: np.ndarray, x, n_terms=1) -> np.ndarray:
    """Vectorized `kernel_cdf` over an array of parameter points.

    `thetas` has shape (n,) or (n, d), one parameter point per row (d = 2 for
    gamma kernels with shape tied to the second component).  With a scalar
    `x` the result has shape (n,).  With a sequence `x` of length m it has
    shape (n, m): column j holds the CDF at x[j] of the sum of n_terms[j]
    independent draws of member index[j], a gamma law with n_terms[j] times
    the kernel's shape (n_terms = 0 is the point mass at 0).  A scalar
    `index` or `n_terms` applies to every column.  All columns come from one
    vectorized evaluation (one incomplete-gamma call for gamma kernels).
    """
    columns = np.ndim(x) > 0
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    idx = np.atleast_1d(index)
    if idx.dtype.kind not in "iu" or np.any(idx < 1):
        raise ParameterDomainError(f"kernel index must be a positive integer, got {index!r}")
    if idx.size not in (1, xs.size):
        raise ParameterDomainError("kernel_cdf_batch needs one index per evaluation point")
    mult = spec.rate_map.a + spec.rate_map.b * np.broadcast_to(idx, xs.shape)
    terms = np.broadcast_to(np.asarray(n_terms, dtype=np.float64), xs.shape)
    th = np.asarray(thetas, dtype=np.float64)
    base = th[:, 0] if th.ndim == 2 else th
    out = np.zeros((base.shape[0], xs.size))
    out[:, (xs == math.inf) | ((terms == 0.0) & (xs >= 0.0))] = 1.0
    cols = (xs > 0.0) & (xs < math.inf) & (terms > 0.0)
    if cols.any():
        rates = base[:, None] * mult[cols]
        if spec.family == "exponential" and np.all(terms[cols] == 1.0):
            out[:, cols] = -np.expm1(-(rates * xs[cols]))
        else:  # the exponential law is the gamma law of shape 1
            shape = th[:, 1:2] if spec.shape == SHAPE_FROM_THETA2 else float(spec.shape or 1.0)
            out[:, cols] = regularized_incomplete_gamma(shape * terms[cols], rates * xs[cols])
    return out if columns else out[:, 0]


def kernel_pdf(spec: KernelSpec, index: int, theta, x: float) -> float:
    """Density of the index-n kernel member at theta."""
    index = _check_index(index)
    pt = _coerce_theta(spec, theta)
    rate, shape = _rate_and_shape(spec, index, pt)
    if not x > 0.0:
        return 0.0
    if spec.family == "exponential":
        return rate * math.exp(-rate * x)
    return math.exp(
        shape * math.log(rate)
        - math.lgamma(shape)
        + (shape - 1.0) * math.log(x)
        - rate * x
    )


# ---------------------------------------------------------------------------
# samplers (single uniform stream, deterministic consumption)
# ---------------------------------------------------------------------------


def _exponential_from_bank(bank: StreamBank, rates: np.ndarray, lanes=None) -> np.ndarray:
    u = bank.draw(lanes)
    return -np.log1p(-u) / rates


def _gamma_from_bank(bank: StreamBank, shapes: np.ndarray, rates: np.ndarray, lanes=None) -> np.ndarray:
    """Marsaglia-Tsang gamma draws; 3 uniforms per attempt, +1 for shape < 1."""
    if lanes is None:
        lanes = np.arange(len(bank))
    shapes = np.broadcast_to(np.asarray(shapes, dtype=np.float64), lanes.shape).copy()
    rates = np.broadcast_to(np.asarray(rates, dtype=np.float64), lanes.shape).copy()
    boost = shapes < 1.0
    s_eff = np.where(boost, shapes + 1.0, shapes)
    d = s_eff - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    x = np.empty(lanes.shape, dtype=np.float64)
    pending = np.ones(lanes.shape, dtype=bool)
    while pending.any():
        rel = np.flatnonzero(pending)
        sub = lanes[rel]
        u1 = bank.draw(sub)
        u2 = bank.draw(sub)
        u3 = bank.draw(sub)
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        t = 1.0 + c[rel] * z
        v = t * t * t
        ok = v > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            squeeze = u3 < 1.0 - 0.0331 * z**4
            full = np.log(u3) < 0.5 * z * z + d[rel] * (1.0 - v + np.log(np.where(ok, v, 1.0)))
        accept = ok & (squeeze | full)
        acc = rel[accept]
        x[acc] = d[acc] * v[accept]
        pending[acc] = False
    if boost.any():
        rel = np.flatnonzero(boost)
        ub = bank.draw(lanes[rel])
        x[rel] *= ub ** (1.0 / shapes[rel])
    return x / rates


def kernel_sample_batch(
    spec: KernelSpec, index: int, thetas: np.ndarray, bank: StreamBank, lanes=None
) -> np.ndarray:
    """One draw of the index-n kernel member per bank lane, at per-lane thetas.

    With `lanes` (an index array) only those lanes draw, one theta row each,
    and only their stream counters advance.
    """
    index = _check_index(index)
    th = np.asarray(thetas, dtype=np.float64)
    rates = (th[:, 0] if th.ndim == 2 else th) * spec.rate_map.multiplier(index)
    if np.any(rates <= 0.0):
        raise ParameterDomainError("kernel rate parameter must be positive for every lane")
    if spec.family == "exponential":
        return _exponential_from_bank(bank, rates, lanes)
    if spec.shape == SHAPE_FROM_THETA2:
        shapes = th[:, 1]
        if np.any(shapes <= 0.0):
            raise ParameterDomainError("kernel shape parameter must be positive for every lane")
    else:
        shapes = np.full(rates.shape, float(spec.shape))
    return _gamma_from_bank(bank, shapes, rates, lanes)


def kernel_sample(spec: KernelSpec, index: int, theta, rng: UniformStream) -> float:
    """One draw of the index-n kernel member at theta, from a seeded stream."""
    pt = _coerce_theta(spec, theta)
    return float(kernel_sample_batch(spec, index, np.array([pt]), rng.bank)[0])


# ---------------------------------------------------------------------------
# mixing measures
# ---------------------------------------------------------------------------


def _weighted(w: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """w(x) * g(x) for a scalar-valued g (shape (n,)) or a vector-valued one (n, m)."""
    return w[:, None] * gx if gx.ndim == 2 else w * gx


class Marginal:
    """One-dimensional component of a product mixing measure."""

    kind: str

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def density_batch(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample_batch(self, bank: StreamBank) -> np.ndarray:
        raise NotImplementedError

    def integrate(
        self, g, cfg: QuadratureConfig = DEFAULT_CONFIG, clip=None, breakpoints=()
    ) -> QuadratureResult:
        """integral of density(x) * g(x) over the support, or its part inside `clip`.

        `g` is a bounded vectorized function, scalar valued (shape (n,) on n
        nodes) or vector valued (n, m).  `breakpoints` are extra panel edges
        (in x) where g is known to change fast.
        """
        raise NotImplementedError

    def _integrate_density(self, g, lo, hi, cfg, breakpoints) -> QuadratureResult:
        """integral of density(x) * g(x) over [lo, hi] in x coordinates.

        hi = inf maps the half line onto (0, 1) at the scale of the mean.
        """

        def f(x):
            return _weighted(self.density_batch(x), g(x))

        if hi == math.inf:
            return integrate_half_line(f, lo, self.mean(), cfg, breakpoints)
        return adaptive_gauss_kronrod(f, lo, hi, cfg, breakpoints)

    def contains(self, x: float) -> bool:
        lo, hi = self.support()
        return lo <= x <= hi

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformMarginal(Marginal):
    lo: float
    hi: float
    kind: str = field(default="uniform", init=False)

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ConfigurationError(f"uniform marginal needs lo < hi, got ({self.lo}, {self.hi})")

    def support(self):
        return (self.lo, self.hi)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def density_batch(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def sample_batch(self, bank):
        return self.lo + bank.draw() * (self.hi - self.lo)

    def integrate(self, g, cfg=DEFAULT_CONFIG, clip=None, breakpoints=()):
        lo, hi = self.support()
        if clip is not None:
            lo, hi = max(lo, clip[0]), min(hi, clip[1])
        return self._integrate_density(g, lo, hi, cfg, breakpoints)

    def to_dict(self):
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class GammaMarginal(Marginal):
    rate: float
    shape: float
    kind: str = field(default="gamma", init=False)

    def __post_init__(self):
        if not (self.rate > 0.0 and self.shape > 0.0):
            raise ConfigurationError(
                f"gamma marginal needs positive rate and shape, got ({self.rate}, {self.shape})"
            )

    def support(self):
        return (0.0, math.inf)

    def mean(self):
        return self.shape / self.rate

    def density_batch(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        pos = x > 0.0
        if pos.any():
            with np.errstate(under="ignore"):
                out[pos] = np.exp(
                    self.shape * math.log(self.rate)
                    - math.lgamma(self.shape)
                    + (self.shape - 1.0) * np.log(x[pos])
                    - self.rate * x[pos]
                )
        return out

    def sample_batch(self, bank):
        n = len(bank)
        return _gamma_from_bank(bank, np.full(n, self.shape), np.full(n, self.rate))

    def _tail_cut(self, cfg: QuadratureConfig) -> float:
        mean = self.mean()
        ref = max(mean, (self.shape - 1.0) / self.rate if self.shape > 1.0 else mean)
        peak = float(self.density_batch(np.array([ref]))[0])
        threshold = peak * cfg.abs_tol * _TAIL_CUT_RATIO
        cut = max(ref, mean)
        for _ in range(80):
            cut *= 2.0
            if float(self.density_batch(np.array([cut]))[0]) < threshold:
                break
        return cut

    def integrate(self, g, cfg=DEFAULT_CONFIG, clip=None, breakpoints=()):
        lo = 0.0 if clip is None else max(0.0, clip[0])
        hi = math.inf if clip is None else clip[1]
        a, gam = self.shape, self.rate
        cut = self._tail_cut(cfg)
        if a >= 1.0:  # the density is bounded
            return self._integrate_density(g, lo, hi, cfg, [self.mean(), cut, *breakpoints])
        # v = x**a coordinates absorb the power factor of the density exactly
        const = math.exp(a * math.log(gam) - math.lgamma(a)) / a

        def fv(v):
            with np.errstate(over="ignore", under="ignore"):
                x = v ** (1.0 / a)
                return _weighted(const * np.exp(-gam * x), g(x))

        vlo = lo**a
        vbreaks = [p**a for p in breakpoints]
        if math.isfinite(hi):
            return adaptive_gauss_kronrod(fv, vlo, hi**a, cfg, [self.mean() ** a, *vbreaks])
        scale = max(self.mean() ** a - vlo, self.mean() ** a * 0.5)
        return integrate_half_line(fv, vlo, scale, cfg, [cut**a, *vbreaks])

    def to_dict(self):
        return {"kind": "gamma", "rate": self.rate, "shape": self.shape}


@dataclass(frozen=True)
class BetaMarginal(Marginal):
    a: float
    b: float
    kind: str = field(default="beta", init=False)

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ConfigurationError(f"beta marginal needs positive (a, b), got ({self.a}, {self.b})")

    def support(self):
        return (0.0, 1.0)

    def mean(self):
        return self.a / (self.a + self.b)

    def _log_norm(self) -> float:
        return math.lgamma(self.a) + math.lgamma(self.b) - math.lgamma(self.a + self.b)

    def density_batch(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x < 1.0)
        if inside.any():
            xi = x[inside]
            out[inside] = np.exp(
                (self.a - 1.0) * np.log(xi) + (self.b - 1.0) * np.log1p(-xi) - self._log_norm()
            )
        return out

    def sample_batch(self, bank):
        n = len(bank)
        ones = np.ones(n)
        g1 = _gamma_from_bank(bank, np.full(n, self.a), ones)
        g2 = _gamma_from_bank(bank, np.full(n, self.b), ones)
        return g1 / (g1 + g2)

    def integrate(self, g, cfg=DEFAULT_CONFIG, clip=None, breakpoints=()):
        lo = 0.0 if clip is None else max(0.0, clip[0])
        hi = 1.0 if clip is None else min(1.0, clip[1])
        if lo > 0.0 and hi < 1.0:
            return self._integrate_density(g, lo, hi, cfg, breakpoints)
        # split at the midpoint and desingularize each endpoint with a power substitution
        a, b = self.a, self.b
        norm = math.exp(-self._log_norm())
        mid = 0.5 * (lo + hi)

        def left(v):  # v = x**a
            x = v ** (1.0 / a)
            return _weighted(norm / a * (1.0 - x) ** (b - 1.0), g(x))

        def right(v):  # v = (1-x)**b
            x = 1.0 - v ** (1.0 / b)
            return _weighted(norm / b * np.maximum(x, 0.0) ** (a - 1.0), g(x))

        r1 = adaptive_gauss_kronrod(left, lo**a, mid**a, cfg, [p**a for p in breakpoints])
        r2 = adaptive_gauss_kronrod(
            right, (1.0 - hi) ** b, (1.0 - mid) ** b, cfg, [(1.0 - p) ** b for p in breakpoints]
        )
        return QuadratureResult(
            r1.value + r2.value, r1.error + r2.error, r1.n_panels + r2.n_panels,
            r1.converged and r2.converged,
        )

    def to_dict(self):
        return {"kind": "beta", "a": self.a, "b": self.b}


class MixingMeasure:
    """A probability measure on the parameter space (a box in R^d)."""

    kind: str

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def is_atomic(self) -> bool:
        raise NotImplementedError

    def support_box(self) -> tuple[tuple[float, float], ...]:
        raise NotImplementedError

    def mean_point(self) -> tuple[float, ...]:
        raise NotImplementedError

    def sample_batch(self, bank: StreamBank) -> np.ndarray:
        """(n_lanes, dim) array of parameter draws."""
        raise NotImplementedError

    def contains(self, theta: tuple) -> bool:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ProductRectangleMixing(MixingMeasure):
    """Product of independent one-dimensional laws on an axis-aligned box."""

    marginals: tuple
    kind = "product_rectangle"

    def __post_init__(self):
        ms = tuple(self.marginals)
        if not ms or not all(isinstance(m, Marginal) for m in ms):
            raise ConfigurationError("product_rectangle mixing needs at least one marginal")
        object.__setattr__(self, "marginals", ms)

    @property
    def dim(self):
        return len(self.marginals)

    @property
    def is_atomic(self):
        return False

    def support_box(self):
        return tuple(m.support() for m in self.marginals)

    def mean_point(self):
        return tuple(m.mean() for m in self.marginals)

    def density_batch(self, thetas: np.ndarray) -> np.ndarray:
        th = np.asarray(thetas, dtype=np.float64)
        if th.ndim == 1:
            th = th[:, None]
        dens = np.ones(th.shape[0])
        for j, m in enumerate(self.marginals):
            dens *= m.density_batch(th[:, j])
        return dens

    def sample_batch(self, bank):
        return np.column_stack([m.sample_batch(bank) for m in self.marginals])

    def contains(self, theta):
        return len(theta) == self.dim and all(
            m.contains(v) for m, v in zip(self.marginals, theta)
        )

    def to_dict(self):
        return {"kind": "product_rectangle", "marginals": [m.to_dict() for m in self.marginals]}


class GammaMixing(ProductRectangleMixing):
    """Gamma mixing law on (0, inf), rate-first: density rate**shape/Gamma(shape) * t**(shape-1) * exp(-rate*t).

    A product mixing over one `GammaMarginal`.  It keeps its own model-file
    spelling, and so its own model hash, and it excludes theta = 0.
    """

    kind = "gamma"

    def __init__(self, rate: float, shape: float):
        super().__init__((GammaMarginal(rate, shape),))

    @property
    def rate(self) -> float:
        return self.marginals[0].rate

    @property
    def shape(self) -> float:
        return self.marginals[0].shape

    def contains(self, theta):
        return len(theta) == 1 and theta[0] > 0.0

    def to_dict(self):
        return {"kind": "gamma", "rate": self.rate, "shape": self.shape}


@dataclass(frozen=True)
class DiscreteMixing(MixingMeasure):
    atoms: tuple
    weights: tuple
    kind = "discrete"

    def __post_init__(self):
        atoms = tuple(
            (a,) if np.isscalar(a) else tuple(float(v) for v in a) for a in self.atoms
        )
        weights = tuple(float(w) for w in self.weights)
        if not atoms or len(atoms) != len(weights):
            raise ConfigurationError("discrete mixing needs matching atoms and weights")
        if len({len(a) for a in atoms}) != 1:
            raise ConfigurationError("discrete atoms must share one dimension")
        if not all(math.isfinite(v) for a in atoms for v in a):
            raise ConfigurationError("discrete atoms must be finite")
        if any(w < 0.0 for w in weights):
            raise ConfigurationError("discrete weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ConfigurationError(
                f"discrete weights must sum to 1 exactly, got {sum(weights)!r}"
            )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self):
        return len(self.atoms[0])

    @property
    def is_atomic(self):
        return True

    def support_box(self):
        arr = np.asarray(self.atoms, dtype=np.float64)
        return tuple((float(lo), float(hi)) for lo, hi in zip(arr.min(0), arr.max(0)))

    def mean_point(self):
        arr = np.asarray(self.atoms, dtype=np.float64)
        w = np.asarray(self.weights)
        return tuple(float(v) for v in w @ arr)

    def sample_batch(self, bank):
        u = bank.draw()
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, u, side="left")
        idx = np.minimum(idx, len(self.atoms) - 1)
        return np.asarray(self.atoms, dtype=np.float64)[idx]

    def contains(self, theta):
        return tuple(theta) in self.atoms

    def to_dict(self):
        atoms = [a[0] if self.dim == 1 else list(a) for a in self.atoms]
        return {"kind": "discrete", "atoms": atoms, "weights": list(self.weights)}


class DiracMixing(DiscreteMixing):
    """Point mass at `point`: a one-atom discrete measure.

    Its sampler draws no uniform, where a one-atom `DiscreteMixing` draws one
    per lane, so simulated interarrivals keep their stream positions.
    """

    kind = "dirac"

    def __init__(self, point):
        super().__init__((point,), (1.0,))

    @property
    def point(self) -> tuple:
        return self.atoms[0]

    def sample_batch(self, bank):
        return np.tile(np.asarray(self.point, dtype=np.float64), (len(bank), 1))

    def to_dict(self):
        return {"kind": "dirac", "point": self.point[0] if self.dim == 1 else list(self.point)}


# ---------------------------------------------------------------------------
# module-level operations on mixing measures
# ---------------------------------------------------------------------------


def mixing_sample(mu: MixingMeasure, rng: UniformStream):
    """One parameter draw; a float for one-dimensional measures, else a tuple."""
    row = mu.sample_batch(rng.bank)[0]
    return float(row[0]) if mu.dim == 1 else tuple(float(v) for v in row)


def mixing_density(mu: MixingMeasure, theta) -> float:
    """Density of a continuous mixing measure at theta (0 outside the support)."""
    if mu.is_atomic:
        raise UnsupportedOperationError(f"{mu.kind} mixing has no density")
    pt = np.asarray([theta] if np.isscalar(theta) else list(theta), dtype=np.float64)
    if pt.shape[0] != mu.dim:
        raise ParameterDomainError(f"theta has {pt.shape[0]} component(s); mixing has dim {mu.dim}")
    return float(mu.density_batch(pt[None, :] if mu.dim > 1 else pt)[0])


def verify_mixing_mass(mu: MixingMeasure, tol: float = 1e-8) -> float:
    """Check the total mass of a mixing measure; returns the computed mass.

    Atomic kinds are exact by construction (validated at build time); each
    marginal of a product is integrated by the rule the exact routes use,
    at `DEFAULT_CONFIG`, and the product of the masses must match 1 within tol.
    """
    if mu.is_atomic:
        return 1.0
    results = [m.integrate(np.ones_like) for m in mu.marginals]
    total = float(np.prod([res.scalar_value for res in results]))
    if not all(res.converged for res in results) or abs(total - 1.0) > tol:
        raise ConfigurationError(
            f"mixing density mass {total!r} deviates from 1 by more than {tol}"
        )
    return total
