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
inverse CDF, gammas by the Marsaglia-Tsang squeeze (with the shape<1 boost),
Poisson by CDF inversion.  Scalar and batch sampling share one code path, so
they agree bitwise for the same stream.
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
from .quadrature import QuadratureResult, adaptive_gauss_kronrod, integrate_half_line
from .rng import StreamBank, UniformStream
from .special import regularized_incomplete_gamma, regularized_incomplete_gamma_upper

KERNEL_FAMILIES = ("exponential", "gamma", "poisson")

# shape tag tying a gamma kernel's shape to the second parameter component
SHAPE_FROM_THETA2 = "theta2"

_POISSON_MEAN_CAP = 700.0  # exact CDF-inversion sampler; e**-mean underflows beyond


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
    def positive_support(self) -> bool:
        """True when the kernel puts mass 1 on (0, inf); Poisson lives on N0."""
        return self.family in ("exponential", "gamma")

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

    Right-continuous and nondecreasing in x; 0 for x < 0 on positive-support
    kernels (and at x = 0, since the mass lives on the open half line).
    """
    index = _check_index(index)
    pt = _coerce_theta(spec, theta)
    rate, shape = _rate_and_shape(spec, index, pt)
    if spec.family == "exponential":
        if x <= 0.0:
            return 0.0
        return -math.expm1(-rate * x)
    if spec.family == "gamma":
        if x <= 0.0:
            return 0.0
        return float(regularized_incomplete_gamma(shape, rate * x))
    # poisson: support N0, jumps at the integers
    if x < 0.0:
        return 0.0
    k = math.floor(x)
    return float(regularized_incomplete_gamma_upper(k + 1.0, rate))


def kernel_cdf_batch(spec: KernelSpec, index, thetas: np.ndarray, x) -> np.ndarray:
    """Vectorized `kernel_cdf` over an array of parameter points.

    `thetas` has shape (n,) for one-component parameters or (n, 2) for gamma
    kernels with shape tied to the second component.  With a scalar `index`
    and `x` the result has shape (n,).  `index` and `x` may instead be
    equal-length sequences, one entry per column: the result then has shape
    (n, m), column j holding the CDF of member index[j] at x[j], all from one
    vectorized evaluation (one incomplete-gamma call for gamma kernels).
    """
    columns = np.ndim(x) > 0
    indices = [_check_index(k) for k in np.atleast_1d(index)]
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if len(indices) != xs.size:
        raise ParameterDomainError("kernel_cdf_batch needs one index per evaluation point")
    th = np.asarray(thetas, dtype=np.float64)
    base = th[:, 0] if th.ndim == 2 else th
    mult = np.array([spec.rate_map.multiplier(k) for k in indices])
    out = np.zeros((base.shape[0], xs.size))
    out[:, xs == math.inf] = 1.0
    cols = (xs > 0.0) & (xs < math.inf) if spec.positive_support else (xs >= 0.0) & (xs < math.inf)
    if cols.any():
        rates = base[:, None] * mult[cols]
        if spec.family == "exponential":
            out[:, cols] = -np.expm1(-(rates * xs[cols]))
        elif spec.family == "gamma":
            shapes = th[:, 1:2] if spec.shape == SHAPE_FROM_THETA2 else float(spec.shape)
            out[:, cols] = regularized_incomplete_gamma(shapes, rates * xs[cols])
        else:  # poisson: support N0, jumps at the integers
            out[:, cols] = regularized_incomplete_gamma_upper(np.floor(xs[cols]) + 1.0, rates)
    return out if columns else out[:, 0]


def kernel_pdf(spec: KernelSpec, index: int, theta, x: float) -> float:
    """Density (pmf for Poisson) of the index-n kernel member at theta."""
    index = _check_index(index)
    pt = _coerce_theta(spec, theta)
    rate, shape = _rate_and_shape(spec, index, pt)
    if spec.family == "exponential":
        return rate * math.exp(-rate * x) if x > 0.0 else 0.0
    if spec.family == "gamma":
        if x <= 0.0:
            return 0.0
        return math.exp(
            shape * math.log(rate)
            - math.lgamma(shape)
            + (shape - 1.0) * math.log(x)
            - rate * x
        )
    if x < 0.0 or x != math.floor(x):
        return 0.0
    k = int(x)
    return math.exp(-rate + k * math.log(rate) - math.lgamma(k + 1.0))


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


def _poisson_from_bank(bank: StreamBank, means: np.ndarray, lanes=None) -> np.ndarray:
    """Poisson draws by CDF inversion; consumes exactly one uniform per lane."""
    if lanes is None:
        lanes = np.arange(len(bank))
    means = np.broadcast_to(np.asarray(means, dtype=np.float64), lanes.shape)
    if np.any(means > _POISSON_MEAN_CAP):
        raise ParameterDomainError(
            f"poisson mean exceeds the exact-inversion sampler cap {_POISSON_MEAN_CAP}"
        )
    u = bank.draw(lanes)
    p = np.exp(-means)
    cum = p.copy()
    k = np.zeros(lanes.shape, dtype=np.int64)
    active = u > cum
    while active.any():
        k[active] += 1
        p = np.where(active, p * means / np.maximum(k, 1), p)
        cum = np.where(active, cum + p, cum)
        active = u > cum
    return k.astype(np.float64)


def kernel_sample_batch(spec: KernelSpec, index: int, thetas: np.ndarray, bank: StreamBank) -> np.ndarray:
    """One draw of the index-n kernel member per bank lane, at per-lane thetas."""
    index = _check_index(index)
    th = np.asarray(thetas, dtype=np.float64)
    rates = (th[:, 0] if th.ndim == 2 else th) * spec.rate_map.multiplier(index)
    if np.any(rates <= 0.0):
        raise ParameterDomainError("kernel rate parameter must be positive for every lane")
    if spec.family == "exponential":
        return _exponential_from_bank(bank, rates)
    if spec.family == "gamma":
        if spec.shape == SHAPE_FROM_THETA2:
            shapes = th[:, 1]
            if np.any(shapes <= 0.0):
                raise ParameterDomainError("kernel shape parameter must be positive for every lane")
        else:
            shapes = np.full(rates.shape, float(spec.shape))
        return _gamma_from_bank(bank, shapes, rates)
    return _poisson_from_bank(bank, rates)


def kernel_sample(spec: KernelSpec, index: int, theta, rng: UniformStream) -> float:
    """One draw of the index-n kernel member at theta, from a seeded stream."""
    pt = _coerce_theta(spec, theta)
    th = np.array([pt]) if spec.param_dim == 2 else np.array([pt[0]])
    return float(kernel_sample_batch(spec, index, th, rng.bank)[0])


# ---------------------------------------------------------------------------
# mixing measures
# ---------------------------------------------------------------------------


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

    def mass_quadrature(self, rel_tol: float = 1e-10, abs_tol: float = 1e-12) -> QuadratureResult:
        raise NotImplementedError

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

    def mass_quadrature(self, rel_tol=1e-10, abs_tol=1e-12):
        return adaptive_gauss_kronrod(
            self.density_batch, self.lo, self.hi, rel_tol=rel_tol, abs_tol=abs_tol
        )

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

    def mass_quadrature(self, rel_tol=1e-10, abs_tol=1e-12):
        # substitute v = x**shape: the integrand becomes smooth at the origin
        a, g = self.shape, self.rate
        const = math.exp(a * math.log(g) - math.lgamma(a)) / a

        def integrand(v):
            with np.errstate(over="ignore", under="ignore"):
                return const * np.exp(-g * v ** (1.0 / a))

        return integrate_half_line(
            integrand,
            0.0,
            self.mean() ** a,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
            theta_breakpoints=[(2.0 * self.mean()) ** a],
        )

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

    def mass_quadrature(self, rel_tol=1e-10, abs_tol=1e-12):
        # split at 1/2 and desingularize each endpoint with a power substitution
        norm = math.exp(-self._log_norm())
        a, b = self.a, self.b

        def left(v):  # v = x**a on (0, (1/2)**a]
            return norm / a * (1.0 - v ** (1.0 / a)) ** (b - 1.0)

        def right(v):  # v = (1-x)**b on (0, (1/2)**b]
            return norm / b * (1.0 - v ** (1.0 / b)) ** (a - 1.0)

        r1 = adaptive_gauss_kronrod(left, 0.0, 0.5**a, rel_tol=rel_tol, abs_tol=abs_tol)
        r2 = adaptive_gauss_kronrod(right, 0.0, 0.5**b, rel_tol=rel_tol, abs_tol=abs_tol)
        return QuadratureResult(
            r1.value + r2.value,
            r1.error + r2.error,
            r1.n_panels + r2.n_panels,
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
class DiracMixing(MixingMeasure):
    point: tuple
    kind: str = field(default="dirac", init=False)

    def __post_init__(self):
        pt = (self.point,) if np.isscalar(self.point) else tuple(float(v) for v in self.point)
        object.__setattr__(self, "point", pt)
        if not all(math.isfinite(v) for v in pt):
            raise ConfigurationError("dirac point must be finite")

    @property
    def dim(self):
        return len(self.point)

    @property
    def is_atomic(self):
        return True

    def support_box(self):
        return tuple((v, v) for v in self.point)

    def mean_point(self):
        return self.point

    def sample_batch(self, bank):
        return np.tile(np.asarray(self.point, dtype=np.float64), (len(bank), 1))

    def contains(self, theta):
        return tuple(theta) == self.point

    def to_dict(self):
        return {"kind": "dirac", "point": self.point[0] if self.dim == 1 else list(self.point)}


@dataclass(frozen=True)
class GammaMixing(MixingMeasure):
    """Gamma mixing law on (0, inf), rate-first: density rate**shape/Gamma(shape) * t**(shape-1) * exp(-rate*t)."""

    rate: float
    shape: float
    kind: str = field(default="gamma", init=False)

    def __post_init__(self):
        # parameter validation delegated to the marginal
        object.__setattr__(self, "_marginal", GammaMarginal(self.rate, self.shape))

    @property
    def marginal(self) -> GammaMarginal:
        return self._marginal

    @property
    def dim(self):
        return 1

    @property
    def is_atomic(self):
        return False

    def support_box(self):
        return ((0.0, math.inf),)

    def mean_point(self):
        return (self.shape / self.rate,)

    def density_batch(self, thetas: np.ndarray) -> np.ndarray:
        return self._marginal.density_batch(thetas)

    def sample_batch(self, bank):
        return self._marginal.sample_batch(bank)[:, None]

    def contains(self, theta):
        return len(theta) == 1 and theta[0] > 0.0

    def to_dict(self):
        return {"kind": "gamma", "rate": self.rate, "shape": self.shape}


@dataclass(frozen=True)
class ProductRectangleMixing(MixingMeasure):
    """Product of independent one-dimensional laws on an axis-aligned box."""

    marginals: tuple
    kind: str = field(default="product_rectangle", init=False)

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


@dataclass(frozen=True)
class DiscreteMixing(MixingMeasure):
    atoms: tuple
    weights: tuple
    kind: str = field(default="discrete", init=False)

    def __post_init__(self):
        atoms = tuple(
            (a,) if np.isscalar(a) else tuple(float(v) for v in a) for a in self.atoms
        )
        weights = tuple(float(w) for w in self.weights)
        if not atoms or len(atoms) != len(weights):
            raise ConfigurationError("discrete mixing needs matching atoms and weights")
        if len({len(a) for a in atoms}) != 1:
            raise ConfigurationError("discrete atoms must share one dimension")
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

    Atomic kinds are exact by construction (validated at build time);
    continuous kinds are integrated by quadrature and must match 1 within tol.
    """
    if mu.is_atomic:
        return 1.0
    if isinstance(mu, GammaMixing):
        res = mu.marginal.mass_quadrature()
        masses = [res.scalar_value]
        ok = res.converged
    else:
        masses, ok = [], True
        for m in mu.marginals:
            res = m.mass_quadrature()
            masses.append(res.scalar_value)
            ok = ok and res.converged
    total = float(np.prod(masses))
    if not ok or abs(total - 1.0) > tol:
        raise ConfigurationError(
            f"mixing density mass {total!r} deviates from 1 by more than {tol}"
        )
    return total
