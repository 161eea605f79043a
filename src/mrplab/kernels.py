"""Parameterized distribution kernels and mixing measures.

Conventions
-----------
Gamma parameters are **rate first, shape second**: ``Gamma(rate, shape)`` has
density ``rate**shape / Gamma(shape) * x**(shape-1) * exp(-rate*x)``, whose log
is `special.gamma_log_density`.  Many libraries use scale instead of rate;
everything in this package (kernels, mixing measures, model files) is rate-first.

A kernel family is indexed, and `kernel_law` alone says what member ``n`` is
at a parameter point: Gamma(rate, shape) with rate ``(a + b*n) * theta_1``
and shape the kernel's fixed one, ``theta_2`` under ``"theta2"``, or 1 for
the exponential kernel.  A constant family (``b == 0``) has the same law at
every index; ``b != 0`` expresses index-dependent families such as an
exponential kernel whose rate scales with the index.  The samplers, the CDF,
the density and every caller outside this module read the law from it.

Sampling is reproducible from a single uniform stream: exponentials by
inverse CDF, gammas by the Marsaglia-Tsang squeeze (with the shape<1 boost).
Scalar and batch sampling share one code path, so they agree bitwise for the
same stream; so do scalar and batch CDF evaluation.

A mixing measure is either finite and atomic (`DiscreteMixing`, with
`DiracMixing` its one-atom case) or a product of one-dimensional marginals
(`ProductRectangleMixing`, with `GammaMixing` its one-gamma case).  Every
measure integrates a function against itself (`MixingMeasure.integrate`): an
atomic measure sums over its atoms, a product runs each marginal's
quadrature rule, iterated in two dimensions.  The exact routes and the mass
check both take their mixing integrals from it.  Where a marginal's mass lies,
untilted or tilted by theta**k * exp(-lam*theta), is its own `edges`, which
seeds the initial panels of its rule: the closed-form mean and spread of the
tilted gamma law for gamma and uniform marginals, a grid scan for beta.  The
rules share one end rule, v = theta**p on a range from 0 (`Marginal.integrate`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigurationError,
    ParameterDomainError,
    UnsupportedModelError,
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
from .special import beta_log_density, gamma_log_density, regularized_incomplete_gamma

KERNEL_FAMILIES = ("exponential", "gamma")

# shape tag tying a gamma kernel's shape to the second parameter component
SHAPE_FROM_THETA2 = "theta2"

# the smallest gamma kernel shape a model may draw with: a shape s < 1 draw
# is scaled by u**(1/s), and the smallest stream uniform, 2**-54, keeps that
# factor a normal double (>= 2**-1022) only for s >= 54/1022
GAMMA_SHAPE_FLOOR = 54.0 / 1022.0


# ---------------------------------------------------------------------------
# kernel specification
# ---------------------------------------------------------------------------


def _real(value, name: str) -> float:
    """`value` as a float, so that models built from ints and from floats hash
    alike.  ConfigurationError for a non-number, and for a bool, which
    `kernel_law` refuses as an index too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _real_fields(obj, names) -> None:
    for name in names:  # fields of a frozen dataclass
        object.__setattr__(obj, name, _real(getattr(obj, name), name))


@dataclass(frozen=True)
class RateMap:
    """Affine index-to-rate-multiplier map: multiplier(n) = a + b*n."""

    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        _real_fields(self, ("a", "b"))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigurationError("rate_map coefficients must be finite")
        if self.b < 0.0 or self.a < 0.0 or self.a + self.b <= 0.0:
            raise ConfigurationError(
                f"rate_map must give a positive multiplier for every index >= 1, "
                f"got a={self.a}, b={self.b}"
            )


@dataclass(frozen=True)
class KernelSpec:
    """An indexed family of one-dimensional distributions parameterized by theta."""

    family: str
    rate_map: RateMap = field(default_factory=RateMap)
    shape: Optional[Union[float, str]] = None

    def __post_init__(self):
        if self.shape is not None and not isinstance(self.shape, str):
            _real_fields(self, ("shape",))
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
            elif not 0.0 < self.shape < math.inf:
                raise ConfigurationError(f"gamma shape must be positive and finite, got {self.shape}")
        elif self.shape is not None:
            raise ConfigurationError(f"{self.family} kernel takes no shape parameter")

    @property
    def param_dim(self) -> int:
        return 2 if self.shape == SHAPE_FROM_THETA2 else 1

    @property
    def is_constant_family(self) -> bool:
        return self.rate_map.b == 0.0

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def theta_tuple(theta) -> tuple:
    """A parameter point as a tuple of floats; a scalar is a point of one component."""
    return (float(theta),) if np.isscalar(theta) else tuple(float(v) for v in theta)


def _coerce_theta(spec: KernelSpec, theta) -> tuple:
    pt = theta_tuple(theta)
    if len(pt) != spec.param_dim:
        raise ParameterDomainError(
            f"theta has {len(pt)} component(s); kernel expects {spec.param_dim}"
        )
    if not 0.0 < pt[0] < math.inf:
        raise ParameterDomainError(
            f"kernel rate parameter must be positive and finite: component 0 of theta is {pt[0]}"
        )
    if spec.param_dim == 2 and not 0.0 < pt[1] < math.inf:
        raise ParameterDomainError(
            f"kernel shape parameter must be positive and finite: component 1 of theta is {pt[1]}"
        )
    return pt


def kernel_law(spec: KernelSpec, index, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(rates, shapes): member `index` of the family at each parameter row is
    Gamma(rate, shape), the exponential law being the gamma law of shape 1.

    rate = (a + b*index) * theta_1; shape = the fixed shape, theta_2 under
    ``"theta2"``, or 1.  `thetas` holds one parameter point per row, shape (n,)
    or (n, d).  An integer `index` gives two arrays of shape (n,), an index
    array of length m two of shape (n, m).  ParameterDomainError unless every
    index is an integer >= 1 and `index` is an integer or a flat array; a
    route with one member passes ``[index]``, so an array there is refused.
    """
    idx = np.asarray(index)
    if idx.ndim > 1 or idx.dtype.kind not in "iu" or np.any(idx < 1):
        got = np.squeeze(idx).tolist()  # ``[index]`` reads as `index`
        raise ParameterDomainError(f"kernel index must be a positive integer, got {got!r}")
    th = np.asarray(thetas, dtype=np.float64)
    base = th[:, 0] if th.ndim == 2 else th
    shape = th[:, 1] if spec.shape == SHAPE_FROM_THETA2 else float(spec.shape or 1.0)
    if idx.ndim:  # one column per index
        base, shape = base[:, None], np.expand_dims(shape, -1)
    rates = base * (spec.rate_map.a + spec.rate_map.b * idx)
    return rates, np.broadcast_to(shape, rates.shape)


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
    if np.isnan(xs).any():
        raise ParameterDomainError("kernel CDF argument must not be NaN")
    if np.size(index) not in (1, xs.size):
        raise ParameterDomainError("kernel_cdf_batch needs one index per evaluation point")
    rates, shapes = kernel_law(spec, np.broadcast_to(index, xs.shape), thetas)
    terms = np.broadcast_to(np.asarray(n_terms, dtype=np.float64), xs.shape)
    out = np.zeros(rates.shape)
    out[:, (xs == math.inf) | ((terms == 0.0) & (xs >= 0.0))] = 1.0
    cols = (xs > 0.0) & (xs < math.inf) & (terms > 0.0)
    if cols.any():
        rx = rates[:, cols] * xs[cols]
        if spec.family == "exponential" and np.all(terms[cols] == 1.0):
            out[:, cols] = -np.expm1(-rx)
        else:
            out[:, cols] = regularized_incomplete_gamma(shapes[:, cols] * terms[cols], rx)
    return out if columns else out[:, 0]


def kernel_pdf(spec: KernelSpec, index: int, theta, x: float) -> float:
    """Density of the index-n kernel member at theta."""
    rates, shapes = kernel_law(spec, [index], np.array([_coerce_theta(spec, theta)]))
    if math.isnan(x):
        raise ParameterDomainError("kernel density argument must not be NaN")
    if not x > 0.0:
        return 0.0
    return math.exp(gamma_log_density(rates[0, 0], shapes[0, 0], x))


# ---------------------------------------------------------------------------
# samplers (single uniform stream, deterministic consumption)
# ---------------------------------------------------------------------------


def _exponential_from_bank(bank: StreamBank, rates: np.ndarray, lanes=None) -> np.ndarray:
    u = bank.draw(lanes)
    return -np.log1p(-u) / rates


# half-width of the band around the squeeze bound, relative to the size
# 1 + 0.0331*z**4 of its terms: (z*z)*(z*z) and numpy's z**4 differ by a few
# ulps, far inside it
_SQUEEZE_GUARD = 2.0**-40


def _squeeze_accepts(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``u < 1 - 0.0331 * z**4`` on every lane, with ``z**4`` taken only on
    the lanes within the guard band of the bound.

    Two multiplications give z**4 cheaply but not always with the last bits
    of numpy's ``power``; outside the band that cannot change a decision, and
    inside it the decision is the ``z**4`` one, so the accept set is exactly
    that of ``z**4`` (Shewchuk's filtered predicates work the same way).
    """
    z2 = z * z
    q = 0.0331 * (z2 * z2)
    bound = 1.0 - q
    accept = u < bound
    near = np.flatnonzero(np.abs(u - bound) <= _SQUEEZE_GUARD * (1.0 + q))
    accept[near] = u[near] < 1.0 - 0.0331 * z[near] ** 4
    return accept


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
        u1, u2, u3 = bank.draw(sub, 3)
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        t = 1.0 + c[rel] * z
        v = t * t * t
        ok = v > 0.0
        accept = ok & _squeeze_accepts(z, u3)
        # the log test only where the squeeze leaves an attempt undecided
        log = np.flatnonzero(ok & ~accept)
        zl, vl = z[log], v[log]
        accept[log] = np.log(u3[log]) < 0.5 * zl * zl + d[rel[log]] * (1.0 - vl + np.log(vl))
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
    rates, shapes = (law[:, 0] for law in kernel_law(spec, [index], thetas))
    if np.any(rates <= 0.0):
        raise ParameterDomainError("kernel rate parameter must be positive for every lane")
    if spec.family == "exponential":
        return _exponential_from_bank(bank, rates, lanes)
    if np.any(shapes <= 0.0):
        raise ParameterDomainError("kernel shape parameter must be positive for every lane")
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

    def gamma_shapes(self) -> tuple:
        """The shapes of the gamma laws `sample_batch` draws from (`_gamma_from_bank`)."""
        return ()

    def power_at_zero(self) -> float:
        """The exponent p of the density's power x**(p-1) at 0; 1 for a density bounded there."""
        return 1.0

    def edges(self, k: float = 0.0, lam: float = 0.0) -> list:
        """Panel edges, in theta, around the mass of density(theta) * theta**k * exp(-lam*theta).

        The tilt (k, lam) is the shape of a count pmf's integrand (exactly so
        for an exponential kernel, whose count weight is Poisson); for a large
        count its mass is a narrow peak far out in the mixing tail, which the
        nodes of a wide first panel can straddle and so miss.  (0, 0) is the
        untilted density.
        """
        raise NotImplementedError

    def tilted_edges(self, tilts) -> list:
        """The union of `edges(k, lam)` over the (k, lam) pairs of `tilts`."""
        return [p for tilt in tilts for p in self.edges(*tilt)]

    def integrate(
        self, g, cfg: QuadratureConfig = DEFAULT_CONFIG, clip=None, tilts=((0.0, 0.0),)
    ) -> QuadratureResult:
        """integral of density(x) * g(x) over the support, or its part inside `clip`.

        `g` is a bounded vectorized function, scalar valued (shape (n,) on n
        nodes) or vector valued (n, m).  `tilts` lists (k, lam) pairs such
        that each component of g has the shape x**k * exp(-lam*x) for one of
        them, so the initial panels are the union of their edges.
        """
        lo, hi = self.support()
        if clip is not None:
            lo, hi = max(lo, clip[0]), min(hi, clip[1])
        return self._integrate_range(g, cfg, lo, hi, self.tilted_edges(tilts))

    def _integrate_range(self, g, cfg, lo, hi, edges) -> QuadratureResult:
        """integral of density(x) * g(x) over (lo, hi), initial panel edges in x.

        The one end rule: a range from 0 under a density that goes like
        x**(p-1) there with p < 1 is integrated in v = x**p, which absorbs the
        power exactly; any other in v = x itself (p = 1, bitwise).  The half
        line maps onto (0, 1) at the scale of the mean, in v.
        """
        p = min(self.power_at_zero(), 1.0) if lo == 0.0 else 1.0

        def f(v):
            with np.errstate(over="ignore", under="ignore"):  # x and its power may leave the range
                x = v ** (1.0 / p)
                power = x ** (1.0 - p)
            return _weighted(self.density_batch(x) * power / p, g(x))

        edges = [e**p for e in edges]
        if hi == math.inf:
            return integrate_half_line(f, lo, self.mean() ** p, cfg, edges)
        return adaptive_gauss_kronrod(f, lo, hi**p, cfg, edges)

    def contains(self, x: float) -> bool:
        # open at 0, where no kernel rate or shape may lie
        lo, hi = self.support()
        return lo <= x <= hi and 0.0 < x < math.inf

    @classmethod
    def file_fields(cls) -> tuple:
        """The model-file fields besides ``kind``: the constructor's arguments, in order."""
        return tuple(f.name for f in fields(cls) if f.init)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name in self.file_fields()}}


def _gamma_edges(rate: float, shape: float) -> list:
    """The mean of Gamma(rate, shape) and the points 4 and 8 standard deviations
    either side of it, those > 0."""
    mean, sd = shape / rate, math.sqrt(shape) / rate
    points = (mean + j * sd for j in (-8.0, -4.0, 0.0, 4.0, 8.0))
    return [x for x in points if x > 0.0]


@dataclass(frozen=True)
class UniformMarginal(Marginal):
    lo: float
    hi: float
    kind: str = field(default="uniform", init=False)

    def __post_init__(self):
        _real_fields(self, self.file_fields())
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

    def edges(self, k=0.0, lam=0.0):
        """The tilted density is Gamma(lam, k+1) cut to [lo, hi]: its closed-form
        edges, or none when lam = 0."""
        return _gamma_edges(lam, k + 1.0) if lam > 0.0 else []


@dataclass(frozen=True)
class GammaMarginal(Marginal):
    rate: float
    shape: float
    kind: str = field(default="gamma", init=False)

    def __post_init__(self):
        _real_fields(self, self.file_fields())
        if not (0.0 < self.rate < math.inf and 0.0 < self.shape < math.inf):
            raise ConfigurationError(
                f"gamma marginal needs positive finite rate and shape, got ({self.rate}, {self.shape})"
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
                out[pos] = np.exp(gamma_log_density(self.rate, self.shape, x[pos]))
        return out

    def sample_batch(self, bank):
        n = len(bank)
        return _gamma_from_bank(bank, np.full(n, self.shape), np.full(n, self.rate))

    def gamma_shapes(self):
        return (self.shape,)

    def edges(self, k=0.0, lam=0.0):
        """The tilted density is Gamma(rate+lam, shape+k): its closed-form edges."""
        return _gamma_edges(self.rate + lam, self.shape + k)

    def power_at_zero(self):
        return self.shape


@dataclass(frozen=True)
class BetaMarginal(Marginal):
    a: float
    b: float
    kind: str = field(default="beta", init=False)

    def __post_init__(self):
        _real_fields(self, self.file_fields())
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ConfigurationError(
                f"beta marginal needs positive finite (a, b), got ({self.a}, {self.b})"
            )

    def support(self):
        return (0.0, 1.0)

    def mean(self):
        return self.a / (self.a + self.b)

    def density_batch(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x < 1.0)
        if inside.any():
            out[inside] = np.exp(beta_log_density(self.a, self.b, x[inside]))
        return out

    def sample_batch(self, bank):
        n = len(bank)
        ones = np.ones(n)
        g1 = _gamma_from_bank(bank, np.full(n, self.a), ones)
        g2 = _gamma_from_bank(bank, np.full(n, self.b), ones)
        return g1 / (g1 + g2)

    def gamma_shapes(self):
        return (self.a, self.b)

    def edges(self, k=0.0, lam=0.0):
        """No closed form: the edges bracket the region where the tilted density
        lies within a factor e**-40 of its maximum (at e**-20 the wide panel
        beyond the cut holds about 2e-9 of the mass, more than its nodes see).
        It is scanned on two geometric grids, one in x between the mean and
        the tilt's own peak k/lam (the mean alone without both), one in 1 - x
        around 1 - mean, so a narrow peak near either end is seen even
        untilted, and on a linear grid of +-12 standard deviations around the
        mean, finer than the geometric steps once the shapes pass about 1e4;
        an end of the grids stands in for a cut they do not reach."""
        ref = self.mean()
        centre = k / lam if k > 0.0 and lam > 0.0 else ref
        upper = self.b / (self.a + self.b)  # 1 - mean, which does not round to 0
        sd = math.sqrt(ref * upper / (self.a + self.b + 1.0))
        grid = np.concatenate([
            np.geomspace(min(ref, centre) * 1e-2, max(ref, centre) * 1e2, 2001),
            1.0 - np.geomspace(upper * 1e-2, upper * 1e2, 2001),
            ref + sd * np.linspace(-12.0, 12.0, 97),
        ])
        grid = np.sort(grid[(grid > 0.0) & (grid < 1.0)])
        with np.errstate(divide="ignore"):
            logf = np.log(self.density_batch(grid)) + k * np.log(grid) - lam * grid
        top = int(np.argmax(logf))
        near = grid[logf > logf[top] - 40.0]
        return [float(near[0]), float(grid[top]), float(near[-1])]

    def power_at_zero(self):
        return self.a

    def _integrate_range(self, g, cfg, lo, hi, edges):
        """The end rule at 0, and at 1 too when the density goes like (1-x)**(b-1)
        with b < 1: the part above the midpoint is then the part below it of
        the mirror image Beta(b, a) in y = 1 - x, so the density is never
        evaluated at an x that has rounded to 1."""
        if self.b >= 1.0 or hi < 1.0:
            return super()._integrate_range(g, cfg, lo, hi, edges)
        mid = 0.5 * (lo + hi)
        r1 = super()._integrate_range(g, cfg, lo, mid, edges)
        r2 = BetaMarginal(self.b, self.a)._integrate_range(
            lambda y: g(1.0 - y), cfg, 0.0, 1.0 - mid, [1.0 - e for e in edges]
        )
        return QuadratureResult(
            r1.value + r2.value, r1.error + r2.error, r1.n_panels + r2.n_panels,
            r1.n_calls + r2.n_calls, r1.met & r2.met,
        )


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

    def integrate(
        self, g, cfg: QuadratureConfig = DEFAULT_CONFIG, clip=None, tilts=((0.0, 0.0),)
    ) -> QuadratureResult:
        """integral of g(theta) against the measure, or over its part inside `clip`.

        `g` maps a batch of parameter points (shape (n,) in one dimension,
        (n, dim) otherwise) to n bounded values, or to an (n, m) array whose
        m columns are integrated at once, each to its own tolerance.  For
        product mixing, `clip` is one (lo, hi) interval per dimension, and
        `tilts` lists (k, lam) pairs such that each column of g has the
        shape theta**k * exp(-lam*theta) for one of them, which places the
        marginal's initial panels (`Marginal.edges`; one dimension only); an
        atomic measure takes neither.
        """
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

    def integrate(self, g, cfg=DEFAULT_CONFIG, clip=None, tilts=((0.0, 0.0),)):
        """Each marginal's own rule; in two dimensions iterated one-dimensional
        quadrature, outer over the second coordinate and inner over the first
        at `cfg.tighter()`.  A column's inner error is the largest over the
        outer nodes of that column's inner errors."""
        clips = clip or (None,) * self.dim
        if self.dim == 1:
            return self.marginals[0].integrate(g, cfg, clips[0], tilts)
        if self.dim > 2:
            raise UnsupportedModelError("product mixing beyond two dimensions is not supported")
        m1, m2 = self.marginals
        inner_cfg = cfg.tighter()
        inner_err, inner_met, inner_panels, inner_calls = 0.0, True, 0, 0

        def outer_integrand(t2s: np.ndarray) -> np.ndarray:
            # one vector-valued inner integral: component (j, c) is the inner
            # integral of column c at the outer node t2s[j]
            nonlocal inner_err, inner_met, inner_panels, inner_calls

            def g1(t1s: np.ndarray) -> np.ndarray:
                th = np.column_stack([np.repeat(t1s, t2s.size), np.tile(t2s, t1s.size)])
                return g(th).reshape(t1s.size, -1)

            res = m1.integrate(g1, inner_cfg, clips[0])
            err, met = res.error.reshape(t2s.size, -1), res.met.reshape(t2s.size, -1)
            inner_err = np.maximum(inner_err, err.max(axis=0))
            inner_met = inner_met & met.all(axis=0)
            inner_panels, inner_calls = inner_panels + res.n_panels, inner_calls + res.n_calls
            return res.value.reshape(t2s.size, -1)

        res = m2.integrate(outer_integrand, cfg, clips[1])
        # g is called only by the inner integrals
        return QuadratureResult(
            res.value, res.error + inner_err, res.n_panels + inner_panels, inner_calls,
            res.met & inner_met,
        )

    def to_dict(self):
        return {"kind": "product_rectangle", "marginals": [m.to_dict() for m in self.marginals]}


class GammaMixing(ProductRectangleMixing):
    """Gamma mixing law on (0, inf), rate-first: density rate**shape/Gamma(shape) * t**(shape-1) * exp(-rate*t).

    A product mixing over one `GammaMarginal`.  It keeps its own model-file
    spelling, and so its own model hash.
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

    def to_dict(self):
        return self.marginals[0].to_dict()


@dataclass(frozen=True)
class DiscreteMixing(MixingMeasure):
    atoms: tuple
    weights: tuple
    kind = "discrete"

    def __post_init__(self):
        atoms = tuple(
            tuple(_real(v, "atom") for v in ((a,) if np.isscalar(a) else a)) for a in self.atoms
        )
        weights = tuple(_real(w, "weight") for w in self.weights)
        if not atoms or len(atoms) != len(weights):
            raise ConfigurationError("discrete mixing needs matching atoms and weights")
        if len({len(a) for a in atoms}) != 1:
            raise ConfigurationError("discrete atoms must share one dimension")
        if not all(math.isfinite(v) for a in atoms for v in a):
            raise ConfigurationError("discrete atoms must be finite")
        if not all(0.0 <= w < math.inf for w in weights):  # false for NaN too
            raise ConfigurationError(f"discrete weights must be finite and nonnegative, got {weights}")
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

    def integrate(self, g, cfg=DEFAULT_CONFIG, clip=None, tilts=((0.0, 0.0),)):
        """The weighted sum of g over all atoms, exact: error 0."""
        th = np.asarray(self.atoms, dtype=np.float64)
        gx = np.asarray(g(th if self.dim > 1 else th[:, 0]), dtype=np.float64)
        # one dot product per column, the same sum for any number of columns
        cols = np.ascontiguousarray(gx.reshape(len(th), -1).T)
        value = np.array([np.dot(self.weights, col) for col in cols])
        return QuadratureResult(value, np.zeros(value.size), 0, 0, np.ones(value.size, bool))

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
    pt = theta_tuple(theta)
    if len(pt) != mu.dim or any(map(math.isnan, pt)):
        raise ParameterDomainError(f"theta {pt} is not a point of the {mu.dim}-dimensional mixing")
    return float(mu.density_batch(np.array([pt]) if mu.dim > 1 else np.array(pt))[0])


def verify_mixing_mass(mu: MixingMeasure) -> float:
    """Check the total mass of a mixing measure; returns the computed mass.

    The mass is the integral of 1 against the measure at `DEFAULT_CONFIG`,
    taken as the exact routes take theirs; it must match 1 within 1e-8.
    """
    res = mu.integrate(lambda th: np.ones(len(th)))
    total = res.scalar_value
    if not res.converged or abs(total - 1.0) > 1e-8:
        raise ConfigurationError(f"mixing mass {total!r} deviates from 1 by more than 1e-8")
    return total
