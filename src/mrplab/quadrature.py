"""Adaptive Gauss-Kronrod (7-15) quadrature.

Integrands are evaluated vectorized on node arrays and may be vector valued
(return shape ``(n_nodes, m)``); subdivision is driven by the worst
per-component error, so every component of the result meets the tolerance.
The per-panel error estimate is the raw |K15 - G7| difference, which is a
deliberately conservative bound for smooth integrands.

The tolerances and the panel limit are one `QuadratureConfig`, defined here
and passed whole down to the panel loop; `DEFAULT_CONFIG` holds the package's
defaults, which the exact routes and the mixing-mass check share.

Half-line domains are handled by the compactifying map ``theta = c*u/(1-u)``
with ``u`` in (0, 1); ``c`` should be a scale comparable to the integrand's
mass location (callers use the mixing mean).  The map covers the whole tail,
so no separate truncation error term is needed; the breakpoints, which a
mixing marginal places around its mass (`Marginal.edges`), only seed the
initial panels.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError

# 15-point Kronrod nodes on [-1, 1] (positive half) with the embedded
# 7-point Gauss rule; weights from the QUADPACK tables.
_XGK_HALF = np.array(
    [
        0.991455371120812639207,
        0.949107912342758524526,
        0.864864423359769072789,
        0.741531185599394439864,
        0.586087235467691130295,
        0.405845151377397166907,
        0.207784955007898467601,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224964,
        0.063092092629978553291,
        0.104790010322250183839,
        0.140653259715525918745,
        0.169004726639267902827,
        0.190350578064785409913,
        0.204432940075298892414,
        0.209482141084727828013,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168869693271,
        0.279705391489276667901,
        0.381830050505118944950,
        0.417959183673469387755,
    ]
)

NODES = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[7:8], _XGK_HALF[6::-1]])
KRONROD_WEIGHTS = np.concatenate([_WGK_HALF[:7], _WGK_HALF[7:8], _WGK_HALF[6::-1]])
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1:14:2] = np.concatenate([_WG_HALF[:3], _WG_HALF[3:4], _WG_HALF[2::-1]])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and panel limit of every adaptive integration in the package."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):  # false for NaN too
            raise ConfigurationError("tolerances must be positive")

    def tighter(self, factor: float = 0.1) -> "QuadratureConfig":
        """Both tolerances scaled by `factor`, for an integral nested inside another."""
        return replace(self, rel_tol=self.rel_tol * factor, abs_tol=self.abs_tol * factor)


DEFAULT_CONFIG = QuadratureConfig()


@dataclass
class QuadratureResult:
    """Value and a conservative error bound of an adaptive integration."""

    value: np.ndarray  # shape (m,)
    error: np.ndarray  # shape (m,)
    n_panels: int
    converged: bool

    @property
    def scalar_value(self) -> float:
        return float(self.value[0])

    @property
    def scalar_error(self) -> float:
        return float(self.error[0])


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * NODES), dtype=np.float64)
    if fx.ndim == 1:
        fx = fx[:, None]
    k15 = half * (KRONROD_WEIGHTS @ fx)
    g7 = half * (GAUSS_WEIGHTS @ fx)
    return k15, np.abs(k15 - g7)


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate `f` over [a, b] adaptively, to the tolerances of `cfg`.

    `f` must accept an ndarray of nodes and return either a same-length array
    (scalar integrand) or an ``(n_nodes, m)`` array (vector integrand).
    """
    if not b > a:
        raise ValueError("integration bounds must satisfy a < b")
    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]

    heap: list = []
    serial = 0
    total_value = None
    total_error = None
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = _panel(f, lo, hi)
        total_value = val if total_value is None else total_value + val
        total_error = err if total_error is None else total_error + err
        heapq.heappush(heap, (-float(err.max()), serial, lo, hi, val, err))
        serial += 1

    n_panels = len(heap)
    while True:
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total_value))
        if np.all(total_error <= tol):
            return QuadratureResult(total_value, total_error, n_panels, True)
        if n_panels >= cfg.max_subdivisions:
            return QuadratureResult(total_value, total_error, n_panels, False)
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        lval, lerr = _panel(f, lo, mid)
        rval, rerr = _panel(f, mid, hi)
        total_value = total_value - val + lval + rval
        total_error = total_error - err + lerr + rerr
        heapq.heappush(heap, (-float(lerr.max()), serial, lo, mid, lval, lerr))
        serial += 1
        heapq.heappush(heap, (-float(rerr.max()), serial, mid, hi, rval, rerr))
        serial += 1
        n_panels += 1


def integrate_half_line(
    f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    scale: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    theta_breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate `f` over (lower, inf) via theta = lower + scale*u/(1-u) on u in (0, 1)."""
    if scale <= 0.0:
        raise ValueError("half-line map scale must be positive")

    def g(u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            vals = np.asarray(f(lower + scale * u / (1.0 - u)), dtype=np.float64)
            w = scale / (1.0 - u) ** 2
            return vals * (w[:, None] if vals.ndim == 2 else w)

    ts = [max(theta - lower, 0.0) for theta in theta_breakpoints]
    return adaptive_gauss_kronrod(g, 0.0, 1.0, cfg, [t / (t + scale) for t in ts])
