"""Adaptive Gauss-Kronrod (7-15) quadrature.

Integrands are evaluated vectorized on node arrays and may be vector valued
(return shape ``(n_nodes, m)``).  The panel loop works in rounds, with one
integrand call per round (as in Shampine, J. Comput. Appl. Math. 211:131,
2008, and scipy's ``quad_vec``): the first call evaluates every initial
panel, and each later round bisects the fewest panels whose errors cover
every component's excess over its tolerance, taken in order of a panel's
worst error in units of its component's tolerance, and evaluates all their
children at once.  The loop stops when every component meets its tolerance,
or when the panel count reaches the limit; the result says which components
met theirs.  The per-panel error estimate is the raw |K15 - G7| difference,
which is a deliberately conservative bound for smooth integrands.

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
# one matrix product gives a panel's K15 value and its K15 - G7 difference
_RULES = np.stack([KRONROD_WEIGHTS, KRONROD_WEIGHTS - GAUSS_WEIGHTS])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and panel limit of every adaptive integration in the package."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):  # false for NaN too
            raise ConfigurationError("tolerances must be positive")

    def tighter(self) -> "QuadratureConfig":
        """Both tolerances scaled by 0.1, for an integral nested inside another."""
        return replace(self, rel_tol=self.rel_tol * 0.1, abs_tol=self.abs_tol * 0.1)


DEFAULT_CONFIG = QuadratureConfig()


@dataclass
class QuadratureResult:
    """Value and a conservative error bound of an adaptive integration, and its cost."""

    value: np.ndarray  # shape (m,)
    error: np.ndarray  # shape (m,)
    n_panels: int
    n_calls: int  # integrand calls
    met: np.ndarray  # shape (m,): whether each component met its tolerance

    @property
    def converged(self) -> bool:
        """Whether every component met its tolerance."""
        return bool(self.met.all())

    @property
    def scalar_value(self) -> float:
        return float(self.value[0])


def _panels(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(K15 value, |K15 - G7| error) of each panel [lo_i, hi_i], shape
    (n_panels, 2, m), from one call of `f` on all the panels' nodes."""
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * NODES
    fx = np.asarray(f(nodes.ravel()), dtype=np.float64).reshape(len(lo), NODES.size, -1)
    est = half[:, None, None] * (_RULES @ fx)
    np.abs(est[:, 1], out=est[:, 1])
    return est


def _worst(err: np.ndarray, score: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """Indices of the fewest panels, highest score first, whose errors cover
    every component's excess over its tolerance (all panels if none do)."""
    order = np.argsort(-score, kind="stable")
    short = excess > 0.0
    n = 1
    while True:  # the prefix grows fourfold: a round splits few panels of many
        head = np.cumsum(err[order[:n]][:, short], axis=0)
        covered = (head >= excess[short]).all(axis=1)
        if covered.any():
            return order[: int(np.argmax(covered)) + 1]
        if n == len(order):
            return order
        n = min(4 * n, len(order))


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate `f` over [a, b] adaptively, to the tolerances of `cfg`.

    `f` must accept an ndarray of nodes and return either a same-length array
    (scalar integrand) or an ``(n_nodes, m)`` array (vector integrand).  It
    is called once per round: first on the initial panels, then on the
    children of the panels that round bisects.
    """
    if not b > a:
        raise ValueError("integration bounds must satisfy a < b")
    pts = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b])
    lo, hi = pts[:-1], pts[1:]
    est = _panels(f, lo, hi)  # per panel: value, error
    n_calls = 1
    total = est.sum(axis=0)
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total[0]))
    score = (est[:, 1] / tol).max(axis=1)  # a panel's worst error in units of tolerance
    while not np.all(total[1] <= tol):
        room = cfg.max_subdivisions - len(lo)
        if room <= 0:
            break
        split = _worst(est[:, 1], score, total[1] - tol)[:room]
        mid = 0.5 * (lo[split] + hi[split])
        child = _panels(f, np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]]))
        n_calls += 1
        total = total + (child.sum(axis=0) - est[split].sum(axis=0))
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total[0]))
        child_score = (child[:, 1] / tol).max(axis=1)
        # each split panel's row takes its left child; the right children are appended
        k = len(split)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([hi, hi[split]])
        hi[split] = mid
        est[split], score[split] = child[:k], child_score[:k]
        est, score = np.concatenate([est, child[k:]]), np.concatenate([score, child_score[k:]])
    return QuadratureResult(total[0], total[1], len(lo), n_calls, total[1] <= tol)


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
