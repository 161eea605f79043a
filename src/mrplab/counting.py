"""Algebra between interarrival, arrival, and counting representations.

Arrival times are prefix sums of interarrivals computed with Neumaier
compensated summation, so each stored arrival is the correctly rounded exact
prefix sum even for long paths; the jump locations of the counting step
function are stored exactly, making counting -> arrivals recovery exact.

The counting-process axioms are validated on sampled (t, N_t) grids.  The
"counts diverge" axiom is not falsifiable on finite data and is reported as
informational only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import IngestionError, InvalidInterarrivalError, OutOfHorizonError
from .report import VerificationReport


def compensated_cumsum_rows(w: np.ndarray) -> np.ndarray:
    """Row-wise Neumaier prefix sums of an (n, k) array, vectorized over rows."""
    w = np.asarray(w, dtype=np.float64)
    out = np.empty_like(w)
    s = np.zeros(w.shape[0])
    c = np.zeros(w.shape[0])
    for j in range(w.shape[1]):
        v = w[:, j]
        t = s + v
        big = np.abs(s) >= np.abs(v)
        c += np.where(big, (s - t) + v, (v - t) + s)
        s = t
        out[:, j] = s + c
    return out


def compensated_cumsum(values: np.ndarray) -> np.ndarray:
    """Neumaier prefix sums of a 1-D array (correctly rounded in practice).

    The arithmetic of `compensated_cumsum_rows` on one row, in Python floats:
    numpy calls on one-element columns would cost far more than the sums.
    """
    out = []
    s = c = 0.0
    for v in np.asarray(values, dtype=np.float64).reshape(-1).tolist():
        t = s + v
        c += (s - t) + v if abs(s) >= abs(v) else (v - t) + s
        s = t
        out.append(s + c)
    return np.array(out, dtype=np.float64)


def check_interarrivals(interarrivals: Sequence[float]) -> np.ndarray:
    """The interarrivals as a float64 array; InvalidInterarrivalError names
    the first one that is not strictly positive."""
    w = np.asarray(interarrivals, dtype=np.float64)
    bad = np.flatnonzero(~(w > 0.0))
    if bad.size:
        i = int(bad[0])
        raise InvalidInterarrivalError(f"interarrival {i + 1} is not strictly positive: {float(w[i])!r}")
    return w


def arrivals_from_interarrivals(interarrivals: Sequence[float]) -> np.ndarray:
    """Arrival times [T_0=0, T_1, ..., T_n] from positive interarrivals."""
    return np.append(0.0, compensated_cumsum(check_interarrivals(interarrivals)))


@dataclass(frozen=True)
class CountingPath:
    """A right-continuous unit-jump step function given by its jump locations."""

    event_times: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.event_times, dtype=np.float64)
        object.__setattr__(self, "event_times", t)
        if not np.isfinite(t).all():
            raise IngestionError(f"event times must be finite, got {float(t[~np.isfinite(t)][0])!r}")
        if t.size and not t[0] > 0.0:
            raise IngestionError(f"first event time must be positive, got {float(t[0])!r}")
        if np.any(np.diff(t) <= 0.0):
            i = int(np.flatnonzero(np.diff(t) <= 0.0)[0])
            raise IngestionError(
                f"event times must be strictly increasing (tie or inversion at position {i + 1})"
            )
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise IngestionError(f"horizon must be positive and finite, got {self.horizon!r}")
        if t.size and self.horizon < t[-1]:
            raise IngestionError("horizon must not precede the last event")

    @classmethod
    def from_arrivals(cls, arrivals: Sequence[float], horizon: float | None = None) -> "CountingPath":
        """Build from [T_0=0, T_1, ...]; horizon defaults to the last event."""
        arr = np.asarray(arrivals, dtype=np.float64)
        if arr.size == 0 or arr[0] != 0.0:
            raise IngestionError("arrival list must start at T_0 = 0")
        events = arr[1:]
        if horizon is None:
            horizon = float(events[-1]) if events.size else 1.0
        return cls(events, float(horizon))

    @property
    def n_events(self) -> int:
        return int(self.event_times.size)


def count_at(path: CountingPath, t: float) -> int:
    """N_t = number of events at or before t (right-continuous)."""
    return int(counts_on_grid(path, [t])[0])


def counts_on_grid(path: CountingPath, ts: Sequence[float]) -> np.ndarray:
    """`count_at` over a grid; every t must lie in [0, horizon]."""
    ts = np.asarray(ts, dtype=np.float64)
    if np.isnan(ts).any():
        raise OutOfHorizonError("count time t must not be NaN")
    if ts.size and ts.min() < 0.0:
        raise OutOfHorizonError(f"count requested at negative time {float(ts.min())!r}")
    if ts.size and ts.max() > path.horizon:
        raise OutOfHorizonError(
            f"count requested at t={float(ts.max())!r} beyond the observed horizon {path.horizon!r}"
        )
    return np.searchsorted(path.event_times, ts, side="right").astype(np.int64)


def arrivals_from_counting(path: CountingPath) -> np.ndarray:
    """Recover [T_0=0, T_1, ...] as the jump locations of the step function."""
    out = np.empty(path.n_events + 1, dtype=np.float64)
    out[0] = 0.0
    out[1:] = path.event_times
    return out


def interarrivals_from_arrivals(arrivals: Sequence[float]) -> np.ndarray:
    arr = np.asarray(arrivals, dtype=np.float64)
    return np.diff(arr)


def validate_counting_axioms(samples: Iterable[tuple[float, float]]) -> VerificationReport:
    """Check the counting-process axioms on a sorted (t, N_t) sample grid at t >= 0.

    Grid-level semantics: start at zero, nonnegative-integer values,
    no decreases, and no jumps larger than one between grid neighbours.
    Divergence of the counts cannot be decided from finite data and is
    reported as a caveat with the observed maximum, never as a failure.
    """
    pts = [(float(t), float(n)) for t, n in samples]
    if not pts:
        raise IngestionError("no samples provided")
    ts, ns = np.array(pts).T
    if not (np.isfinite(ts).all() and np.isfinite(ns).all()):
        raise IngestionError("samples must be finite")
    if np.any(np.diff(ts) < 0.0):
        raise IngestionError("samples must be sorted by t")
    if ts[0] < 0.0:
        raise IngestionError(f"sample at negative time t={float(ts[0])!r}: N_t lives on t >= 0")
    dup = np.flatnonzero((np.diff(ts) == 0.0) & (np.diff(ns) != 0.0))
    if dup.size:
        raise IngestionError(f"duplicate grid point t={float(ts[dup[0]])!r} with conflicting counts")

    violations: list[str] = []
    checks: dict[str, str] = {}

    def check(name: str, bad: np.ndarray, message) -> None:
        # the axiom fails at the first True of `bad`; message(i) describes it
        hits = np.flatnonzero(bad)
        checks[name] = "violated" if hits.size else "ok"
        if hits.size:
            violations.append(message(int(hits[0])))

    if ts[0] == 0.0:
        check("start_at_zero", ns[:1] != 0.0, lambda i: f"start-at-zero: N_0 = {ns[0]:g} != 0")
    else:
        checks["start_at_zero"] = "not sampled (t=0 missing)"
    check("integer_values", ~((ns >= 0.0) & (ns == np.floor(ns))),
          lambda i: f"integer-values: N at t={ts[i]:g} is {float(ns[i])!r}")
    check("right_continuity", np.diff(ns) < 0.0, lambda i: (
        f"right-continuity/monotonicity: N decreases from {ns[i]:g} to {ns[i+1]:g} at t={ts[i+1]:g}"))
    running_max = np.maximum.accumulate(ns)
    check("unit_jumps", ns[1:] > running_max[:-1] + 1.0, lambda i: (
        f"unit-jumps: N jumps from {running_max[i]:g} to {ns[i+1]:g} between "
        f"t={ts[i]:g} and t={ts[i+1]:g}"))

    checks["divergence"] = f"informational: observed max N = {ns.max():g}"

    return VerificationReport(
        check="counting-axioms",
        passed=not violations,
        statistic=float(len(violations)),
        level=None,
        sample_sizes={"grid_points": len(pts)},
        caveats=(
            "divergence of counts is not falsifiable on finite data; observed max "
            f"N = {ns.max():g}",
            "unit-jump check has grid-level semantics: a jump of 2 between "
            "neighbouring grid points is reported even if the grid is coarse",
        ),
        details={"checks": checks, "violations": violations},
    )
