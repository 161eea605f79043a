"""Statistical verification of mixture structure on simulated data.

The exchangeability check is a randomization test: the statistic is the
largest discrepancy of the empirical joint CDF over probe boxes and their
coordinate permutations, and the null distribution is generated by permuting
each path's first r interarrivals independently -- exactly the invariance
the null hypothesis asserts.  Probe thresholds default to quartiles of the
pooled first-r interarrivals (a permutation-invariant function of the data,
which keeps the randomization test exact) on a tensor grid, plus the fixed
witness boxes (2,1)/(1,2) when r = 2.  Both the statistic and the null see
the data only through the cell of each path in the grid the thresholds cut,
so the null is computed from integer counts of paths per cell and replica.
Its permutations come from one uniform stream in path blocks, which bounds
its memory by one block whatever the number of paths.

The mixed-Poisson fit takes the exact count pmf at 0..max N_t from one
`count_pmfs` call per time, which bounds its own integrals: at the sizes
`mrplab verify` runs, one mixing integral per time.

All tests are deterministic given their seeds; reports record the seeds and
sample sizes needed to reproduce every statistic bitwise.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .construction import (
    Ensemble,
    MrpModel,
    aux_seed,
    sample_conditional_interarrivals,
)
from .errors import (
    ConfigurationError,
    DegenerateTestError,
    InsufficientDataError,
    InvalidInterarrivalError,
    UnsupportedModelError,
)
from .exact import BoxQuery, ExactResult, count_pmfs, require_converged
from .kernels import kernel_cdf_batch, kernel_sample_batch, theta_tuple
from .quadrature import DEFAULT_CONFIG
from .report import VerificationReport
from .rng import StreamBank, UniformStream
from .special import chi_square_sf, ks_one_sample_pvalue

_BOREL_CAVEAT = (
    "equivalence of mixture structure and exchangeability is applied in the "
    "standard Borel setting (countably generated sigma-algebra, perfect law); "
    "every model built by this package satisfies it"
)

WITNESS_BOXES = ((2.0, 1.0), (1.0, 2.0))


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:  # false for NaN too
        raise ConfigurationError(f"level must lie strictly between 0 and 1, got {level!r}")


# ---------------------------------------------------------------------------
# exchangeability
# ---------------------------------------------------------------------------


def sorted_quantiles(xs: np.ndarray, qs) -> np.ndarray:
    """numpy's default (linear) quantiles of ascending data, bit for bit.

    The same virtual index (n-1)q and interpolation rule as `np.quantile`,
    without its partition, whose index dedupe imports `numpy.ma`.
    """
    n = xs.shape[0]
    at = (n - 1) * np.asarray(qs, dtype=np.float64)
    lo = np.floor(at).astype(np.intp)
    hi = lo + 1
    top = at >= n - 1
    lo[top] = hi[top] = -1  # the last value, as numpy takes it
    a, b = xs[lo], xs[hi]
    t = at - lo
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def distinct_sorted(x: np.ndarray) -> np.ndarray:
    """The distinct values of `x`, ascending (`np.unique` without its `numpy.ma` import)."""
    xs = np.sort(x, axis=None)
    return xs[np.concatenate(([True], xs[1:] != xs[:-1]))]


def _default_probe_boxes(w: np.ndarray, r: int) -> list[tuple]:
    pooled = sorted_quantiles(np.sort(w, axis=None), [0.25, 0.5, 0.75])
    boxes = [tuple(b) for b in itertools.product(pooled, repeat=r)]
    if r == 2:
        boxes.extend(WITNESS_BOXES)
    return list(dict.fromkeys(boxes))


# paths per block of the resampling null: a block holds its group ids, one
# byte per path and replica, and sorted copies of them
_BLOCK_PATHS = 4096
# replicas drawn in one session of the resampling stream
_REPLICA_CHUNK = 256
# the most cells the probe thresholds may cut the first-r space into; the
# null's count table holds one int64 per cell and replica of a session
_MAX_CELLS = 1 << 14
# the most rows a byte lane of `_cell_counts` adds: its 0/1 terms cannot carry
_LANE_ROWS = 255


def _cell_counts(cell: np.ndarray, id_blocks, n_group: int, n_cells: int, m: int) -> np.ndarray:
    """counts[g - 1, c, j]: the paths of cell c whose replica j draws element g, for g >= 1.

    `id_blocks` yields the (paths, m) element ids of consecutive path blocks,
    `cell` holds every path's cell.  Each block is sorted by cell once; for
    each non-identity element g its 0/1 rows ``ids == g`` are read as 64-bit
    words of eight byte lanes and added over runs of at most 255 rows of one
    cell, so no lane carries into the next.  The runs' running totals, in
    int64, read at each cell's first run give the paths of the cells below
    it; their differences give each cell's count.  Integer adds only: no
    matrix product and no key table.
    """
    below = np.zeros((n_group - 1, n_cells + 1, m), dtype=np.int64)
    lo = 0
    for ids in id_blocks:
        n = len(ids)
        block_cell = cell[lo : lo + n]
        lo += n
        order = np.argsort(block_cell.astype(np.uint16), kind="stable")  # a radix sort
        sorted_cell = block_cell[order]
        # the rows in cell order, padded to a multiple of 8 bytes with the
        # identity, which no pass counts; a row is gathered as one m-byte item
        sorted_ids = np.zeros((n, -(-m // 8) * 8), dtype=np.int8)
        sorted_ids[:, :m] = ids.view(np.dtype((np.void, m)))[order].view(np.int8).reshape(n, m)
        edge = np.concatenate(([True], sorted_cell[1:] != sorted_cell[:-1]))
        edge[::_LANE_ROWS] = True
        runs = np.flatnonzero(edge)
        firsts = np.searchsorted(runs, np.searchsorted(sorted_cell, np.arange(n_cells + 1)))
        rows = np.empty(sorted_ids.shape, dtype=bool)
        upto = np.zeros((runs.size + 1, m), dtype=np.int64)
        for g, to in enumerate(below, start=1):
            np.equal(sorted_ids, g, out=rows)
            lanes = np.add.reduceat(rows.view("<u8"), runs).astype("<u8", copy=False)
            upto[1:] = lanes.view(np.uint8)[:, :m]
            np.cumsum(upto, axis=0, out=upto)
            to += upto[firsts]
    return np.diff(below, axis=1)


def _group_id_blocks(stream: UniformStream, n_paths: int, m: int, n_group: int):
    """One draw session of n_paths * m ids uniform on {0, ..., n_group-1}, in path blocks.

    Yields int8 arrays of shape (paths in block, m); path i, replica j is id
    i*m + j of the session.  The ids are exactly uniform: the bits of the
    stream words for a two-element group, otherwise their bytes below the
    largest multiple of the group size, reduced modulo it, in stream order.
    Words come in draws: a first draw sized for every id of the session,
    then draws sized for the shortfall.  The session ends at the end of its
    last draw, so neither the ids nor the stream position after them depends
    on the block size.
    """
    total = n_paths * m
    cap = (256 // n_group) * n_group
    ids_per_word = 64 if n_group == 2 else 8
    carry = np.empty(0, dtype=np.int8)
    drawn = 0  # ids produced so far, carried ones included
    left = 0  # words left in the current draw
    for lo in range(0, n_paths, _BLOCK_PATHS):
        want = (min(lo + _BLOCK_PATHS, n_paths) - lo) * m
        parts = [carry]
        have = carry.size
        while have < want:
            if left == 0:
                todo = total - drawn
                left = -(-todo // 64) if n_group == 2 else (todo + 7) // 8 + 4
            # enough words for the shortfall at the expected acceptance rate
            k = min(left, (want - have) * 256 // (cap * ids_per_word) + 1)
            raw = stream.raw_words(k).view(np.uint8)
            left -= k
            if n_group == 2:
                got = np.unpackbits(raw).view(np.int8)
            else:
                got = raw[raw < cap]
                # the remainder by subtraction: numpy divides uint8 by a
                # scalar far faster than it takes a remainder
                got = (got - got // n_group * n_group).view(np.int8)
            drawn += got.size
            parts.append(got)
            have += got.size
        ids = np.concatenate(parts)
        carry = ids[want:]
        if lo + _BLOCK_PATHS >= n_paths:
            stream.skip(left)  # before the last yield, so a consumer need not resume
        yield ids[:want].reshape(-1, m)


def exchangeability_test(
    data,
    r: int,
    n_permutations: int = 199,
    probe_boxes: Optional[Sequence[Sequence[float]]] = None,
    level: float = 0.01,
    resample_seed: Optional[int] = None,
) -> VerificationReport:
    """Permutation test of exchangeability of the first r interarrivals.

    Parameters
    ----------
    data : Ensemble or ndarray
        Paths as rows; at least r interarrival columns.
    r : int
        Prefix length tested (>= 2).
    n_permutations : int
        Number of within-path permutation replicas for the null distribution.
    probe_boxes : sequence of r-tuples, optional
        Upper-box thresholds to probe; defaults to the pooled-quartile tensor
        grid plus the (2,1)/(1,2) witness boxes when r = 2.
    level : float
        Rejection level in (0, 1); the report fails exactly when the
        resampling p-value is below it.

    Raises ConfigurationError when `level` is outside (0, 1), when
    `n_permutations` is not an integer >= 1, when `probe_boxes` is empty or a
    probe threshold is NaN, or when the distinct thresholds cut the first-r space
    into more than 2**14 cells (at r = 4, more than 10 distinct values).
    """
    _check_level(level)
    if not isinstance(n_permutations, (int, np.integer)) or n_permutations < 1:
        raise ConfigurationError(f"n_permutations must be an integer >= 1, got {n_permutations!r}")
    if r < 2:
        raise DegenerateTestError("exchangeability needs a prefix length of at least 2")
    if r > 4:
        raise ConfigurationError(
            "prefix lengths above 4 are not supported: the resampler closes the "
            "probe set under all r! coordinate permutations"
        )
    if isinstance(data, Ensemble):
        w_all = data.interarrivals
        root = data.root_seed
    else:
        w_all = np.asarray(data, dtype=np.float64)
        root = 0
    if w_all.ndim != 2 or w_all.shape[1] < r:
        raise InsufficientDataError(f"paths must provide at least r={r} interarrivals")
    n = w_all.shape[0]
    if n < 2:
        raise InsufficientDataError("need at least two paths")
    w = np.ascontiguousarray(w_all[:, :r])
    if not np.isfinite(w).all():
        raise InvalidInterarrivalError(
            f"the first r={r} interarrival columns hold NaN or infinite values"
        )

    if probe_boxes is None:
        probe_boxes = _default_probe_boxes(w, r)
    elif len(probe_boxes) == 0 or any(len(b) != r for b in probe_boxes):
        raise ConfigurationError("need at least one probe box, each of r coordinates")
    base = np.asarray(probe_boxes, dtype=np.float64).reshape(-1, r)
    if np.isnan(base).any():
        raise ConfigurationError("probe box thresholds must not be NaN")
    # D = max |F(b) - F(b o sigma)| over the probe boxes b and the elements
    # sigma of the group (row 0 the identity) that move b: the boxes to
    # count are the distinct permuted boxes, and a pair is the index of b
    # and of b o sigma among them
    group = np.array(list(itertools.permutations(range(r))))
    boxes, index = np.unique(base[:, group].reshape(-1, r), axis=0, return_inverse=True)
    index = index.reshape(len(base), -1)
    moves = index != index[:, :1]
    p1, p2 = np.broadcast_to(index[:, :1], index.shape)[moves], index[moves]
    if not p1.size:
        raise DegenerateTestError(
            "every probe box is symmetric under coordinate permutations, so the "
            "statistic is identically 0"
        )

    # the statistic and every replica depend on the data only through the
    # cell of each path in the grid that the sorted probe thresholds cut:
    # bin k of a path counts the thresholds below its k-th interarrival, and
    # the path lies in a box exactly when each bin is at most the index of
    # the box's threshold in that coordinate
    thresholds = distinct_sorted(boxes)
    n_bins = thresholds.size + 1
    n_cells = n_bins**r
    if n_cells > _MAX_CELLS:
        raise ConfigurationError(
            f"the probe thresholds cut {n_cells} cells, more than {_MAX_CELLS}; "
            "use fewer distinct threshold values"
        )
    radix = n_bins ** np.arange(r)
    cell = np.searchsorted(thresholds, w) @ radix
    digits = np.arange(n_cells)[:, None] // radix % n_bins
    in_box = np.all(digits[None] <= np.searchsorted(thresholds, boxes)[:, None], axis=2)

    ncell = np.bincount(cell, minlength=n_cells)
    counts = in_box.astype(np.int64) @ ncell
    fhat = counts / n
    d_obs = float(np.abs(fhat[p1] - fhat[p2]).max())
    k_obs = float(np.abs(counts[p1] - counts[p2]).max())

    if resample_seed is None:
        resample_seed = aux_seed(root, 0)
    stream = UniformStream(resample_seed)

    # replica j gives path i the group element sigma = group[id], which
    # moves the path to the cell with bins (bin[sigma[0]], ..., bin[sigma[r-1]]);
    # the paths per moved cell and replica give every replica's box counts
    n_group = len(group)
    moved = digits[:, group] @ radix  # (cell, id) -> moved cell
    # byte lanes while the per-element counts of a session are no larger
    # than a block of ids; a key table per block beyond (r = 4)
    lanes = (n_group - 1) * n_cells <= _BLOCK_PATHS
    k_null = np.empty(n_permutations)
    for done in range(0, n_permutations, _REPLICA_CHUNK):
        m = min(_REPLICA_CHUNK, n_permutations - done)
        blocks = _group_id_blocks(stream, n, m, n_group)
        if lanes:
            # the paths of a cell that draw element g leave it for moved[cell, g]
            drawn = _cell_counts(cell, blocks, n_group, n_cells, m)
            table = ncell[:, None] - drawn.sum(axis=0)
            for g, to in enumerate(drawn, start=1):
                table[moved[:, g]] += to  # a permutation of the cells
        else:
            # key = moved cell * m + replica, so a path's m keys fall in
            # neighbouring bins of the count table
            moved_key = (moved * m).ravel()
            cell_key = cell * n_group
            table = np.zeros(n_cells * m, dtype=np.int64)
            for lo, ids in zip(range(0, n, _BLOCK_PATHS), blocks):
                keys = moved_key[cell_key[lo : lo + len(ids), None] + ids]
                keys += np.arange(m)
                table += np.bincount(keys.ravel(), minlength=table.size)
            table = table.reshape(n_cells, m)
        c = table.T @ in_box.T
        k_null[done : done + m] = np.abs(c[:, p1] - c[:, p2]).max(axis=1)

    n_ge = int(np.sum(k_null >= k_obs))
    d_null = k_null / n
    p_value = (1.0 + n_ge) / (n_permutations + 1.0)
    return VerificationReport(
        check="exchangeability",
        passed=p_value >= level,
        statistic=d_obs,
        p_value=p_value,
        level=level,
        seeds={"root_seed": root, "resample_seed": resample_seed},
        sample_sizes={"paths": n, "prefix": r, "replicas": n_permutations},
        caveats=(_BOREL_CAVEAT,),
        details={
            "n_probe_boxes": len(base),
            "n_eval_boxes": len(boxes),
            "n_pairs": p1.size,
            "null_quantile_99": float(sorted_quantiles(np.sort(d_null), [0.99])[0]),
        },
    )


# ---------------------------------------------------------------------------
# conditional i.i.d.
# ---------------------------------------------------------------------------


def _ks_one_sample(sample: np.ndarray, cdf_vals_sorted: np.ndarray) -> float:
    n = sample.shape[0]
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - cdf_vals_sorted, cdf_vals_sorted - (grid - 1.0 / n))))


def _chi2_independence_5x5(x, y, xs, ys) -> tuple[float, float]:
    """Chi-square independence of samples x and y on the 5x5 grid of their
    quintiles, read from their ascending copies xs and ys."""
    qs = [0.2, 0.4, 0.6, 0.8]
    ex = sorted_quantiles(xs, qs)
    ey = sorted_quantiles(ys, qs)
    cx = np.searchsorted(ex, x, side="right")
    cy = np.searchsorted(ey, y, side="right")
    counts = np.bincount(5 * cx + cy, minlength=25).reshape(5, 5).astype(np.float64)
    nrow = counts.sum(axis=1)
    ncol = counts.sum(axis=0)
    expected = np.outer(nrow, ncol) / counts.sum()
    mask = expected > 0
    stat = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
    return stat, chi_square_sf(stat, 16.0)


def conditional_iid_test(
    model: MrpModel,
    theta,
    n_samples: int,
    max_index: int = 5,
    level: float = 0.01,
    seed: int = 0,
) -> VerificationReport:
    """Check that interarrivals at a fixed parameter are i.i.d. with law K(theta).

    Per-index one-sample KS against the index-1 kernel law, plus pairwise
    chi-square independence on a 5x5 quantile grid for all index pairs up to
    `max_index`; aggregated with a Bonferroni correction at `level` in (0, 1).
    """
    _check_level(level)
    if n_samples < 100:
        raise InsufficientDataError(f"need at least 100 samples, got {n_samples}")
    if max_index < 1:
        raise ConfigurationError("max_index must be >= 1")
    pt = theta_tuple(theta)
    w = sample_conditional_interarrivals(model, pt, n_samples, max_index, seed)

    ws = [np.sort(w[:, k]) for k in range(max_index)]
    ks_results = []
    for k, xs in enumerate(ws):
        # every index is compared with the index-1 law K(theta)
        d = _ks_one_sample(xs, kernel_cdf_batch(model.kernel, 1, np.array([pt]), xs)[0])
        ks_results.append({"index": k + 1, "ks_distance": d, "p_value": ks_one_sample_pvalue(d, n_samples)})

    pair_results = []
    for i, j in itertools.combinations(range(max_index), 2):
        stat, p = _chi2_independence_5x5(w[:, i], w[:, j], ws[i], ws[j])
        pair_results.append({"pair": (i + 1, j + 1), "chi2": stat, "p_value": p})

    m = len(ks_results) + len(pair_results)
    p_min = min(r["p_value"] for r in ks_results + pair_results)
    passed = p_min >= level / m
    return VerificationReport(
        check="conditional-iid",
        passed=passed,
        statistic=min(p_min * m, 1.0),
        p_value=p_min,
        level=level,
        seeds={"seed": seed},
        sample_sizes={"samples": n_samples, "max_index": max_index, "tests": m},
        caveats=(f"Bonferroni over {m} component tests at family level {level}",),
        details={"theta": pt, "ks": ks_results, "independence": pair_results},
    )


# ---------------------------------------------------------------------------
# Monte Carlo vs exact
# ---------------------------------------------------------------------------


def mc_vs_exact(
    ensemble: Ensemble,
    queries: Sequence[BoxQuery],
    exact_values: Sequence,
) -> VerificationReport:
    """Compare empirical box frequencies against exact probabilities (4 SE rule)."""
    if not queries or len(queries) != len(exact_values):
        raise ConfigurationError("need at least one query and one exact value per query")
    probs = []
    for ev in exact_values:
        p, err = (float(ev.value), ev.error) if isinstance(ev, ExactResult) else (float(ev), 0.0)
        if not -err <= p <= 1.0 + err:  # NaN too
            raise ConfigurationError(f"exact value {p!r} is not in [0, 1] within its error bound")
        probs.append(min(max(p, 0.0), 1.0))  # quadrature rounding may overshoot by the bound
    w = ensemble.interarrivals
    n = ensemble.n_paths
    rows = []
    worst = 0.0
    ok = True
    for q, p_exact in zip(queries, probs):
        if q.dim > ensemble.n_events:
            raise ConfigurationError(
                f"query dimension {q.dim} exceeds ensemble truncation {ensemble.n_events}"
            )
        inside = np.ones(n, dtype=bool)
        for k, (lo, hi) in enumerate(q.bounds):
            col = w[:, k]
            if lo > -math.inf:
                inside &= col > lo
            if hi < math.inf:
                inside &= col <= hi
        p_hat = float(inside.mean())
        se = math.sqrt(p_exact * (1.0 - p_exact) / n)
        if se == 0.0:
            good = p_hat == p_exact
            z = 0.0 if good else math.inf
        else:
            z = abs(p_hat - p_exact) / se
            good = z <= 4.0
        worst = max(worst, z)
        ok = ok and good
        rows.append(
            {"bounds": q.bounds, "estimate": p_hat, "exact": p_exact, "se": se, "z": z}
        )
    return VerificationReport(
        check="mc-vs-exact",
        passed=ok,
        statistic=worst,
        reference=4.0,
        level=None,
        seeds={"root_seed": ensemble.root_seed},
        sample_sizes={"paths": n, "queries": len(rows)},
        caveats=(
            "per-query 4-standard-error bands; no multiplicity adjustment "
            f"across the {len(rows)} queries",
        ),
        details={"queries": rows},
    )


# ---------------------------------------------------------------------------
# mixed-Poisson special case
# ---------------------------------------------------------------------------


def _simulate_counts_at(model: MrpModel, times: np.ndarray, n_paths: int, root_seed: int):
    """Counts N_t per path at each requested time, via renewal simulation."""
    bank = StreamBank.from_root(root_seed, n_paths)
    thetas = model.mixing.sample_batch(bank)[:, 0]
    horizon = float(np.max(times))
    t_sum = np.zeros(n_paths)
    counts = np.zeros((len(times), n_paths), dtype=np.int64)
    active = np.ones(n_paths, dtype=bool)
    while active.any():
        lanes = np.flatnonzero(active)
        w = kernel_sample_batch(model.kernel, 1, thetas[lanes], bank, lanes)
        t_sum[lanes] += w
        reached = t_sum[lanes]
        for i, t in enumerate(times):
            counts[i, lanes] += reached <= t
        active[lanes] = reached <= horizon
    return thetas, counts


def _merge_bins(expected: np.ndarray, *observed: np.ndarray):
    """Merge adjacent count values, left to right, into bins with expected count >= 5.

    Each bin accumulates one value at a time; the leftover after the last
    full bin joins that bin.  The observed arrays are merged in lockstep.
    Returns the merged expected array followed by the merged observed ones.
    """
    bins = []
    acc = np.zeros(1 + len(observed))
    for col in np.column_stack([expected, *observed]):
        acc = acc + col
        if acc[0] >= 5.0:
            bins.append(acc)
            acc = np.zeros_like(acc)
    if acc.any():
        if bins:
            bins[-1] = bins[-1] + acc
        else:
            bins.append(acc)
    return tuple(np.array(bins).reshape(-1, acc.size).T)


def _chi2_gof_counts(values: np.ndarray, model: MrpModel, t: float, n: int):
    """Chi-square GOF of empirical N_t against the exact count pmf (AccuracyError
    if a pmf value missed its tolerance)."""
    kmax = int(values.max())
    observed = np.bincount(values, minlength=kmax + 1).astype(np.float64)
    probs = np.array([
        require_converged(r, DEFAULT_CONFIG).value
        for r in count_pmfs(model, [(t, k) for k in range(kmax + 1)])
    ])
    tail = max(1.0 - probs.sum(), 0.0)
    observed = np.append(observed, 0.0)
    probs = np.append(probs, tail)
    exp_b, obs_b = _merge_bins(n * probs, observed)
    if len(obs_b) < 2:
        return 0.0, 1.0, 1
    stat = float(np.sum((obs_b - exp_b) ** 2 / exp_b))
    df = len(obs_b) - 1
    return stat, chi_square_sf(stat, float(df)), df


def _chi2_two_sample_counts(x: np.ndarray, y: np.ndarray):
    """Two-sample chi-square homogeneity between integer count samples."""
    kmax = int(max(x.max(), y.max()))
    o1 = np.bincount(x, minlength=kmax + 1).astype(np.float64)
    o2 = np.bincount(y, minlength=kmax + 1).astype(np.float64)
    n1, n2 = o1.sum(), o2.sum()
    # bins chosen so the smaller sample's expected count is >= 5
    _, b1, b2 = _merge_bins(min(n1, n2) * ((o1 + o2) / (n1 + n2)), o1, o2)
    if len(b1) < 2:
        return 0.0, 1.0, 1
    stat = 0.0
    for og, ng in ((b1, n1), (b2, n2)):
        eg = ng * (b1 + b2) / (n1 + n2)
        stat += float(np.sum((og - eg) ** 2 / eg))
    df = len(b1) - 1
    return stat, chi_square_sf(stat, float(df)), df


def mixed_poisson_check(
    model: MrpModel,
    t_grid: Sequence[float],
    h: float,
    n_paths: int,
    level: float = 0.01,
    seed: int = 0,
) -> VerificationReport:
    """Verify the mixed-Poisson behaviour of a proper exponential-kernel model.

    (a) chi-square goodness of fit of the empirical law of N_t against the
    exact count pmf for each t in `t_grid`; (b) stationary increments:
    two-sample chi-square between N_{t+h} - N_t and an independently
    simulated N_h.  Aggregated with a Bonferroni correction at `level`.
    Before any draw, raises ConfigurationError unless `t_grid` holds at least
    one time, every t is finite and nonnegative, h is finite and positive, and
    `level` lies in (0, 1), and InsufficientDataError unless `n_paths` >= 1.
    """
    if model.kernel.family != "exponential" or not model.is_proper_mrp:
        raise UnsupportedModelError(
            "mixed-Poisson checks require a proper exponential-kernel model "
            "(stationary increments need not hold otherwise)"
        )
    _check_level(level)
    if not 0.0 < h < math.inf:  # false for NaN too
        raise ConfigurationError(f"increment width h must be finite and positive, got {h!r}")
    t_grid = [float(t) for t in t_grid]
    if not t_grid or not all(0.0 <= t < math.inf for t in t_grid):
        raise ConfigurationError(f"t_grid must hold finite, nonnegative times, got {t_grid!r}")
    if n_paths < 1:
        raise InsufficientDataError(f"need at least one path, got {n_paths}")

    times = sorted({t for t in t_grid} | {t + h for t in t_grid} | {h})
    times_arr = np.array(times)
    _, counts = _simulate_counts_at(model, times_arr, n_paths, seed)
    at = {t: counts[i] for i, t in enumerate(times)}
    seed_b = aux_seed(seed, 1)
    _, counts_b = _simulate_counts_at(model, np.array([h]), n_paths, seed_b)
    n_h_independent = counts_b[0]

    gof, increments = [], []
    for t in t_grid:
        if t == 0.0:
            trivially = bool(np.all(at[t] == 0))
            gof.append({"t": t, "chi2": 0.0, "p_value": 1.0 if trivially else 0.0, "df": 0,
                        "note": "boundary: counts at 0 must vanish"})
            continue
        stat, p, df = _chi2_gof_counts(at[t], model, t, n_paths)
        gof.append({"t": t, "chi2": stat, "p_value": p, "df": df})
    for t in t_grid:
        inc = at[t + h] - at[t]
        stat, p, df = _chi2_two_sample_counts(inc.astype(np.int64), n_h_independent)
        increments.append({"t": t, "h": h, "chi2": stat, "p_value": p, "df": df})

    m = len(gof) + len(increments)
    p_min = min(r["p_value"] for r in gof + increments)
    passed = p_min >= level / m
    return VerificationReport(
        check="mixed-poisson",
        passed=passed,
        statistic=min(p_min * m, 1.0),
        p_value=p_min,
        level=level,
        seeds={"seed": seed, "independent_seed": seed_b},
        sample_sizes={"paths": n_paths, "tests": m},
        caveats=(
            f"Bonferroni over {m} component tests at family level {level}",
            "increment law compared against an independently simulated N_h "
            "(same-path samples share the structural parameter)",
        ),
        details={"gof": gof, "increments": increments, "t_grid": t_grid},
    )
