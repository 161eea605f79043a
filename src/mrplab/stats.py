"""Statistical verification of mixture structure on simulated data.

The exchangeability check is a randomization test: the statistic is the
largest discrepancy of the empirical joint CDF over probe boxes and their
coordinate permutations, and the null distribution is generated by permuting
each path's first r interarrivals independently -- exactly the invariance
the null hypothesis asserts.  Probe thresholds default to quartiles of the
pooled first-r interarrivals (a permutation-invariant function of the data,
which keeps the randomization test exact) on a tensor grid, plus the fixed
witness boxes (2,1)/(1,2) when r = 2.

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
from .exact import BoxQuery, ExactResult, count_pmf
from .kernels import kernel_cdf_batch, kernel_sample_batch
from .report import VerificationReport
from .rng import StreamBank, UniformStream
from .special import chi_square_sf, ks_one_sample_pvalue

_BOREL_CAVEAT = (
    "equivalence of mixture structure and exchangeability is applied in the "
    "standard Borel setting (countably generated sigma-algebra, perfect law); "
    "every model built by this package satisfies it"
)

WITNESS_BOXES = ((2.0, 1.0), (1.0, 2.0))


# ---------------------------------------------------------------------------
# exchangeability
# ---------------------------------------------------------------------------


def _default_probe_boxes(w: np.ndarray, r: int) -> list[tuple]:
    pooled = np.quantile(w.ravel(), [0.25, 0.5, 0.75])
    boxes = [tuple(b) for b in itertools.product(pooled, repeat=r)]
    if r == 2:
        boxes.extend(WITNESS_BOXES)
    seen: dict = {}
    for b in boxes:
        seen.setdefault(b, None)
    return list(seen)


def _uniform_group_ids(stream: UniformStream, n: int, n_group: int) -> np.ndarray:
    """n i.i.d. integers uniform on {0, ..., n_group-1} from packed stream words.

    Exactly uniform: single bits for a two-element group, otherwise bytes with
    rejection above the largest multiple of the group size.
    """
    if n_group == 2:
        words = stream.raw_words((n + 63) // 64)
        bits = np.unpackbits(words.view(np.uint8))[:n]
        return bits.astype(np.int8)
    out = np.empty(n, dtype=np.int8)
    cap = (256 // n_group) * n_group
    filled = 0
    while filled < n:
        todo = n - filled
        words = stream.raw_words((todo + 7) // 8 + 4)
        raw = words.view(np.uint8)
        vals = raw[raw < cap][:todo] % n_group
        out[filled : filled + vals.size] = vals
        filled += vals.size
    return out


def _cdf_discrepancy_pairs(base_boxes, perms):
    """(box index pairs, eval box list) for D = max |F(w) - F(w o pi)|."""
    index: dict = {}
    eval_boxes: list = []

    def idx(box):
        if box not in index:
            index[box] = len(eval_boxes)
            eval_boxes.append(box)
        return index[box]

    pairs = []
    for b in base_boxes:
        i0 = idx(b)
        for p in perms:
            bp = tuple(b[j] for j in p)
            if bp != b:
                pairs.append((i0, idx(bp)))
    return pairs, eval_boxes, index


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
        Rejection level; the report fails exactly when the resampling
        p-value is below it.
    """
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
        base_boxes = _default_probe_boxes(w, r)
    else:
        base_boxes = [tuple(float(v) for v in b) for b in probe_boxes]
        if any(len(b) != r for b in base_boxes):
            raise ConfigurationError("probe boxes must have r coordinates")

    group = list(itertools.permutations(range(r)))
    stat_perms = [p for p in group if p != tuple(range(r))]
    pairs, eval_boxes, index = _cdf_discrepancy_pairs(base_boxes, stat_perms)
    if not pairs:
        raise DegenerateTestError(
            "every probe box is symmetric under coordinate permutations, so the "
            "statistic is identically 0"
        )

    v = np.empty((len(eval_boxes), n), dtype=np.float32)
    for e, box in enumerate(eval_boxes):
        v[e] = np.all(w <= np.asarray(box)[None, :], axis=1)

    fhat = v.mean(axis=1, dtype=np.float64)
    p1 = np.array([a for a, _ in pairs])
    p2 = np.array([b for _, b in pairs])
    d_obs = float(np.abs(fhat[p1] - fhat[p2]).max())
    # the null is compared in integer box counts, which float32 holds exactly
    # below 2**24 paths, so a replica that ties the statistic counts as one
    row_sums_id = v.sum(axis=1, dtype=np.float64)
    k_obs = float(np.abs(row_sums_id[p1] - row_sums_id[p2]).max())

    if resample_seed is None:
        resample_seed = aux_seed(root, 0)
    stream = UniformStream(resample_seed)

    # row map for each group element: eval box e under data-permutation sigma
    # contributes the indicator of box_e o sigma^{-1}
    inv = {p: tuple(np.argsort(p)) for p in group}
    rowmap = {}
    for gi, sig in enumerate(group):
        si = inv[sig]
        rowmap[gi] = np.array([index[tuple(box[j] for j in si)] for box in eval_boxes])

    n_group = len(group)
    k_null = np.empty(n_permutations)
    chunk = 256
    done = 0
    while done < n_permutations:
        m = min(chunk, n_permutations - done)
        assign = _uniform_group_ids(stream, n * m, n_group).reshape(n, m)
        # C = sum_sigma V[rowmap_sigma] @ onehot_sigma; the identity term is
        # folded in through the complement so only n_group-1 GEMMs remain
        c = np.tile(row_sums_id[rowmap[0]][:, None].astype(np.float32), (1, m))
        for gi in range(1, n_group):
            mask = (assign == gi).astype(np.float32)
            c += (v[rowmap[gi]] - v[rowmap[0]]) @ mask
        k_null[done : done + m] = np.abs(c[p1] - c[p2]).max(axis=0)
        done += m

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
            "n_probe_boxes": len(base_boxes),
            "n_eval_boxes": len(eval_boxes),
            "n_pairs": len(pairs),
            "null_quantile_99": float(np.quantile(d_null, 0.99)) if n_permutations else None,
        },
    )


# ---------------------------------------------------------------------------
# conditional i.i.d.
# ---------------------------------------------------------------------------


def _ks_one_sample(sample: np.ndarray, cdf_vals_sorted: np.ndarray) -> float:
    n = sample.shape[0]
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - cdf_vals_sorted, cdf_vals_sorted - (grid - 1.0 / n))))


def _chi2_independence_5x5(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    qs = [0.2, 0.4, 0.6, 0.8]
    ex = np.quantile(x, qs)
    ey = np.quantile(y, qs)
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
    `max_index`; aggregated with a Bonferroni correction at `level`.
    """
    if n_samples < 100:
        raise InsufficientDataError(f"need at least 100 samples, got {n_samples}")
    if max_index < 1:
        raise ConfigurationError("max_index must be >= 1")
    pt = (float(theta),) if np.isscalar(theta) else tuple(float(v) for v in theta)
    w = sample_conditional_interarrivals(model, pt, n_samples, max_index, seed)

    ks_results = []
    for k in range(max_index):
        xs = np.sort(w[:, k])
        # every index is compared with the index-1 law K(theta)
        d = _ks_one_sample(xs, kernel_cdf_batch(model.kernel, 1, np.array([pt]), xs)[0])
        ks_results.append({"index": k + 1, "ks_distance": d, "p_value": ks_one_sample_pvalue(d, n_samples)})

    pair_results = []
    for i, j in itertools.combinations(range(max_index), 2):
        stat, p = _chi2_independence_5x5(w[:, i], w[:, j])
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
    if len(queries) != len(exact_values):
        raise ConfigurationError("need one exact value per query")
    w = ensemble.interarrivals
    n = ensemble.n_paths
    rows = []
    worst = 0.0
    ok = True
    for q, ev in zip(queries, exact_values):
        p_exact = ev.value if isinstance(ev, ExactResult) else float(ev)
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
        se = math.sqrt(max(p_exact * (1.0 - p_exact), 0.0) / n)
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


def _merge_bins(expected: np.ndarray, *observed: np.ndarray, min_expected: float = 5.0):
    """Merge adjacent count values, left to right, into bins with expected count >= min_expected.

    Each bin accumulates one value at a time; the leftover after the last
    full bin joins that bin.  The observed arrays are merged in lockstep.
    Returns the merged expected array followed by the merged observed ones.
    """
    bins = []
    acc = np.zeros(1 + len(observed))
    for col in np.column_stack([expected, *observed]):
        acc = acc + col
        if acc[0] >= min_expected:
            bins.append(acc)
            acc = np.zeros_like(acc)
    if acc.any():
        if bins:
            bins[-1] = bins[-1] + acc
        else:
            bins.append(acc)
    return tuple(np.array(bins).reshape(-1, acc.size).T)


def _chi2_gof_counts(values: np.ndarray, model: MrpModel, t: float, n: int):
    """Chi-square GOF of empirical N_t against the exact count pmf."""
    kmax = int(values.max())
    observed = np.bincount(values, minlength=kmax + 1).astype(np.float64)
    probs = np.array([count_pmf(model, t, k).value for k in range(kmax + 1)])
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
    """
    if model.kernel.family != "exponential" or not model.is_proper_mrp:
        raise UnsupportedModelError(
            "mixed-Poisson checks require a proper exponential-kernel model "
            "(stationary increments need not hold otherwise)"
        )
    if h <= 0.0:
        raise ConfigurationError("increment width h must be positive")
    t_grid = [float(t) for t in t_grid]
    if any(t < 0.0 for t in t_grid):
        raise ConfigurationError("t_grid must be nonnegative")

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
