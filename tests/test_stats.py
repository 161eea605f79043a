import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mrplab import stats
from mrplab.construction import build_model, simulate_ensemble
from mrplab.errors import (
    AccuracyError,
    ConfigurationError,
    DegenerateTestError,
    InsufficientDataError,
    InvalidInterarrivalError,
    ParameterDomainError,
    UnsupportedModelError,
)
from mrplab.exact import (
    MAX_BATCH,
    BoxQuery,
    ExactResult,
    count_pmf,
    joint_interarrival_probability,
)
from mrplab.kernels import (
    DiracMixing,
    GammaMixing,
    KernelSpec,
    RateMap,
    kernel_cdf,
)
from mrplab.modelfile import load_bundled_model
from mrplab.rng import UniformStream
from mrplab.stats import (
    _cell_counts,
    _default_probe_boxes,
    _group_id_blocks,
    _merge_bins,
    conditional_iid_test,
    distinct_sorted,
    exchangeability_test,
    mc_vs_exact,
    mixed_poisson_check,
    sorted_quantiles,
)


def example16_model():
    return build_model(KernelSpec("exponential", RateMap(0.0, 1.0)), GammaMixing(2.0, 1.0))


# ---------------------------------------------------------------------------
# exchangeability
# ---------------------------------------------------------------------------


def test_example16_rejected():
    ens = simulate_ensemble(example16_model(), 20_000, 2, root_seed=1)
    rep = exchangeability_test(ens, r=2)
    assert not rep.passed
    assert rep.p_value < 0.01
    assert rep.statistic > 1.0 / 21.0 - 0.02  # witness gap is visible


def test_proper_model_not_rejected():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    ens = simulate_ensemble(model, 20_000, 3, root_seed=2)
    rep = exchangeability_test(ens, r=3, n_permutations=199)
    assert rep.passed
    assert rep.p_value >= 0.01


def test_proper_exp_gamma_not_rejected_20_seeds_r3():
    # Exp kernel + Gamma(2,1) mixing at 1e5 paths, r=3: false rejections at
    # the 1% level must stay within the expected count
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    rejections = 0
    for seed in range(20):
        ens = simulate_ensemble(model, 100_000, 3, root_seed=seed)
        rep = exchangeability_test(ens, r=3, n_permutations=199, level=0.01)
        rejections += not rep.passed
    assert rejections <= 1


def test_constant_rows_give_zero_statistic():
    # every path has identical coordinates: the empirical CDF is permutation
    # symmetric by construction, so the statistic is exactly 0
    rng = np.random.default_rng(0)
    vals = rng.exponential(1.0, 500)
    data = np.column_stack([vals, vals, vals])
    rep = exchangeability_test(data, r=3, n_permutations=49)
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0
    assert rep.passed


def test_paper_witness_boxes_always_probed():
    ens = simulate_ensemble(example16_model(), 5_000, 2, root_seed=3)
    rep = exchangeability_test(ens, r=2)
    assert rep.details["n_probe_boxes"] == 11  # 3x3 pooled grid + 2 witness boxes


def test_custom_probe_boxes():
    ens = simulate_ensemble(example16_model(), 10_000, 2, root_seed=4)
    rep = exchangeability_test(ens, r=2, probe_boxes=[(2.0, 1.0)])
    assert rep.details["n_probe_boxes"] == 1
    assert not rep.passed


def test_exchangeability_errors():
    ens = simulate_ensemble(example16_model(), 100, 2, root_seed=5)
    with pytest.raises(DegenerateTestError):
        exchangeability_test(ens, r=1)
    with pytest.raises(InsufficientDataError):
        exchangeability_test(ens, r=3)  # ensemble only has 2 interarrivals
    with pytest.raises(ConfigurationError):
        exchangeability_test(ens, r=2, probe_boxes=[(1.0,)])


@pytest.mark.parametrize("kwargs", [{"n_permutations": 0}, {"n_permutations": -1},
                                    {"n_permutations": 2.5}, {"probe_boxes": []}])
def test_exchangeability_needs_a_replica_and_a_probe_box_before_drawing(monkeypatch, kwargs):
    # no replica leaves no null (n_permutations = 0 once passed with p = 1)
    monkeypatch.setattr(stats, "_group_id_blocks", _no_draws)
    w = -np.log(UniformStream(3).uniforms(200 * 2).reshape(200, 2))
    with pytest.raises(ConfigurationError, match="n_permutations|probe box"):
        exchangeability_test(w, r=2, **kwargs)


def test_exchangeability_symmetric_probes_are_degenerate():
    # a probe set closed under coordinate permutations leaves no pair to compare
    w = -np.log(UniformStream(9).uniforms(200 * 2).reshape(200, 2))
    with pytest.raises(DegenerateTestError, match="symmetric"):
        exchangeability_test(w, r=2, probe_boxes=[(1.0, 1.0)])
    # constant data: every pooled quartile coincides, so all default probes do
    with pytest.raises(DegenerateTestError, match="symmetric"):
        exchangeability_test(np.full((200, 3), 0.7), r=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_exchangeability_rejects_non_finite_data(bad):
    w = -np.log(UniformStream(3).uniforms(1000 * 3).reshape(1000, 3))
    w[17, 1] = bad
    with pytest.raises(InvalidInterarrivalError):
        exchangeability_test(w, r=2)
    w3 = w.copy()
    w3[17, 1] = 1.0
    w3[5, 2] = bad  # beyond the tested prefix: ignored
    exchangeability_test(w3, r=2)


def _group_ids(stream, n_paths, m, n_group):
    """The (n_paths, m) ids of one draw session, its path blocks joined."""
    return np.concatenate(list(_group_id_blocks(stream, n_paths, m, n_group)))


def _reference_pairs(base_boxes, r):
    """(box index pairs, boxes to count) of D = max |F(b) - F(b o sigma)|,
    built one box at a time: every probe box b, and for each permutation
    sigma that moves b, the pair (b, b o sigma), each box indexed by its
    first appearance."""
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
        for p in itertools.permutations(range(r)):
            bp = tuple(b[j] for j in p)
            if bp != b:
                pairs.append((i0, idx(bp)))
    return pairs, eval_boxes


def _integer_null_exceedances(w, r, n_permutations, resample_seed, probe_boxes=None):
    """(k_obs, n_ge) recomputed in int64 box counts by permuting the data itself.

    Replica j gives path i the group element sigma = group[id[i, j]] and
    reads its interarrivals as w[i, sigma]; the statistic is the largest
    |count(box) - count(permuted box)| over the reference pairs.
    """
    group = list(itertools.permutations(range(r)))
    if probe_boxes is None:
        probe_boxes = _default_probe_boxes(w, r)
    pairs, eval_boxes = _reference_pairs(probe_boxes, r)
    boxes = np.asarray(eval_boxes)

    def stat(x):
        counts = np.sum(np.all(x[None] <= boxes[:, None], axis=2), axis=1)
        return max(abs(int(counts[a]) - int(counts[b])) for a, b in pairs)

    n = w.shape[0]
    ids = _group_ids(UniformStream(resample_seed), n, n_permutations, len(group))
    sigma = np.asarray(group)
    k_obs = stat(w)
    k_null = [stat(np.take_along_axis(w, sigma[ids[:, j]], axis=1)) for j in range(n_permutations)]
    return k_obs, sum(k >= k_obs for k in k_null)


@pytest.mark.parametrize("seed", range(6))
def test_exchangeability_counts_tied_replicas(seed):
    # few distinct values and few paths: many replicas tie the statistic,
    # which a comparison in float32 frequencies loses
    raw = UniformStream(seed).uniforms(150 * 2).reshape(150, 2)
    w = 1.0 + np.floor(raw * 3.0)
    n_perm = 99
    rep = exchangeability_test(w, r=2, n_permutations=n_perm, resample_seed=seed + 500)
    _, n_ge = _integer_null_exceedances(w, 2, n_perm, seed + 500)
    assert rep.p_value == (1.0 + n_ge) / (n_perm + 1.0)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_exchangeability_pairs_match_a_box_by_box_reference(r):
    # random probes on a few thresholds: repeated boxes, boxes fixed by
    # some or all permutations, and infinite thresholds
    rng = np.random.default_rng(r)
    values = np.array([-np.inf, 0.4, 0.9, 1.6, np.inf])
    probes = [tuple(float(v) for v in rng.choice(values, r)) for _ in range(6)]
    probes += [probes[0], (0.9,) * r, (0.4,) * (r - 1) + (np.inf,)]
    w = -np.log(UniformStream(40 + r).uniforms(400 * r).reshape(400, r))
    n_perm = 49
    rep = exchangeability_test(w, r=r, n_permutations=n_perm, probe_boxes=probes, resample_seed=r)
    pairs, eval_boxes = _reference_pairs(probes, r)
    counts = np.array([np.sum(np.all(w <= b, axis=1)) for b in eval_boxes])
    fhat = counts / len(w)
    k_obs, n_ge = _integer_null_exceedances(w, r, n_perm, r, probes)
    assert rep.details["n_probe_boxes"] == len(probes)
    assert rep.details["n_eval_boxes"] == len(eval_boxes)
    assert rep.details["n_pairs"] == len(pairs)
    assert rep.statistic == max(abs(fhat[a] - fhat[b]) for a, b in pairs)
    assert rep.statistic * len(w) == pytest.approx(k_obs)
    assert rep.p_value == (1.0 + n_ge) / (n_perm + 1.0)


def test_exchangeability_reproducible():
    ens = simulate_ensemble(example16_model(), 5_000, 2, root_seed=6)
    r1 = exchangeability_test(ens, r=2)
    r2 = exchangeability_test(ens, r=2)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value
    assert r1.to_json() == r2.to_json()


# sha256 prefixes of exchangeability_test(ensemble, r, n_permutations).to_json()
# on the bundled models, 5000 x 4, root seed 11; 300 replicas take two chunks
PINNED_EXCHANGEABILITY = {
    ("gamma_half", 2, 199): "47d00c7d2af20861",
    ("gamma_half", 2, 300): "f8a0a3960d1cb7a9",
    ("gamma_half", 3, 199): "e82e5e2aac2ecbbc",
    ("gamma_half", 3, 300): "ebbacb793ed9dcc9",
    ("gamma_half", 4, 199): "1dc6c9ce642d1dea",
    ("gamma_half", 4, 300): "16e14a88e6cc90e9",
    ("bivariate", 2, 199): "035ef0ffd49d31fc",
    ("bivariate", 2, 300): "111ab7e8ac66f657",
    ("bivariate", 3, 199): "0de479bc429684fb",
    ("bivariate", 3, 300): "f07a589e6ac1a167",
    ("bivariate", 4, 199): "37f2bc394937bf12",
    ("bivariate", 4, 300): "66ab40d59accd989",
    ("example16", 2, 199): "738bb9a52a2dcb6e",
    ("example16", 2, 300): "cd989eb7dc040261",
    ("example16", 3, 199): "5c6bb5c81aa48994",
    ("example16", 3, 300): "dcc06d012e8103eb",
    ("example16", 4, 199): "c7106b3fe820c698",
    ("example16", 4, 300): "b27a86218dade074",
}
PINNED_CUSTOM_PROBES = [(0.5, 1.0, 2.0), (1.0, 0.3, 0.3)]
PINNED_CUSTOM_REPORT = "9f3f300447d70683"  # gamma_half, r = 3, 199 replicas


def _bundled_ensemble(name):
    model, _meta = load_bundled_model(name)
    return simulate_ensemble(model, 5000, 4, root_seed=11)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name,r,m", sorted(PINNED_EXCHANGEABILITY))
def test_exchangeability_report_pinned(name, r, m):
    rep = exchangeability_test(_bundled_ensemble(name), r=r, n_permutations=m)
    assert _sha(rep.to_json().encode()) == PINNED_EXCHANGEABILITY[name, r, m]


def test_exchangeability_custom_probes_report_pinned():
    rep = exchangeability_test(_bundled_ensemble("gamma_half"), r=3, probe_boxes=PINNED_CUSTOM_PROBES)
    assert _sha(rep.to_json().encode()) == PINNED_CUSTOM_REPORT


def test_exchangeability_fine_grid_report_pinned():
    # r = 2 on 32 distinct thresholds: 33**2 = 1089 cells, most of them
    # holding a few paths; 300 replicas take two sessions
    probes = [(0.05 * (k + 1), 0.05 * (k + 17)) for k in range(16)]
    rep = exchangeability_test(_bundled_ensemble("gamma_half"), r=2, n_permutations=300, probe_boxes=probes)
    assert _sha(rep.to_json().encode()) == "8f430dcbe2393301"


def test_exchangeability_crowded_cell_report_pinned(monkeypatch):
    # r = 2 with all 140,000 paths in one block and in the one cell
    # w1 <= 1 < w2 <= 2, which a swap moves: about 70,000 of them swap in
    # each replica, more than a 16-bit count holds
    monkeypatch.setattr(stats, "_BLOCK_PATHS", 10**6)
    u = UniformStream(7).uniforms(2 * 140_000).reshape(-1, 2)
    w = np.column_stack([u[:, 0], 1.0 + u[:, 1]])
    rep = exchangeability_test(w, r=2, n_permutations=49, probe_boxes=[(1.0, 2.0)], resample_seed=8)
    assert rep.statistic == 1.0
    assert _sha(rep.to_json().encode()) == "1e56469f783349a1"


# sha256 prefixes of the n ids of one draw session on UniformStream(1000 * g + n)
# followed by the stream's next word, which pins where the session leaves it
PINNED_GROUP_IDS = {
    (2, 1): "4e227e52f672a9ff",
    (2, 63): "800b584f6b88e3cd",
    (2, 65): "f7a36b9e3cde9824",
    (2, 199007): "c804fd8b7364f054",
    (6, 1): "0fbbd969373eaeab",
    (6, 63): "0f9065bbf47807d7",
    (6, 65): "58bb773f8ff4ac3e",
    (6, 199007): "54f784cd522d4768",
    (24, 1): "8d68ec8649afdd0d",
    (24, 63): "fff51cd88b93030c",
    (24, 65): "dac0417ded600eb2",
    (24, 199007): "0d920974945f7460",
}


@pytest.mark.parametrize(
    "g,n,block",
    [(g, n, 4096) for g, n in sorted(PINNED_GROUP_IDS)]
    + [(g, 199007, b) for g in (2, 6, 24) for b in (997, 10**6)]
    + [(24, 65, 1), (6, 65, 7)],
)
def test_uniform_group_ids_pinned(g, n, block, monkeypatch):
    # the session's path blocks, joined, give the pinned bytes at any block size
    monkeypatch.setattr(stats, "_BLOCK_PATHS", block)
    stream = UniformStream(1000 * g + n)
    ids = _group_ids(stream, n, 1, g)
    assert ids.dtype == np.int8 and ids.shape == (n, 1)
    assert _sha(ids.tobytes() + stream.raw_words(1).tobytes()) == PINNED_GROUP_IDS[g, n]


@pytest.mark.parametrize("g", [2, 6, 24])
def test_group_id_blocks_do_not_depend_on_block_size(g, monkeypatch):
    # 1000 paths x 199 replicas: the same ids and the same stream position
    # after the session, whatever the block size
    whole_stream = UniformStream(g)
    whole = _group_ids(whole_stream, 1000, 199, g)
    for block in (1, 7, 333, 10**6):
        monkeypatch.setattr(stats, "_BLOCK_PATHS", block)
        stream = UniformStream(g)
        assert np.array_equal(_group_ids(stream, 1000, 199, g), whole)
        assert stream.bank.counters[0] == whole_stream.bank.counters[0]


def test_exchangeability_does_not_depend_on_block_size(monkeypatch):
    ens = _bundled_ensemble("bivariate")
    for block in (1, 333, 4096):
        monkeypatch.setattr(stats, "_BLOCK_PATHS", block)
        for r, m in ((2, 300), (3, 199), (4, 199)):
            rep = exchangeability_test(ens, r=r, n_permutations=m)
            assert _sha(rep.to_json().encode()) == PINNED_EXCHANGEABILITY["bivariate", r, m]


@pytest.mark.parametrize("r", [2, 3])
def test_exchangeability_memory_is_bounded_by_a_path_block(r):
    # the null never holds a paths x replicas array: at 1e5 paths its
    # traced peak stays far below one float32 mask of 1e5 x 199 (76 MiB);
    # the per-cell byte-lane counts of r = 2 and 3 hold a block's ids, their
    # sorted copy and one int64 count per cell, replica and element
    model, _meta = load_bundled_model("gamma_half")
    ens = simulate_ensemble(model, 100_000, r, root_seed=1)
    tracemalloc.start()
    try:
        exchangeability_test(ens, r=r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_exchangeability_r3_null_adds_no_key_table(monkeypatch):
    # r = 3 on the default 64 cells counts in byte lanes: one bincount, the
    # observed paths per cell; r = 4 (256 cells, 23 moving elements) still
    # adds a key table per path block
    calls, real = [], np.bincount

    def bincount(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(stats.np, "bincount", bincount)
    ens = _bundled_ensemble("gamma_half")
    exchangeability_test(ens, r=3)
    assert len(calls) == 1
    exchangeability_test(ens, r=4)
    assert len(calls) > 2


def test_exchangeability_draws_pinned_at_the_verdict_edge():
    # expgamma at 1e5 paths, seed 1002, r = 3 sits at p = 0.01 exactly, one
    # replica at or above the statistic: any change to the draws or the
    # counts from them can turn this pass into a fail
    model = build_model(KernelSpec("exponential", RateMap(1.0, 0.0)), GammaMixing(2.0, 1.5))
    rep = exchangeability_test(simulate_ensemble(model, 100_000, 3, 1002), r=3)
    assert rep.p_value == 0.01 and rep.passed


# the quantile sets the package takes: pooled probe quartiles, the 5x5 grid's
# quintile edges and the null's 99th percentile
_QUANTILE_SETS = ([0.25, 0.5, 0.75], [0.2, 0.4, 0.6, 0.8], [0.99])


@given(hs.integers(1, 2000), hs.integers(1, 2000), hs.integers(0, 2**32 - 1), hs.sampled_from(_QUANTILE_SETS))
@settings(max_examples=300, deadline=None)
def test_sorted_quantiles_equal_numpy_bitwise(n, n_values, seed, qs):
    # n draws from n_values distinct values: ties whenever n_values < n
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n_values) * 10.0 ** rng.uniform(-3.0, 3.0, n_values)
    x = rng.choice(values, n)
    got = sorted_quantiles(np.sort(x), qs)
    assert got.view(np.uint64).tolist() == np.quantile(x, qs).view(np.uint64).tolist()
    if len(qs) == 1:  # the scalar form np.quantile(x, 0.99) too
        assert got[0] == np.quantile(x, qs[0])


def test_distinct_sorted_equals_unique():
    rng = np.random.default_rng(3)
    x = rng.choice([-np.inf, -1.5, 0.0, 0.25, 2.0, np.inf], size=(40, 3))
    for data in (x, x[:1, :1], np.linspace(0.0, 1.0, 201)):
        assert np.array_equal(distinct_sorted(data), np.unique(data))


@pytest.mark.parametrize("n,m,n_cells", [(1, 1, 1), (7, 3, 4), (600, 199, 36), (300, 256, 1089), (999, 9, 2)])
def test_cell_sums_equal_a_per_path_count(n, m, n_cells):
    # the counts per cell, replica and non-identity element of `_cell_counts`,
    # over two path blocks, against one add per path and replica
    rng = np.random.default_rng(n + m)
    cell = rng.integers(0, n_cells, n)
    for n_group in (2, 6):
        ids = rng.integers(0, n_group, (n, m), dtype=np.int8)
        expected = np.zeros((n_group, n_cells, m), dtype=np.int64)
        np.add.at(expected, (ids, cell[:, None], np.arange(m)), 1)
        blocks = [b for b in np.array_split(ids, 2) if len(b)]
        assert np.array_equal(_cell_counts(cell, blocks, n_group, n_cells, m), expected[1:])


def test_cell_sums_do_not_overflow_a_lane():
    # 70,000 rows of one element in one cell: far more than one byte, or one
    # 16-bit lane, can hold
    ids = np.full((70_000, 13), 3, dtype=np.int8)
    ids[::7, 4] = 5
    counts = _cell_counts(np.full(70_000, 2), [ids], 6, 3, 13)
    assert counts[2, 2].tolist() == [70_000] * 4 + [60_000] + [70_000] * 8
    assert counts[4, 2].tolist() == [0] * 4 + [10_000] + [0] * 8
    assert not counts[[0, 1, 3]].any() and not counts[:, :2].any()


def test_exchangeability_probe_threshold_limits():
    w = -np.log(UniformStream(4).uniforms(300 * 4).reshape(300, 4))
    with pytest.raises(ConfigurationError, match="NaN"):
        exchangeability_test(w, r=2, probe_boxes=[(np.nan, 1.0)])
    # 11 distinct thresholds cut 12**4 > 2**14 cells at r = 4
    boxes = [(k + 1.0, 0.5, 0.25, 0.125) for k in range(8)]
    with pytest.raises(ConfigurationError, match="cells"):
        exchangeability_test(w, r=4, probe_boxes=boxes)
    # infinite thresholds bound nothing: the (inf, 1) box is the marginal
    # event {w2 <= 1}, and (-inf, 1) is empty
    rep = exchangeability_test(w, r=2, probe_boxes=[(np.inf, 1.0), (-np.inf, 1.0)])
    share = np.mean(w[:, 1] <= 1.0) - np.mean(w[:, 0] <= 1.0)
    assert rep.statistic == abs(share)


def test_exchangeability_calibration_200_seeds():
    # run on data generated under the null; rejection rate <= 1.5x nominal
    level = 0.05
    rejections = 0
    for seed in range(200):
        w = UniformStream(seed).uniforms(2000 * 2).reshape(2000, 2)
        rep = exchangeability_test(-np.log(w), r=2, n_permutations=99, level=level,
                                   resample_seed=seed + 10_000)
        rejections += not rep.passed
    assert rejections <= 1.5 * level * 200


# ---------------------------------------------------------------------------
# conditional i.i.d.
# ---------------------------------------------------------------------------


def test_conditional_iid_proper_passes_20_seeds():
    model = build_model(KernelSpec("gamma", shape=0.5), GammaMixing(2.0, 1.5))
    failures = 0
    for seed in range(20):
        rep = conditional_iid_test(model, 0.8, n_samples=2000, max_index=4, seed=seed)
        failures += not rep.passed
    assert failures == 0


def test_conditional_iid_detects_index_scaling():
    # index-2 law is Exp(2*theta) but the reference is Exp(theta):
    # the KS distance converges to sup |e^{-x} - e^{-2x}| = 1/4 at x = ln 2
    rep = conditional_iid_test(example16_model(), 1.0, n_samples=20_000, max_index=2, seed=1)
    assert not rep.passed
    ks2 = rep.details["ks"][1]
    assert ks2["index"] == 2
    assert abs(ks2["ks_distance"] - 0.25) < 0.02
    ks1 = rep.details["ks"][0]
    assert ks1["p_value"] > 0.001  # index 1 matches Exp(theta)


def test_conditional_iid_errors():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    with pytest.raises(InsufficientDataError):
        conditional_iid_test(model, 1.0, n_samples=50)
    with pytest.raises(ParameterDomainError):
        conditional_iid_test(model, -1.0, n_samples=500)


def test_conditional_iid_report_reproducible():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    a = conditional_iid_test(model, 0.5, n_samples=500, max_index=3, seed=9)
    b = conditional_iid_test(model, 0.5, n_samples=500, max_index=3, seed=9)
    assert a.to_json() == b.to_json()


def test_conditional_iid_calibration_200_seeds():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    level = 0.05
    failures = sum(
        not conditional_iid_test(model, 0.7, n_samples=400, max_index=3, level=level, seed=s).passed
        for s in range(200)
    )
    assert failures <= 1.5 * level * 200


# ---------------------------------------------------------------------------
# Monte Carlo vs exact
# ---------------------------------------------------------------------------


def test_mc_vs_exact_example16():
    model = example16_model()
    ens = simulate_ensemble(model, 100_000, 2, root_seed=11)
    queries = [BoxQuery.upper(2.0, 1.0), BoxQuery.upper(1.0, 2.0)]
    exact = [joint_interarrival_probability(model, q) for q in queries]
    rep = mc_vs_exact(ens, queries, exact)
    assert rep.passed
    assert rep.statistic <= 4.0


def test_mc_vs_exact_full_box_is_exact_one():
    model = example16_model()
    ens = simulate_ensemble(model, 1000, 2, root_seed=12)
    q = BoxQuery(((-math.inf, math.inf), (-math.inf, math.inf)))
    rep = mc_vs_exact(ens, [q], [1.0])
    assert rep.passed
    assert rep.details["queries"][0]["estimate"] == 1.0


def test_mc_vs_exact_dirac_single_coordinate():
    theta = 1.1
    model = build_model(KernelSpec("exponential"), DiracMixing(theta))
    ens = simulate_ensemble(model, 50_000, 1, root_seed=13)
    q = BoxQuery.upper(0.9)
    rep = mc_vs_exact(ens, [q], [kernel_cdf(model.kernel, 1, theta, 0.9)])
    assert rep.passed


@pytest.mark.parametrize("n_queries,value", [(0, None), (1, math.nan), (1, 1.5), (1, -0.2)])
def test_mc_vs_exact_needs_queries_and_probabilities(n_queries, value):
    ens = simulate_ensemble(example16_model(), 100, 2, root_seed=15)
    queries = [BoxQuery.upper(2.0, 1.0)] * n_queries
    with pytest.raises(ConfigurationError):
        mc_vs_exact(ens, queries, [value] * n_queries)


def test_mc_vs_exact_accepts_rounding_within_the_error_bound():
    # a box probability near 1 may integrate to just above it; within its
    # error bound that is the probability 1, and beyond it a fault
    ens = simulate_ensemble(example16_model(), 100, 2, root_seed=15)
    q = BoxQuery.upper(math.inf)
    rep = mc_vs_exact(ens, [q], [ExactResult(1.0 + 1e-12, 1e-10, "quadrature")])
    assert rep.passed and rep.details["queries"][0]["exact"] == 1.0
    for value, error in ((1.0 + 1e-12, 0.0), (1.0 + 1e-9, 1e-10), (-1e-9, 1e-10)):
        with pytest.raises(ConfigurationError, match="error bound"):
            mc_vs_exact(ens, [q], [ExactResult(value, error, "quadrature")])


def test_mc_vs_exact_detects_wrong_reference():
    model = example16_model()
    ens = simulate_ensemble(model, 100_000, 2, root_seed=14)
    rep = mc_vs_exact(ens, [BoxQuery.upper(2.0, 1.0)], [0.5])
    assert not rep.passed


# ---------------------------------------------------------------------------
# mixed-Poisson checks
# ---------------------------------------------------------------------------


def test_merge_bins_leftover_joins_the_last_full_bin():
    expected = np.array([3.0, 2.5, 6.0, 1.0, 0.5])
    e, o1, o2 = _merge_bins(expected, np.array([1.0, 4.0, 7.0, 2.0, 3.0]), np.arange(5.0))
    assert (e.tolist(), o1.tolist(), o2.tolist()) == ([5.5, 7.5], [5.0, 12.0], [1.0, 9.0])
    # no full bin: everything is one bin
    e, o = _merge_bins(np.array([1.0, 2.0]), np.array([4.0, 0.0]))
    assert (e.tolist(), o.tolist()) == ([3.0], [4.0])


def test_mixed_poisson_gamma_mixing_passes():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    rep = mixed_poisson_check(model, t_grid=(0.5, 1.0, 2.0), h=0.5, n_paths=50_000, seed=3)
    assert rep.passed


def test_mixed_poisson_empirical_void_probability():
    g, a = 2.0, 1.5
    model = build_model(KernelSpec("exponential"), GammaMixing(g, a))
    from mrplab.stats import _simulate_counts_at

    for t in [0.5, 2.0]:
        _, counts = _simulate_counts_at(model, np.array([t]), 100_000, 7)
        p_hat = np.mean(counts[0] == 0)
        ref = (g / (g + t)) ** a
        se = math.sqrt(ref * (1 - ref) / 100_000)
        assert abs(p_hat - ref) <= 4.0 * se


def test_mixed_poisson_dirac_is_poisson_fit():
    model = build_model(KernelSpec("exponential"), DiracMixing(1.2))
    rep = mixed_poisson_check(model, t_grid=(1.0, 3.0), h=1.0, n_paths=50_000, seed=4)
    assert rep.passed
    for entry in rep.details["gof"]:
        assert entry["p_value"] > 0.01 / rep.sample_sizes["tests"]


def test_mixed_poisson_t_zero_trivial():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    rep = mixed_poisson_check(model, t_grid=(0.0, 1.0), h=0.5, n_paths=5_000, seed=5)
    first = rep.details["gof"][0]
    assert first["t"] == 0.0 and first["p_value"] == 1.0


@pytest.mark.parametrize("n_paths", [0, -5])
def test_mixed_poisson_empty_sample_is_insufficient_data(monkeypatch, n_paths):
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))

    def no_draw(*args):
        raise AssertionError("drew counts")

    monkeypatch.setattr(stats, "_simulate_counts_at", no_draw)
    with pytest.raises(InsufficientDataError, match="at least one path"):
        mixed_poisson_check(model, t_grid=(0.5, 1.0), h=0.5, n_paths=n_paths)


def test_mixed_poisson_rejects_non_exponential():
    model = build_model(KernelSpec("gamma", shape=0.5), GammaMixing(2.0, 1.0))
    with pytest.raises(UnsupportedModelError):
        mixed_poisson_check(model, t_grid=(1.0,), h=0.5, n_paths=1000)
    improper = example16_model()
    with pytest.raises(UnsupportedModelError):
        mixed_poisson_check(improper, t_grid=(1.0,), h=0.5, n_paths=1000)


def test_mixed_poisson_calibration_200_seeds():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    level = 0.05
    failures = 0
    for seed in range(200):
        rep = mixed_poisson_check(model, t_grid=(0.5, 1.0), h=0.5, n_paths=2000,
                                  level=level, seed=seed)
        failures += not rep.passed
    assert failures <= 1.5 * level * 200


def test_mixed_poisson_reproducible():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    a = mixed_poisson_check(model, t_grid=(0.5,), h=0.5, n_paths=2000, seed=8)
    b = mixed_poisson_check(model, t_grid=(0.5,), h=0.5, n_paths=2000, seed=8)
    assert a.to_json() == b.to_json()


def _expgamma():
    return build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.5))


def _record_count_batches(monkeypatch):
    """Patch the fit's `count_pmfs` to record each call's points and results."""
    calls = []
    answer = stats.count_pmfs

    def recording(model, points, *args):
        results = answer(model, points, *args)
        calls.append((list(points), results))
        return results

    monkeypatch.setattr(stats, "count_pmfs", recording)
    return calls


def test_mixed_poisson_fit_takes_one_count_batch_per_time(monkeypatch):
    # the grid and path count of `mrplab verify`, plus t = 0, which needs no pmf
    calls = _record_count_batches(monkeypatch)
    mixed_poisson_check(_expgamma(), t_grid=(0.0, 0.5, 1.0, 2.0), h=0.5, n_paths=100_000, seed=11)
    assert [points[0][0] for points, _ in calls] == [0.5, 1.0, 2.0]
    for points, _ in calls:
        assert [n for _, n in points] == list(range(len(points)))


def test_mixed_poisson_fit_batches_stay_within_the_bound(monkeypatch, integral_columns):
    # at t = 100 the largest count is several times MAX_BATCH: one call, whose
    # integrals take at most MAX_BATCH counts each
    calls = _record_count_batches(monkeypatch)
    mixed_poisson_check(_expgamma(), t_grid=(100.0,), h=0.5, n_paths=300, seed=12)
    [(points, _)] = calls
    assert [n for _, n in points] == list(range(len(points)))
    assert len(integral_columns) > 2 and max(integral_columns) == MAX_BATCH
    assert sum(integral_columns) == len(points)


def test_mixed_poisson_fit_probabilities_match_single_counts(monkeypatch):
    model = _expgamma()
    calls = _record_count_batches(monkeypatch)
    mixed_poisson_check(model, t_grid=(0.5, 2.0), h=0.5, n_paths=20_000, seed=13)
    for points, results in calls:
        for (t, n), r in zip(points, results):
            single = count_pmf(model, t, n)
            assert abs(r.value - single.value) <= r.error + single.error


def test_mixed_poisson_fit_raises_on_a_missed_tolerance(monkeypatch):
    answer = stats.count_pmfs

    def one_missed(model, points, *args):
        results = answer(model, points, *args)
        results[1] = dataclasses.replace(results[1], converged=False)
        return results

    monkeypatch.setattr(stats, "count_pmfs", one_missed)
    with pytest.raises(AccuracyError):
        mixed_poisson_check(_expgamma(), t_grid=(1.0,), h=0.5, n_paths=2000, seed=14)


def _no_draws(*args):
    raise AssertionError("counts were simulated")


@pytest.mark.parametrize(
    "t_grid,h",
    [((math.inf,), 0.5), ((math.nan,), 0.5), ((1.0,), math.inf), ((1.0,), math.nan), ((), 0.5)],
)
def test_mixed_poisson_rejects_non_finite_times_before_drawing(monkeypatch, t_grid, h):
    monkeypatch.setattr(stats, "_simulate_counts_at", _no_draws)
    with pytest.raises(ConfigurationError):
        mixed_poisson_check(_expgamma(), t_grid=t_grid, h=h, n_paths=1000)


@pytest.mark.parametrize("level", [math.nan, 2.0, 1.0, 0.0, -0.5])
@pytest.mark.parametrize("check", ["exchangeability", "conditional-iid", "mixed-poisson"])
def test_checks_reject_a_level_outside_0_1(check, level):
    model = _expgamma()
    with pytest.raises(ConfigurationError, match="level"):
        if check == "exchangeability":
            exchangeability_test(simulate_ensemble(model, 200, 2, root_seed=1), r=2, level=level)
        elif check == "conditional-iid":
            conditional_iid_test(model, 0.7, n_samples=200, level=level)
        else:
            mixed_poisson_check(model, t_grid=(1.0,), h=0.5, n_paths=200, level=level)


# ---------------------------------------------------------------------------
# counting pmf consistency between stats simulation and exact module
# ---------------------------------------------------------------------------


def test_simulated_counts_match_exact_pmf():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.5))
    from mrplab.stats import _simulate_counts_at

    t = 1.5
    _, counts = _simulate_counts_at(model, np.array([t]), 200_000, 33)
    for n in range(4):
        p = count_pmf(model, t, n).value
        p_hat = np.mean(counts[0] == n)
        se = math.sqrt(p * (1 - p) / 200_000)
        assert abs(p_hat - p) <= 4.0 * se


def test_simulated_counts_bytes_pinned():
    # expgamma at the times the CLI's mixed-Poisson suite reads (t_grid
    # 0.5, 1, 2 and h = 0.5); sha256 prefixes of the counts and the thetas
    import hashlib

    from mrplab.stats import _simulate_counts_at

    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.5))
    thetas, counts = _simulate_counts_at(model, np.array([0.5, 1.0, 1.5, 2.0, 2.5]), 100_000, 9)
    assert counts.shape == (5, 100_000) and counts.dtype == np.int64
    assert hashlib.sha256(counts.tobytes()).hexdigest().startswith("95437fed7be9b72b")
    assert hashlib.sha256(thetas.tobytes()).hexdigest().startswith("20187d44249b652d")


def test_exchangeability_prefix_cap():
    ens = simulate_ensemble(example16_model(), 200, 6, root_seed=15)
    with pytest.raises(ConfigurationError):
        exchangeability_test(ens, r=5)
