import itertools
import math

import numpy as np
import pytest

from mrplab.construction import build_model, simulate_ensemble
from mrplab.errors import (
    ConfigurationError,
    DegenerateTestError,
    InsufficientDataError,
    InvalidInterarrivalError,
    ParameterDomainError,
    UnsupportedModelError,
)
from mrplab.exact import BoxQuery, count_pmf, joint_interarrival_probability
from mrplab.kernels import (
    DiracMixing,
    GammaMixing,
    KernelSpec,
    RateMap,
    kernel_cdf,
)
from mrplab.rng import UniformStream
from mrplab.stats import (
    _default_probe_boxes,
    _merge_bins,
    _uniform_group_ids,
    conditional_iid_test,
    exchangeability_test,
    mc_vs_exact,
    mixed_poisson_check,
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


def _integer_null_exceedances(w, r, n_permutations, resample_seed):
    """n_ge recomputed in int64 box counts by permuting the data itself.

    Replica j gives path i the group element sigma = group[id[i, j]] and
    reads its interarrivals as w[i, sigma]; the statistic is the largest
    |count(box) - count(permuted box)| over the probe boxes.
    """
    group = list(itertools.permutations(range(r)))
    boxes = [np.asarray(b) for b in _default_probe_boxes(w, r)]
    perms = [p for p in group if p != tuple(range(r))]

    def stat(x):
        return max(
            abs(int(np.sum(np.all(x <= b, axis=1))) - int(np.sum(np.all(x <= b[list(p)], axis=1))))
            for b in boxes for p in perms
        )

    n = w.shape[0]
    ids = _uniform_group_ids(UniformStream(resample_seed), n * n_permutations, len(group))
    ids = ids.reshape(n, n_permutations)
    sigma = np.asarray(group)
    k_obs = stat(w)
    k_null = [stat(np.take_along_axis(w, sigma[ids[:, j]], axis=1)) for j in range(n_permutations)]
    return sum(k >= k_obs for k in k_null)


@pytest.mark.parametrize("seed", range(6))
def test_exchangeability_counts_tied_replicas(seed):
    # few distinct values and few paths: many replicas tie the statistic,
    # which a comparison in float32 frequencies loses
    raw = UniformStream(seed).uniforms(150 * 2).reshape(150, 2)
    w = 1.0 + np.floor(raw * 3.0)
    n_perm = 99
    rep = exchangeability_test(w, r=2, n_permutations=n_perm, resample_seed=seed + 500)
    n_ge = _integer_null_exceedances(w, 2, n_perm, seed + 500)
    assert rep.p_value == (1.0 + n_ge) / (n_perm + 1.0)


def test_exchangeability_reproducible():
    ens = simulate_ensemble(example16_model(), 5_000, 2, root_seed=6)
    r1 = exchangeability_test(ens, r=2)
    r2 = exchangeability_test(ens, r=2)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value
    assert r1.to_json() == r2.to_json()


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
