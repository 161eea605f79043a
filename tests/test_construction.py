import hashlib
import math

import numpy as np
import pytest
import scipy.stats as st

from mrplab.construction import (
    MrpPath,
    build_model,
    ensemble_csv_text,
    sample_conditional_path,
    sample_path,
    sample_conditional_interarrivals,
    simulate_ensemble,
    write_ensemble,
)
from mrplab.errors import (
    CapacityError,
    ConfigurationError,
    InvalidInterarrivalError,
    ParameterDomainError,
)
from mrplab.kernels import (
    DiracMixing,
    DiscreteMixing,
    GammaMarginal,
    GammaMixing,
    KernelSpec,
    KERNEL_FAMILIES,
    ProductRectangleMixing,
    RateMap,
    UniformMarginal,
    kernel_cdf,
)
from mrplab.rng import UniformStream, child_seed
from mrplab.special import ks_critical_value

EXP = KernelSpec("exponential")
EXP_SCALED = KernelSpec("exponential", RateMap(0.0, 1.0))


def example16_model():
    return build_model(EXP_SCALED, GammaMixing(2.0, 1.0))


# ---------------------------------------------------------------------------
# build_model
# ---------------------------------------------------------------------------


def test_constant_family_is_proper():
    model = build_model(EXP, GammaMixing(2.0, 1.0))
    assert model.is_proper_mrp
    assert model.warnings == ()


def test_index_scaled_family_flagged_not_rejected():
    model = example16_model()
    assert not model.is_proper_mrp
    assert any("not a proper" in w for w in model.warnings)


def test_bivariate_gamma_kernel_accepted():
    kernel = KernelSpec("gamma", shape="theta2")
    mixing = ProductRectangleMixing((GammaMarginal(2.0, 2.0), UniformMarginal(0.2, 0.8)))
    model = build_model(kernel, mixing)
    assert model.is_proper_mrp
    assert model.param_dim == 2


def test_poisson_kernel_rejected_mass_at_zero():
    # a Poisson law has an atom at 0, so it is no interarrival kernel family
    assert KERNEL_FAMILIES == ("exponential", "gamma")
    with pytest.raises(ConfigurationError, match="unknown kernel family 'poisson'"):
        KernelSpec("poisson")


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        build_model(KernelSpec("gamma", shape="theta2"), GammaMixing(2.0, 1.0))
    with pytest.raises(ConfigurationError):
        build_model(EXP, ProductRectangleMixing((UniformMarginal(0, 1), UniformMarginal(0, 1))))


def test_support_admissibility_enforced():
    with pytest.raises(ConfigurationError):
        build_model(EXP, DiracMixing(-1.0))
    with pytest.raises(ConfigurationError):
        build_model(EXP, DiscreteMixing((1.0, -2.0), (0.5, 0.5)))
    with pytest.raises(ConfigurationError):
        build_model(EXP, ProductRectangleMixing((UniformMarginal(-0.5, 1.0),)))


def test_model_hash_stable():
    a = example16_model()
    b = example16_model()
    assert a.model_hash() == b.model_hash()
    assert a.model_hash() != build_model(EXP, GammaMixing(2.0, 1.0)).model_hash()


GAMMA_HALF_KERNEL = KernelSpec("gamma", shape=0.5)

# (mixing, model_hash prefix, sha256 prefix of the 1000 x 4 seed-7 CSV or None)
PINNED = {
    "dirac": (DiracMixing(1.3), "190a5f7a6fc934e8", "1d53bf824b908bc8"),
    "gamma": (GammaMixing(2.0, 1.5), "4ccb802c88a0871f", "d42d311f95055018"),
    "product_rectangle": (
        ProductRectangleMixing((GammaMarginal(2.0, 1.5),)), "8b113629a04e2380", "d42d311f95055018"
    ),
    "discrete": (DiscreteMixing((1.3,), (1.0,)), "a997e6f6cd5aaeac", "3f3396f5309a9a23"),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_model_hash_and_csv_bytes_pinned(kind):
    # a point mass draws no uniform, so its interarrivals differ from those of
    # a one-atom discrete measure; gamma mixing and a one-gamma product sample
    # the same bytes but keep their own model-file spelling and hash
    mixing, model_hash, csv_hash = PINNED[kind]
    model = build_model(GAMMA_HALF_KERNEL, mixing)
    assert mixing.kind == kind
    assert model.model_hash().startswith(model_hash)
    text = ensemble_csv_text(simulate_ensemble(model, 1000, 4, root_seed=7))
    assert hashlib.sha256(text.encode()).hexdigest().startswith(csv_hash)


# the bench models gamma_half and bivariate (a 2-D theta)
BENCH_MODELS = {
    "gamma_half": (GAMMA_HALF_KERNEL, GammaMixing(2.0, 1.5)),
    "bivariate": (
        KernelSpec("gamma", shape="theta2"),
        ProductRectangleMixing((GammaMarginal(2.0, 2.0), UniformMarginal(0.2, 0.8))),
    ),
}

# sha256 prefixes of ensemble_csv_text(simulate_ensemble(model, n, m, seed)):
# more than one render block, one block plus one path, and a single row
PINNED_CSV = [
    ("gamma_half", (20000, 8, 5), "e3afff7bfcf96415"),
    ("gamma_half", (8193, 3, 11), "0ba828659029c114"),
    ("gamma_half", (1, 1, 0), "6c9bad0d66b8cea4"),
    ("bivariate", (20000, 8, 5), "3dd359f4b7f19649"),
    ("bivariate", (8193, 3, 11), "4ae65af1ac632830"),
    ("bivariate", (1, 1, 0), "75a06fd08bc3d77b"),
]


@pytest.mark.parametrize("name,size,csv_hash", PINNED_CSV)
def test_bench_model_csv_bytes_pinned(name, size, csv_hash):
    model = build_model(*BENCH_MODELS[name])
    text = ensemble_csv_text(simulate_ensemble(model, *size))
    assert hashlib.sha256(text.encode()).hexdigest().startswith(csv_hash)


# sha256 prefixes of the bytes of sample_conditional_interarrivals at the
# mixing mean, 1e5 x 3, root seed 5 (more than one ensemble chunk)
PINNED_CONDITIONAL = {
    "gamma_half": "e826f99e571c04e5",
    "bivariate": "25fd17fcb06996a6",
    "expgamma": "dada00e43820ad31",
}


@pytest.mark.parametrize("name", sorted(PINNED_CONDITIONAL))
def test_conditional_interarrivals_bytes_pinned(name):
    models = {**BENCH_MODELS, "expgamma": (EXP, GammaMixing(2.0, 1.5))}
    model = build_model(*models[name])
    w = sample_conditional_interarrivals(model, model.mixing.mean_point(), 100_000, 3, 5)
    assert w.shape == (100_000, 3)
    assert hashlib.sha256(w.tobytes()).hexdigest().startswith(PINNED_CONDITIONAL[name])


# ---------------------------------------------------------------------------
# sample_path / sample_conditional_path
# ---------------------------------------------------------------------------


def test_dirac_mixing_fixes_theta():
    model = build_model(EXP, DiracMixing(3.0))
    for seed in range(5):
        assert sample_path(model, 4, seed).theta == (3.0,)


def test_path_determinism():
    model = example16_model()
    p1 = sample_path(model, 6, 123)
    p2 = sample_path(model, 6, 123)
    assert p1.theta == p2.theta
    assert np.array_equal(p1.interarrivals, p2.interarrivals)
    assert np.array_equal(p1.arrivals, p2.arrivals)


def test_path_structure():
    model = example16_model()
    p = sample_path(model, 5, 9)
    assert p.arrivals[0] == 0.0
    assert np.all(p.interarrivals > 0.0)
    assert np.all(np.diff(p.arrivals) > 0.0)
    assert np.allclose(np.diff(p.arrivals), p.interarrivals)


def test_single_event_path():
    model = example16_model()
    p = sample_conditional_path(model, 1.0, 1, 4)
    assert p.n_events == 1
    assert p.arrivals[1] == p.interarrivals[0]


def test_conditional_theta_outside_support():
    model = example16_model()
    with pytest.raises(ParameterDomainError):
        sample_conditional_path(model, -1.0, 3, 0)
    with pytest.raises(ParameterDomainError):
        sample_conditional_path(model, 0.0, 3, 0)
    bi = build_model(
        KernelSpec("gamma", shape="theta2"),
        ProductRectangleMixing((GammaMarginal(2.0, 2.0), UniformMarginal(0.2, 0.8))),
    )
    with pytest.raises(ParameterDomainError):
        sample_conditional_path(bi, (1.0, 0.9), 3, 0)


def test_conditional_moments_index_scaled():
    # conditional law at index n is exponential with rate n*theta: means 1, 1/2
    model = example16_model()
    w = sample_conditional_interarrivals(model, 1.0, 200_000, 2, 7)
    se1 = 1.0 / math.sqrt(200_000)
    se2 = 0.5 / math.sqrt(200_000)
    assert abs(w[:, 0].mean() - 1.0) <= 4.0 * se1
    assert abs(w[:, 1].mean() - 0.5) <= 4.0 * se2


def test_conditional_ks_against_kernel_cdf():
    model = build_model(EXP, GammaMixing(2.0, 1.0))
    n = 50_000
    w = sample_conditional_interarrivals(model, 0.7, n, 1, 21)
    xs = np.sort(w[:, 0])
    f = -np.expm1(-0.7 * xs)
    grid = np.arange(1, n + 1) / n
    d = np.max(np.maximum(grid - f, f - (grid - 1.0 / n)))
    assert d < ks_critical_value(n, 0.01)


def test_conditional_iid_per_index_cdfs_indistinguishable():
    # proper model: per-index conditional samples pairwise KS-indistinguishable
    model = build_model(KernelSpec("gamma", shape=0.5), GammaMixing(2.0, 1.5))
    w = sample_conditional_interarrivals(model, 1.2, 20_000, 10, 5)
    failures = 0
    from itertools import combinations

    for i, j in combinations(range(10), 2):
        p = st.ks_2samp(w[:, i], w[:, j]).pvalue
        failures += p < 0.01
    assert failures <= 2  # 45 tests at the 1% level


def test_mrppath_rejects_nonpositive():
    with pytest.raises(InvalidInterarrivalError):
        MrpPath.from_interarrivals(1.0, [0.5, -0.1])


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_single_path_ensemble_reduces_to_sample_path():
    model = example16_model()
    ens = simulate_ensemble(model, 1, 5, root_seed=77)
    direct = sample_path(model, 5, UniformStream(child_seed(77, 0)))
    assert tuple(ens.thetas[0]) == direct.theta
    assert np.array_equal(ens.interarrivals[0], direct.interarrivals)
    assert np.array_equal(ens.arrivals[0], direct.arrivals[1:])


def test_ensemble_reproducible_bitwise(tmp_path):
    model = example16_model()
    files = []
    for run in range(2):
        ens = simulate_ensemble(model, 500, 4, root_seed=3)
        out = tmp_path / f"ens{run}.csv"
        write_ensemble(ens, str(out))
        files.append(out.read_bytes())
    assert files[0] == files[1]


def test_draws_chunk_invariant(monkeypatch):
    from mrplab import construction

    model = build_model(*BENCH_MODELS["bivariate"])
    base = simulate_ensemble(model, 1000, 3, root_seed=5)
    cond = sample_conditional_interarrivals(model, (1.0, 0.5), 1000, 3, 5)
    monkeypatch.setattr(construction, "_CHUNK", 128)
    chunked = simulate_ensemble(model, 1000, 3, root_seed=5)
    assert np.array_equal(base.interarrivals, chunked.interarrivals)
    assert np.array_equal(base.thetas, chunked.thetas)
    assert np.array_equal(cond, sample_conditional_interarrivals(model, (1.0, 0.5), 1000, 3, 5))


def test_disjoint_seeds_give_consistent_marginals():
    model = example16_model()
    a = simulate_ensemble(model, 20_000, 1, root_seed=100)
    b = simulate_ensemble(model, 20_000, 1, root_seed=200)
    assert st.ks_2samp(a.interarrivals[:, 0], b.interarrivals[:, 0]).pvalue > 0.01


def test_capacity_error():
    model = example16_model()
    with pytest.raises(CapacityError):
        simulate_ensemble(model, 10**6, 10**3, root_seed=0)
    with pytest.raises(ConfigurationError):
        simulate_ensemble(model, 0, 5, root_seed=0)


def test_dirac_factorization_invariant():
    # point-mass mixing: empirical joint CDF at boxes equals product of kernel CDFs
    theta = 1.4
    model = build_model(KernelSpec("gamma", shape=0.5), DiracMixing(theta))
    ens = simulate_ensemble(model, 100_000, 3, root_seed=8)
    w = ens.interarrivals
    for box in [(0.5, 1.0, 2.0), (1.0, 1.0, 1.0), (0.2, 3.0, 0.7)]:
        emp = np.mean(np.all(w <= np.asarray(box), axis=1))
        ref = 1.0
        for k, b in enumerate(box, start=1):
            ref *= kernel_cdf(model.kernel, k, theta, b)
        se = math.sqrt(max(ref * (1 - ref), 1e-12) / ens.n_paths)
        assert abs(emp - ref) <= 4.0 * se


def test_first_marginal_matches_exact_quadrature_oracle():
    # proper model, 1e6 paths: empirical P(W1 <= w) vs the exact-module marginal
    from mrplab.exact import BoxQuery, joint_interarrival_probability

    model = build_model(EXP, GammaMixing(2.0, 1.0))
    ens = simulate_ensemble(model, 1_000_000, 1, root_seed=55)
    for w in [0.3, 1.0, 2.5]:
        p = joint_interarrival_probability(model, BoxQuery.upper(w)).value
        p_hat = float(np.mean(ens.interarrivals[:, 0] <= w))
        se = math.sqrt(p * (1 - p) / ens.n_paths)
        assert abs(p_hat - p) <= 4.0 * se


def test_manifest_and_csv_format(tmp_path):
    model = example16_model()
    ens = simulate_ensemble(model, 3, 2, root_seed=1)
    out = tmp_path / "e.csv"
    manifest_path = write_ensemble(ens, str(out))
    text = out.read_text().splitlines()
    assert text[0] == "path_id,theta,k,w,t"
    assert len(text) == 1 + 3 * 2
    import json

    manifest = json.loads(open(manifest_path).read())
    assert manifest["root_seed"] == 1
    assert manifest["n_paths"] == 3
    assert manifest["truncation"] == 2
    assert manifest["seed_rule"] == "splitmix64-child-v1"
    assert manifest["model_hash"] == model.model_hash()
    assert manifest["created_at"]
    # csv columns parse back to the stored floats exactly
    i, theta, k, w, t = text[1].split(",")
    assert float(w) == ens.interarrivals[0, 0]
    assert float(t) == ens.arrivals[0, 0]


def test_bivariate_ensemble_columns():
    kernel = KernelSpec("gamma", shape="theta2")
    mixing = ProductRectangleMixing((GammaMarginal(2.0, 2.0), UniformMarginal(0.2, 0.8)))
    model = build_model(kernel, mixing)
    ens = simulate_ensemble(model, 10, 2, root_seed=2)
    assert ens.thetas.shape == (10, 2)
    header = ensemble_csv_text(ens).splitlines()[0]
    assert header == "path_id,theta1,theta2,k,w,t"


# ---------------------------------------------------------------------------
# CSV rendering by blocks of paths
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def render_ensemble():
    # 20000 paths: three render blocks
    return simulate_ensemble(build_model(*BENCH_MODELS["bivariate"]), 20_000, 3, root_seed=9)


def _count_block_calls(monkeypatch):
    # counts the blocks rendered in this process (forked workers count their own)
    from mrplab import construction

    calls = []
    block = construction._render_block

    def counted(*args):
        calls.append(args[-2:])
        return block(*args)

    monkeypatch.setattr(construction, "_render_block", counted)
    return calls


def test_csv_render_serial_equals_parallel(render_ensemble, monkeypatch):
    import multiprocessing

    from mrplab import construction

    default = ensemble_csv_text(render_ensemble)
    monkeypatch.setattr(construction, "_available_cores", lambda: 3)
    calls = _count_block_calls(monkeypatch)
    forced = ensemble_csv_text(render_ensemble)
    if "fork" in multiprocessing.get_all_start_methods():
        assert calls == []  # every block was rendered in a worker
    monkeypatch.setenv("MRPLAB_THREADS", "1")
    serial = ensemble_csv_text(render_ensemble)
    assert calls == [(0, 8192), (8192, 16384), (16384, 20000)]
    assert serial == default == forced
    assert serial.count("\n") == 1 + 20_000 * 3
    assert multiprocessing.active_children() == []


def test_csv_render_worker_count(monkeypatch):
    from mrplab import construction

    monkeypatch.setattr(construction, "_available_cores", lambda: 3)
    monkeypatch.delenv("MRPLAB_THREADS", raising=False)
    assert [construction._render_workers(b) for b in (1, 2, 5)] == [1, 2, 3]
    monkeypatch.setenv("MRPLAB_THREADS", "2")
    assert [construction._render_workers(b) for b in (1, 5)] == [1, 2]
    monkeypatch.setenv("MRPLAB_THREADS", "0")
    assert construction._render_workers(5) == 1


def test_csv_render_without_fork_is_serial(render_ensemble, monkeypatch):
    import multiprocessing

    from mrplab import construction

    expected = ensemble_csv_text(render_ensemble)
    monkeypatch.setattr(construction, "_available_cores", lambda: 3)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    calls = _count_block_calls(monkeypatch)
    assert ensemble_csv_text(render_ensemble) == expected
    assert len(calls) == 3
    assert multiprocessing.active_children() == []


def test_csv_render_from_a_non_main_thread(render_ensemble, monkeypatch):
    import multiprocessing
    from concurrent.futures import ThreadPoolExecutor

    from mrplab import construction

    expected = ensemble_csv_text(render_ensemble)
    monkeypatch.setattr(construction, "_available_cores", lambda: 3)
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(ensemble_csv_text, render_ensemble).result() == expected
    assert multiprocessing.active_children() == []


def test_atomic_write_removes_temp_file_on_failure(tmp_path):
    from mrplab.construction import atomic_write_text

    path = tmp_path / "out.csv"
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(str(path), "a\n\ud800\n")
    assert not path.exists()
    assert [p.name for p in tmp_path.iterdir() if ".tmp." in p.name] == []
    atomic_write_text(str(path), "a\n")
    assert path.read_text() == "a\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
