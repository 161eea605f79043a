import hashlib
import json
import math
import os
import pickle

import numpy as np
import pytest
import scipy.stats as st

from mrplab import construction
from mrplab.cli import main
from mrplab.construction import (
    ForkMap,
    MrpPath,
    build_model,
    ensemble_csv_text,
    sample_conditional_path,
    sample_path,
    sample_conditional_interarrivals,
    simulate_ensemble,
    write_ensemble,
)
from mrplab.floatrepr import float_fields
from mrplab.errors import (
    CapacityError,
    ConfigurationError,
    InvalidInterarrivalError,
    ParameterDomainError,
)
from mrplab.kernels import (
    GAMMA_SHAPE_FLOOR,
    BetaMarginal,
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
from mrplab.modelfile import bundled_model_path, load_model_file
from mrplab.rng import UniformStream, child_seed
from mrplab.special import ks_one_sample_pvalue
from mrplab.stats import conditional_iid_test

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


@pytest.mark.parametrize(
    "kernel, mixing",
    [
        (KernelSpec("gamma", shape=1e-3), GammaMixing(2.0, 1.5)),
        (KernelSpec("gamma", shape=0.05), GammaMixing(2.0, 1.5)),
        # a "theta2" shape drawn from a support or atoms that reach below the floor
        (KernelSpec("gamma", shape="theta2"),
         ProductRectangleMixing((GammaMarginal(2.0, 2.0), GammaMarginal(2.0, 3.0)))),
        (KernelSpec("gamma", shape="theta2"),
         ProductRectangleMixing((GammaMarginal(2.0, 2.0), BetaMarginal(2.0, 2.0)))),
        (KernelSpec("gamma", shape="theta2"),
         ProductRectangleMixing((GammaMarginal(2.0, 2.0), UniformMarginal(0.01, 0.8)))),
        (KernelSpec("gamma", shape="theta2"), DiscreteMixing(((1.0, 0.5), (2.0, 0.01)), (0.5, 0.5))),
        # mixing marginals drawn by gamma laws below the floor: a drawn theta
        # of 0 made simulation fail on a "rate parameter must be positive"
        (EXP, GammaMixing(1.0, 0.01)),
        (EXP, ProductRectangleMixing((BetaMarginal(0.01, 1.0),))),
    ],
)
def test_gamma_kernel_shape_floor(kernel, mixing):
    with pytest.raises(ConfigurationError, match="floor"):
        build_model(kernel, mixing)


def test_gamma_kernel_at_the_shape_floor_simulates():
    # at shape 1e-3 about half the law's mass lies below the smallest double
    model = build_model(KernelSpec("gamma", shape=GAMMA_SHAPE_FLOOR), GammaMixing(2.0, 1.5))
    ens = simulate_ensemble(model, 1000, 2, root_seed=3)
    assert np.all(ens.interarrivals > 0.0)


@pytest.mark.parametrize(
    "marginal", [GammaMarginal(1.0, GAMMA_SHAPE_FLOOR), BetaMarginal(GAMMA_SHAPE_FLOOR, 1.0)]
)
def test_mixing_at_the_shape_floor_simulates(marginal):
    model = build_model(EXP, ProductRectangleMixing((marginal,)))
    ens = simulate_ensemble(model, 100_000, 2, root_seed=7)
    assert np.all(ens.thetas > 0.0) and np.all(ens.interarrivals > 0.0)


def test_huge_mixing_shape_builds_and_simulates():
    # Gamma(1, 1e10) mixing: theta has mean 1e10 and sd 1e5, and theta * W ~ Exp(1)
    model = build_model(EXP, GammaMixing(1.0, 1e10))
    ens = simulate_ensemble(model, 1000, 2, root_seed=3)
    theta = ens.thetas[:, 0]
    assert np.all(np.abs(theta - 1e10) < 8e5)
    assert abs(theta.mean() - 1e10) < 5.0 * 1e5 / math.sqrt(1000)
    scaled = ens.interarrivals * theta[:, None]
    assert np.all((scaled > 0.0) & np.isfinite(scaled))
    assert abs(scaled.mean() - 1.0) < 5.0 / math.sqrt(2000)


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

# sha256 prefixes of ensemble_csv_text(simulate_ensemble(model, n, m, seed)),
# and of the file `mrplab simulate` streams at the same sizes: more than one
# render block, one block plus one path, and a single row
PINNED_CSV = [
    ("gamma_half", (20000, 8, 5), "e3afff7bfcf96415"),
    ("gamma_half", (8193, 3, 11), "0ba828659029c114"),
    ("gamma_half", (1, 1, 0), "6c9bad0d66b8cea4"),
    ("bivariate", (20000, 8, 5), "3dd359f4b7f19649"),
    ("bivariate", (8193, 3, 11), "4ae65af1ac632830"),
    ("bivariate", (1, 1, 0), "75a06fd08bc3d77b"),
]


@pytest.mark.parametrize("name,size,csv_hash", PINNED_CSV)
def test_bench_model_csv_bytes_pinned(name, size, csv_hash, tmp_path, set_cores):
    model = build_model(*BENCH_MODELS[name])
    text = ensemble_csv_text(simulate_ensemble(model, *size))
    assert hashlib.sha256(text.encode()).hexdigest().startswith(csv_hash)
    path = bundled_model_path(name)
    assert load_model_file(path)[0].model_hash() == model.model_hash()
    n, m, seed = size
    argv = ["simulate", "--model", path, "--paths", str(n), "--events", str(m), "--seed", str(seed)]
    # one core, two and three cores, and three cores without fork
    for run, cores, methods in ((1, 1, None), (2, 2, None), (3, 3, None), (4, 3, ["spawn"])):
        set_cores(cores, methods)
        out = tmp_path / f"{run}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest().startswith(csv_hash)


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


@pytest.mark.parametrize("name,theta", [("example16", math.inf), ("bivariate", (math.inf, 0.5))])
def test_an_infinite_parameter_is_outside_the_mixing_support(name, theta):
    model, _ = load_model_file(bundled_model_path(name))
    with pytest.raises(ParameterDomainError, match="outside the mixing support"):
        sample_conditional_path(model, theta, 3, 0)
    with pytest.raises(ParameterDomainError, match="outside the mixing support"):
        conditional_iid_test(model, theta, n_samples=100, max_index=2)


@pytest.mark.parametrize("mixing,theta", [
    (GammaMixing(2.0, 1.5), 0.0),
    (ProductRectangleMixing((GammaMarginal(2.0, 1.5),)), 0.0),
    (ProductRectangleMixing((GammaMarginal(2.0, 2.0), UniformMarginal(0.2, 0.8))), (0.0, 0.5)),
], ids=["gamma", "product-gamma", "bivariate"])
def test_a_zero_rate_is_outside_a_gamma_mixing_support(mixing, theta):
    # a gamma marginal is open at 0: the zero rate is refused before any draw
    kernel = KernelSpec("gamma", shape="theta2") if mixing.dim == 2 else GAMMA_HALF_KERNEL
    with pytest.raises(ParameterDomainError, match="outside the mixing support"):
        sample_conditional_path(build_model(kernel, mixing), theta, 3, 0)


@pytest.mark.parametrize("marginal", [UniformMarginal(0.0, 1.0), BetaMarginal(2.0, 3.0)],
                         ids=["uniform", "beta"])
def test_a_zero_rate_is_outside_a_support_that_starts_at_0(marginal):
    # build_model admits a support whose lower end is 0, but no kernel rate
    # lies there: the zero rate is refused before any draw, as under a gamma
    model = build_model(KernelSpec("exponential"), ProductRectangleMixing((marginal,)))
    with pytest.raises(ParameterDomainError, match="outside the mixing support"):
        sample_conditional_path(model, 0.0, 2, 1)
    with pytest.raises(ParameterDomainError, match="outside the mixing support"):
        conditional_iid_test(model, 0.0, n_samples=100, max_index=2)


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
    assert ks_one_sample_pvalue(d, n) > 0.01


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
    model = build_model(*BENCH_MODELS["bivariate"])
    base = simulate_ensemble(model, 1000, 3, root_seed=5)
    cond = sample_conditional_interarrivals(model, (1.0, 0.5), 1000, 3, 5)
    monkeypatch.setattr(construction, "_RENDER_BLOCK", 128)
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
    manifest = json.loads(open(manifest_path).read())
    assert manifest["root_seed"] == 1
    assert manifest["n_paths"] == 3
    assert manifest["truncation"] == 2
    assert manifest["seed_rule"] == "splitmix64-child-v1"
    assert manifest["model_hash"] == model.model_hash()
    assert manifest["run"]["created_at"]
    assert manifest["csv"] == "e.csv"
    # csv columns parse back to the stored floats exactly
    i, theta, k, w, t = text[1].split(",")
    assert float(w) == ens.interarrivals[0, 0]
    assert float(t) == ens.arrivals[0, 0]


def test_manifest_is_reproducible_without_its_run_section(tmp_path):
    model = example16_model()
    texts = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        path = write_ensemble(simulate_ensemble(model, 5, 2, root_seed=3), str(tmp_path / run / "e.csv"))
        manifest = json.loads(open(path).read())
        assert list(manifest.pop("run")) == ["created_at"]
        texts.append(json.dumps(manifest, indent=2, sort_keys=True))
    assert texts[0] == texts[1]


def test_cli_manifest_equals_write_ensemble_manifest_outside_run(tmp_path):
    path = bundled_model_path("bivariate")
    (tmp_path / "cli").mkdir()
    (tmp_path / "lib").mkdir()
    assert main(["simulate", "--model", path, "--paths", "5", "--events", "2", "--seed", "3",
                 "--out", str(tmp_path / "cli" / "e.csv")]) == 0
    ens = simulate_ensemble(load_model_file(path)[0], 5, 2, root_seed=3)
    write_ensemble(ens, str(tmp_path / "lib" / "e.csv"))
    manifests = []
    for side in ("cli", "lib"):
        manifest = json.loads((tmp_path / side / "e.csv.manifest.json").read_text())
        assert list(manifest.pop("run")) == ["created_at"]
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
    assert (tmp_path / "cli" / "e.csv").read_bytes() == (tmp_path / "lib" / "e.csv").read_bytes()


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
    # the (lo, hi) spans of the blocks rendered in this process (forked
    # workers count their own)
    calls = []
    block = construction._render_block

    def counted(thetas, w, t, first_id):
        calls.append((first_id, first_id + len(w)))
        return block(thetas, w, t, first_id)

    monkeypatch.setattr(construction, "_render_block", counted)
    return calls


def test_csv_render_serial_equals_parallel(render_ensemble, monkeypatch, set_cores):
    default = ensemble_csv_text(render_ensemble)
    calls = _count_block_calls(monkeypatch)
    texts = []
    # on n cores this process renders blocks 0, n, 2n, ... and the workers the rest
    for cores, here in ((3, [(0, 8192)]), (2, [(0, 8192), (16384, 20000)]),
                        (1, [(0, 8192), (8192, 16384), (16384, 20000)])):
        set_cores(cores)
        calls.clear()
        texts.append(ensemble_csv_text(render_ensemble))
        assert calls == here
    assert texts == [default] * 3
    assert default.count("\n") == 1 + 20_000 * 3


def test_fork_map_forks_only_for_two_cores_and_two_items(set_cores):
    # the pid that computed each item
    def pids(cores, n_items):
        set_cores(cores)
        with ForkMap(lambda _: os.getpid(), range(n_items)) as done:
            return list(done)

    here = os.getpid()
    assert pids(1, 3) == [here] * 3
    assert pids(3, 1) == [here]
    assert pids(3, 0) == []
    # n = min(cores, items) processes: this one computes items 0, n, 2n, ...,
    # and worker w, its own process, items w, w + n, ...
    for cores, n_items, n in ((2, 5, 2), (3, 7, 3), (4, 2, 2)):
        done = pids(cores, n_items)
        assert done[::n] == [here] * len(done[::n])
        workers = [set(done[w::n]) for w in range(1, n)]
        assert all(len(p) == 1 for p in workers)
        assert len(set.union({here}, *workers)) == n
    # closing the map before the workers' results are read stops them
    with ForkMap(lambda i: i, range(100)) as done:
        assert next(iter(done)) == 0


def test_fork_map_worker_that_dies_without_a_result_raises(set_cores):
    here = os.getpid()

    def dies(i):
        if os.getpid() != here:
            os._exit(3)
        return i

    class LocalError(Exception):  # a local class, so its instances cannot be pickled
        pass

    def raises_unpicklable(i):
        if i:
            raise LocalError(str(i))
        return i

    set_cores(2)
    for fn in (dies, raises_unpicklable):
        with ForkMap(fn, range(4)) as done:
            results = iter(done)
            assert next(results) == 0
            with pytest.raises(ChildProcessError, match="item 1 exited without its result"):
                next(results)


def test_fork_map_unpicklable_result_raises_the_pickling_error(set_cores):
    set_cores(2)
    with ForkMap(lambda i: (lambda: i), range(2)) as done:
        results = iter(done)
        assert next(results)() == 0
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError), match="pickle"):
            next(results)


def test_csv_render_without_fork_is_serial(render_ensemble, monkeypatch, set_cores):
    expected = ensemble_csv_text(render_ensemble)
    set_cores(3, ["spawn"])
    calls = _count_block_calls(monkeypatch)
    assert ensemble_csv_text(render_ensemble) == expected
    assert calls == [(0, 8192), (8192, 16384), (16384, 20000)]


def test_csv_render_from_a_non_main_thread(render_ensemble, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    expected = ensemble_csv_text(render_ensemble)
    monkeypatch.setattr(construction, "_available_cores", lambda: 3)
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(ensemble_csv_text, render_ensemble).result() == expected


def _simulate_failure(tmp_path, capsys):
    """(exit code, stderr) of `mrplab simulate` to tmp_path/e.csv, after
    checking that it left no file behind (and the autouse fixture checks
    that it left no worker process)."""
    out = tmp_path / "e.csv"
    code = main(["simulate", "--model", bundled_model_path("gamma_half"), "--paths", "20000",
                 "--events", "2", "--out", str(out)])
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir() if ".tmp." in p.name] == []
    return code, capsys.readouterr().err


# one core, three cores (two forked workers), and three cores without fork
CORES_AND_METHODS = [(1, None), (3, None), (3, ["spawn"])]


@pytest.mark.parametrize("cores,methods", CORES_AND_METHODS)
def test_simulate_sampler_error_in_a_late_block(tmp_path, capsys, monkeypatch, set_cores, cores,
                                                methods):
    # the third block (paths 16384..19999) fails after two have been written
    draw = construction._draw

    def failing(model, bank, n_events, theta=None):
        if len(bank) < construction._RENDER_BLOCK:
            raise InvalidInterarrivalError("sampler produced a nonpositive interarrival")
        return draw(model, bank, n_events, theta)

    monkeypatch.setattr(construction, "_draw", failing)
    set_cores(cores, methods)
    code, err = _simulate_failure(tmp_path, capsys)
    assert (code, err) == (2, "mrplab: error: sampler produced a nonpositive interarrival\n")
    with pytest.raises(InvalidInterarrivalError):
        construction.simulate_to_csv(load_model_file(bundled_model_path("gamma_half"))[0],
                                     20000, 2, 0, str(tmp_path / "e.csv"))


@pytest.mark.parametrize("cores,methods", CORES_AND_METHODS)
def test_simulate_writer_errors(tmp_path, capsys, monkeypatch, set_cores, cores, methods):
    import errno
    import io

    set_cores(cores, methods)
    out = tmp_path / "missing" / "e.csv"
    assert main(["simulate", "--model", bundled_model_path("gamma_half"), "--out", str(out)]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

    class FullDisk(io.FileIO):
        # takes the header, then fails on the first block of rows
        def write(self, b):
            if self.tell():
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(b)

    monkeypatch.setattr(construction, "open", FullDisk, raising=False)
    code, err = _simulate_failure(tmp_path, capsys)
    assert (code, err) == (2, "mrplab: error: [Errno 28] No space left on device\n")
    with pytest.raises(OSError) as failure:
        construction.simulate_to_csv(load_model_file(bundled_model_path("gamma_half"))[0],
                                     20000, 2, 0, str(tmp_path / "e.csv"))
    # the traceback keeps the writer's frames alive: the workers were stopped, not collected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert failure.value.errno == errno.ENOSPC
    assert list(tmp_path.iterdir()) == []


def test_import_loads_no_process_pool():
    import os
    import subprocess
    import sys

    import mrplab

    src = os.path.dirname(os.path.dirname(mrplab.__file__))
    code = "import sys, mrplab, mrplab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def _reference_rows(thetas, w, t, lo=0):
    # the CSV rows written with %r, one path and event at a time
    rows = []
    for i, (th, wi, ti) in enumerate(zip(thetas.tolist(), w.tolist(), t.tolist()), start=lo):
        prefix = ",".join([str(i), *map(repr, th)])
        rows += [f"{prefix},{k},{a!r},{b!r}\n" for k, (a, b) in enumerate(zip(wi, ti), start=1)]
    return "".join(rows)


@pytest.mark.parametrize("rows", [16_384, 250, 100])
def test_csv_rows_equal_the_repr_form_at_three_digit_events(rows, monkeypatch):
    # 250 rows: two paths per assembly; 100 rows: one path of 120 events
    monkeypatch.setattr(construction, "_RENDER_ROWS", rows)
    ens = simulate_ensemble(build_model(*BENCH_MODELS["bivariate"]), 3, 120, root_seed=4)
    text = ensemble_csv_text(ens)
    head = "path_id,theta1,theta2,k,w,t\n"
    assert text == head + _reference_rows(ens.thetas, ens.interarrivals, ens.arrivals)


def test_render_block_writes_zero_negative_and_nonfinite_values_as_repr():
    thetas = np.array([[0.0, -1.5], [-0.0, 5e-324], [2.0, -np.inf]])
    w = np.array([[1.0, np.nan], [-2.5e-300, 1e16], [np.inf, 1e-5]])
    t = np.array([[1e22, -0.1], [2.0**53, -1e-320], [0.5, 1.7976931348623157e308]])
    assert construction._render_block(thetas[1:], w[1:], t[1:], 1) == _reference_rows(
        thetas[1:], w[1:], t[1:], lo=1
    ).encode()
    block = construction._render_block(thetas, w, t, 0)
    assert block == _reference_rows(thetas, w, t).encode()
    assert block.splitlines()[:2] == [b"0,0.0,-1.5,1,1.0,1e+22", b"0,0.0,-1.5,2,nan,-0.1"]


def _float_texts(x):
    fields = float_fields(x)
    comma = np.full((len(fields), 1), ord(","), dtype=np.uint8)
    text = np.concatenate([fields, comma], axis=1).tobytes().translate(None, b"\0")
    return text.decode("ascii").split(",")[:-1]


def _assert_float_fields_are_repr(x):
    x = np.asarray(x, dtype=np.float64)
    assert _float_texts(x) == [repr(v) for v in x.tolist()]


def test_float_fields_on_random_bit_patterns():
    # every exponent, both signs, subnormals, infinities and NaNs
    words = np.random.default_rng(2020).integers(0, 2**64 - 1, size=200_000, dtype=np.uint64, endpoint=True)
    _assert_float_fields_are_repr(words.view(np.float64))


def test_float_fields_on_powers_of_two_integers_and_format_boundaries():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    small = np.arange(0, 20_001, dtype=np.float64)
    ints = np.concatenate([small, 2.0**53 - small, [2.0**53, 2.0**53 + 2]])
    subnormals = np.array([5e-324, 1e-320, 2.225073858507201e-308, 2.2250738585072014e-308])
    bounds = np.array(
        [1e-4, 1e-5, 9.999999999999999e15, 1e16, 1e22, 1e23, 1.7976931348623157e308, 1.0, 0.1]
    )
    up = np.nextafter(bounds[bounds < 1.7976931348623157e308], np.inf)
    near = np.concatenate([bounds, np.nextafter(bounds, 0.0), up])
    _assert_float_fields_are_repr(np.concatenate([powers, ints, subnormals, near, [0.0, -0.0]]))
    _assert_float_fields_are_repr(-np.concatenate([powers, ints, subnormals, near]))


def test_import_builds_no_encoder_table():
    import os
    import subprocess
    import sys

    import mrplab

    src = os.path.dirname(os.path.dirname(mrplab.__file__))
    code = "import mrplab, mrplab.floatrepr as f; print(f._tables.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


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
