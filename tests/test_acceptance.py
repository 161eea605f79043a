"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line.  Stochastic criteria run at fixed recorded
seeds, so the whole suite is deterministic.
"""

import csv
import json
import math
import time

import numpy as np
from scipy.integrate import quad

from mrplab.cli import main as cli_main
from mrplab.construction import build_model, simulate_ensemble
from mrplab.counting import (
    CountingPath,
    arrivals_from_interarrivals,
    arrivals_from_counting,
    counts_on_grid,
    interarrivals_from_arrivals,
)
from mrplab.exact import (
    BoxQuery,
    cylinder_probability_density_form,
    example16_closed_form,
    joint_interarrival_probability,
)
from mrplab.kernels import (
    DiracMixing,
    DiscreteMixing,
    GammaMixing,
    KernelSpec,
    RateMap,
    kernel_cdf,
)
from mrplab.modelfile import bundled_model_path, load_bundled_model
from mrplab.stats import (
    _simulate_counts_at,
    conditional_iid_test,
    exchangeability_test,
    mixed_poisson_check,
)


def _report(num: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def _random_proper_model(rng: np.random.Generator):
    if rng.random() < 0.5:
        kernel = KernelSpec("exponential", RateMap(rng.uniform(0.5, 2.0), 0.0))
    else:
        kernel = KernelSpec(
            "gamma", RateMap(rng.uniform(0.5, 2.0), 0.0), shape=rng.uniform(0.4, 3.0)
        )
    u = rng.random()
    if u < 0.6:
        mixing = GammaMixing(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
    elif u < 0.8:
        mixing = DiracMixing(rng.uniform(0.3, 3.0))
    else:
        atoms = tuple(np.sort(rng.uniform(0.2, 3.0, 3)))
        w = rng.dirichlet(np.ones(3))
        w = np.round(w, 6)
        w[-1] = 1.0 - w[:-1].sum()
        mixing = DiscreteMixing(atoms, tuple(w))
    return build_model(kernel, mixing)


def _random_box(rng: np.random.Generator, r: int) -> BoxQuery:
    bounds = []
    for _ in range(r):
        if rng.random() < 0.4:
            lo = -math.inf
        else:
            lo = rng.uniform(0.0, 1.5)
        hi = max(lo, 0.0) + rng.uniform(0.1, 3.0)
        if rng.random() < 0.1:
            hi = math.inf
        bounds.append((lo, hi))
    return BoxQuery(tuple(bounds))


# ---------------------------------------------------------------------------


def test_criterion_1_exact_route_paper_values(tmp_path):
    queries = tmp_path / "q.json"
    queries.write_text(
        json.dumps(
            [
                {"id": "w21", "bounds": [[None, 2.0], [None, 1.0]]},
                {"id": "w12", "bounds": [[None, 1.0], [None, 2.0]]},
            ]
        )
    )
    out = tmp_path / "res.csv"
    t0 = time.perf_counter()
    code = cli_main(
        ["exact", "--model", bundled_model_path("example16"), "--queries", str(queries),
         "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    with open(out) as fh:
        got = {r["query_id"]: float(r["probability"]) for r in csv.DictReader(fh)}
    ok = (
        code == 0
        and abs(got["w21"] - 1.0 / 3.0) < 1e-9
        and abs(got["w12"] - 2.0 / 7.0) < 1e-9
        and abs(got["w21"] - example16_closed_form(2.0, 1.0)) < 1e-8
        and abs(got["w12"] - example16_closed_form(1.0, 2.0)) < 1e-8
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"exact route: P(W1<=2,W2<=1)={got['w21']:.12f} (1/3), "
        f"P(W1<=1,W2<=2)={got['w12']:.12f} (2/7), runtime {elapsed:.3f}s < 1s",
    )


def test_criterion_2_monte_carlo_route():
    model, _ = load_bundled_model("example16")
    t0 = time.perf_counter()
    ens = simulate_ensemble(model, 1_000_000, 2, root_seed=20260809)
    w = ens.interarrivals
    f21 = float(np.mean((w[:, 0] <= 2.0) & (w[:, 1] <= 1.0)))
    f12 = float(np.mean((w[:, 0] <= 1.0) & (w[:, 1] <= 2.0)))
    elapsed = time.perf_counter() - t0
    se21 = 4.0 * math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 1_000_000)
    se12 = 4.0 * math.sqrt((2.0 / 7.0) * (5.0 / 7.0) / 1_000_000)
    ok = abs(f21 - 1.0 / 3.0) <= se21 and abs(f12 - 2.0 / 7.0) <= se12 and elapsed < 120.0
    _report(
        2,
        ok,
        f"Monte Carlo route at 1e6 paths: {f21:.6f} vs 1/3 (band {se21:.2e}), "
        f"{f12:.6f} vs 2/7 (band {se12:.2e}), runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_3_exchangeability_dichotomy():
    results = {}
    for name in ("gamma_half", "bivariate", "example16"):
        model, _ = load_bundled_model(name)
        rejections = 0
        for seed in range(200):
            ens = simulate_ensemble(model, 100_000, 2, root_seed=seed)
            rep = exchangeability_test(ens, r=2, n_permutations=199, level=0.01)
            rejections += not rep.passed
        results[name] = rejections
    ok = (
        results["gamma_half"] <= 5
        and results["bivariate"] <= 5
        and results["example16"] >= 199
    )
    _report(
        3,
        ok,
        "exchangeability over 200 seeded runs at 1e5 paths: rejections "
        f"gamma_half={results['gamma_half']}/200 (need <=5), "
        f"bivariate={results['bivariate']}/200 (need <=5), "
        f"example16={results['example16']}/200 (need >=199)",
    )


def test_criterion_4_exact_permutation_invariance():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        model = _random_proper_model(rng)
        for _ in range(20):
            r = int(rng.integers(2, 5))
            q = _random_box(rng, r)
            base = joint_interarrival_probability(model, q).value
            for _ in range(5):
                perm = tuple(rng.permutation(r))
                v = joint_interarrival_probability(model, q.permuted(perm)).value
                worst = max(worst, abs(v - base))
    ok = worst <= 2e-9
    _report(
        4,
        ok,
        f"exact permutation invariance over 50 models x 20 boxes x 5 permutations: "
        f"max |F(w) - F(w o pi)| = {worst:.3e} <= 2e-9",
    )


def test_criterion_5_disintegration_consistency():
    rng = np.random.default_rng(55)
    failures = []
    for i in range(20):
        model = _random_proper_model(rng)
        box = model.mixing.support_box()
        if model.mixing.kind == "dirac":
            theta = model.mixing.point
        elif model.mixing.kind == "discrete":
            theta = model.mixing.atoms[int(rng.integers(0, len(model.mixing.atoms)))]
        else:
            theta = (model.mixing.mean_point()[0] * rng.uniform(0.6, 1.4),)
        rep = conditional_iid_test(model, theta, n_samples=2000, max_index=5, seed=1000 + i)
        if not rep.passed:
            failures.append((i, rep.statistic))

    # point-mass factorization: empirical joint CDF equals the CDF product
    theta0 = 1.4
    model = build_model(KernelSpec("gamma", shape=0.5), DiracMixing(theta0))
    ens = simulate_ensemble(model, 100_000, 3, root_seed=99)
    w = ens.interarrivals
    max_z = 0.0
    for box in [(0.5, 1.0, 2.0), (1.0, 1.0, 1.0), (0.2, 3.0, 0.7), (2.0, 0.3, 1.5)]:
        emp = float(np.mean(np.all(w <= np.asarray(box), axis=1)))
        ref = 1.0
        for k, b in enumerate(box, start=1):
            ref *= kernel_cdf(model.kernel, k, theta0, b)
        se = math.sqrt(max(ref * (1.0 - ref), 1e-12) / ens.n_paths)
        max_z = max(max_z, abs(emp - ref) / se)
    ok = not failures and max_z <= 4.0
    _report(
        5,
        ok,
        f"disintegration consistency: conditional-iid passed 20/20 random (model, theta) "
        f"pairs (failures: {failures}); point-mass factorization max |z| = {max_z:.2f} <= 4",
    )


def test_criterion_6_mixed_poisson_special_case():
    g, a = 2.0, 1.5
    model = build_model(KernelSpec("exponential"), GammaMixing(g, a))
    t_grid = (0.5, 1.0, 2.0, 5.0)
    n = 200_000
    _, counts = _simulate_counts_at(model, np.array(t_grid), n, 606)
    max_z = 0.0
    for i, t in enumerate(t_grid):
        ref = (g / (g + t)) ** a
        emp = float(np.mean(counts[i] == 0))
        se = math.sqrt(ref * (1.0 - ref) / n)
        max_z = max(max_z, abs(emp - ref) / se)
    rep = mixed_poisson_check(model, t_grid=t_grid, h=0.5, n_paths=n, level=0.01, seed=606)
    gof_ok = all(e["p_value"] >= 0.01 / rep.sample_sizes["tests"] for e in rep.details["gof"])
    inc_ok = all(e["p_value"] >= 0.01 / rep.sample_sizes["tests"] for e in rep.details["increments"])
    ok = max_z <= 4.0 and rep.passed and gof_ok and inc_ok
    _report(
        6,
        ok,
        f"mixed-Poisson special case: empirical P(N_t=0) vs (g/(g+t))^a max |z| = {max_z:.2f} <= 4; "
        f"pmf chi-square and stationary-increment checks pass at 0.01 (p_min={rep.p_value:.4f})",
    )


def test_criterion_7_counting_algebra():
    rng = np.random.default_rng(7)
    n_vectors = 10_000
    duality_checks = 0
    for i in range(n_vectors):
        length = int(rng.integers(1, 61)) if i > 0 else 1_000_000
        w = rng.integers(1, 2**20, size=length).astype(np.float64) * 2.0**-15
        arr = arrivals_from_interarrivals(w)
        path = CountingPath.from_arrivals(arr, horizon=float(arr[-1]) + 1.0)
        arr2 = arrivals_from_counting(path)
        w2 = interarrivals_from_arrivals(arr2)
        assert np.array_equal(arr, arr2), f"arrival round trip broke at vector {i}"
        assert np.array_equal(w, w2), f"interarrival round trip broke at vector {i}"
        if i % 10 == 0:  # duality at 100 random t per sampled path
            ts = rng.uniform(0.0, path.horizon, 100)
            counts = counts_on_grid(path, ts)
            n_grid = np.arange(1, len(arr))
            left = counts[:, None] >= n_grid[None, :]
            right = arr[1:][None, :] <= ts[:, None]
            assert np.array_equal(left, right), f"duality broke at vector {i}"
            duality_checks += 1
    _report(
        7,
        True,
        f"counting algebra: exact W->T->N->T->W round trips on {n_vectors} random dyadic "
        f"vectors (incl. one of length 1e6); duality N_t>=n <=> T_n<=t verified on "
        f"{duality_checks} paths x 100 times",
    )


def test_criterion_8_analytic_mixture_marginals():
    rng = np.random.default_rng(8)
    worst_impl = 0.0
    worst_formula = 0.0
    for _ in range(100):
        g = rng.uniform(0.3, 5.0)
        a = rng.uniform(0.3, 5.0)
        w = rng.uniform(0.05, 10.0)
        # independent oracle first: tighter-tolerance quadrature of the mixture
        dens = lambda t: math.exp(a * math.log(g) - math.lgamma(a) + (a - 1.0) * math.log(t) - g * t)
        oracle, oerr = quad(lambda t: -math.expm1(-t * w) * dens(t), 0.0, np.inf,
                            epsabs=1e-13, epsrel=1e-13)
        ref = 1.0 - (g / (g + w)) ** a
        worst_formula = max(worst_formula, abs(oracle - ref))
        model = build_model(KernelSpec("exponential"), GammaMixing(g, a))
        res = joint_interarrival_probability(model, BoxQuery.upper(w))
        worst_impl = max(worst_impl, abs(res.value - ref))
    ok = worst_impl <= 1e-9 and worst_formula <= 1e-9
    _report(
        8,
        ok,
        f"analytic mixture marginals over 100 random (rate, shape, w): max deviation from "
        f"1-(g/(g+w))^a = {worst_impl:.3e} <= 1e-9 (oracle agreement {worst_formula:.3e})",
    )


def test_criterion_9_route_equivalence():
    rng = np.random.default_rng(9)
    worst = {}
    for name in ("gamma_half", "bivariate"):
        model, _ = load_bundled_model(name)
        w = 0.0
        for _ in range(50):
            r = int(rng.integers(1, 4))
            bounds = []
            for _ in range(r):
                u = rng.random()
                if u < 0.4:
                    lo, hi = 0.0, rng.uniform(0.2, 4.0)
                elif u < 0.8:
                    lo = rng.uniform(0.0, 1.5)
                    hi = lo + rng.uniform(0.1, 3.0)
                else:
                    lo, hi = rng.uniform(0.0, 1.5), math.inf
                bounds.append((lo, hi))
            q = BoxQuery(tuple(bounds))
            pa = joint_interarrival_probability(model, q).value
            pb = cylinder_probability_density_form(model, q).value
            w = max(w, abs(pa - pb))
        worst[name] = w
    ok = all(v <= 1e-8 for v in worst.values())
    _report(
        9,
        ok,
        "route equivalence (product-CDF vs nested density integrals) on 50 random "
        f"cylinders each: max gap gamma_half={worst['gamma_half']:.3e}, "
        f"bivariate={worst['bivariate']:.3e} (tolerance 1e-8)",
    )
