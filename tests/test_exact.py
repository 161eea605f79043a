import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy.integrate import quad
from scipy.special import gammainc

from mrplab.construction import build_model, simulate_ensemble
from mrplab.errors import (
    AccuracyError,
    ConfigurationError,
    ParameterDomainError,
    UnsupportedModelError,
)
from mrplab.exact import (
    DEFAULT_CONFIG,
    BoxQuery,
    ExactResult,
    MAX_BOX_DIM,
    QuadratureConfig,
    count_pmf,
    cylinder_probability_density_form,
    example16_closed_form,
    joint_interarrival_probability,
)
from mrplab.kernels import (
    BetaMarginal,
    DiracMixing,
    DiscreteMixing,
    GammaMarginal,
    GammaMixing,
    KernelSpec,
    ProductRectangleMixing,
    RateMap,
    UniformMarginal,
    kernel_cdf,
    verify_mixing_mass,
)
from mrplab.modelfile import load_bundled_model


def example16_model():
    return build_model(KernelSpec("exponential", RateMap(0.0, 1.0)), GammaMixing(2.0, 1.0))


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_closed_form_reference_values():
    assert example16_closed_form(2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert example16_closed_form(1.0, 2.0) == pytest.approx(2.0 / 7.0, abs=1e-15)


def test_closed_form_degenerate_edge():
    for w2 in [0.0, 0.3, 2.0, 100.0]:
        assert example16_closed_form(0.0, w2) == pytest.approx(0.0, abs=1e-15)
    assert example16_closed_form(5.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_closed_form_domain_error():
    with pytest.raises(ParameterDomainError):
        example16_closed_form(-0.1, 1.0)
    with pytest.raises(ParameterDomainError):
        example16_closed_form(1.0, -2.0)


def test_closed_form_against_raw_mixture_integral():
    # independent oracle: direct numeric integration of the defining mixture
    for w1, w2 in [(2.0, 1.0), (1.0, 2.0), (0.5, 0.5), (3.0, 0.25)]:
        oracle, err = quad(
            lambda t: 2.0 * math.exp(-2.0 * t) * (1 - math.exp(-t * w1)) * (1 - math.exp(-2 * t * w2)),
            0.0,
            np.inf,
        )
        assert example16_closed_form(w1, w2) == pytest.approx(oracle, abs=max(1e-10, 10 * err))


# ---------------------------------------------------------------------------
# joint_interarrival_probability
# ---------------------------------------------------------------------------


def test_example16_quadrature_reproduces_paper_values():
    model = example16_model()
    r1 = joint_interarrival_probability(model, BoxQuery.upper(2.0, 1.0))
    r2 = joint_interarrival_probability(model, BoxQuery.upper(1.0, 2.0))
    assert abs(r1.value - 1.0 / 3.0) < 1e-9
    assert abs(r2.value - 2.0 / 7.0) < 1e-9
    assert r1.error < 1e-9 and r2.error < 1e-9


def test_nonexchangeability_witness_gap():
    model = example16_model()
    f21 = joint_interarrival_probability(model, BoxQuery.upper(2.0, 1.0)).value
    f12 = joint_interarrival_probability(model, BoxQuery.upper(1.0, 2.0)).value
    assert abs(abs(f21 - f12) - 1.0 / 21.0) < 1e-9


def test_quadrature_matches_closed_form_on_random_points():
    # route equivalence on the index-scaled family: quadrature vs closed form
    model = example16_model()
    rng = np.random.default_rng(2)
    for _ in range(20):
        w1, w2 = rng.uniform(0.05, 8.0, 2)
        res = joint_interarrival_probability(model, BoxQuery.upper(w1, w2))
        assert abs(res.value - example16_closed_form(w1, w2)) < 1e-8


def test_dirac_mixing_is_pure_product():
    theta = 1.3
    model = build_model(KernelSpec("gamma", shape=0.5), DiracMixing(theta))
    q = BoxQuery(((0.2, 1.5), (-math.inf, 2.0)))
    res = joint_interarrival_probability(model, q)
    assert res.method == "point-mass"
    ref = (kernel_cdf(model.kernel, 1, theta, 1.5) - kernel_cdf(model.kernel, 1, theta, 0.2)) * (
        kernel_cdf(model.kernel, 2, theta, 2.0)
    )
    assert res.value == pytest.approx(ref, abs=1e-14)


def test_discrete_mixing_weighted_sum():
    model = build_model(KernelSpec("exponential"), DiscreteMixing((0.5, 2.0), (0.25, 0.75)))
    q = BoxQuery.upper(1.0)
    res = joint_interarrival_probability(model, q)
    ref = 0.25 * -math.expm1(-0.5) + 0.75 * -math.expm1(-2.0)
    assert res.method == "discrete-sum"
    assert res.value == pytest.approx(ref, abs=1e-14)


def test_exp_gamma_marginal_closed_form():
    # 1-D box: integral (1 - e^{-theta w}) dGamma(rate, shape) = 1 - (rate/(rate+w))^shape
    rng = np.random.default_rng(5)
    for _ in range(20):
        g, a, w = rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0), rng.uniform(0.05, 10.0)
        model = build_model(KernelSpec("exponential"), GammaMixing(g, a))
        res = joint_interarrival_probability(model, BoxQuery.upper(w))
        ref = 1.0 - (g / (g + w)) ** a
        assert abs(res.value - ref) < 1e-9, (g, a, w)


@given(hs.floats(0.3, 5.0), hs.floats(0.2, 5.0), hs.floats(0.01, 12.0))
@example(1.7, 2.3, 0.8)
@settings(max_examples=60, deadline=None)
def test_quadrature_error_estimate_bounds_truth(g, a, w):
    # P(W_1 <= w) = 1 - (g/(g+w))**a under Gamma(g, a) mixing of an exponential kernel
    model = build_model(KernelSpec("exponential"), GammaMixing(g, a))
    res = joint_interarrival_probability(model, BoxQuery.upper(w))
    ref = -math.expm1(a * math.log(g / (g + w)))
    assert abs(res.value - ref) <= max(res.error, 1e-12)


@given(hs.floats(1e-3, 1e3), hs.floats(1.0, 1e3), hs.floats(0.01, 10.0))
@example(1.0, 50.0, 1.0)
@example(1.0, 140.0, 1.0)
@settings(max_examples=60, deadline=None)
def test_large_mixing_shape_mass_and_box_are_honest(g, a, x):
    # a gamma mixing marginal of shape >= 1 is integrated in theta coordinates
    # on the half line; w = x * g / a puts P(W_1 <= w) between 0.01 and 1
    assert abs(verify_mixing_mass(GammaMixing(g, a)) - 1.0) <= 1e-8
    model = build_model(KernelSpec("exponential"), GammaMixing(g, a))
    w = x * g / a
    res = joint_interarrival_probability(model, BoxQuery.upper(w))
    assert abs(res.value - -math.expm1(a * math.log(g / (g + w)))) <= res.error


@given(hs.floats(0.01, 8.0), hs.floats(0.01, 8.0))
@settings(max_examples=40, deadline=None)
def test_example16_error_bound_is_honest(w1, w2):
    res = joint_interarrival_probability(example16_model(), BoxQuery.upper(w1, w2))
    assert abs(res.value - example16_closed_form(w1, w2)) <= max(res.error, 1e-12)


@pytest.mark.parametrize(
    "marginal", [GammaMarginal(2.0, 2.0), GammaMarginal(1.5, 0.6), UniformMarginal(0.2, 0.8),
                 BetaMarginal(0.7, 2.5)],
)
def test_vector_valued_integrand_matches_component_integrals(marginal):
    # 15 components on 15 Gauss-Kronrod nodes: a weight broadcast along the
    # wrong axis would go unnoticed by the shapes
    cs = np.linspace(0.1, 3.0, 15)

    def g(x):
        return np.exp(-np.outer(x, cs))

    vec = marginal.integrate(g, DEFAULT_CONFIG)
    assert vec.value.shape == (15,)
    for j, c in enumerate(cs):
        one = marginal.integrate(lambda x, c=c: np.exp(-c * x), DEFAULT_CONFIG)
        assert abs(vec.value[j] - one.scalar_value) <= 1e-10
        assert abs(vec.value[j] - one.scalar_value) <= vec.error[j] + one.scalar_error + 1e-12


def test_permutation_invariance_proper_model():
    model = build_model(KernelSpec("gamma", shape=1.2), GammaMixing(2.0, 1.5))
    q = BoxQuery(((0.1, 0.9), (-math.inf, 2.0), (0.5, math.inf)))
    base = joint_interarrival_probability(model, q).value
    for perm in itertools.permutations(range(3)):
        v = joint_interarrival_probability(model, q.permuted(perm)).value
        assert abs(v - base) <= 2e-9


def test_monotone_in_box_enlargement():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    small = joint_interarrival_probability(model, BoxQuery(((0.2, 1.0), (0.0, 1.0)))).value
    wider = joint_interarrival_probability(model, BoxQuery(((0.2, 2.5), (0.0, 1.0)))).value
    taller = joint_interarrival_probability(model, BoxQuery(((0.2, 1.0), (0.0, 3.0)))).value
    assert wider >= small - 1e-12
    assert taller >= small - 1e-12


def test_sigma_additivity_on_split_interval():
    model = build_model(KernelSpec("gamma", shape=0.7), GammaMixing(1.5, 2.0))
    whole = joint_interarrival_probability(model, BoxQuery(((0.0, 2.0), (0.0, 1.0))))
    left = joint_interarrival_probability(model, BoxQuery(((0.0, 0.8), (0.0, 1.0))))
    right = joint_interarrival_probability(model, BoxQuery(((0.8, 2.0), (0.0, 1.0))))
    tol = 2.0 * (whole.error + left.error + right.error + 1e-12)
    assert abs(whole.value - (left.value + right.value)) <= tol


def test_box_dimension_cap():
    model = example16_model()
    q = BoxQuery(tuple((0.0, 1.0) for _ in range(MAX_BOX_DIM + 1)))
    with pytest.raises(ConfigurationError):
        joint_interarrival_probability(model, q)
    q = BoxQuery(tuple((0.0, 1.0) for _ in range(MAX_BOX_DIM)))
    assert joint_interarrival_probability(model, q).value >= 0.0


def test_invalid_box_rejected():
    with pytest.raises(ConfigurationError):
        BoxQuery(((1.0, 1.0),))
    with pytest.raises(ConfigurationError):
        BoxQuery(())


def test_accuracy_error_carries_best_estimate():
    model = example16_model()
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=2)
    with pytest.raises(AccuracyError) as exc:
        joint_interarrival_probability(model, BoxQuery.upper(2.0, 1.0), cfg)
    assert abs(exc.value.value - 1.0 / 3.0) < 1e-3
    assert exc.value.error_estimate > 0.0


# ---------------------------------------------------------------------------
# count_pmf
# ---------------------------------------------------------------------------


def test_count_pmf_dirac_is_poisson():
    theta = 1.3
    model = build_model(KernelSpec("exponential"), DiracMixing(theta))
    for t in [0.5, 2.0]:
        for n in range(8):
            lam = theta * t
            ref = math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))
            assert count_pmf(model, t, n).value == pytest.approx(ref, abs=1e-12)


def test_count_pmf_dirac_monte_carlo_oracle():
    theta = 0.9
    t = 2.0
    model = build_model(KernelSpec("exponential"), DiracMixing(theta))
    ens = simulate_ensemble(model, 100_000, 40, root_seed=17)
    counts = np.sum(ens.arrivals <= t, axis=1)
    assert counts.max() < 40
    for n in range(5):
        p_hat = np.mean(counts == n)
        p = count_pmf(model, t, n).value
        se = math.sqrt(p * (1 - p) / ens.n_paths)
        assert abs(p_hat - p) <= 4.0 * se


def test_count_pmf_negative_binomial():
    g, a = 2.0, 1.5
    model = build_model(KernelSpec("exponential"), GammaMixing(g, a))
    for t in [0.5, 1.0, 2.0, 5.0]:
        p0 = count_pmf(model, t, 0).value
        assert abs(p0 - (g / (g + t)) ** a) < 1e-10
        for n in range(6):
            ref = (
                math.exp(math.lgamma(n + a) - math.lgamma(a) - math.lgamma(n + 1))
                * (g / (g + t)) ** a
                * (t / (g + t)) ** n
            )
            assert count_pmf(model, t, n).value == pytest.approx(ref, abs=1e-10)


def _negative_binomial_pmf(g, a, lam, n):
    """P(N = n) for N | theta ~ Poisson(theta * lam), theta ~ Gamma(rate g, shape a)."""
    return math.exp(
        math.lgamma(n + a) - math.lgamma(a) - math.lgamma(n + 1)
        + a * math.log(g / (g + lam)) + n * math.log(lam / (g + lam))
    )


@given(
    hs.floats(0.3, 5.0), hs.floats(0.2, 4.0), hs.floats(0.5, 3.0), hs.floats(0.05, 12.0),
    hs.integers(0, 120),
)
@settings(max_examples=40, deadline=None)
def test_count_pmf_error_bound_is_honest(g, a, rate, t, n):
    model = build_model(KernelSpec("exponential", RateMap(rate, 0.0)), GammaMixing(g, a))
    res = count_pmf(model, t, n)
    assert abs(res.value - _negative_binomial_pmf(g, a, rate * t, n)) <= max(res.error, 1e-12)


def test_count_pmf_far_tail_has_correct_digits():
    # exp-gamma at t = 10, n = 200: the difference of two CDFs near 1 gave
    # 6.6e-16 +/- 6.6e-16 for a truth of 1.6e-16
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.5))
    res = count_pmf(model, 10.0, 200)
    ref = _negative_binomial_pmf(2.0, 1.5, 10.0, 200)
    assert res.value == pytest.approx(ref, rel=1e-8)
    assert abs(res.value - ref) <= res.error


def test_count_pmf_sums_to_one():
    model = build_model(KernelSpec("gamma", shape=1.5), GammaMixing(2.0, 2.0))
    t = 2.0
    total = sum(count_pmf(model, t, n).value for n in range(40))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_count_pmf_boundary_and_errors():
    model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    assert count_pmf(model, 0.0, 0).value == 1.0
    assert count_pmf(model, 0.0, 3).value == 0.0
    improper = example16_model()
    with pytest.raises(UnsupportedModelError):
        count_pmf(improper, 1.0, 0)
    with pytest.raises(ConfigurationError):
        count_pmf(model, 1.0, -1)


# ---------------------------------------------------------------------------
# density-form route
# ---------------------------------------------------------------------------


def test_route_equivalence_gamma_half():
    model, _ = load_bundled_model("gamma_half")
    queries = [
        BoxQuery.upper(1.0),
        BoxQuery.upper(0.4, 2.0),
        BoxQuery(((0.3, 1.5), (0.0, 2.0), (0.5, math.inf))),
    ]
    for q in queries:
        a = joint_interarrival_probability(model, q)
        b = cylinder_probability_density_form(model, q)
        assert abs(a.value - b.value) < 1e-8


def test_route_equivalence_bivariate():
    model, _ = load_bundled_model("bivariate")
    queries = [
        BoxQuery.upper(1.0),
        BoxQuery(((0.3, 1.5), (0.0, 2.0))),
        BoxQuery(((0.0, 0.4),)),
        BoxQuery(((0.05, 0.3), (0.0, 5.0))),
        BoxQuery(((1.2, math.inf), (0.3, 0.9))),
        BoxQuery(((0.0, 2.5), (0.7, 1.1), (0.2, math.inf))),
    ]
    for q in queries:
        a = joint_interarrival_probability(model, q)
        b = cylinder_probability_density_form(model, q)
        assert abs(a.value - b.value) < 1e-8
        assert abs(a.value - b.value) <= a.error + b.error


def test_density_form_theta_restriction():
    model, _ = load_bundled_model("gamma_half")
    q = BoxQuery.upper(1.2)
    full = cylinder_probability_density_form(model, q, theta_set=(0.0, math.inf))
    base = joint_interarrival_probability(model, q)
    assert abs(full.value - base.value) < 1e-9
    # total-mass box with E = support integrates the mixing density to 1
    total = cylinder_probability_density_form(
        model, BoxQuery(((0.0, math.inf), (0.0, math.inf)))
    )
    assert abs(total.value - 1.0) < 1e-8
    # restricted parameter set equals the mixing mass of E, within the bound
    for hi in (1e-3, 0.75, 9.0):
        e_mass = cylinder_probability_density_form(
            model, BoxQuery(((0.0, math.inf),)), theta_set=(0.0, hi)
        )
        assert abs(e_mass.value - gammainc(1.5, 2.0 * hi)) <= min(e_mass.error, 1e-8)


@pytest.mark.parametrize("hi", [1e-250, 5e-324])
def test_density_form_tiny_clip_is_near_zero(hi):
    # theta**1.5 underflows to 0 on these clips, so they must not be mapped to
    # v = theta**shape coordinates; theta = 0 nodes give a zero kernel rate
    model, _ = load_bundled_model("gamma_half")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cylinder_probability_density_form(model, BoxQuery.upper(1.0), theta_set=(0.0, hi))
    assert res.method == "density-form-gk15"
    assert 0.0 <= res.value <= 1e-300 and 0.0 <= res.error < 1e-100


@pytest.mark.parametrize(
    "marginal", [GammaMarginal(2.0, 1.5), BetaMarginal(0.7, 2.5), UniformMarginal(0.2, 3.0)]
)
def test_route_equivalence_one_dimensional_product_mixing(marginal):
    # the density form integrates over any one-dimensional product mixing,
    # not only over the gamma spelling of it
    model = build_model(KernelSpec("gamma", shape=1.3), ProductRectangleMixing((marginal,)))
    q = BoxQuery(((0.1, 0.9), (-math.inf, 2.0)))
    a = joint_interarrival_probability(model, q)
    b = cylinder_probability_density_form(model, q)
    assert abs(a.value - b.value) <= a.error + b.error


def test_density_form_unsupported_configs():
    with pytest.raises(UnsupportedModelError):
        cylinder_probability_density_form(example16_model(), BoxQuery.upper(1.0))
    exp_model = build_model(KernelSpec("exponential"), GammaMixing(2.0, 1.0))
    with pytest.raises(UnsupportedModelError):
        cylinder_probability_density_form(exp_model, BoxQuery.upper(1.0))
    dirac_model = build_model(KernelSpec("gamma", shape=1.3), DiracMixing(1.1))
    with pytest.raises(UnsupportedModelError):
        cylinder_probability_density_form(dirac_model, BoxQuery.upper(1.0))


def test_density_form_method_strings():
    q = BoxQuery.upper(1.0)
    assert cylinder_probability_density_form(load_bundled_model("gamma_half")[0], q).method == (
        "density-form-gk15"
    )
    assert cylinder_probability_density_form(load_bundled_model("bivariate")[0], q).method == (
        "density-form-gk15-iterated"
    )


@pytest.mark.parametrize(
    "name, theta_set",
    [
        ("bivariate", (0.0, 1.0)),  # one interval for two mixing dimensions
        ("gamma_half", ((0.0, 1.0), (0.0, 1.0))),  # two intervals for one
        ("bivariate", ((0.0, 1.0), (0.3, 0.5), (0.0, 1.0))),
        ("gamma_half", (1.0, 0.5)),
        ("gamma_half", (0.5, 0.5)),
        ("gamma_half", (math.nan, 1.0)),
        ("bivariate", ((0.0, 1.0), (0.3, math.nan))),
        ("gamma_half", "ab"),
    ],
)
def test_density_form_theta_set_rejects_malformed(name, theta_set):
    model, _ = load_bundled_model(name)
    with pytest.raises(ConfigurationError):
        cylinder_probability_density_form(model, BoxQuery.upper(1.0), theta_set=theta_set)


@pytest.mark.parametrize(
    "name, theta_set, method",
    [
        ("bivariate", ((0.0, 1.0), (5.0, 10.0)), "density-form-gk15-iterated"),  # theta2 in (0.2, 0.8)
        ("gamma_half", (-3.0, -1.0), "density-form-gk15"),
        ("gamma_half", (-3.0, 0.0), "density-form-gk15"),
    ],
)
def test_density_form_theta_set_missing_support_is_zero(name, theta_set, method):
    model, _ = load_bundled_model(name)
    res = cylinder_probability_density_form(model, BoxQuery.upper(1.0), theta_set=theta_set)
    assert res == ExactResult(0.0, 0.0, method)


def test_density_form_theta_set_splits_bivariate_mass():
    model, _ = load_bundled_model("bivariate")
    q = BoxQuery(((0.3, 1.5), (0.0, 2.0)))
    full = cylinder_probability_density_form(model, q)
    wide = cylinder_probability_density_form(model, q, theta_set=((-1.0, math.inf), (0.0, 1.0)))
    parts = [
        cylinder_probability_density_form(model, q, theta_set=((0.0, math.inf), e))
        for e in ((0.1, 0.45), (0.45, 0.9))
    ]
    assert abs(wide.value - full.value) <= wide.error + full.error
    total = parts[0].value + parts[1].value
    assert abs(total - full.value) <= parts[0].error + parts[1].error + full.error


@pytest.mark.parametrize("name", ["gamma_half", "bivariate"])
def test_density_form_nonconvergence_carries_best_estimate(name):
    model, _ = load_bundled_model(name)
    q = BoxQuery(((0.3, 1.5), (0.0, 2.0)))
    with pytest.raises(AccuracyError) as exc:
        cylinder_probability_density_form(model, q, QuadratureConfig(max_subdivisions=2))
    ref = joint_interarrival_probability(model, q)
    assert math.isfinite(exc.value.value) and exc.value.error_estimate > 0.0
    assert abs(exc.value.value - ref.value) <= exc.value.error_estimate + ref.error


@given(hs.floats(0.3, 5.0), hs.floats(0.2, 5.0), hs.floats(0.01, 12.0))
@example(1.7, 2.3, 0.8)
@settings(max_examples=60, deadline=None)
def test_density_form_error_bound_is_honest(g, a, w):
    # a gamma kernel of shape 1 is exponential: P(W_1 <= w) = 1 - (g/(g+w))**a
    model = build_model(KernelSpec("gamma", shape=1.0), GammaMixing(g, a))
    res = cylinder_probability_density_form(model, BoxQuery.upper(w))
    assert abs(res.value - -math.expm1(a * math.log(g / (g + w)))) <= res.error


def test_count_pmf_bivariate_model_monte_carlo_oracle():
    model, _ = load_bundled_model("bivariate")
    t = 1.0
    ens = simulate_ensemble(model, 100_000, 120, root_seed=71)
    counts = np.sum(ens.arrivals <= t, axis=1)
    assert counts.max() < 120
    for n in range(4):
        p = count_pmf(model, t, n).value
        p_hat = float(np.mean(counts == n))
        se = math.sqrt(p * (1 - p) / ens.n_paths)
        assert abs(p_hat - p) <= 4.0 * se
