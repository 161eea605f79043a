import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hs

from mrplab import kernels
from mrplab.errors import (
    ConfigurationError,
    ParameterDomainError,
    UnsupportedModelError,
    UnsupportedOperationError,
)
from mrplab.kernels import (
    SHAPE_FROM_THETA2,
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
    kernel_cdf_batch,
    kernel_law,
    kernel_pdf,
    kernel_sample,
    kernel_sample_batch,
    mixing_density,
    mixing_sample,
    verify_mixing_mass,
)
from mrplab.rng import StreamBank, UniformStream
from mrplab.special import ks_one_sample_pvalue, regularized_incomplete_gamma

EXP = KernelSpec("exponential")
EXP_SCALED = KernelSpec("exponential", RateMap(0.0, 1.0))  # rate multiplier n
GAMMA_HALF = KernelSpec("gamma", shape=0.5)


# ---------------------------------------------------------------------------
# kernel_cdf
# ---------------------------------------------------------------------------


def test_exponential_indexed_cdf_closed_form():
    # index 2 at rate multiplier n and theta=1: 1 - exp(-2 * ln2 / 2) = 1/2
    x = math.log(2.0) / 2.0
    assert kernel_cdf(EXP_SCALED, 2, 1.0, x) == pytest.approx(0.5, abs=1e-15)


def test_exponential_indexed_cdf_empirical_oracle():
    x = math.log(2.0) / 2.0
    bank = StreamBank.from_root(314, 1_000_000)
    draws = kernel_sample_batch(EXP_SCALED, 2, np.ones(1_000_000), bank)
    emp = np.mean(draws <= x)
    se = math.sqrt(0.25 / 1_000_000)
    assert abs(emp - 0.5) <= 4.0 * se


def test_cdf_zero_at_support_boundary():
    assert kernel_cdf(EXP, 1, 2.0, 0.0) == 0.0
    assert kernel_cdf(GAMMA_HALF, 1, 1.0, 0.0) == 0.0
    assert kernel_cdf(EXP, 1, 2.0, -1.0) == 0.0


def test_cdf_total_mass():
    assert kernel_cdf(GAMMA_HALF, 1, 1.0, np.inf) == 1.0
    assert kernel_cdf(GAMMA_HALF, 1, 1.0, 1e9) == pytest.approx(1.0, abs=1e-12)


def test_cdf_monotone_on_grid():
    xs = np.linspace(0.0, 20.0, 400)
    for spec, theta in [(EXP, 1.3), (GAMMA_HALF, 0.7)]:
        vals = np.array([kernel_cdf(spec, 1, theta, x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] >= 0.0 and vals[-1] <= 1.0


@given(
    hs.floats(0.01, 50.0),
    hs.floats(0.01, 50.0),
    hs.floats(0.1, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_cdf_monotone_property(x1, x2, theta):
    lo, hi = sorted((x1, x2))
    assert kernel_cdf(GAMMA_HALF, 1, theta, lo) <= kernel_cdf(GAMMA_HALF, 1, theta, hi) + 1e-15


def test_cdf_batch_matches_scalar():
    thetas = np.array([0.3, 1.0, 2.5])
    for spec in [EXP, GAMMA_HALF]:
        batch = kernel_cdf_batch(spec, 2, thetas, 1.7)
        scal = np.array([kernel_cdf(spec, 2, t, 1.7) for t in thetas])
        assert np.array_equal(batch, scal)


def test_cdf_batch_columns_match_single_column_calls():
    thetas = np.array([0.3, 1.0, 2.5])
    biv = KernelSpec("gamma", RateMap(0.5, 0.25), shape=SHAPE_FROM_THETA2)
    cases = [
        (EXP_SCALED, thetas),
        (GAMMA_HALF, thetas),
        (biv, np.array([[0.3, 0.2], [1.0, 0.8], [2.5, 1.7]])),
    ]
    indices = [1, 2, 3, 2, 1]
    xs = [1.7, 0.0, math.inf, 0.4, -1.0]
    for spec, th in cases:
        cols = kernel_cdf_batch(spec, indices, th, xs)
        assert cols.shape == (3, 5)
        for j, (k, x) in enumerate(zip(indices, xs)):
            assert np.array_equal(cols[:, j], kernel_cdf_batch(spec, k, th, x))
    with pytest.raises(ParameterDomainError):
        kernel_cdf_batch(EXP, [1, 2], thetas, [1.0])


def test_cdf_batch_scalar_index_broadcasts_over_points():
    xs = np.linspace(0.05, 6.0, 20_000)
    thetas = np.array([0.4, 2.2])
    for spec in [EXP_SCALED, GAMMA_HALF]:
        cols = kernel_cdf_batch(spec, 2, thetas, xs)
        assert cols.shape == (2, xs.size)
        assert np.array_equal(cols, kernel_cdf_batch(spec, [2] * xs.size, thetas, xs))
    with pytest.raises(ParameterDomainError):
        kernel_cdf_batch(EXP, 0, thetas, xs)
    with pytest.raises(ParameterDomainError):
        kernel_cdf_batch(EXP, 1.0, thetas, xs)


def test_cdf_batch_sum_of_draws_is_a_gamma_law():
    # the sum of n draws of Gamma(rate, shape) is Gamma(rate, n*shape); n = 0 is 0
    thetas = np.array([0.3, 1.0, 2.5])
    t = 1.7
    for spec, shape in [(GAMMA_HALF, 0.5), (KernelSpec("gamma", RateMap(2.0, 0.0), shape=1.4), 1.4),
                        (EXP, 1.0)]:
        ns = [0, 1, 2, 7]
        cols = kernel_cdf_batch(spec, 1, thetas, [t] * len(ns), n_terms=ns)
        assert np.array_equal(cols[:, 0], np.ones(3))
        rates = thetas * spec.rate_map.a
        for j, n in enumerate(ns[1:], start=1):
            ref = st.gamma.cdf(t, n * shape, scale=1.0 / rates)
            assert np.allclose(cols[:, j], ref, rtol=0.0, atol=1e-12)
            if spec.family == "gamma":
                # the same expression the count route has always used
                assert np.array_equal(cols[:, j], regularized_incomplete_gamma(n * shape, rates * t))


def test_domain_error_names_component():
    with pytest.raises(ParameterDomainError, match="component 0"):
        kernel_cdf(EXP, 1, -1.0, 1.0)
    with pytest.raises(ParameterDomainError, match="component 1"):
        kernel_cdf(KernelSpec("gamma", shape="theta2"), 1, (1.0, -0.2), 1.0)
    with pytest.raises(ParameterDomainError):
        kernel_cdf(EXP, 0, 1.0, 1.0)


def test_kernel_law_rates_and_shapes_by_hand():
    theta1 = np.array([2.0, 0.5])
    thetas = np.array([[2.0, 0.3], [0.5, 1.5]])
    tied = KernelSpec("gamma", RateMap(0.5, 0.25), shape=SHAPE_FROM_THETA2)
    cases = [
        # spec, index, thetas, rates (theta1 * (a + b*index)), shapes
        (EXP, 3, theta1, [2.0, 0.5], [1.0, 1.0]),
        (EXP_SCALED, np.array([1, 3]), theta1, [[2.0, 6.0], [0.5, 1.5]], [[1.0, 1.0], [1.0, 1.0]]),
        (GAMMA_HALF, 2, theta1, [2.0, 0.5], [0.5, 0.5]),
        (GAMMA_HALF, [1, 2], thetas, [[2.0, 2.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]),
        (tied, 2, thetas, [2.0, 0.5], [0.3, 1.5]),
        (tied, np.array([1, 2]), thetas, [[1.5, 2.0], [0.375, 0.5]], [[0.3, 0.3], [1.5, 1.5]]),
    ]
    for spec, index, th, rates, shapes in cases:
        got_rates, got_shapes = kernel_law(spec, index, th)
        assert got_rates.tolist() == rates and got_shapes.tolist() == shapes


@pytest.mark.parametrize("index", [True, 1.0, 0, np.array([1, 0])])
def test_kernel_routes_reject_an_index_that_is_not_an_integer_at_least_one(index):
    bank = StreamBank.from_root(3, 2)
    calls = [
        lambda: kernel_law(GAMMA_HALF, index, np.ones(2)),
        lambda: kernel_cdf_batch(GAMMA_HALF, index, np.ones(2), [0.5, 1.0]),
    ]
    if np.ndim(index) == 0:  # the routes of one kernel member
        calls += [
            lambda: kernel_sample_batch(GAMMA_HALF, index, np.ones(2), bank),
            lambda: kernel_sample(EXP, index, 1.0, UniformStream(3)),
            lambda: kernel_cdf(GAMMA_HALF, index, 1.0, 0.5),
            lambda: kernel_pdf(GAMMA_HALF, index, 1.0, 0.5),
        ]
    for call in calls:
        with pytest.raises(ParameterDomainError, match="kernel index must be a positive integer"):
            call()


@pytest.mark.parametrize("index", [[1, 2], np.array([2, 3, 4])])
def test_sampler_and_density_take_one_index(index):
    # kernel_law maps an index array to columns; a draw or a density has one index
    with pytest.raises(ParameterDomainError, match="kernel index"):
        kernel_sample_batch(EXP, index, np.ones(len(index)), StreamBank.from_root(3, len(index)))
    with pytest.raises(ParameterDomainError, match="kernel index"):
        kernel_pdf(GAMMA_HALF, index, 1.0, 0.5)


def test_nan_arguments_and_infinite_parameters_raise_parameter_domain_errors():
    tied = KernelSpec("gamma", shape=SHAPE_FROM_THETA2)
    calls = [
        lambda: kernel_pdf(EXP, 1, math.inf, 0.5),  # was NaN: inf * exp(-inf)
        lambda: kernel_pdf(tied, 1, (1.0, math.inf), 0.5),
        lambda: kernel_cdf(GAMMA_HALF, 1, math.inf, 0.5),
        lambda: kernel_sample(EXP, 1, math.inf, UniformStream(3)),
        lambda: kernel_cdf(EXP, 1, 1.0, math.nan),
        lambda: kernel_cdf_batch(GAMMA_HALF, 1, np.ones(3), [0.5, math.nan]),
        lambda: kernel_pdf(EXP, 1, 1.0, math.nan),
        lambda: kernel_pdf(GAMMA_HALF, 1, 1.0, math.nan),
        lambda: mixing_density(GammaMixing(2.0, 1.5), math.nan),
        lambda: mixing_density(
            ProductRectangleMixing((GammaMarginal(2.0, 2.0), UniformMarginal(0.2, 0.8))),
            (1.0, math.nan),
        ),
    ]
    for call in calls:
        with pytest.raises(ParameterDomainError):
            call()


@pytest.mark.parametrize("mixing,theta", [
    (GammaMixing(2.0, 1.5), (math.inf,)),
    (ProductRectangleMixing((GammaMarginal(2.0, 1.5),)), (math.inf,)),
    (ProductRectangleMixing((GammaMarginal(2.0, 2.0), UniformMarginal(0.2, 0.8))), (math.inf, 0.5)),
    (ProductRectangleMixing((UniformMarginal(0.2, 0.8), BetaMarginal(2.0, 2.0))), (0.5, math.inf)),
    (DiscreteMixing((1.0, 2.0), (0.5, 0.5)), (math.inf,)),
])
def test_an_infinite_component_lies_outside_every_support(mixing, theta):
    assert not mixing.contains(theta)


def test_kernel_spec_validation():
    with pytest.raises(ConfigurationError):
        KernelSpec("weibull")
    with pytest.raises(ConfigurationError):
        KernelSpec("gamma")  # shape required
    with pytest.raises(ConfigurationError):
        KernelSpec("exponential", shape=1.0)
    with pytest.raises(ConfigurationError):
        RateMap(0.0, 0.0)
    with pytest.raises(ConfigurationError):
        RateMap(1.0, -0.5)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_deterministic_given_seed():
    a = kernel_sample(EXP, 1, 2.0, UniformStream(99))
    b = kernel_sample(EXP, 1, 2.0, UniformStream(99))
    assert a == b
    assert a > 0.0


def test_exponential_moment_oracle():
    n = 1_000_000
    bank = StreamBank.from_root(11, n)
    draws = kernel_sample_batch(EXP, 1, np.full(n, 2.0), bank)
    se = 0.5 / math.sqrt(n)  # sd of Exp(2) is 1/2
    assert abs(draws.mean() - 0.5) <= 4.0 * se
    assert draws.min() > 0.0


def test_gamma_moment_oracle_shape_below_one():
    n = 1_000_000
    bank = StreamBank.from_root(12, n)
    draws = kernel_sample_batch(GAMMA_HALF, 1, np.ones(n), bank)
    se = math.sqrt(0.5) / math.sqrt(n)  # var of Ga(1, 1/2) is 1/2
    assert abs(draws.mean() - 0.5) <= 4.0 * se
    assert draws.min() > 0.0


def test_gamma_moment_oracle_shape_above_one():
    n = 500_000
    spec = KernelSpec("gamma", shape=3.5)
    bank = StreamBank.from_root(13, n)
    draws = kernel_sample_batch(spec, 1, np.full(n, 2.0), bank)
    se = math.sqrt(3.5 / 4.0) / math.sqrt(n)
    assert abs(draws.mean() - 3.5 / 2.0) <= 4.0 * se


def test_sampling_cdf_consistency_ks():
    # one-sample KS p-value above 0.001, across 20 seeds
    n = 100_000
    configs = [
        (EXP, 1.3, lambda x: -np.expm1(-1.3 * x)),
        (GAMMA_HALF, 2.0, lambda x: regularized_incomplete_gamma(0.5, 2.0 * x)),
        (KernelSpec("gamma", shape=1.7), 1.0, lambda x: regularized_incomplete_gamma(1.7, x)),
    ]
    for spec, theta, cdf in configs:
        failures = 0
        for seed in range(20):
            bank = StreamBank.from_root(1000 + seed, n)
            xs = np.sort(kernel_sample_batch(spec, 1, np.full(n, theta), bank))
            grid = np.arange(1, n + 1) / n
            f = cdf(xs)
            d = np.max(np.maximum(grid - f, f - (grid - 1.0 / n)))
            failures += not ks_one_sample_pvalue(d, n) > 0.001
        assert failures == 0, f"{spec.family}: {failures} seeds exceeded the KS 0.001 critical value"


@pytest.mark.parametrize("spec", [EXP, GAMMA_HALF, KernelSpec("gamma", shape=SHAPE_FROM_THETA2)])
def test_sample_batch_on_lanes_equals_full_bank(spec):
    # the selected lanes draw what a full-bank draw gives them; the others keep their counters
    thetas = np.column_stack([np.linspace(0.5, 2.0, 10), np.linspace(0.3, 3.0, 10)])
    if spec.param_dim == 1:
        thetas = thetas[:, 0]
    lanes = np.array([1, 4, 5, 9])
    full = kernel_sample_batch(spec, 2, thetas, StreamBank.from_root(21, 10))
    bank = StreamBank.from_root(21, 10)
    part = kernel_sample_batch(spec, 2, thetas[lanes], bank, lanes)
    assert np.array_equal(part, full[lanes])
    others = np.setdiff1d(np.arange(10), lanes)
    assert np.all(bank.counters[others] == 0)
    assert np.all(bank.counters[lanes] > 0)


def test_squeeze_decisions_equal_the_power_decisions():
    # the gamma sampler's squeeze u < 1 - 0.0331 * z**4, on 1e6 attempts drawn
    # as the sampler draws them and on lanes up to 3 ulps either side of the bound
    gen = np.random.default_rng(17)
    z = np.sqrt(-2.0 * np.log(gen.random(10**6))) * np.cos(2.0 * math.pi * gen.random(10**6))
    u = gen.random(z.size)
    zb = z[:100_000]
    bound = 1.0 - 0.0331 * zb**4
    near = [bound]
    up = down = bound
    for _ in range(3):
        up, down = np.nextafter(up, 2.0), np.nextafter(down, -1.0)
        near += [up, down]
    zn, un = np.tile(zb, len(near)), np.concatenate(near)
    inside = (un > 0.0) & (un < 1.0)
    z, u = np.concatenate([z, zn[inside]]), np.concatenate([u, un[inside]])
    expected = u < 1.0 - 0.0331 * z**4
    assert np.array_equal(kernels._squeeze_accepts(z, u), expected)
    # the product alone decides some of the near lanes the other way
    z2 = z * z
    assert np.count_nonzero((u < 1.0 - 0.0331 * (z2 * z2)) != expected) > 0


def test_scalar_batch_bitwise_identical():
    # same stream, same consumption: scalar call equals lane 0 of a batch
    for spec, theta in [(EXP, 1.5), (GAMMA_HALF, 0.8), (KernelSpec("gamma", shape=2.2), 1.1)]:
        s = UniformStream(4242)
        scal = kernel_sample(spec, 1, theta, s)
        bank = StreamBank([4242])
        batch = kernel_sample_batch(spec, 1, np.array([theta]), bank)
        assert scal == batch[0]


# ---------------------------------------------------------------------------
# gamma convention
# ---------------------------------------------------------------------------


def test_gamma_half_density_convention():
    # density of Ga(theta, 1/2) must equal sqrt(theta/pi) * w^{-1/2} e^{-theta w}
    for theta in [0.5, 1.0, 3.7]:
        for w in np.linspace(0.05, 6.0, 40):
            ref = math.sqrt(theta / math.pi) * w**-0.5 * math.exp(-theta * w)
            assert kernel_pdf(GAMMA_HALF, 1, theta, w) == pytest.approx(ref, rel=1e-12)


def test_exponential_pdf():
    assert kernel_pdf(EXP, 1, 2.0, 1.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)
    assert kernel_pdf(EXP, 1, 2.0, -1.0) == 0.0


# ---------------------------------------------------------------------------
# mixing measures
# ---------------------------------------------------------------------------


def test_dirac_sampling_constant():
    mu = DiracMixing(3.0)
    s = UniformStream(1)
    assert all(mixing_sample(mu, s) == 3.0 for _ in range(10))


def test_gamma_mixing_moment_oracle():
    n = 1_000_000
    mu = GammaMixing(2.0, 1.0)
    bank = StreamBank.from_root(31, n)
    draws = mu.sample_batch(bank)[:, 0]
    se = 0.5 / math.sqrt(n)
    assert abs(draws.mean() - 0.5) <= 4.0 * se


def test_product_rectangle_uniform_square():
    n = 1_000_000
    mu = ProductRectangleMixing((UniformMarginal(0.0, 1.0), UniformMarginal(0.0, 1.0)))
    bank = StreamBank.from_root(32, n)
    pts = mu.sample_batch(bank)
    emp = np.mean((pts[:, 0] <= 0.5) & (pts[:, 1] <= 0.5))
    se = math.sqrt(0.25 * 0.75 / n)
    assert abs(emp - 0.25) <= 4.0 * se


def test_mixing_density_values():
    mu = GammaMixing(2.0, 1.0)
    assert mixing_density(mu, 0.5) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)
    assert mixing_density(mu, -1.0) == 0.0
    with pytest.raises(UnsupportedOperationError):
        mixing_density(DiracMixing(1.0), 1.0)
    with pytest.raises(UnsupportedOperationError):
        mixing_density(DiscreteMixing((1.0, 2.0), (0.5, 0.5)), 1.0)


def test_mixing_mass_normalization():
    assert verify_mixing_mass(GammaMixing(2.0, 1.0)) == pytest.approx(1.0, abs=1e-8)
    assert verify_mixing_mass(GammaMixing(0.7, 0.3)) == pytest.approx(1.0, abs=1e-8)
    mu2 = ProductRectangleMixing((GammaMarginal(2.0, 2.0), UniformMarginal(0.2, 0.8)))
    assert verify_mixing_mass(mu2) == pytest.approx(1.0, abs=1e-8)
    mu3 = ProductRectangleMixing((BetaMarginal(0.5, 0.5),))
    assert verify_mixing_mass(mu3) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "marginal",
    [GammaMarginal(2.0, 1.5), GammaMarginal(0.7, 0.3), GammaMarginal(1.0, 30.0),
     BetaMarginal(0.5, 0.5), BetaMarginal(3.0, 0.2), UniformMarginal(0.2, 0.8)],
)
def test_mixing_mass_is_the_marginal_integral_of_one(marginal):
    # the mass check integrates 1 by the rule the exact routes use
    res = marginal.integrate(np.ones_like)
    assert res.converged and abs(res.scalar_value - 1.0) <= 1e-10
    assert verify_mixing_mass(ProductRectangleMixing((marginal,))) == res.scalar_value


@pytest.mark.parametrize(
    "make",
    [
        lambda: KernelSpec("gamma", shape=math.inf),
        lambda: KernelSpec("gamma", shape=math.nan),
        lambda: GammaMarginal(math.inf, 1.5),
        lambda: GammaMarginal(2.0, math.inf),
        lambda: GammaMixing(math.inf, 1.5),
        lambda: BetaMarginal(math.inf, 2.0),
        lambda: BetaMarginal(0.7, math.nan),
        lambda: DiscreteMixing((0.5, 2.0), (math.nan, 1.0)),
        lambda: DiscreteMixing((0.5, 2.0), (math.inf, -math.inf)),
    ],
)
def test_nonfinite_parameters_rejected(make):
    with pytest.raises(ConfigurationError):
        make()


def test_mixing_measures_integrate_themselves():
    mu = DiscreteMixing(((1.0, 0.5), (2.0, 1.5)), (0.4, 0.6))
    res = mu.integrate(lambda th: th[:, 0] * th[:, 1])
    assert res.converged and float(res.error[0]) == 0.0
    assert res.scalar_value == pytest.approx(0.4 * 0.5 + 0.6 * 3.0, rel=1e-15)
    # E[theta1 * theta2] under Gamma(rate 2, shape 3) x Uniform(0.2, 0.8)
    prod = ProductRectangleMixing((GammaMarginal(2.0, 3.0), UniformMarginal(0.2, 0.8)))
    res = prod.integrate(lambda th: th[:, 0] * th[:, 1])
    assert res.converged and abs(res.scalar_value - 1.5 * 0.5) <= float(res.error[0])
    cube = ProductRectangleMixing((UniformMarginal(0.2, 0.8),) * 3)
    with pytest.raises(UnsupportedModelError):
        cube.integrate(lambda th: np.ones(len(th)))


def test_dirac_is_a_one_atom_discrete_measure():
    mu = DiracMixing(1.3)
    assert isinstance(mu, DiscreteMixing)
    assert (mu.kind, mu.point, mu.atoms, mu.weights) == ("dirac", (1.3,), ((1.3,),), (1.0,))
    assert mu.to_dict() == {"kind": "dirac", "point": 1.3}
    assert DiracMixing((1.0, 0.5)).to_dict() == {"kind": "dirac", "point": [1.0, 0.5]}
    assert mu.contains((1.3,)) and not mu.contains((1.4,))
    # unlike a one-atom discrete measure, a point mass draws no uniform
    bank = StreamBank.from_root(5, 4)
    assert np.array_equal(mu.sample_batch(bank), np.full((4, 1), 1.3))
    assert np.array_equal(bank.draw(), StreamBank.from_root(5, 4).draw())
    with pytest.raises(ConfigurationError):
        DiracMixing(math.inf)


def test_gamma_mixing_is_a_one_gamma_product():
    mu = GammaMixing(2.0, 1.5)
    assert isinstance(mu, ProductRectangleMixing)
    assert mu.marginals == (GammaMarginal(2.0, 1.5),)
    assert (mu.kind, mu.rate, mu.shape, mu.dim) == ("gamma", 2.0, 1.5, 1)
    assert mu.to_dict() == {"kind": "gamma", "rate": 2.0, "shape": 1.5}
    assert not mu.contains((0.0,)) and mu.contains((0.1,))
    with pytest.raises(ConfigurationError):
        GammaMixing(-1.0, 1.5)


def test_beta_marginal_sampling_moments():
    n = 400_000
    m = BetaMarginal(2.0, 3.0)
    bank = StreamBank.from_root(33, n)
    draws = m.sample_batch(bank)
    mean = 2.0 / 5.0
    var = 2.0 * 3.0 / (25.0 * 6.0)
    assert abs(draws.mean() - mean) <= 4.0 * math.sqrt(var / n)
    assert draws.min() > 0.0 and draws.max() < 1.0


def test_discrete_mixing_frequencies_and_validation():
    mu = DiscreteMixing((0.5, 1.5, 4.0), (0.2, 0.5, 0.3))
    n = 200_000
    bank = StreamBank.from_root(34, n)
    draws = mu.sample_batch(bank)[:, 0]
    for atom, wgt in zip((0.5, 1.5, 4.0), (0.2, 0.5, 0.3)):
        emp = np.mean(draws == atom)
        assert abs(emp - wgt) <= 4.0 * math.sqrt(wgt * (1 - wgt) / n)
    with pytest.raises(ConfigurationError):
        DiscreteMixing((1.0, 2.0), (0.6, 0.6))
    with pytest.raises(ConfigurationError):
        DiscreteMixing((1.0, 2.0), (1.2, -0.2))


def test_mixing_sample_dimension_types():
    s = UniformStream(8)
    v = mixing_sample(GammaMixing(1.0, 1.0), s)
    assert isinstance(v, float)
    mu2 = ProductRectangleMixing((UniformMarginal(0.0, 1.0), UniformMarginal(0.0, 1.0)))
    pt = mixing_sample(mu2, s)
    assert isinstance(pt, tuple) and len(pt) == 2
