import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.integrate import quad

from mrplab import special
from mrplab.errors import AccuracyError, ParameterDomainError
from mrplab.kernels import GAMMA_SHAPE_FLOOR, KernelSpec, kernel_cdf
from mrplab.special import (
    chi_square_sf,
    kolmogorov_sf,
    regularized_incomplete_gamma,
    regularized_incomplete_gamma_upper,
)


def test_shape_one_closed_form():
    # P(1, x) = 1 - e^{-x}
    for x in [0.1, 1.0, 5.0]:
        assert regularized_incomplete_gamma(1.0, x) == pytest.approx(-math.expm1(-x), abs=1e-14)


def test_zero_argument():
    assert regularized_incomplete_gamma(0.7, 0.0) == 0.0
    assert regularized_incomplete_gamma(3.0, 0.0) == 0.0


def test_half_shape_is_erf():
    # P(1/2, x) = erf(sqrt(x)); also cross-check by adaptive numeric integration
    assert regularized_incomplete_gamma(0.5, 1.0) == pytest.approx(math.erf(1.0), abs=1e-13)
    oracle, _ = quad(lambda t: t**-0.5 * math.exp(-t) / math.gamma(0.5), 0.0, 1.0)
    assert regularized_incomplete_gamma(0.5, 1.0) == pytest.approx(oracle, abs=1e-11)


def test_against_scipy_over_shapes():
    rng = np.random.default_rng(0)
    for a in [0.05, 0.2, 0.5, 0.99, 1.0, 1.5, 2.7, 10.0, 57.3, 250.0, 500.0]:
        x = np.abs(rng.gamma(2.0, a / 2.0 + 1.0, 1000))
        mine = regularized_incomplete_gamma(a, x)
        ref = sp.gammainc(a, x)
        assert np.max(np.abs(mine - ref)) < 1e-12


def test_against_scipy_huge_shape():
    rng = np.random.default_rng(3)
    x = np.abs(rng.gamma(2.0, 1001.0, 1000))
    assert np.max(np.abs(regularized_incomplete_gamma(2000.0, x) - sp.gammainc(2000.0, x))) < 1e-12


@pytest.mark.parametrize("a", [1e3, 1e4, 1e5, 1e6])
def test_large_shapes_match_scipy_in_the_bulk(a):
    # x = a + z sqrt(a) spans the law's bulk; the textbook prefactor
    # exp(-x + a log x - lgamma(a)) was off by 2.5e-12 there at a = 1e4 and
    # 3.4e-10 at 1e6, where scipy agrees with mpmath to 1.1e-16
    x = a + np.linspace(-4.0, 4.0, 17) * math.sqrt(a)
    assert np.max(np.abs(regularized_incomplete_gamma(a, x) - sp.gammainc(a, x))) <= 1e-12
    assert np.max(np.abs(regularized_incomplete_gamma_upper(a, x) - sp.gammaincc(a, x))) <= 1e-12


@pytest.mark.parametrize("b", [GAMMA_SHAPE_FLOOR, 0.3, 2.5, 15.1, 1643.0, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("a", [GAMMA_SHAPE_FLOOR, 1.0, 14.9, 200.0, 1e4, 1e6])
def test_log_beta_matches_mpmath(a, b):
    # lgamma(a) + lgamma(b) - lgamma(a+b) was off by 5.9e-12 at (0.0528, 1e4)
    # and 1.5e-9 at (0.0528, 1e6)
    with mpmath.workdps(40):
        truth = float(mpmath.log(mpmath.beta(a, b)))
    assert abs(special.log_beta(a, b) - truth) <= 1e-11


@pytest.mark.parametrize("a, b", [
    (GAMMA_SHAPE_FLOOR, 0.3), (0.7, 2.5), (5.0, 1e4), (1e4, GAMMA_SHAPE_FLOOR),
    (1e5, 1e5), (1e6, 1e6), (1e6 + 0.1, 2e6 + 0.9),
])
def test_beta_log_density_matches_mpmath(a, b):
    # within about 10 eps of the size of its terms, (a-1) |log(x/m)| and
    # (b-1) |log((1-x)/(1-m))| for the mean m: about sqrt(a) at the peak,
    # where the textbook form's terms are of size a |log x|
    m, sd = a / (a + b), math.sqrt(a * b / (a + b + 1.0)) / (a + b)
    x = np.concatenate([m + sd * np.arange(-6.0, 7.0), [m * 1e-3, 1.0 - (1.0 - m) * 1e-3]])
    x = x[(x > 0.0) & (x < 1.0)]
    got = special.beta_log_density(a, b, x)
    with mpmath.workdps(40):
        am, bm, mm = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(a) / (mpmath.mpf(a) + mpmath.mpf(b))
        for xi, gi in zip(x.tolist(), got.tolist()):
            xm = mpmath.mpf(xi)
            lx, lu = (am - 1) * mpmath.log(xm / mm), (bm - 1) * mpmath.log((1 - xm) / (1 - mm))
            truth = lx + lu + (am - 1) * mpmath.log(mm) + (bm - 1) * mpmath.log(1 - mm) - mpmath.log(mpmath.beta(am, bm))
            assert abs(gi - float(truth)) <= 2e-15 * (1.0 + abs(float(lx)) + abs(float(lu)) + abs(float(truth)))


def test_large_shape_kernel_cdf_matches_scipy():
    # Gamma(2, 1e5) at its mean, where the textbook prefactor was off by 1.9e-10
    cdf = kernel_cdf(KernelSpec("gamma", shape=1e5), 1, 2.0, 0.5e5)
    assert abs(cdf - sp.gammainc(1e5, 1e5)) <= 1e-12


def test_monotone_in_x_and_limits():
    xs = np.linspace(0.0, 60.0, 500)
    for a in [0.3, 1.0, 4.5]:
        p = regularized_incomplete_gamma(a, xs)
        assert np.all(np.diff(p) >= -1e-15)
        assert p[0] == 0.0
        assert p[-1] > 1.0 - 1e-12
    assert regularized_incomplete_gamma(2.0, np.inf) == 1.0


def test_upper_is_complement():
    rng = np.random.default_rng(1)
    x = np.abs(rng.gamma(2.0, 2.0, 500))
    for a in [0.4, 1.0, 6.0]:
        p = regularized_incomplete_gamma(a, x)
        q = regularized_incomplete_gamma_upper(a, x)
        assert np.max(np.abs(p + q - 1.0)) < 1e-12


def test_domain_errors():
    with pytest.raises(ParameterDomainError):
        regularized_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        regularized_incomplete_gamma(-2.0, 1.0)
    with pytest.raises(ParameterDomainError):
        regularized_incomplete_gamma(1.0, -0.5)
    with pytest.raises(ParameterDomainError):
        regularized_incomplete_gamma(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ParameterDomainError):
        regularized_incomplete_gamma_upper(np.array([2.0, np.inf]), np.array([1.0, 1.0]))
    with pytest.raises(ParameterDomainError):
        regularized_incomplete_gamma(np.array([1.0, 2.0]), np.array([1.0, np.nan]))


_shapes = hs.floats(min_value=0.05, max_value=300.0, allow_nan=False)
_args = hs.one_of(
    hs.floats(min_value=0.0, max_value=700.0, allow_nan=False), hs.just(math.inf)
)


@given(hs.lists(hs.tuples(_shapes, _args), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_array_shape_matches_scalar_calls_and_scipy(pairs):
    a = np.array([p[0] for p in pairs])
    x = np.array([p[1] for p in pairs])
    for f, ref in ((regularized_incomplete_gamma, sp.gammainc),
                   (regularized_incomplete_gamma_upper, sp.gammaincc)):
        vec = f(a, x)
        assert vec.shape == a.shape
        scalar = np.array([f(float(ai), float(xi)) for ai, xi in pairs])
        assert np.array_equal(vec, scalar)
        assert np.max(np.abs(vec - ref(a, x))) <= 1e-12


def test_shape_and_argument_broadcast():
    a = np.array([[0.5], [2.0], [7.5]])
    x = np.array([0.0, 0.3, 1.7, 9.0, np.inf])
    p = regularized_incomplete_gamma(a, x)
    assert p.shape == (3, 5)
    assert np.max(np.abs(p - sp.gammainc(a, x))) < 1e-12
    assert isinstance(regularized_incomplete_gamma(2.0, 1.0), float)
    assert regularized_incomplete_gamma(np.array([1.0, 2.0]), 0.5).shape == (2,)


def test_converged_keeps_each_lanes_first_value_and_gathers_in_batches():
    # lane k is done from iteration due[k] on, and its value keeps changing
    # after that; the state is gathered only once a quarter of it is done
    due = np.array([3, 1, 7, 7, 2, 40, 9, 3, 5, 12, 1, 30])
    sizes = []

    def step(i, lane):
        sizes.append(lane.size)
        return due[lane] <= i, 100.0 * i + lane, (lane,)

    out = special._converged(step, (np.arange(due.size),), "test")
    assert out.tolist() == (100.0 * due + np.arange(due.size)).tolist()
    assert len(sizes) == due.max() and len(set(sizes)) < len(set(due.tolist()))
    assert sizes == sorted(sizes, reverse=True)


def test_per_shape_takes_one_shape_without_a_sort(monkeypatch):
    shapes = np.full((3, 1000), 0.5)
    mixed = np.array([[0.5, 2.0, 0.5], [7.5, 2.0, 0.5]])
    expected = special.per_shape(special._stirling_terms, mixed)
    monkeypatch.setattr(special.np, "unique", None)  # a sort would raise here
    one = special.per_shape(special._stirling_terms, shapes)
    assert one.shape == (2, 3, 1000)
    assert (one == np.array(special._stirling_terms(0.5))[:, None, None]).all()
    assert np.array_equal(special.per_shape(special._stirling_terms, 0.5), expected[:, 0, 0])
    assert np.array_equal(special.per_shape(math.lgamma, np.full(4, 2.0)), [0.0] * 4)


@pytest.mark.parametrize("x", [3.0, 30.0])  # series branch, continued-fraction branch
def test_nonconvergence_is_an_accuracy_error(monkeypatch, x):
    monkeypatch.setattr(special, "_MAX_ITER", 2)
    with pytest.raises(AccuracyError):
        regularized_incomplete_gamma(5.0, x)


def test_chi_square_sf_matches_scipy():
    for df in [1, 4, 16, 40]:
        for x in [0.5, 3.0, 17.2, 80.0]:
            assert chi_square_sf(x, df) == pytest.approx(st.chi2.sf(x, df), abs=1e-12)


def test_kolmogorov_sf_matches_scipy():
    for lam in [0.05, 0.2, 0.39, 0.41, 0.7, 1.0, 1.36, 1.95, 3.0]:
        assert kolmogorov_sf(lam) == pytest.approx(sp.kolmogorov(lam), abs=1e-12)
