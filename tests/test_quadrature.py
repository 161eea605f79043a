import math

import numpy as np
import pytest
from scipy.integrate import quad

from mrplab.quadrature import QuadratureConfig, adaptive_gauss_kronrod, integrate_half_line


def test_polynomial_exact():
    r = adaptive_gauss_kronrod(lambda x: x**2, 0.0, 1.0)
    assert r.converged
    assert r.scalar_value == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_error_estimate_bounds_true_error():
    cases = [
        (lambda x: np.exp(-x * x), 0.0, 4.0, math.sqrt(math.pi) / 2.0 * math.erf(4.0)),
        (lambda x: np.sin(7.0 * x), 0.0, math.pi, (1.0 - math.cos(7.0 * math.pi)) / 7.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 10.0, math.atan(10.0)),
    ]
    for f, a, b, truth in cases:
        r = adaptive_gauss_kronrod(f, a, b)
        assert r.converged
        assert abs(r.scalar_value - truth) <= max(r.scalar_error, 1e-13)


def test_vector_valued_matches_scalar_runs():
    rates = np.array([0.5, 1.3, 4.0])
    rv = adaptive_gauss_kronrod(lambda x: np.exp(-np.outer(x, rates)), 0.0, 20.0)
    assert rv.converged
    for j, rho in enumerate(rates):
        rs = adaptive_gauss_kronrod(lambda x, rho=rho: np.exp(-rho * x), 0.0, 20.0)
        assert rv.value[j] == pytest.approx(rs.scalar_value, abs=1e-11)
        assert rv.value[j] == pytest.approx((1.0 - math.exp(-20.0 * rho)) / rho, abs=1e-11)


def test_breakpoints_do_not_change_value():
    f = lambda x: np.exp(-x)
    r1 = adaptive_gauss_kronrod(f, 0.0, 10.0)
    r2 = adaptive_gauss_kronrod(f, 0.0, 10.0, breakpoints=[0.5, 3.0, 9.0])
    assert r1.scalar_value == pytest.approx(r2.scalar_value, abs=1e-12)


def test_nonconvergence_flagged():
    # needle the subdivision limit cannot resolve
    f = lambda x: 1.0 / np.sqrt(np.abs(x - 0.3123456) + 1e-14)
    r = adaptive_gauss_kronrod(f, 0.0, 1.0, QuadratureConfig(max_subdivisions=3))
    assert not r.converged
    assert r.scalar_error > 0.0


def test_half_line_gamma_mass():
    a, g = 1.5, 2.0
    c = math.exp(a * math.log(g) - math.lgamma(a))
    f = lambda t: c * np.where(t > 0.0, t ** (a - 1.0) * np.exp(-g * t), 0.0)
    r = integrate_half_line(f, 0.0, a / g)
    assert r.converged
    assert r.scalar_value == pytest.approx(1.0, abs=1e-10)


def test_half_line_against_scipy():
    f = lambda t: np.exp(-0.7 * t) * np.cos(t)
    r = integrate_half_line(f, 0.0, 1.0 / 0.7)
    ref, _ = quad(lambda t: math.exp(-0.7 * t) * math.cos(t), 0.0, np.inf)
    assert r.scalar_value == pytest.approx(ref, abs=1e-10)


def test_bad_bounds_rejected():
    with pytest.raises(ValueError):
        adaptive_gauss_kronrod(lambda x: x, 1.0, 1.0)
