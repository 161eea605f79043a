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
        assert abs(r.scalar_value - truth) <= max(float(r.error[0]), 1e-13)


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
    assert float(r.error[0]) > 0.0


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


# ---------------------------------------------------------------------------
# the round loop
# ---------------------------------------------------------------------------


def _recording(f):
    """f, and the list of the node counts it is called with."""
    sizes = []

    def g(x):
        sizes.append(x.size)
        return f(x)

    return g, sizes


def test_one_integrand_call_per_round():
    g, sizes = _recording(lambda x: 1.0 / (1.0 + 100.0 * x * x))
    r = adaptive_gauss_kronrod(g, -1.0, 3.0, breakpoints=[0.5, 1.0, 2.0])
    assert r.converged and r.scalar_value == pytest.approx(0.1 * (math.atan(30.0) + math.atan(10.0)))
    assert r.n_calls == len(sizes) > 1
    assert sizes[0] == 15 * 4  # every initial panel at once
    # each later round evaluates the two children of every panel it bisects
    assert all(n % 30 == 0 for n in sizes[1:])
    assert r.n_panels == 4 + sum(sizes[1:]) // 30


def test_components_far_apart_in_scale_each_meet_the_tolerance():
    # a 1e6 ratio between the components, and a kink that only the small one has
    f = lambda x: np.column_stack([1e3 * np.cos(3.0 * x), 1e-3 * np.sqrt(x)])
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-300)
    r = adaptive_gauss_kronrod(f, 0.0, 1.0, cfg)
    truth = np.array([1e3 * math.sin(3.0) / 3.0, 1e-3 * 2.0 / 3.0])
    assert r.converged
    assert np.all(r.error <= cfg.rel_tol * np.abs(r.value))
    assert np.all(np.abs(r.value - truth) <= r.error)


@pytest.mark.parametrize("cap", [1, 2, 3, 7, 40, 300])
def test_panel_count_stays_within_the_cap(cap):
    # no number of panels meets a tolerance of 1e-300
    cfg = QuadratureConfig(rel_tol=1e-300, abs_tol=1e-300, max_subdivisions=cap)
    r = adaptive_gauss_kronrod(np.exp, 0.0, 1.0, cfg)
    assert not r.converged
    assert r.n_panels == cap


def test_reaching_the_cap_is_an_accuracy_error(tmp_path):
    from mrplab.cli import main
    from mrplab.errors import AccuracyError
    from mrplab.exact import BoxQuery, joint_interarrival_probability
    from mrplab.modelfile import bundled_model_path, load_bundled_model

    model, _ = load_bundled_model("gamma_half")
    with pytest.raises(AccuracyError):  # 1e-300 takes more panels than the cap allows
        joint_interarrival_probability(
            model, BoxQuery.upper(1.0), QuadratureConfig(rel_tol=1e-300, abs_tol=1e-300)
        )
    queries = tmp_path / "q.json"
    queries.write_text('[{"id": "b", "bounds": [[null, 1.0]]}]')
    argv = ["exact", "--model", str(bundled_model_path("gamma_half")), "--queries", str(queries),
            "--out", str(tmp_path / "out.csv"), "--tol", "1e-300"]
    assert main(argv) == 4


@pytest.mark.parametrize("k", [0, 1, 3, 8])
def test_half_line_error_bounds_power_times_exponential(k):
    r = integrate_half_line(lambda x: x**k * np.exp(-x), 0.0, 1.0 + k)
    assert r.converged
    assert abs(r.scalar_value - math.factorial(k)) <= float(r.error[0])


def test_error_bounds_square_root():
    r = adaptive_gauss_kronrod(np.sqrt, 0.0, 1.0)
    assert r.converged
    assert abs(r.scalar_value - 2.0 / 3.0) <= float(r.error[0])


@pytest.mark.parametrize("width", [1e-2, 1e-4, 1e-6])
def test_error_bounds_narrow_gaussian_peak(width):
    # breakpoints 4 and 8 widths either side of the peak, as `Marginal.edges` places them
    centre = 1.0 / 3.0
    f = lambda x: np.exp(-0.5 * ((x - centre) / width) ** 2)
    edges = [centre + j * width for j in (-8.0, -4.0, 0.0, 4.0, 8.0)]
    r = adaptive_gauss_kronrod(f, 0.0, 1.0, breakpoints=edges)
    s = width * math.sqrt(2.0)
    truth = width * math.sqrt(0.5 * math.pi) * (math.erf((1.0 - centre) / s) + math.erf(centre / s))
    assert r.converged
    assert abs(r.scalar_value - truth) <= float(r.error[0])
