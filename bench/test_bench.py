"""Tests of the benchmark itself: its references against each other, its inputs, its tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import math
import os
import random
import sys

import pytest
from scipy import integrate

import oracles
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _exp_gamma_box_by_quad(bounds, mults, rate, shape):
    """The exponential-kernel box probability by scipy quadrature over theta."""

    def f(th):
        out = 1.0
        for m, (lo, hi) in zip(mults, bounds):
            lo = 0.0 if lo is None else lo
            upper = 0.0 if hi is None else math.exp(-th * m * hi)
            out *= math.exp(-th * m * lo) - upper
        return out * oracles._gamma_density(th, rate, shape)

    return integrate.quad(f, 0.0, math.inf, epsabs=1e-14, epsrel=1e-12, limit=400)[0]


BOXES = [
    [[None, 1.3]],
    [[None, 2.0], [None, 1.0]],
    [[0.3, 1.7], [None, 0.9]],
    [[None, 0.7], [0.2, None], [None, 2.5]],
    [[0.1, 0.4], [None, 3.0], [0.5, 1.5], [None, 0.8]],
]


@pytest.mark.parametrize("w1, w2", [(2.0, 1.0), (1.0, 2.0), (0.3, 4.0), (5.0, 0.1)])
def test_example16_closed_form_is_the_inclusion_exclusion_sum(w1, w2):
    incl_excl = oracles.exp_gamma_box([[None, w1], [None, w2]], [1.0, 2.0], 2.0, 1.0)
    assert oracles.example16_upper(w1, w2) == pytest.approx(incl_excl, abs=1e-14)


def test_example16_paper_values():
    assert oracles.example16_upper(2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert oracles.example16_upper(1.0, 2.0) == pytest.approx(2.0 / 7.0, abs=1e-15)


@pytest.mark.parametrize("bounds", BOXES)
@pytest.mark.parametrize("mults", [(1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 3.0, 4.0)])
def test_exponential_closed_form_matches_quadrature(bounds, mults):
    closed = oracles.exp_gamma_box(bounds, mults, 2.0, 1.5)
    assert closed == pytest.approx(_exp_gamma_box_by_quad(bounds, mults, 2.0, 1.5), abs=1e-11)


@pytest.mark.parametrize("bounds", BOXES)
def test_gamma_kernel_quadrature_reduces_to_the_exponential_closed_form(bounds):
    # a Gamma(theta, 1) kernel is the exponential kernel
    quad = oracles.gamma_kernel_box(bounds, 1.0, 2.0, 1.5)
    assert quad == pytest.approx(oracles.exp_gamma_box(bounds, [1.0] * 4, 2.0, 1.5), abs=1e-11)


@pytest.mark.parametrize("t, n", [(0.5, 0), (2.0, 3), (4.0, 11), (10.0, 40)])
def test_negative_binomial_matches_the_gamma_kernel_count_quadrature(t, n):
    quad = oracles.gamma_kernel_count(t, n, 1.0, 2.0, 1.5)
    assert oracles.negative_binomial_pmf(t, n, 2.0, 1.5) == pytest.approx(quad, abs=1e-11)


def test_count_pmfs_sum_to_one():
    nb = math.fsum(oracles.negative_binomial_pmf(3.0, n, 2.0, 1.5) for n in range(400))
    gh = math.fsum(oracles.gamma_kernel_count(3.0, n, 0.5, 2.0, 1.5) for n in range(400))
    assert nb == pytest.approx(1.0, abs=1e-12)
    assert gh == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bounds", BOXES[:3])
def test_bivariate_double_integral_matches_nested_one_dimensional_quadrature(bounds):
    def over_theta1(th2):
        return oracles.gamma_kernel_box(bounds, th2, 2.0, 2.0) / 0.6

    nested = integrate.quad(over_theta1, 0.2, 0.8, epsabs=1e-13, epsrel=1e-12)[0]
    assert oracles.bivariate_box(bounds, 2.0, 2.0, 0.2, 0.8) == pytest.approx(nested, abs=1e-11)


def test_bivariate_count_matches_nested_one_dimensional_quadrature():
    def over_theta1(th2):
        return oracles.gamma_kernel_count(2.0, 3, th2, 2.0, 2.0) / 0.6

    nested = integrate.quad(over_theta1, 0.2, 0.8, epsabs=1e-13, epsrel=1e-12)[0]
    assert oracles.bivariate_count(2.0, 3, 2.0, 2.0, 0.2, 0.8) == pytest.approx(nested, abs=1e-11)


def test_query_sets_depend_only_on_the_seed_and_keep_their_size():
    def gen(seed):
        rng = random.Random(f"exact-batch:{seed}")
        return {m: workloads.make_queries(m, plan, rng) for m, plan in workloads.EXACT_PLAN.items()}

    a, b, c = gen(1), gen(1), gen(2)
    assert a == b
    assert a != c
    assert {m: len(q) for m, q in a.items()} == {m: len(q) for m, q in c.items()}


def test_verify_seeds_are_listed():
    seeds = workloads.load_verify_seeds()
    assert len(seeds) >= 8 and len(set(seeds)) == len(seeds)


def test_tracer_counts_and_restores():
    sys.path.insert(0, SRC)
    try:
        import mrplab.cli
        from mrplab import exact, modelfile
        from tracing import Tracer

        original = exact.joint_interarrival_probability
        tracer = Tracer()
        tracer.install()
        try:
            model, _ = modelfile.load_bundled_model("example16")
            value = exact.joint_interarrival_probability(model, exact.BoxQuery.upper(2.0, 1.0)).value
        finally:
            tracer.uninstall()
        assert value == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert exact.joint_interarrival_probability is original
        assert mrplab.cli.joint_interarrival_probability is original
        m = tracer.pass_metrics()
        assert m["quadrature.panels"] > 0 and m["quadrature.nodes_per_integrand_call"] == 15.0
        assert m["exact.box_s.example16"] > 0.0 and m["modelfile.load_s"] > 0.0
    finally:
        sys.path.remove(SRC)
