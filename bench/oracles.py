"""Reference values computed apart from mrplab.

Nothing here imports the package under test.  The closed forms come from
the Laplace transform of the gamma mixing law; the other references are
scipy quadratures over scipy's incomplete gamma function.  Bounds are
``(lo, hi)`` pairs with ``None`` for an open end; interarrivals are
positive, so an open lower end is the same as 0.
"""

from __future__ import annotations

import itertools
import math

from scipy import integrate, special

# Tight enough that the reference error is far below the 1e-9 acceptance
# tolerance the exact-batch workload checks against.
QUAD_KW = dict(epsabs=1e-14, epsrel=1e-12, limit=400)


def _ends(bounds):
    return [(0.0 if lo is None else float(lo), math.inf if hi is None else float(hi)) for lo, hi in bounds]


def exp_gamma_box(bounds, multipliers, mix_rate, mix_shape):
    """P(W in box) for an exponential kernel under Gamma(mix_rate, mix_shape) mixing.

    Given theta, W_k is exponential with rate m_k * theta and
    P(lo_k < W_k <= hi_k) = exp(-theta m_k lo_k) - exp(-theta m_k hi_k).
    Expanding the product gives 2^r signed terms exp(-theta c), and
    E exp(-Theta c) = (g / (g + c))^a; for upper boxes this is the
    inclusion-exclusion sum over subsets of [r].
    """
    ends = _ends(bounds)
    terms = []
    for pick in itertools.product((0, 1), repeat=len(ends)):
        c = sum(m * e[p] for m, e, p in zip(multipliers, ends, pick))
        if math.isinf(c):
            continue
        sign = -1.0 if sum(pick) % 2 else 1.0
        terms.append(sign * (mix_rate / (mix_rate + c)) ** mix_shape)
    return math.fsum(terms)


def example16_upper(w1, w2):
    """P(W1 <= w1, W2 <= w2) for the bundled example16 model (closed form)."""
    return w2 / (w2 + 1.0) - 2.0 * (1.0 / (w1 + 2.0) - 1.0 / (w1 + 2.0 * w2 + 2.0))


def negative_binomial_pmf(t, n, mix_rate, mix_shape):
    """P(N_t = n) for the mixed Poisson process with Gamma(mix_rate, mix_shape) mixing."""
    log_p = (
        math.lgamma(n + mix_shape) - math.lgamma(mix_shape) - math.lgamma(n + 1.0)
        + mix_shape * math.log(mix_rate / (mix_rate + t))
        + (n * math.log(t / (mix_rate + t)) if n else 0.0)
    )
    return math.exp(log_p)


def _gamma_box_given_theta(bounds, rate, shape):
    out = 1.0
    for lo, hi in _ends(bounds):
        upper = 1.0 if math.isinf(hi) else special.gammainc(shape, rate * hi)
        out *= upper - (special.gammainc(shape, rate * lo) if lo > 0.0 else 0.0)
    return out


def _gamma_count_given_theta(t, n, rate, shape):
    below_n = 1.0 if n == 0 else special.gammainc(n * shape, rate * t)
    return below_n - special.gammainc((n + 1) * shape, rate * t)


def _gamma_density(x, rate, shape):
    if x <= 0.0:
        return 0.0
    return math.exp(shape * math.log(rate) - math.lgamma(shape) + (shape - 1.0) * math.log(x) - rate * x)


def _mix_gamma(f, mix_rate, mix_shape):
    """integral of f(theta) Gamma(mix_rate, mix_shape)(d theta), split at the mean."""
    mean = mix_shape / mix_rate

    def g(th):
        return f(th) * _gamma_density(th, mix_rate, mix_shape)

    lo, _ = integrate.quad(g, 0.0, mean, **QUAD_KW)
    hi, _ = integrate.quad(g, mean, math.inf, **QUAD_KW)
    return lo + hi


def gamma_kernel_box(bounds, kernel_shape, mix_rate, mix_shape):
    """P(W in box) for a Gamma(theta, kernel_shape) kernel under gamma mixing."""
    return _mix_gamma(lambda th: _gamma_box_given_theta(bounds, th, kernel_shape), mix_rate, mix_shape)


def gamma_kernel_count(t, n, kernel_shape, mix_rate, mix_shape):
    """P(N_t = n) for a Gamma(theta, kernel_shape) kernel under gamma mixing."""
    return _mix_gamma(lambda th: _gamma_count_given_theta(t, n, th, kernel_shape), mix_rate, mix_shape)


def _mix_bivariate(f, rate, shape, lo2, hi2):
    """integral of f(theta1, theta2) under Gamma(rate, shape) x Uniform(lo2, hi2)."""
    mean = shape / rate

    def g(th1, th2):
        return f(th1, th2) * _gamma_density(th1, rate, shape) / (hi2 - lo2)

    kw = dict(epsabs=QUAD_KW["epsabs"], epsrel=QUAD_KW["epsrel"])
    near, _ = integrate.dblquad(g, lo2, hi2, 0.0, mean, **kw)
    far, _ = integrate.dblquad(g, lo2, hi2, mean, math.inf, **kw)
    return near + far


def bivariate_box(bounds, rate, shape, lo2, hi2):
    """P(W in box) for a Gamma(theta1, theta2) kernel under Gamma x Uniform mixing."""
    return _mix_bivariate(lambda t1, t2: _gamma_box_given_theta(bounds, t1, t2), rate, shape, lo2, hi2)


def bivariate_count(t, n, rate, shape, lo2, hi2):
    """P(N_t = n) for a Gamma(theta1, theta2) kernel under Gamma x Uniform mixing."""
    return _mix_bivariate(lambda t1, t2: _gamma_count_given_theta(t, n, t1, t2), rate, shape, lo2, hi2)


def box_probability(model: dict, bounds) -> float:
    """Reference P(W in box) for a model document of one of the benchmark's shapes."""
    kernel, mixing = model["kernel"], model["mixing"]
    if kernel["family"] == "exponential":
        rm = kernel["rate_map"]
        mults = [rm["a"] + rm["b"] * k for k in range(1, len(bounds) + 1)]
        return exp_gamma_box(bounds, mults, mixing["rate"], mixing["shape"])
    if kernel["shape"] == "theta2":
        g, u = mixing["marginals"]
        return bivariate_box(bounds, g["rate"], g["shape"], u["lo"], u["hi"])
    return gamma_kernel_box(bounds, kernel["shape"], mixing["rate"], mixing["shape"])


def count_probability(model: dict, t: float, n: int) -> float:
    """Reference P(N_t = n) for a constant-rate model document."""
    kernel, mixing = model["kernel"], model["mixing"]
    if kernel["family"] == "exponential":
        return negative_binomial_pmf(t, n, mixing["rate"] / kernel["rate_map"]["a"], mixing["shape"])
    if kernel["shape"] == "theta2":
        g, u = mixing["marginals"]
        return bivariate_count(t, n, g["rate"], g["shape"], u["lo"], u["hi"])
    return gamma_kernel_count(t, n, kernel["shape"], mixing["rate"], mixing["shape"])
