"""In-process spans around the public functions of each mrplab layer.

`Tracer.install()` replaces each traced function, wherever an mrplab module
holds a reference to it (``from .x import f`` copies the reference), with a
wrapper that records a span; `uninstall()` puts the originals back.  Spans
nest on a stack, so a layer's self time is its spans' durations minus the
part covered by their traced children.  Nothing in the program is changed
on disk; the wrappers live only in the process that installs them.  The
span stack is not thread-safe: trace only single-threaded runs (the CLI
simulates on one thread unless MRPLAB_THREADS says otherwise).
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

BOX_MODELS = ("gamma_half", "bivariate", "example16", "expgamma")
COUNT_MODELS = ("gamma_half", "bivariate", "expgamma")

# metric name -> unit; the order is the order of the traced run's output
PER_LAYER = {
    "rng.draw_calls": "count",
    "rng.uniforms": "count",
    "rng.draw_s": "s",
    "kernels.sample_s": "s",
    "kernels.uniforms_per_draw": "ratio",
    "kernels.cdf_s": "s",
    "kernels.mixing_mass_s": "s",
    "construction.simulate_s": "s",
    "construction.simulate_calls": "count",
    "construction.csv_render_s": "s",
    "construction.write_s": "s",
    "construction.csv_bytes": "bytes",
    "counting.cumsum_s": "s",
    "counting.axioms_s": "s",
    "special.incgamma_calls": "count",
    "special.incgamma_s": "s",
    "special.incgamma_lanes_per_call": "ratio",
    "quadrature.panels": "count",
    "quadrature.integrand_calls": "count",
    "quadrature.nodes_per_integrand_call": "ratio",
    "quadrature.self_s": "s",
    **{f"exact.box_s.{m}": "s" for m in BOX_MODELS},
    **{f"exact.count_s.{m}": "s" for m in COUNT_MODELS},
    "stats.exchangeability_s.r2": "s",
    "stats.exchangeability_s.r3": "s",
    "stats.conditional_iid_s": "s",
    "stats.mc_vs_exact_s": "s",
    "stats.mixed_poisson_s": "s",
    "stats.count_pmf_calls": "count",
    "modelfile.load_s": "s",
    "cli.pass_s": "s",
    "cli.untraced_pass_s": "s",
}


class Tracer:
    """Span stack plus per-key self time, inclusive time and counters."""

    def __init__(self):
        self._stack: list = []  # open spans: [key, time covered by traced children]
        self._patches: list = []  # (namespace, attribute, original)
        self.model_names: dict = {}  # model_hash -> model file stem
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self.samples = defaultdict(list)

    # -- spans ------------------------------------------------------------

    def _inside(self, prefix: str) -> bool:
        return any(key.startswith(prefix) for key, _ in self._stack)

    def span(self, fn, key, on_exit=None):
        def wrapped(*args, **kwargs):
            frame = [key, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[key] += dt - frame[1]
                self.incl_s[key] += dt
                if self._stack:
                    self._stack[-1][1] += dt
            if on_exit is not None:
                on_exit(args, kwargs, result, dt)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- per-function bookkeeping -------------------------------------------

    def _on_draw(self, args, kwargs, result, dt):
        self.counts["rng.draw_calls"] += 1
        self.counts["rng.uniforms"] += np.size(result)
        if self._inside("kernels.sample"):
            self.counts["kernels.uniforms"] += np.size(result)

    def _on_sample(self, args, kwargs, result, dt):
        if not self._inside("kernels.sample"):  # nested samplers draw once
            self.counts["kernels.draws"] += np.size(result)

    def _on_csv(self, args, kwargs, result, dt):
        self.counts["construction.csv_bytes"] += len(result)  # the CSV is ASCII

    def _on_simulate(self, args, kwargs, result, dt):
        self.counts["construction.simulate_calls"] += 1

    def _on_incgamma(self, args, kwargs, result, dt):
        self.counts["special.incgamma_calls"] += 1
        self.counts["special.incgamma_lanes"] += np.size(result)

    def _on_load(self, args, kwargs, result, dt):
        model = result[0]
        path = args[0] if args else kwargs["path"]
        stem = str(path).replace("\\", "/").rsplit("/", 1)[-1].rsplit(".", 1)[0]
        self.model_names[model.model_hash()] = stem

    def _model_key(self, model) -> str:
        return self.model_names.get(model.model_hash(), "other")

    def _on_box(self, args, kwargs, result, dt):
        self.samples[f"exact.box_s.{self._model_key(args[0])}"].append(dt)

    def _on_count(self, args, kwargs, result, dt):
        self.samples[f"exact.count_s.{self._model_key(args[0])}"].append(dt)
        if self._inside("stats."):
            self.counts["stats.count_pmf_calls"] += 1

    def _on_exchangeability(self, args, kwargs, result, dt):
        r = kwargs["r"] if "r" in kwargs else args[1]
        self.incl_s[f"stats.exchangeability_s.r{r}"] += dt

    def _quadrature(self, fn):
        """adaptive_gauss_kronrod with its integrand wrapped in a counting span."""

        def counted(f):
            def integrand(x):
                self.counts["quadrature.integrand_calls"] += 1
                self.counts["quadrature.nodes"] += np.size(x)
                return f(x)

            return self.span(integrand, "quadrature.integrand")

        def call(f, *args, **kwargs):
            result = fn(counted(f), *args, **kwargs)
            self.counts["quadrature.panels"] += int(result.n_panels)
            return result

        return self.span(call, "quadrature")

    # -- install / uninstall --------------------------------------------------

    def _targets(self):
        from mrplab import (construction, counting, exact, kernels, modelfile,
                            quadrature, rng, special, stats)

        s = self.span
        funcs = [
            (kernels, "kernel_sample_batch", s(kernels.kernel_sample_batch, "kernels.sample", self._on_sample)),
            (kernels, "_exponential_from_bank",
             s(kernels._exponential_from_bank, "kernels.sample", self._on_sample)),
            (kernels, "kernel_cdf_batch", s(kernels.kernel_cdf_batch, "kernels.cdf")),
            (kernels, "kernel_cdf", s(kernels.kernel_cdf, "kernels.cdf")),
            (kernels, "verify_mixing_mass", s(kernels.verify_mixing_mass, "kernels.mixing_mass")),
            (construction, "simulate_ensemble",
             s(construction.simulate_ensemble, "construction.simulate", self._on_simulate)),
            (construction, "ensemble_csv_text",
             s(construction.ensemble_csv_text, "construction.csv_render", self._on_csv)),
            (construction, "atomic_write_text", s(construction.atomic_write_text, "construction.write")),
            (counting, "compensated_cumsum_rows", s(counting.compensated_cumsum_rows, "counting.cumsum")),
            (counting, "compensated_cumsum", s(counting.compensated_cumsum, "counting.cumsum")),
            (counting, "validate_counting_axioms", s(counting.validate_counting_axioms, "counting.axioms")),
            (special, "regularized_incomplete_gamma",
             s(special.regularized_incomplete_gamma, "special.incgamma", self._on_incgamma)),
            (special, "regularized_incomplete_gamma_upper",
             s(special.regularized_incomplete_gamma_upper, "special.incgamma", self._on_incgamma)),
            (quadrature, "adaptive_gauss_kronrod", self._quadrature(quadrature.adaptive_gauss_kronrod)),
            (exact, "joint_interarrival_probability",
             s(exact.joint_interarrival_probability, "exact.box", self._on_box)),
            (exact, "count_pmf", s(exact.count_pmf, "exact.count", self._on_count)),
            (stats, "exchangeability_test",
             s(stats.exchangeability_test, "stats.exchangeability", self._on_exchangeability)),
            (stats, "conditional_iid_test", s(stats.conditional_iid_test, "stats.conditional_iid")),
            (stats, "mc_vs_exact", s(stats.mc_vs_exact, "stats.mc_vs_exact")),
            (stats, "mixed_poisson_check", s(stats.mixed_poisson_check, "stats.mixed_poisson")),
            (modelfile, "load_model_file", s(modelfile.load_model_file, "modelfile.load", self._on_load)),
        ]
        methods = [
            (rng.StreamBank, "draw", s(rng.StreamBank.draw, "rng.draw", self._on_draw)),
            (rng.UniformStream, "raw_words", s(rng.UniformStream.raw_words, "rng.draw", self._on_draw)),
        ]
        return funcs, methods

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        funcs, methods = self._targets()
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "mrplab" or name.startswith("mrplab."))]
        for home, attr, wrapper in funcs:
            original = getattr(home, attr)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        for cls, attr, wrapper in methods:
            self._patches.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, name, original = self._patches.pop()
            setattr(ns, name, original)

    # -- metrics -------------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        c, t = self.counts, self.self_s

        def ratio(num, den):
            return num / den if den else 0.0

        def median(key):
            xs = self.samples.get(key)
            return statistics.median(xs) if xs else 0.0

        out = {
            "rng.draw_calls": c["rng.draw_calls"],
            "rng.uniforms": c["rng.uniforms"],
            "rng.draw_s": t["rng.draw"],
            "kernels.sample_s": t["kernels.sample"],
            "kernels.uniforms_per_draw": ratio(c["kernels.uniforms"], c["kernels.draws"]),
            "kernels.cdf_s": t["kernels.cdf"],
            "kernels.mixing_mass_s": self.incl_s["kernels.mixing_mass"],
            "construction.simulate_s": self.incl_s["construction.simulate"],
            "construction.simulate_calls": c["construction.simulate_calls"],
            "construction.csv_render_s": t["construction.csv_render"],
            "construction.write_s": t["construction.write"],
            "construction.csv_bytes": c["construction.csv_bytes"],
            "counting.cumsum_s": t["counting.cumsum"],
            "counting.axioms_s": self.incl_s["counting.axioms"],
            "special.incgamma_calls": c["special.incgamma_calls"],
            "special.incgamma_s": t["special.incgamma"],
            "special.incgamma_lanes_per_call": ratio(c["special.incgamma_lanes"], c["special.incgamma_calls"]),
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.integrand_calls": c["quadrature.integrand_calls"],
            "quadrature.nodes_per_integrand_call": ratio(c["quadrature.nodes"], c["quadrature.integrand_calls"]),
            "quadrature.self_s": t["quadrature"],
            **{f"exact.box_s.{m}": median(f"exact.box_s.{m}") for m in BOX_MODELS},
            **{f"exact.count_s.{m}": median(f"exact.count_s.{m}") for m in COUNT_MODELS},
            "stats.exchangeability_s.r2": self.incl_s["stats.exchangeability_s.r2"],
            "stats.exchangeability_s.r3": self.incl_s["stats.exchangeability_s.r3"],
            "stats.conditional_iid_s": self.incl_s["stats.conditional_iid"],
            "stats.mc_vs_exact_s": self.incl_s["stats.mc_vs_exact"],
            "stats.mixed_poisson_s": self.incl_s["stats.mixed_poisson"],
            "stats.count_pmf_calls": c["stats.count_pmf_calls"],
            "modelfile.load_s": self.incl_s["modelfile.load"],
        }
        return out


# Metrics that must repeat exactly from pass to pass and run to run.
DETERMINISTIC = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "ratio", "bytes"))
