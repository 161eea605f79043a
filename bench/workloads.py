"""The three workloads: generated inputs, the mrplab calls of one pass, output checks.

Each workload writes its model and query files from the workload seed, so
the program sees only those files.  `check` compares the outputs of the
latest pass with references computed apart from mrplab (see `oracles`) and
with properties the method must have, and returns one message per failed
operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import oracles

# Model documents, written as files for the program to read.  The first
# three match the models bundled with mrplab; expgamma is the only one whose
# mixed-Poisson suite runs (exponential kernel with a constant rate).
MODELS = {
    "gamma_half": {
        "kernel": {"family": "gamma", "rate_map": {"a": 1.0, "b": 0.0}, "shape": 0.5},
        "mixing": {"kind": "gamma", "rate": 2.0, "shape": 1.5},
        "meta": {"name": "gamma_half"},
    },
    "bivariate": {
        "kernel": {"family": "gamma", "rate_map": {"a": 1.0, "b": 0.0}, "shape": "theta2"},
        "mixing": {"kind": "product_rectangle", "marginals": [
            {"kind": "gamma", "rate": 2.0, "shape": 2.0},
            {"kind": "uniform", "lo": 0.2, "hi": 0.8},
        ]},
        "meta": {"name": "bivariate"},
    },
    "example16": {
        "kernel": {"family": "exponential", "rate_map": {"a": 0.0, "b": 1.0}},
        "mixing": {"kind": "gamma", "rate": 2.0, "shape": 1.0},
        "meta": {"name": "example16", "expects_rejection": True},
    },
    "expgamma": {
        "kernel": {"family": "exponential", "rate_map": {"a": 1.0, "b": 0.0}},
        "mixing": {"kind": "gamma", "rate": 2.0, "shape": 1.5},
        "meta": {"name": "expgamma"},
    },
}

TOL = 1e-9  # the acceptance tolerance of the exact routes
WITNESS = [[None, 2.0], [None, 1.0]]  # P(W1 <= 2, W2 <= 1)
VERIFY_SEEDS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_seeds.json")


@dataclass
class Call:
    """One mrplab invocation: its arguments, the exit code it must give, its output."""

    name: str
    argv: list
    expect_exit: int
    out: str


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def _write_model(workdir, name):
    path = os.path.join(workdir, f"{name}.json")
    _write_json(path, MODELS[name])
    return path


def _stratified(rng, lo, hi, k):
    """k values in [lo, hi), one per equal stratum, in shuffled order.

    Stratifying keeps the cost of a generated query set close to the same
    from seed to seed.
    """
    vals = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


class Workload:
    """A workload's generated inputs, the calls of one pass and their check."""

    name = ""
    model_names: tuple = ()
    calls: list

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.model_paths = [_write_model(workdir, m) for m in self.model_names]

    @property
    def ops_per_pass(self) -> int:
        return len(self.calls)

    def check(self, exits: list) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# simulate-csv
# ---------------------------------------------------------------------------


class SimulateCsv(Workload):
    """`mrplab simulate` to CSV: the CSV renderer, the rng and the kernel samplers."""

    name = "simulate-csv"
    model_names = ("gamma_half", "bivariate")
    PATHS, EVENTS = 100_000, 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.calls = []
        for name, path in zip(self.model_names, self.model_paths):
            out = os.path.join(workdir, f"sim_{name}.csv")
            argv = ["simulate", "--model", path, "--paths", str(self.PATHS),
                    "--events", str(self.EVENTS), "--seed", str(seed), "--out", out]
            self.calls.append(Call(name, argv, 0, out))
        self.witness = {m: oracles.box_probability(MODELS[m], WITNESS) for m in self.model_names}
        self._first = {}  # call name -> (CSV digest, verdict) of the first pass

    def check(self, exits):
        failures = []
        for call, code in zip(self.calls, exits):
            if code != call.expect_exit:
                failures.append(f"{call.name}: exit {code}, expected {call.expect_exit}")
                continue
            digest = _sha256(call.out)
            if call.name not in self._first:
                self._first[call.name] = (digest, self._check_csv(call))
            first_digest, verdict = self._first[call.name]
            if digest != first_digest:
                verdict = "CSV differs from the first pass at the same seed"
            if verdict:
                failures.append(f"{call.name}: {verdict}")
        return failures

    def _check_csv(self, call):
        """None if the CSV and manifest are right, else what is wrong."""
        try:
            with open(call.out + ".manifest.json") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"manifest unreadable: {exc}"
        for key, want in (("n_paths", self.PATHS), ("n_events", self.EVENTS), ("root_seed", self.seed)):
            if manifest.get(key) != want:
                return f"manifest {key} = {manifest.get(key)!r}, expected {want!r}"
        bivariate = call.name == "bivariate"
        theta_cols = ["theta1", "theta2"] if bivariate else ["theta"]
        dim = len(theta_cols)
        header = ",".join(["path_id", *theta_cols, "k", "w", "t"])
        rows = 0
        hits = 0
        with open(call.out) as fh:
            if fh.readline().rstrip("\n") != header:
                return "unexpected CSV header"
            for rows, line in enumerate(fh, start=1):
                f = line.rstrip("\n").split(",")
                path_id, k = divmod(rows - 1, self.EVENTS)
                if len(f) != dim + 4 or int(f[0]) != path_id or int(f[dim + 1]) != k + 1:
                    return f"row {rows}: expected path {path_id}, event {k + 1}"
                w, t = float(f[-2]), float(f[-1])
                if not (0.0 < w < math.inf):
                    return f"row {rows}: interarrival {w!r} is not positive and finite"
                if k == 0:
                    theta = f[1:dim + 1]
                    th = [float(v) for v in theta]
                    if not (th[0] > 0.0 and (not bivariate or 0.2 <= th[1] <= 0.8)):
                        return f"row {rows}: theta {theta} outside the mixing support"
                    prefix = []
                    w1 = w
                elif f[1:dim + 1] != theta:
                    return f"row {rows}: theta changes within path {path_id}"
                prefix.append(w)
                exact_sum = math.fsum(prefix)
                if abs(t - exact_sum) > math.ulp(exact_sum):
                    return f"row {rows}: arrival {t!r} is not the prefix sum {exact_sum!r}"
                if k == 1 and w1 <= 2.0 and w <= 1.0:
                    hits += 1
        if rows != self.PATHS * self.EVENTS:
            return f"{rows} rows, expected {self.PATHS * self.EVENTS}"
        p = self.witness[call.name]
        p_hat = hits / self.PATHS
        se = math.sqrt(p * (1.0 - p) / self.PATHS)
        if abs(p_hat - p) > 4.0 * se:
            return f"P(W1<=2, W2<=1) = {p_hat} is more than 4 SE from {p}"
        return None


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# exact-batch
# ---------------------------------------------------------------------------

# Per model: box dimensions, boxes per dimension, whether each box of
# dimension >= 2 is also asked with its coordinates reversed, the number of
# count queries and the ranges the bounds, times and counts are drawn from.
# The bivariate queries run iterated 2-D quadrature and cost ~0.3-1.2 s
# each; the others run 1-D quadrature at ~1-50 ms.  The mix keeps either
# kind of query well below the whole wall time.  Bivariate counts stay at
# t >= 2, n >= 2: at small t and large n one costs up to 1.5 s, which made
# the pass time depend on the seed.
EXACT_PLAN = {
    "gamma_half": dict(dims=(1, 2, 3, 4), per_dim=4, permute=True, counts=12,
                       hi=(0.2, 4.0), t=(0.5, 6.0), n=(0, 12)),
    "bivariate": dict(dims=(1, 2), per_dim=1, permute=True, counts=2,
                      hi=(0.5, 3.0), t=(2.0, 4.0), n=(2, 8)),
    "example16": dict(dims=(1, 2, 3, 4), per_dim=6, permute=False, counts=0,
                      hi=(0.1, 4.0)),
    "expgamma": dict(dims=(1, 2, 3, 4), per_dim=6, permute=False, counts=24,
                     hi=(0.1, 4.0), t=(0.5, 10.0), n=(0, 40)),
}


def make_queries(model, plan, rng):
    """Box and count queries for one model, with stratified bounds."""
    shapes = [d for d in plan["dims"] for _ in range(plan["per_dim"])]
    his = iter(_stratified(rng, *plan["hi"], sum(shapes)))
    queries = []
    for i, dim in enumerate(shapes):
        bounds = []
        for j in range(dim):
            hi = next(his)
            kind = (i + j) % 3  # upper, two-sided, or open above
            lo = round(hi * rng.uniform(0.1, 0.6), 6)
            hi = round(hi, 6)
            bounds.append([None, hi] if kind == 0 else [lo, hi] if kind == 1 else [lo, None])
        queries.append({"id": f"{model}-b{i}", "type": "box", "bounds": bounds})
        if plan["permute"] and dim >= 2:
            queries.append({"id": f"{model}-b{i}-perm", "type": "box", "bounds": bounds[::-1]})
    if plan["counts"]:
        ts = _stratified(rng, *plan["t"], plan["counts"])
        n_lo, n_hi = plan["n"]
        ns = [int(v) for v in _stratified(rng, n_lo, n_hi + 1, plan["counts"])]
        for i, (t, n) in enumerate(zip(ts, ns)):
            queries.append({"id": f"{model}-c{i}", "type": "count", "t": round(t, 6), "n": n})
    return queries


def reference_value(model, q):
    if q["type"] == "box":
        return oracles.box_probability(MODELS[model], q["bounds"])
    return oracles.count_probability(MODELS[model], q["t"], q["n"])


class ExactBatch(Workload):
    """`mrplab exact` on generated query files: special, quadrature and exact."""

    name = "exact-batch"
    model_names = tuple(EXACT_PLAN)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(f"exact-batch:{seed}")
        self.calls = []
        self.queries = {}  # call name -> list of (query, reference value)
        for name, path in zip(self.model_names, self.model_paths):
            qs = make_queries(name, EXACT_PLAN[name], rng)
            qpath = os.path.join(workdir, f"queries_{name}.json")
            _write_json(qpath, qs)
            out = os.path.join(workdir, f"exact_{name}.csv")
            self.calls.append(Call(name, ["exact", "--model", path, "--queries", qpath, "--out", out], 0, out))
            self.queries[name] = [(q, reference_value(name, q)) for q in qs]

    @property
    def ops_per_pass(self):
        return len(self.calls) + sum(len(v) for v in self.queries.values())

    def check(self, exits):
        failures = []
        for call, code in zip(self.calls, exits):
            if code != call.expect_exit:
                failures.append(f"{call.name}: exit {code}, expected {call.expect_exit}")
            rows = _read_results(call.out) if code in (0, 4) else {}
            for q, ref in self.queries[call.name]:
                msg = _check_query(q, ref, rows)
                if msg:
                    failures.append(f"{q['id']}: {msg}")
        return failures


def _read_results(path):
    try:
        with open(path, newline="") as fh:
            return {row["query_id"]: row for row in csv.DictReader(fh)}
    except (OSError, KeyError):
        return {}


def _check_query(q, ref, rows):
    row = rows.get(q["id"])
    if row is None:
        return "no result row"
    if "nonconverged" in row["method"]:
        return f"not converged ({row['method']})"
    value, err = float(row["probability"]), float(row["error_estimate"])
    if not (0.0 <= value <= 1.0 and 0.0 <= err < math.inf):
        return f"value {value!r} or error estimate {err!r} out of range"
    if abs(value - ref) > TOL:
        return f"{value!r} differs from the reference {ref!r} by more than {TOL}"
    if q["id"].endswith("-perm"):
        twin = rows.get(q["id"][: -len("-perm")])
        if twin is None or abs(float(twin["probability"]) - value) > TOL:
            return "not invariant under reversing the coordinates"
    return None


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def load_verify_seeds():
    with open(VERIFY_SEEDS_FILE) as fh:
        return json.load(fh)["seeds"]


class VerifyAll(Workload):
    """`mrplab verify --suite all`: simulation, permutation test, KS, mixed Poisson."""

    name = "verify-all"
    model_names = ("gamma_half", "bivariate", "example16", "expgamma")
    PATHS, EVENTS = 100_000, (2, 3)

    def __init__(self, seed, workdir, mrplab_seed=None):
        super().__init__(seed, workdir)
        if mrplab_seed is None:
            seeds = load_verify_seeds()
            mrplab_seed = seeds[seed % len(seeds)]
        self.mrplab_seed = mrplab_seed
        self.calls = []
        for name, path in zip(self.model_names, self.model_paths):
            expect = 1 if MODELS[name]["meta"].get("expects_rejection") else 0
            for events in self.EVENTS:
                out = os.path.join(workdir, f"verify_{name}_r{events}.json")
                argv = ["verify", "--model", path, "--suite", "all", "--paths", str(self.PATHS),
                        "--events", str(events), "--seed", str(mrplab_seed), "--out", out]
                self.calls.append(Call(f"{name}-r{events}", argv, expect, out))

    def check(self, exits):
        failures = []
        for call, code in zip(self.calls, exits):
            try:
                with open(call.out) as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                doc, msg = None, f"report unreadable: {exc}"
            if code != call.expect_exit:
                rejected = [r["check"] for r in doc["reports"] if not r["passed"]] if doc else []
                msg = f"exit {code}, expected {call.expect_exit}; rejected by {rejected}"
            elif doc is not None:
                msg = self._check_report(call, doc)
            if msg:
                failures.append(f"{call.name}: {msg}")
        return failures

    def _check_report(self, call, doc):
        proper = call.expect_exit == 0
        if doc.get("passed") is not proper or doc.get("seed") != self.mrplab_seed:
            return f"report passed={doc.get('passed')!r} seed={doc.get('seed')!r}"
        reports = {r["check"]: r for r in doc["reports"]}
        ex = reports.get("exchangeability")
        if ex is None or ex["passed"] is not proper:
            return "exchangeability " + ("missing" if ex is None else f"passed={ex['passed']}")
        events = int(call.argv[call.argv.index("--events") + 1])
        if ex["sample_sizes"].get("prefix") != events or ex["sample_sizes"].get("paths") != self.PATHS:
            return f"exchangeability ran on {ex['sample_sizes']}"
        mc = reports.get("mc-vs-exact")
        if mc is None or not mc["statistic"] <= 4.0:
            return "mc-vs-exact " + ("missing" if mc is None else f"|z| = {mc['statistic']}")
        if call.name.startswith("expgamma"):
            skipped = [s["suite"] for s in doc["skipped"]]
            if "mixed-poisson" not in reports or "mixed-poisson" in skipped:
                return "mixed-poisson did not run"
        return None


WORKLOADS = {w.name: w for w in (SimulateCsv, ExactBatch, VerifyAll)}
