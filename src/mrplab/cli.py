"""Command-line entry point.

Exit codes (stable contract for CI pipelines):

    0  success / all selected checks pass
    1  verification rejection
    2  usage or schema error
    3  capacity exceeded
    4  accuracy not reached (best estimates still written, flagged)
    5  internal error: an unexpected exception, with its traceback on stderr
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import traceback
from typing import Optional

import numpy as np

from .construction import (
    ForkMap,
    atomic_write_text,
    aux_seed,
    sample_path,
    simulate_ensemble,
    simulate_to_csv,
)
from .counting import counts_on_grid, CountingPath, validate_counting_axioms
from .errors import (
    AccuracyError,
    CapacityError,
    MrplabError,
    SchemaError,
)
# joint_interarrival_probability is not called here, but bench/test_bench.py
# checks that the tracer restores this module's reference to it
from .exact import (  # noqa: F401
    BoxQuery,
    count_pmfs,
    joint_interarrival_probabilities,
    joint_interarrival_probability,
    require_converged,
    validate_box,
    validate_count,
)
from .modelfile import load_model_file, load_queries_file
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .stats import (
    WITNESS_BOXES,
    conditional_iid_test,
    distinct_sorted,
    exchangeability_test,
    mc_vs_exact,
    mixed_poisson_check,
)

SUITES = (
    "exchangeability",
    "conditional-iid",
    "mc-vs-exact",
    "mixed-poisson",
    "counting-axioms",
    "all",
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_ACCURACY = 4
EXIT_INTERNAL = 5

NONCONVERGED = "quadrature-gk15(nonconverged)"


def _level(text: str) -> float:
    """A significance level: a number strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:  # false for NaN too
        raise argparse.ArgumentTypeError(f"level must lie strictly between 0 and 1, got {text}")
    return value


def _at_least_one(text: str) -> int:
    """A count of paths or events: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrplab",
        description="Mixed renewal processes: simulate, evaluate exact mixture "
        "probabilities, verify structural properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate an ensemble to CSV + manifest")
    sim.add_argument("--model", required=True, help="model JSON file")
    sim.add_argument("--paths", type=int, default=1000)
    sim.add_argument("--events", type=int, default=8)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output CSV path")

    ex = sub.add_parser("exact", help="evaluate exact probabilities for query boxes")
    ex.add_argument("--model", required=True)
    ex.add_argument("--queries", required=True, help="JSON list of box/count queries")
    ex.add_argument("--out", required=True, help="output CSV path")
    ex.add_argument(
        "--tol", type=float, default=DEFAULT_CONFIG.rel_tol, help="relative quadrature tolerance"
    )

    ver = sub.add_parser("verify", help="run a verification suite, write a JSON report")
    ver.add_argument("--model", required=True)
    ver.add_argument("--suite", required=True, choices=SUITES)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", required=True, help="output JSON report path")
    ver.add_argument("--paths", type=_at_least_one, default=20000)
    ver.add_argument("--events", type=_at_least_one, default=3)
    ver.add_argument("--level", type=_level, default=0.01)
    ver.add_argument("--tol", type=float, default=DEFAULT_CONFIG.rel_tol)
    return parser


def _quadrature_config(args) -> QuadratureConfig:
    """The quadrature settings of a command: relative tolerance --tol, absolute 1e-2 of it."""
    return QuadratureConfig(rel_tol=args.tol, abs_tol=args.tol * 1e-2)


def _cmd_simulate(args) -> int:
    model, _meta = load_model_file(args.model)
    simulate_to_csv(model, args.paths, args.events, args.seed, args.out)
    return EXIT_OK


def _cmd_exact(args) -> int:
    """Validate every query, answer the boxes and then the counts, one call
    each, and write one row per query in file order."""
    model, _meta = load_model_file(args.model)
    queries = load_queries_file(args.queries)
    cfg = _quadrature_config(args)
    boxes, counts = [], []
    for i, q in enumerate(queries):  # in file order, so the first bad query is the one reported
        if q["type"] == "box":
            boxes.append((i, validate_box(q["query"])))
        else:
            counts.append((i, validate_count(model, q["t"], q["n"])))
    cells = [None] * len(queries)
    for todo, answer in ((boxes, joint_interarrival_probabilities), (counts, count_pmfs)):
        asked = [query for _, query in todo]
        try:
            results = [
                (r.value, r.error, r.method if r.converged else NONCONVERGED)
                for r in answer(model, asked, cfg)
            ]
        except AccuracyError as exc:  # raised inside an integrand: no result is valid
            results = [(exc.value, exc.error_estimate, NONCONVERGED)] * len(asked)
        for (i, _), cell in zip(todo, results):
            cells[i] = cell
    lines = ["query_id,probability,error_estimate,method"]
    lines += [f"{q['id']},{v!r},{e!r},{m}" for q, (v, e, m) in zip(queries, cells)]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    accuracy_failed = any(m == NONCONVERGED for _, _, m in cells)
    return EXIT_ACCURACY if accuracy_failed else EXIT_OK


def _default_mc_queries(n_events):
    boxes = [BoxQuery.upper(1.0), BoxQuery.upper(2.0)]
    if n_events >= 2:
        boxes.extend(BoxQuery.upper(*b) for b in WITNESS_BOXES)
        boxes.append(BoxQuery.upper(1.0, 1.0))
    return boxes


def _counting_axiom_report(model, seed, n_events):
    path = sample_path(model, max(n_events, 50), seed)
    cpath = CountingPath.from_arrivals(path.arrivals)
    grid = distinct_sorted(np.concatenate((np.linspace(0.0, cpath.horizon, 201), cpath.event_times)))
    samples = list(zip(grid, counts_on_grid(cpath, grid)))
    return validate_counting_axioms(samples)


def _suite(name, args, model, ensemble):
    """The report of one suite, or a ``{"suite", "reason"}`` record if it was skipped."""
    if name == "exchangeability":
        if args.events < 2:
            return {"suite": name, "reason": "needs at least 2 events per path"}
        return exchangeability_test(ensemble(), r=min(args.events, 3), level=args.level)
    if name == "conditional-iid":
        theta = model.mixing.mean_point()
        if not model.mixing.contains(theta):
            theta = model.mixing.atoms[int(np.argmax(model.mixing.weights))]
        return conditional_iid_test(
            model,
            theta,
            n_samples=max(args.paths, 100),
            max_index=max(args.events, 2),
            level=args.level,
            seed=aux_seed(args.seed, 2),
        )
    if name == "mc-vs-exact":
        queries = _default_mc_queries(args.events)
        cfg = _quadrature_config(args)
        exact_values = [
            require_converged(res, cfg)
            for res in joint_interarrival_probabilities(model, queries, cfg)
        ]
        return mc_vs_exact(ensemble(), queries, exact_values)
    if name == "mixed-poisson":
        if model.kernel.family != "exponential" or not model.is_proper_mrp:
            return {"suite": name, "reason": "requires a proper exponential-kernel model"}
        return mixed_poisson_check(
            model,
            t_grid=(0.5, 1.0, 2.0),
            h=0.5,
            n_paths=args.paths,
            level=args.level,
            seed=aux_seed(args.seed, 3),
        )
    return _counting_axiom_report(model, aux_seed(args.seed, 4), args.events)


def _cmd_verify(args) -> int:
    model, meta = load_model_file(args.model)
    suite = args.suite
    selected = list(SUITES[:-1]) if suite == "all" else [suite]
    # exchangeability and mc-vs-exact read the same ensemble: a process that
    # runs both simulates it once
    ensemble = functools.cache(
        lambda: simulate_ensemble(model, args.paths, args.events, args.seed)
    )
    # every suite reads its own seeded substream, so the suites are independent
    # items of one fork map; its iteration, in suite order, raises the error of
    # the earliest suite that fails
    with ForkMap(lambda name: _suite(name, args, model, ensemble), selected) as done:
        outcomes = list(done)
    reports = [o for o in outcomes if not isinstance(o, dict)]
    skipped = [o for o in outcomes if isinstance(o, dict)]

    all_passed = all(r.passed for r in reports)
    doc = {
        "schema_version": 1,
        "model_file": args.model,
        "model_hash": model.model_hash(),
        "suite": suite,
        "seed": args.seed,
        "level": args.level,
        "expected_rejection": bool(meta.get("expects_rejection", False)),
        "passed": all_passed,
        "reports": [r.to_dict() for r in reports],
        "skipped": skipped,
    }
    atomic_write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all_passed else EXIT_REJECTED


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "exact":
            return _cmd_exact(args)
        return _cmd_verify(args)
    except CapacityError as exc:
        print(f"mrplab: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except AccuracyError as exc:
        print(f"mrplab: accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except (SchemaError, MrplabError, OSError, json.JSONDecodeError) as exc:
        print(f"mrplab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a fault of mrplab's, never a verdict on the model
        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    """The `mrplab` command: `main` in a process of its own.  The objects made
    at import are frozen first, out of the collector's reach, so neither its
    passes nor the interpreter's exit sweep them; `main` alone, as tests and
    tools call it in their own process, freezes nothing."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
