"""mrplab benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload simulate-csv --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` each pass runs the workload's mrplab calls as
child processes and the end-to-end metrics are reported.  With
``--trace 1`` the same calls go through ``mrplab.cli.main`` in this process,
alternating untraced and traced passes, and the per-layer metrics are
reported.  Passes repeat until about ``--seconds`` of pass time are
measured; every pass makes the same calls.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a per-run file with the
per-pass figures is written to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import DETERMINISTIC, PER_LAYER, Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")

# Set-up is timed this many times before each pass, so that its samples
# spread over the whole run like the passes do.
SETUP_PER_PASS = 2
# Stop starting passes once this much time has gone, so a slow program
# still ends the run well inside three minutes.
PASS_BUDGET_S = 120.0
SETUP_CODE = "import sys, mrplab\nfor p in sys.argv[1:]:\n    mrplab.load_model_file(p)\n"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MRPLAB_THREADS", None)  # the CLI's default of one simulation thread
    return env


def run_child(argv, env, log_path):
    """(exit code, wall seconds, peak RSS in MiB) of one child process."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def more_passes(passes, seconds, start, step=1):
    """Whether to start `step` more passes.

    Passes stop when the measured pass time is nearest to `seconds` (at least
    one round), or when the time budget is spent.
    """
    if not passes:
        return True
    done = sum(p["wall_s"] for p in passes)
    return (done + 0.5 * step * done / len(passes) < seconds
            and time.perf_counter() - start < PASS_BUDGET_S)


def measure_setup(wl, env, log_path):
    times = []
    for _ in range(SETUP_PER_PASS):
        code, wall, _ = run_child([sys.executable, "-c", SETUP_CODE, *wl.model_paths], env, log_path)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}; see {log_path}")
        times.append(wall)
    return times


def untraced_run(wl, seconds, log_path):
    env = child_env()
    setup = []
    passes = []
    start = time.perf_counter()
    while more_passes(passes, seconds, start):
        setup += measure_setup(wl, env, log_path)
        exits, walls, rss = [], [], []
        for call in wl.calls:
            code, wall, peak = run_child([sys.executable, "-m", "mrplab.cli", *call.argv], env, log_path)
            exits.append(code)
            walls.append(wall)
            rss.append(peak)
        passes.append({"wall_s": sum(walls), "call_wall_s": walls, "peak_rss_mb": max(rss),
                       "exits": exits, "failures": wl.check(exits)})
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes, {"setup_s": setup}


def traced_run(wl, seconds, log_path):
    sys.path.insert(0, SRC)
    os.environ.pop("MRPLAB_THREADS", None)
    import mrplab.cli

    tracer = Tracer()

    def one_pass(traced):
        tracer.reset()
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            exits = [mrplab.cli.main(list(call.argv)) for call in wl.calls]
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        return {"traced": traced, "wall_s": wall, "exits": exits, "failures": wl.check(exits),
                "layers": tracer.pass_metrics() if traced else None}

    passes = []
    start = time.perf_counter()
    with open(log_path, "a") as log:
        stderr, sys.stderr = sys.stderr, log
        try:
            while more_passes(passes, seconds, start, step=2):
                passes += [one_pass(traced=False), one_pass(traced=True)]
        finally:
            sys.stderr = stderr
    traced = [p["layers"] for p in passes if p["traced"]]
    metrics = {}
    for key in PER_LAYER:
        if key in DETERMINISTIC:
            metrics[key] = traced[0][key]
        elif key == "cli.pass_s":
            metrics[key] = statistics.median(p["wall_s"] for p in passes if p["traced"])
        elif key == "cli.untraced_pass_s":
            metrics[key] = statistics.median(p["wall_s"] for p in passes if not p["traced"])
        else:
            metrics[key] = statistics.median(t[key] for t in traced)
    unsteady = [k for k in DETERMINISTIC if k in traced[0] and any(t[k] != traced[0][k] for t in traced)]
    run_failures = [f"count {k} differs between traced passes" for k in unsteady]
    return metrics, passes, {"run_failures": run_failures}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mrplab", "cli.py")):
        print(f"bench: no mrplab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    log_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.log")
    if os.path.exists(log_path):
        os.remove(log_path)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        run = traced_run if args.trace else untraced_run
        metrics, passes, extra = run(wl, args.seconds, log_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p["failures"]]
    run_failures = extra.pop("run_failures", [])
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failures and not run_failures,
        "attempted": wl.ops_per_pass * len(passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  passes=passes, run_failures=run_failures, **extra)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for f in failures + run_failures:
        print(f"bench: FAILED {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
