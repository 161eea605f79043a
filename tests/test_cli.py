import csv
import gc
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from mrplab import cli, construction, exact, special
from mrplab.cli import main
from mrplab.errors import AccuracyError, ConfigurationError
from mrplab.exact import count_pmf, joint_interarrival_probability
from mrplab.modelfile import bundled_model_path, load_bundled_model, parse_queries_document
from mrplab.quadrature import QuadratureConfig

E16 = bundled_model_path("example16")
GH = bundled_model_path("gamma_half")


def run(args):
    return main(args)


def test_simulate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "ens.csv"
    code = run(["simulate", "--model", E16, "--paths", "10", "--events", "2",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "path_id,theta,k,w,t"
    assert len(rows) == 1 + 10 * 2
    manifest = json.loads((tmp_path / "ens.csv.manifest.json").read_text())
    assert manifest["n_paths"] == 10


def test_simulate_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(["simulate", "--model", E16, "--paths", "50", "--events", "3",
                    "--seed", "11", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_malformed_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "x.csv"
    code = run(["simulate", "--model", str(bad), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.strip()


def test_simulate_poisson_kernel_model_exits_2(tmp_path, capsys):
    model = tmp_path / "poisson.json"
    model.write_text(json.dumps({
        "kernel": {"family": "poisson"},
        "mixing": {"kind": "gamma", "rate": 2.0, "shape": 1.0},
    }))
    out = tmp_path / "x.csv"
    code = run(["simulate", "--model", str(model), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'poisson'" in err and "interarrival kernels must live on (0, inf)" in err
    assert not out.exists()


@pytest.mark.parametrize("mixing", [
    {"kind": "dirac", "point": "x"},
    {"kind": "discrete", "atoms": ["x"], "weights": [1.0]},
])
def test_simulate_non_numeric_mixing_atom_exits_2(tmp_path, capsys, mixing):
    model = tmp_path / "bad_atom.json"
    model.write_text(json.dumps({"kernel": {"family": "exponential"}, "mixing": mixing}))
    out = tmp_path / "x.csv"
    code = run(["simulate", "--model", str(model), "--out", str(out)])
    assert code == 2
    assert "expected a number or a list of numbers" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_large_mixing_shape_model(tmp_path):
    # a gamma mixing of shape 140 passes the mass check and simulates
    model = tmp_path / "shape140.json"
    model.write_text(json.dumps({
        "kernel": {"family": "exponential"},
        "mixing": {"kind": "gamma", "rate": 1.0, "shape": 140.0},
    }))
    out = tmp_path / "x.csv"
    assert run(["simulate", "--model", str(model), "--paths", "10", "--events", "2",
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 10 * 2




def test_simulate_missing_model_exits_2(tmp_path):
    code = run(["simulate", "--model", str(tmp_path / "none.json"), "--out",
                str(tmp_path / "x.csv")])
    assert code == 2


def test_simulate_capacity_exits_3(tmp_path):
    code = run(["simulate", "--model", E16, "--paths", "1000000", "--events", "1000",
                "--seed", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_exact_reproduces_reference_values(tmp_path):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([
        {"id": "w21", "bounds": [[None, 2.0], [None, 1.0]]},
        {"id": "w12", "bounds": [[None, 1.0], [None, 2.0]]},
        {"id": "n0", "type": "count", "t": 1.0, "n": 0},
    ]))
    out = tmp_path / "res.csv"
    code = run(["exact", "--model", E16, "--queries", str(queries), "--out", str(out)])
    # the count query is unsupported for the index-scaled family -> usage error
    assert code == 2

    queries.write_text(json.dumps([
        {"id": "w21", "bounds": [[None, 2.0], [None, 1.0]]},
        {"id": "w12", "bounds": [[None, 1.0], [None, 2.0]]},
    ]))
    code = run(["exact", "--model", E16, "--queries", str(queries), "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    got = {r["query_id"]: float(r["probability"]) for r in rows}
    assert abs(got["w21"] - 1.0 / 3.0) < 1e-9
    assert abs(got["w12"] - 2.0 / 7.0) < 1e-9


def test_exact_empty_queries(tmp_path):
    queries = tmp_path / "q.json"
    queries.write_text("[]")
    out = tmp_path / "res.csv"
    assert run(["exact", "--model", E16, "--queries", str(queries), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["query_id,probability,error_estimate,method"]


def test_the_command_entry_freezes_import_time_objects_and_main_does_not(tmp_path):
    # main in this process leaves the collector as it found it
    frozen = gc.get_freeze_count()
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([{"id": "w1", "bounds": [[None, 1.0]]}]))
    assert run(["exact", "--model", GH, "--queries", str(queries), "--out", str(tmp_path / "r.csv")]) == 0
    assert gc.get_freeze_count() == frozen
    # the command's entry, in a process of its own, freezes before main runs
    probe = ("import gc, sys\nfrom mrplab import cli\nsys.argv = ['mrplab', '--help']\n"
             "try:\n    cli.entry()\nexcept SystemExit as exc:\n    print(exc.code, gc.get_freeze_count() > 0)")
    src = pathlib.Path(cli.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.splitlines()[-1] == "0 True"
    # and it is the console script's
    pyproject = src.parent / "pyproject.toml"
    if pyproject.exists():
        assert 'mrplab = "mrplab.cli:entry"' in pyproject.read_text()


@pytest.mark.parametrize("tol", ["0", "-1e-10", "nan"])
def test_exact_bad_tolerance_exits_2(tmp_path, capsys, tol):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([{"id": "w1", "bounds": [[None, 1.0]]}]))
    out = tmp_path / "res.csv"
    argv = ["exact", "--model", GH, "--queries", str(queries), "--out", str(out), f"--tol={tol}"]
    assert run(argv) == 2
    assert "tolerances must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_exact_count_queries(tmp_path):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([{"id": "p0", "type": "count", "t": 1.0, "n": 0}]))
    out = tmp_path / "res.csv"
    assert run(["exact", "--model", GH, "--queries", str(queries), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # P(N_1 = 0) = E[(1 - P(shape, Theta))] > 0 and < 1
    assert 0.0 < float(rows[0]["probability"]) < 1.0


@pytest.mark.parametrize("query", [
    {"id": "frac", "type": "count", "t": 1.0, "n": 2.5},
    {"id": "bool", "type": "count", "t": 1.0, "n": True},
    {"id": "text", "type": "count", "t": 1.0, "n": "abc"},
    {"id": "scalar-bounds", "type": "box", "bounds": 5},
])
def test_exact_malformed_query_exits_2(tmp_path, capsys, query):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([query]))
    out = tmp_path / "res.csv"
    assert run(["exact", "--model", GH, "--queries", str(queries), "--out", str(out)]) == 2
    assert "queries[0]" in capsys.readouterr().err
    assert not out.exists()


def test_exact_incomplete_gamma_nonconvergence_exits_4(tmp_path, monkeypatch):
    monkeypatch.setattr(special, "_MAX_ITER", 2)
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([{"id": "b", "bounds": [[None, 1.0]]}]))
    out = tmp_path / "res.csv"
    assert run(["exact", "--model", GH, "--queries", str(queries), "--out", str(out)]) == 4
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["method"].endswith("(nonconverged)")


_MIXED_QUERIES = [
    {"id": "b0", "bounds": [[None, 1.0]]},
    {"id": "c0", "type": "count", "t": 2.0, "n": 3},
    {"id": "b1", "bounds": [[0.3, 1.5], [None, 2.0]]},
    {"id": "c1", "type": "count", "t": 0.5, "n": 0},
    {"id": "b1-rev", "bounds": [[None, 2.0], [0.3, 1.5]]},
    {"id": "b2", "bounds": [[0.1, 0.9], [0.5, None], [None, 1.2]]},
    {"id": "c2", "type": "count", "t": 6.0, "n": 12},
]


def _exact_rows(tmp_path, queries, model=GH):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(queries))
    out = tmp_path / "res.csv"
    code = run(["exact", "--model", model, "--queries", str(path), "--out", str(out)])
    with open(out) as fh:
        return code, list(csv.DictReader(fh))


@pytest.mark.parametrize("batch", [64, 2])
def test_exact_answers_batches_in_file_order(tmp_path, monkeypatch, batch):
    monkeypatch.setattr(exact, "MAX_BATCH", batch)
    code, rows = _exact_rows(tmp_path, _MIXED_QUERIES)
    assert code == 0
    assert [r["query_id"] for r in rows] == [q["id"] for q in _MIXED_QUERIES]
    got = {r["query_id"]: (float(r["probability"]), float(r["error_estimate"])) for r in rows}
    assert abs(got["b1"][0] - got["b1-rev"][0]) <= 1e-9
    gh = load_bundled_model("gamma_half")[0]
    for q in parse_queries_document(_MIXED_QUERIES):
        if q["type"] == "count":
            single = count_pmf(gh, q["t"], q["n"])
        else:
            single = joint_interarrival_probability(gh, q["query"])
        value, err = got[q["id"]]
        # each within its single query's bound, give or take a few ulps of rounding
        assert abs(value - single.value) <= err + single.error + 1e-15


@pytest.mark.parametrize("name,sizes", [("gamma_half", [20]), ("bivariate", [16, 4])])
def test_exact_batch_bound_follows_the_mixing_dimension(tmp_path, integral_columns, name, sizes):
    # a 2-D mixing integral's node grid is far larger, so its batches are smaller
    assert exact.MAX_BATCH_2D == 16 < exact.MAX_BATCH
    queries = [{"id": f"b{i}", "bounds": [[None, 0.1 * (i + 1)]]} for i in range(20)]
    code, rows = _exact_rows(tmp_path, queries, bundled_model_path(name))
    assert code == 0 and len(rows) == 20
    assert integral_columns == sizes


def test_exact_flags_only_the_rows_that_missed_their_tolerance(tmp_path, monkeypatch):
    # eight panels answer the easy boxes of the batch but not the 4-D one
    cfg = QuadratureConfig(max_subdivisions=8)
    monkeypatch.setattr(cli, "_quadrature_config", lambda args: cfg)
    code, rows = _exact_rows(tmp_path, [
        {"id": "easy", "bounds": [[None, 1.0]]},
        {"id": "hard", "bounds": [[0.3, 1.2], [None, 2.0], [0.1, None], [0.05, 0.4]]},
        {"id": "tiny", "bounds": [[None, 0.01]]},
    ])
    assert code == 4
    assert [r["method"] for r in rows] == [
        "quadrature-gk15", "quadrature-gk15(nonconverged)", "quadrature-gk15"
    ]
    assert 0.0 < float(rows[1]["probability"]) < 1.0


def test_exact_integrand_accuracy_error_flags_its_whole_batch(tmp_path, monkeypatch):
    def failing(model, points, cfg):
        raise AccuracyError("incomplete gamma did not converge", math.nan, math.inf)

    monkeypatch.setattr(cli, "count_pmfs", failing)
    code, rows = _exact_rows(tmp_path, _MIXED_QUERIES)
    assert code == 4
    for row in rows:
        flagged = row["method"].endswith("(nonconverged)")
        assert flagged == row["query_id"].startswith("c")
        if flagged:
            assert (row["probability"], row["error_estimate"]) == ("nan", "inf")


def test_exact_validates_every_query_before_answering(tmp_path, capsys):
    queries = _MIXED_QUERIES + [{"id": "late", "type": "count", "t": -1.0, "n": 2}]
    path = tmp_path / "q.json"
    path.write_text(json.dumps(queries))
    out = tmp_path / "res.csv"
    assert run(["exact", "--model", GH, "--queries", str(path), "--out", str(out)]) == 2
    assert "time must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_exact_dirac_model_matches_closed_form_cdf(tmp_path):
    model = tmp_path / "dirac.json"
    model.write_text(json.dumps({
        "kernel": {"family": "exponential", "rate_map": {"a": 1.0, "b": 0.0}},
        "mixing": {"kind": "dirac", "point": 1.5},
    }))
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([{"id": "m", "bounds": [[None, 0.8]]}]))
    out = tmp_path / "res.csv"
    assert run(["exact", "--model", str(model), "--queries", str(queries),
                "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["probability"]) == pytest.approx(-math.expm1(-1.5 * 0.8), abs=1e-12)
    assert rows[0]["method"] == "point-mass"


@pytest.mark.parametrize("mixing", [
    {"kind": "dirac", "point": 1.5},
    {"kind": "discrete", "atoms": [0.5, 2.0], "weights": [0.25, 0.75]},
])
def test_exact_atomic_model_writes_plain_floats(tmp_path, mixing):
    # a numpy scalar would write its repr, np.float64(...), into the CSV
    model = tmp_path / "atomic.json"
    model.write_text(json.dumps({"kernel": {"family": "exponential"}, "mixing": mixing}))
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([
        {"id": "a", "bounds": [[None, 0.8]]},
        {"id": "b", "bounds": [[0.2, 1.0], [0.5, None]]},
        {"id": "c0", "type": "count", "t": 1.0, "n": 0},
        {"id": "c3", "type": "count", "t": 2.0, "n": 3},
    ]))
    out = tmp_path / "res.csv"
    assert run(["exact", "--model", str(model), "--queries", str(queries),
                "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert 0.0 < float(row["probability"]) < 1.0
        assert 0.0 < float(row["error_estimate"]) < 1e-14
        assert len(row) == 4 and None not in row


_EXP_GAMMA = {"kernel": {"family": "exponential"}, "mixing": {"kind": "gamma", "rate": 2.0, "shape": 1.5}}
_BOX = {"id": "b", "bounds": [[None, 1.0]]}


@pytest.mark.parametrize("model, query", [
    ({"kernel": {"family": "exponential"},
      "mixing": {"kind": "discrete", "atoms": [0.5, 2.0], "weights": [math.nan, 1.0]}}, _BOX),
    ({"kernel": {"family": "gamma", "shape": math.inf}, "mixing": _EXP_GAMMA["mixing"]}, _BOX),
    ({"kernel": {"family": "gamma", "shape": 1e-3}, "mixing": _EXP_GAMMA["mixing"]}, _BOX),
    ({"kernel": {"family": "exponential"},
      "mixing": {"kind": "gamma", "rate": math.inf, "shape": 1.5}}, _BOX),
    ({"kernel": {"family": "exponential"}, "mixing": {"kind": "product_rectangle", "marginals": [
        {"kind": "beta", "a": math.inf, "b": 2.0}]}}, _BOX),
    (_EXP_GAMMA, {"id": "c", "type": "count", "t": math.nan, "n": 1}),
    (_EXP_GAMMA, {"id": "c", "type": "count", "t": math.inf, "n": 1}),
])
def test_nonfinite_or_unsimulable_input_exits_2_without_output(tmp_path, capsys, model, query):
    # json reads NaN and Infinity; each such number is a usage error
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([query]))
    out = tmp_path / "out.csv"
    if query is _BOX:  # a model fault: simulate refuses it too
        argv = ["simulate", "--model", str(path), "--paths", "10", "--events", "2"]
        assert run([*argv, "--out", str(out)]) == 2
        assert not out.exists()
    assert run(["exact", "--model", str(path), "--queries", str(queries), "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_large_shape_beta_model_runs_every_command(tmp_path):
    # (1-x)**1e4 underflows to 0 at x = 0.5; a valid model runs every command
    model = tmp_path / "beta.json"
    model.write_text(json.dumps({"kernel": {"family": "exponential"}, "mixing": {
        "kind": "product_rectangle", "marginals": [{"kind": "beta", "a": 5.0, "b": 1e4}]}}))
    sim = ["simulate", "--model", str(model), "--paths", "200", "--events", "2"]
    assert run([*sim, "--out", str(tmp_path / "s.csv")]) == 0
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([{"id": "w", "bounds": [[None, 1000.0]]}]))
    out = tmp_path / "e.csv"
    assert run(["exact", "--model", str(model), "--queries", str(queries), "--out", str(out)]) == 0
    with open(out) as fh:
        (row,) = csv.DictReader(fh)
    # 1 - 1F1(5; 10005; -1000), mpmath at 40 digits
    assert abs(float(row["probability"]) - 0.37894529783245259) <= float(row["error_estimate"])
    report = tmp_path / "v.json"
    code = run(["verify", "--model", str(model), "--suite", "all", "--paths", "2000",
                "--events", "3", "--seed", "1", "--out", str(report)])
    assert code == 0, json.loads(report.read_text())


def test_unexpected_exception_exits_internal_with_traceback(tmp_path, capsys, monkeypatch):
    # a fault of the program is not a rejection of the model (exit 1)
    def broken(*args):
        raise ValueError("broken suite")

    monkeypatch.setattr(cli, "_suite", broken)
    argv = ["verify", "--model", GH, "--suite", "counting-axioms", "--out", str(tmp_path / "v.json")]
    assert run(argv) == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: broken suite" in err


def test_verify_gamma_half_all_suites_pass(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", GH, "--suite", "all",
                "--paths", "20000", "--events", "3", "--seed", "6", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code == 0, doc
    assert doc["passed"] is True
    # mixed-poisson does not apply to a gamma kernel: skipped, never failed
    assert [s["suite"] for s in doc["skipped"]] == ["mixed-poisson"]


def test_verify_example16_exchangeability_rejects(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", E16, "--suite", "exchangeability",
                "--paths", "20000", "--events", "2", "--seed", "5", "--out", str(out)])
    assert code == 1  # rejection is the correct outcome for this model
    doc = json.loads(out.read_text())
    assert doc["expected_rejection"] is True
    assert doc["passed"] is False
    assert doc["reports"][0]["check"] == "exchangeability"


def test_verify_counting_axioms_passes(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", GH, "--suite", "counting-axioms",
                "--seed", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_verify_mixed_poisson_skipped_on_gamma_kernel(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", GH, "--suite", "mixed-poisson",
                "--seed", "1", "--out", str(out)])
    assert code == 0  # skipped, not failed
    doc = json.loads(out.read_text())
    assert doc["skipped"] and doc["skipped"][0]["suite"] == "mixed-poisson"
    assert doc["reports"] == []


def test_verify_unknown_suite_exits_2(tmp_path, capsys):
    code = run(["verify", "--model", GH, "--suite", "nonsense",
                "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage" in err or "invalid choice" in err


@pytest.mark.parametrize("level", ["nan", "0", "1", "2", "-1"])
def test_verify_bad_level_exits_2(tmp_path, capsys, level):
    out = tmp_path / "r.json"
    code = run(["verify", "--model", GH, "--suite", "all", f"--level={level}", "--out", str(out)])
    assert code == 2
    assert "level must lie strictly between 0 and 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_conditional_iid_suite(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", GH, "--suite", "conditional-iid",
                "--paths", "2000", "--events", "3", "--seed", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["check"] == "conditional-iid"
    assert doc["reports"][0]["passed"] is True


def test_verify_mc_vs_exact_suite(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", E16, "--suite", "mc-vs-exact",
                "--paths", "20000", "--events", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["check"] == "mc-vs-exact"


def test_verify_all_on_proper_exponential_model(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "kernel": {"family": "exponential", "rate_map": {"a": 1.0, "b": 0.0}},
        "mixing": {"kind": "gamma", "rate": 2.0, "shape": 1.0},
        "meta": {"name": "mpp", "description": "proper exponential model"},
    }))
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", str(model), "--suite", "all",
                "--paths", "20000", "--events", "3", "--seed", "4", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code == 0, doc
    names = [r["check"] for r in doc["reports"]]
    assert names == ["exchangeability", "conditional-iid", "mc-vs-exact",
                     "mixed-poisson", "counting-axioms"]
    assert doc["passed"] is True


def test_verify_all_simulates_once_and_matches_single_suites(tmp_path, monkeypatch):
    # on one core every suite runs in this process, where the calls are counted
    monkeypatch.setattr(construction, "_available_cores", lambda: 1)
    calls = []
    simulate = cli.simulate_ensemble

    def counting(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_ensemble", counting)
    common = ["--model", GH, "--paths", "3000", "--events", "2", "--seed", "9"]
    out = tmp_path / "all.json"
    run(["verify", *common, "--suite", "all", "--out", str(out)])
    assert len(calls) == 1
    reports = {r["check"]: r for r in json.loads(out.read_text())["reports"]}
    for suite in ("exchangeability", "mc-vs-exact"):
        single = tmp_path / f"{suite}.json"
        run(["verify", *common, "--suite", suite, "--out", str(single)])
        assert json.loads(single.read_text())["reports"] == [reports[suite]]


_PROPER_EXP = {
    "kernel": {"family": "exponential", "rate_map": {"a": 1.0, "b": 0.0}},
    "mixing": {"kind": "gamma", "rate": 2.0, "shape": 1.5},
}

# one core, three cores (two forked workers), and three cores without fork
CORES_AND_METHODS = [(1, None), (3, None), (3, ["spawn"])]


def _verify_all(tmp_path, model, out, *extra):
    return run(["verify", "--model", model, "--suite", "all", "--paths", "3000",
                "--events", "3", "--seed", "12", "--out", str(tmp_path / out), *extra])


@pytest.mark.parametrize("name", ["gamma_half", "bivariate", "example16", "proper-exponential"])
def test_verify_all_reports_do_not_depend_on_cores_or_fork(tmp_path, monkeypatch, set_cores, name):
    if name == "proper-exponential":
        model = tmp_path / "m.json"
        model.write_text(json.dumps(_PROPER_EXP))
        model = str(model)
    else:
        model = bundled_model_path(name)
    suite = cli._suite
    log = tmp_path / "pids"  # "suite pid" per suite run, appended by whichever process ran it

    def logged(name, *args):
        with open(log, "a") as fh:
            fh.write(f"{name} {os.getpid()}\n")
        return suite(name, *args)

    monkeypatch.setattr(cli, "_suite", logged)
    reports = []
    for cores, methods in [(2, None), *CORES_AND_METHODS]:  # without fork last
        set_cores(cores, methods)
        log.write_text("")
        out = f"{cores}-{methods}.json"
        assert _verify_all(tmp_path, model, out) == (1 if name == "example16" else 0)
        reports.append((tmp_path / out).read_bytes())
        # on n processes, suite i runs in this one if n divides i, else in worker i % n
        runs = [line.split() for line in log.read_text().splitlines()]
        pids = dict(runs)
        n = 1 if methods else cores
        suites = cli.SUITES[:-1]
        assert sorted(name for name, _ in runs) == sorted(suites)
        assert len(set(pids.values())) == n
        for i, s in enumerate(suites):
            assert (pids[s] == str(os.getpid())) == (i % n == 0)
            assert pids[s] == pids[suites[i % n]]
    assert len(set(reports)) == 1
    checks = [r["check"] for r in json.loads(reports[0])["reports"]]
    assert checks == [s for s in cli.SUITES[:-1] if name == "proper-exponential" or s != "mixed-poisson"]


def _raising(error):
    def suite(*args, **kwargs):
        raise error
    return suite


@pytest.mark.parametrize("cores,methods", CORES_AND_METHODS)
@pytest.mark.parametrize("error,code,message", [
    (AccuracyError("count pmf missed its tolerance", 0.5, 1e-3), 4,
     "mrplab: accuracy error: count pmf missed its tolerance\n"),
    (ConfigurationError("bad increment width"), 2, "mrplab: error: bad increment width\n"),
])
def test_verify_all_error_in_the_forked_group(tmp_path, capsys, monkeypatch, set_cores, cores,
                                              methods, error, code, message):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(_PROPER_EXP))
    # conditional-iid is suite 1, which a forked worker runs on three cores
    monkeypatch.setattr(cli, "conditional_iid_test", _raising(error))
    set_cores(cores, methods)
    assert _verify_all(tmp_path, str(model), "r.json") == code
    assert capsys.readouterr().err == message
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("cores,methods", CORES_AND_METHODS)
def test_verify_all_raises_the_earliest_suites_error(tmp_path, capsys, monkeypatch, set_cores, cores,
                                                    methods):
    # suites in order: exchangeability, conditional-iid, mc-vs-exact, mixed-poisson,
    # counting-axioms; on three cores conditional-iid runs in a worker, mc-vs-exact
    # in another
    set_cores(cores, methods)
    monkeypatch.setattr(cli, "conditional_iid_test", _raising(AccuracyError("second", 0.0, 1.0)))
    monkeypatch.setattr(cli, "mc_vs_exact", _raising(ConfigurationError("third")))
    assert _verify_all(tmp_path, GH, "r.json") == 4
    assert capsys.readouterr().err == "mrplab: accuracy error: second\n"
    monkeypatch.setattr(cli, "exchangeability_test", _raising(ConfigurationError("first")))
    assert _verify_all(tmp_path, GH, "r.json") == 2
    assert capsys.readouterr().err == "mrplab: error: first\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [["--paths", "0"], ["--paths=-5"], ["--events", "0"],
                                  ["--paths=-5", "--events", "0"], ["--events", "2.5"]])
def test_verify_sizes_below_one_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    code = run(["verify", "--model", GH, "--suite", "conditional-iid", *argv, "--out", str(out)])
    assert code == 2
    assert "must be an integer of at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_small_sizes_keep_their_meaning(tmp_path):
    # conditional-iid takes at least 100 samples and 2 indices
    out = tmp_path / "r.json"
    assert run(["verify", "--model", GH, "--suite", "conditional-iid", "--paths", "1",
                "--events", "1", "--out", str(out)]) == 0
    sizes = json.loads(out.read_text())["reports"][0]["sample_sizes"]
    assert (sizes["samples"], sizes["max_index"]) == (100, 2)


def test_no_command_imports_numpy_ma(tmp_path, fresh_cli):
    # np.quantile, np.unique without return_* flags and np.union1d import
    # numpy.ma (about 16 ms in a fresh process); on one core every verify
    # suite runs in the child, so its imports are all seen
    import subprocess
    import sys

    bare = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    numpy_loads_ma = bare.stdout.strip() == "True"
    model = tmp_path / "m.json"
    model.write_text(json.dumps(_EXP_GAMMA))
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([_BOX, {"id": "n", "type": "count", "t": 1.0, "n": 2}]))
    calls = {
        "simulate": ["--paths", 300, "--events", 3, "--out", tmp_path / "s.csv"],
        "exact": ["--queries", queries, "--out", tmp_path / "e.csv"],
        "verify": ["--suite", "all", "--paths", 2000, "--events", 3, "--out", tmp_path / "v.json"],
    }
    for command, args in calls.items():
        code, modules = fresh_cli(command, "--model", model, *args, cores=1)
        assert code == 0, command
        assert numpy_loads_ma or "numpy.ma" not in modules, command
    assert json.loads((tmp_path / "v.json").read_text())["skipped"] == []
