import csv
import json
import math

import pytest

from mrplab import cli, special
from mrplab.cli import main
from mrplab.modelfile import bundled_model_path

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
