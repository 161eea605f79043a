import json

import pytest

from mrplab.construction import build_model
from mrplab.errors import ConfigurationError, SchemaError
from mrplab.exact import BoxQuery
from mrplab.kernels import (
    BetaMarginal,
    DiracMixing,
    DiscreteMixing,
    GammaMarginal,
    GammaMixing,
    KernelSpec,
    ProductRectangleMixing,
    RateMap,
    UniformMarginal,
)
from mrplab.modelfile import (
    BUNDLED_MODELS,
    bundled_model_path,
    load_bundled_model,
    load_model_file,
    parse_model_document,
    parse_queries_document,
)


def test_bundled_models_load():
    gh, meta = load_bundled_model("gamma_half")
    assert gh.is_proper_mrp
    assert meta["name"] == "gamma_half"

    bi, meta = load_bundled_model("bivariate")
    assert bi.is_proper_mrp and bi.param_dim == 2

    e16, meta = load_bundled_model("example16")
    assert not e16.is_proper_mrp
    assert meta["expects_rejection"] is True


def test_unknown_bundled_model():
    with pytest.raises(SchemaError):
        bundled_model_path("nonexistent")


def test_unknown_field_rejected_with_path():
    doc = {
        "kernel": {"family": "exponential", "extra": 1},
        "mixing": {"kind": "gamma", "rate": 2.0, "shape": 1.0},
    }
    with pytest.raises(SchemaError, match="kernel.*extra"):
        parse_model_document(doc)
    doc2 = {
        "kernel": {"family": "exponential"},
        "mixing": {"kind": "gamma", "rate": 2.0, "shape": 1.0},
        "meta": {"name": "x", "color": "blue"},
    }
    with pytest.raises(SchemaError, match="meta.*color"):
        parse_model_document(doc2)
    with pytest.raises(SchemaError, match="missing"):
        parse_model_document({"kernel": {"family": "exponential"}})


def test_marginal_schema_strict():
    doc = {
        "kernel": {"family": "gamma", "shape": "theta2"},
        "mixing": {
            "kind": "product_rectangle",
            "marginals": [
                {"kind": "gamma", "rate": 2.0, "shape": 2.0},
                {"kind": "uniform", "lo": 0.2, "hi": 0.8, "mid": 0.5},
            ],
        },
    }
    with pytest.raises(SchemaError, match=r"marginals\[1\]"):
        parse_model_document(doc)


def test_bad_json_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "kernel": {\n}')
    with pytest.raises(SchemaError, match="line"):
        load_model_file(str(p))


def test_shape_string_validation():
    doc = {
        "kernel": {"family": "gamma", "shape": "theta3"},
        "mixing": {"kind": "gamma", "rate": 2.0, "shape": 1.0},
    }
    with pytest.raises(Exception):
        parse_model_document(doc)


def test_queries_parse_boxes_and_counts():
    doc = [
        {"id": "a", "bounds": [[None, 2.0], [None, 1.0]]},
        {"type": "box", "bounds": [[0.5, 1.5]]},
        {"id": "c", "type": "count", "t": 2.0, "n": 3},
    ]
    parsed = parse_queries_document(doc)
    assert parsed[0]["query"] == BoxQuery.upper(2.0, 1.0)
    assert parsed[1]["id"] == 1
    assert parsed[1]["query"].bounds == ((0.5, 1.5),)
    assert parsed[2]["type"] == "count" and parsed[2]["n"] == 3


def test_queries_schema_errors():
    with pytest.raises(SchemaError):
        parse_queries_document({"not": "a list"})
    with pytest.raises(SchemaError):
        parse_queries_document([{"type": "box"}])
    with pytest.raises(SchemaError):
        parse_queries_document([{"type": "box", "bounds": [[1.0]]}])
    with pytest.raises(SchemaError):
        parse_queries_document([{"type": "ellipse"}])
    with pytest.raises(SchemaError):
        parse_queries_document([{"type": "box", "bounds": [["a", 2.0]]}])


@pytest.mark.parametrize("n", [2.5, True, False, "abc", -1, None, [2], float("inf")])
def test_count_query_needs_a_nonnegative_integer(n):
    with pytest.raises(SchemaError, match=r"queries\[0\]\.n"):
        parse_queries_document([{"type": "count", "t": 1.0, "n": n}])


def test_count_query_accepts_integral_float():
    assert parse_queries_document([{"type": "count", "t": 1.0, "n": 2.0}])[0]["n"] == 2


@pytest.mark.parametrize("bounds", [5, "abc", None, {"lo": 1.0}])
def test_box_query_bounds_must_be_a_list(bounds):
    with pytest.raises(SchemaError, match=r"queries\[0\]\.bounds"):
        parse_queries_document([{"type": "box", "bounds": bounds}])


def test_model_round_trip_through_to_dict():
    model, _ = load_bundled_model("bivariate")
    doc = {"kernel": model.kernel.to_dict(), "mixing": model.mixing.to_dict()}
    again, _ = parse_model_document(json.loads(json.dumps(doc)))
    assert again.model_hash() == model.model_hash()


TIED = KernelSpec("gamma", RateMap(0.5, 0.25), shape="theta2")
ROUND_TRIPS = {
    "exponential-dirac": (KernelSpec("exponential"), DiracMixing(1.3)),
    "scaled-exponential-gamma": (KernelSpec("exponential", RateMap(0.0, 1.0)), GammaMixing(2.0, 1.0)),
    "gamma-uniform": (KernelSpec("gamma", shape=0.5), ProductRectangleMixing((UniformMarginal(0.2, 0.8),))),
    "gamma-gamma-marginal": (KernelSpec("gamma", RateMap(1.0, 0.5), shape=2.0),
                             ProductRectangleMixing((GammaMarginal(2.0, 1.5),))),
    "exponential-beta": (KernelSpec("exponential"), ProductRectangleMixing((BetaMarginal(0.5, 2.0),))),
    "exponential-discrete": (KernelSpec("exponential"), DiscreteMixing((0.5, 2.0), (0.25, 0.75))),
    "tied-product": (TIED, ProductRectangleMixing((GammaMarginal(2.0, 2.0), UniformMarginal(0.2, 0.8)))),
    "tied-dirac": (TIED, DiracMixing((1.0, 0.5))),
    "tied-discrete": (TIED, DiscreteMixing(((1.0, 0.5), (2.0, 1.5)), (0.4, 0.6))),
}


# models given with int numbers, each beside the same model given with floats
INT_BUILT = {
    "exponential-gamma": ((KernelSpec("exponential", RateMap(1, 0)), GammaMixing(2, 1)),
                          (KernelSpec("exponential", RateMap(1.0, 0.0)), GammaMixing(2.0, 1.0))),
    "gamma-dirac": ((KernelSpec("gamma", RateMap(2, 1), shape=3), DiracMixing(2)),
                    (KernelSpec("gamma", RateMap(2.0, 1.0), shape=3.0), DiracMixing(2.0))),
    "exponential-beta": (
        (KernelSpec("exponential"), ProductRectangleMixing((BetaMarginal(2, 3),))),
        (KernelSpec("exponential"), ProductRectangleMixing((BetaMarginal(2.0, 3.0),)))),
    "tied-product": (
        (TIED, ProductRectangleMixing((GammaMarginal(2, 3), UniformMarginal(1, 2)))),
        (TIED, ProductRectangleMixing((GammaMarginal(2.0, 3.0), UniformMarginal(1.0, 2.0))))),
    "exponential-discrete": ((KernelSpec("exponential"), DiscreteMixing((1, 2), (0.5, 0.5))),
                             (KernelSpec("exponential"), DiscreteMixing((1.0, 2.0), (0.5, 0.5)))),
}
ROUND_TRIPS.update({f"int-{name}": ints for name, (ints, _) in INT_BUILT.items()})
ROUND_TRIPS.update({f"bundled-{name}": (lambda m: (m.kernel, m.mixing))(load_bundled_model(name)[0])
                    for name in BUNDLED_MODELS})


@pytest.mark.parametrize("name", INT_BUILT)
def test_int_built_models_hash_as_float_built(name):
    ints, floats = (build_model(*pair) for pair in INT_BUILT[name])
    assert ints.to_dict() == floats.to_dict()
    assert ints.model_hash() == floats.model_hash()


@pytest.mark.parametrize("build", [
    lambda: RateMap(True, 0.0), lambda: RateMap(1.0, False), lambda: KernelSpec("gamma", shape=True),
    lambda: UniformMarginal(False, 1.0), lambda: GammaMarginal(2.0, True), lambda: BetaMarginal(True, 2.0),
    lambda: DiracMixing(True), lambda: DiscreteMixing((1.0, True), (0.5, 0.5)),
    lambda: DiscreteMixing((1.0,), (True,)), lambda: RateMap("1", 0.0),
], ids=["rate-map-a", "rate-map-b", "kernel-shape", "uniform", "gamma", "beta", "dirac",
        "discrete-atom", "discrete-weight", "string"])
def test_a_bool_or_a_string_is_not_a_number_for_a_constructor(build):
    with pytest.raises(ConfigurationError, match="must be a number"):
        build()


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_every_spelling_round_trips_through_to_dict(name):
    model = build_model(*ROUND_TRIPS[name])
    doc = json.loads(json.dumps(model.to_dict()))
    again, _ = parse_model_document(doc)
    assert (again.kernel, again.mixing) == (model.kernel, model.mixing)
    assert type(again.mixing) is type(model.mixing)
    assert again.model_hash() == model.model_hash()


def test_marginal_spelling_is_the_constructor_fields():
    assert UniformMarginal(0.2, 0.8).to_dict() == {"kind": "uniform", "lo": 0.2, "hi": 0.8}
    assert GammaMarginal(2.0, 1.5).to_dict() == {"kind": "gamma", "rate": 2.0, "shape": 1.5}
    assert BetaMarginal(0.5, 2.0).to_dict() == {"kind": "beta", "a": 0.5, "b": 2.0}
    assert TIED.to_dict() == {"family": "gamma", "rate_map": {"a": 0.5, "b": 0.25}, "shape": "theta2"}
    assert KernelSpec("exponential").to_dict() == {"family": "exponential", "rate_map": {"a": 1.0, "b": 0.0}}


def _mixing_doc(mixing):
    return {"kernel": {"family": "exponential"}, "mixing": mixing}


@pytest.mark.parametrize("mixing,where", [
    ({"kind": "dirac", "point": "x"}, r"mixing\.point"),
    ({"kind": "dirac", "point": True}, r"mixing\.point"),
    ({"kind": "dirac", "point": None}, r"mixing\.point"),
    ({"kind": "dirac", "point": []}, r"mixing\.point"),
    ({"kind": "dirac", "point": [1.0, "x"]}, r"mixing\.point"),
    ({"kind": "dirac", "point": [[1.0]]}, r"mixing\.point"),
    ({"kind": "discrete", "atoms": ["x"], "weights": [1.0]}, r"mixing\.atoms\[0\]"),
    ({"kind": "discrete", "atoms": [1.0, False], "weights": [0.5, 0.5]}, r"mixing\.atoms\[1\]"),
    ({"kind": "discrete", "atoms": 1.0, "weights": [1.0]}, r"mixing\.atoms"),
    ({"kind": "discrete", "atoms": [1.0], "weights": ["1"]}, r"mixing\.weights"),
    ({"kind": "discrete", "atoms": [1.0], "weights": 1.0}, r"mixing\.weights"),
])
def test_mixing_atoms_and_weights_must_be_numbers(mixing, where):
    with pytest.raises(SchemaError, match=where):
        parse_model_document(_mixing_doc(mixing))


@pytest.mark.parametrize("mixing", [
    {"kind": "dirac", "point": 2},
    {"kind": "dirac", "point": 1.5},
    {"kind": "discrete", "atoms": [1, 2.5], "weights": [0.25, 0.75]},
])
def test_numeric_mixing_atoms_accepted_and_hash_unchanged(mixing):
    from mrplab.construction import build_model
    from mrplab.kernels import DiracMixing, DiscreteMixing, KernelSpec

    model, _ = parse_model_document(_mixing_doc(mixing))
    if mixing["kind"] == "dirac":
        direct = DiracMixing(mixing["point"])
    else:
        direct = DiscreteMixing(tuple(mixing["atoms"]), tuple(mixing["weights"]))
    assert model.model_hash() == build_model(KernelSpec("exponential"), direct).model_hash()


def test_two_dimensional_dirac_point_accepted():
    two_d, _ = parse_model_document({
        "kernel": {"family": "gamma", "shape": "theta2"},
        "mixing": {"kind": "dirac", "point": [1.0, 2]},
    })
    assert two_d.mixing.point == (1.0, 2.0)
