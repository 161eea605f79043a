"""Strict JSON model and query files.

Unknown fields are rejected everywhere (with the offending field path), so a
model file is always an exact, auditable statement of the model it builds.
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .construction import MrpModel, build_model
from .errors import SchemaError
from .exact import BoxQuery
from .kernels import (
    BetaMarginal,
    DiracMixing,
    DiscreteMixing,
    GammaMarginal,
    GammaMixing,
    KERNEL_FAMILIES,
    KernelSpec,
    ProductRectangleMixing,
    RateMap,
    UniformMarginal,
)

BUNDLED_MODELS = ("gamma_half", "bivariate", "example16")
# marginal kind -> (class, its model-file fields besides "kind")
_MARGINALS = {
    cls.kind: (cls, cls.file_fields()) for cls in (UniformMarginal, GammaMarginal, BetaMarginal)
}


def _require_keys(doc: dict, allowed: set, required: set, path: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{path}: missing required field(s) {sorted(missing)}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(doc: dict, key: str, path: str) -> float:
    v = doc[key]
    if not _is_number(v):
        raise SchemaError(f"{path}.{key}: expected a number, got {v!r}")
    return float(v)


def _atom(v, path: str):
    """A mixing atom: a number or a nonempty list of numbers, returned as given."""
    if not (_is_number(v) or (isinstance(v, list) and v and all(map(_is_number, v)))):
        raise SchemaError(f"{path}: expected a number or a list of numbers, got {v!r}")
    return v


def _parse_kernel(doc: dict) -> KernelSpec:
    _require_keys(doc, {"family", "rate_map", "shape"}, {"family"}, "kernel")
    family = doc["family"]
    if family not in KERNEL_FAMILIES:
        raise SchemaError(
            f"kernel.family: unknown family {family!r}; interarrival kernels must live "
            f"on (0, inf), expected one of {KERNEL_FAMILIES}"
        )
    rm = RateMap()
    if "rate_map" in doc:
        _require_keys(doc["rate_map"], {"a", "b"}, {"a", "b"}, "kernel.rate_map")
        rm = RateMap(_number(doc["rate_map"], "a", "kernel.rate_map"),
                     _number(doc["rate_map"], "b", "kernel.rate_map"))
    shape = doc.get("shape")
    if shape is not None and not isinstance(shape, str):
        shape = _number(doc, "shape", "kernel")
    return KernelSpec(family=family, rate_map=rm, shape=shape)


def _parse_marginal(doc: dict, path: str):
    _require_keys(doc, {"kind"}.union(*(names for _, names in _MARGINALS.values())), {"kind"}, path)
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _MARGINALS:  # a list kind is unhashable
        raise SchemaError(f"{path}.kind: unknown marginal kind {kind!r}")
    cls, names = _MARGINALS[kind]
    _require_keys(doc, {"kind", *names}, {"kind", *names}, path)
    return cls(*(_number(doc, name, path) for name in names))


def _parse_mixing(doc: dict):
    _require_keys(
        doc, {"kind", "point", "rate", "shape", "marginals", "atoms", "weights"}, {"kind"}, "mixing"
    )
    kind = doc["kind"]
    if kind == "dirac":
        _require_keys(doc, {"kind", "point"}, {"kind", "point"}, "mixing")
        return DiracMixing(_atom(doc["point"], "mixing.point"))
    if kind == "gamma":
        _require_keys(doc, {"kind", "rate", "shape"}, {"kind", "rate", "shape"}, "mixing")
        return GammaMixing(_number(doc, "rate", "mixing"), _number(doc, "shape", "mixing"))
    if kind == "product_rectangle":
        _require_keys(doc, {"kind", "marginals"}, {"kind", "marginals"}, "mixing")
        ms = doc["marginals"]
        if not isinstance(ms, list) or not ms:
            raise SchemaError("mixing.marginals: expected a nonempty list")
        return ProductRectangleMixing(
            tuple(_parse_marginal(m, f"mixing.marginals[{i}]") for i, m in enumerate(ms))
        )
    if kind == "discrete":
        _require_keys(doc, {"kind", "atoms", "weights"}, {"kind", "atoms", "weights"}, "mixing")
        atoms, weights = doc["atoms"], doc["weights"]
        if not isinstance(atoms, list):
            raise SchemaError(f"mixing.atoms: expected a list, got {atoms!r}")
        if not isinstance(weights, list) or not all(map(_is_number, weights)):
            raise SchemaError(f"mixing.weights: expected a list of numbers, got {weights!r}")
        return DiscreteMixing(
            tuple(_atom(a, f"mixing.atoms[{i}]") for i, a in enumerate(atoms)), tuple(weights)
        )
    raise SchemaError(f"mixing.kind: unknown mixing kind {kind!r}")


def parse_model_document(doc: dict) -> tuple[MrpModel, dict]:
    """Parse a model JSON document; returns (model, meta)."""
    _require_keys(doc, {"kernel", "mixing", "meta"}, {"kernel", "mixing"}, "model")
    kernel = _parse_kernel(doc["kernel"])
    mixing = _parse_mixing(doc["mixing"])
    meta = doc.get("meta", {})
    _require_keys(
        meta, {"name", "description", "expects_rejection"}, set(), "meta"
    )
    if "expects_rejection" in meta and not isinstance(meta["expects_rejection"], bool):
        raise SchemaError("meta.expects_rejection: expected a boolean")
    return build_model(kernel, mixing), dict(meta)


def _load_json(path: str):
    """The JSON document in the file at `path`; SchemaError if it is not valid JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_model_file(path: str) -> tuple[MrpModel, dict]:
    return parse_model_document(_load_json(path))


def bundled_model_path(name: str) -> str:
    if name not in BUNDLED_MODELS:
        raise SchemaError(f"unknown bundled model {name!r}; available: {BUNDLED_MODELS}")
    return str(resources.files("mrplab").joinpath(f"models/{name}.json"))


def load_bundled_model(name: str) -> tuple[MrpModel, dict]:
    return load_model_file(bundled_model_path(name))


# ---------------------------------------------------------------------------
# query files
# ---------------------------------------------------------------------------


def _parse_bound(v, path: str, side: str) -> float:
    if v is None:
        return -math.inf if side == "lo" else math.inf
    if not _is_number(v):
        raise SchemaError(f"{path}: bound must be a number or null, got {v!r}")
    return float(v)


def _count(doc: dict, key: str, path: str) -> int:
    v = doc[key]
    if not (_is_number(v) and math.isfinite(v) and v == int(v) and v >= 0):
        raise SchemaError(f"{path}.{key}: expected a nonnegative integer, got {v!r}")
    return int(v)


def parse_queries_document(doc) -> list[dict]:
    """Parse a query file: a JSON list of box (or count) query objects.

    Box queries: {"id": .., "type": "box", "bounds": [[lo, hi], ...]} with
    null bounds meaning unbounded.  Count queries: {"type": "count",
    "t": .., "n": ..}.
    """
    if not isinstance(doc, list):
        raise SchemaError("queries: expected a JSON list")
    out = []
    for i, q in enumerate(doc):
        path = f"queries[{i}]"
        _require_keys(q, {"id", "type", "bounds", "t", "n"}, set(), path)
        qtype = q.get("type", "box")
        qid = q.get("id", i)
        if qtype == "box":
            if "bounds" not in q:
                raise SchemaError(f"{path}: box query needs bounds")
            if not isinstance(q["bounds"], list):
                raise SchemaError(f"{path}.bounds: expected a list of [lo, hi] pairs")
            bounds = []
            for j, pair in enumerate(q["bounds"]):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise SchemaError(f"{path}.bounds[{j}]: expected [lo, hi]")
                bounds.append(
                    (_parse_bound(pair[0], f"{path}.bounds[{j}]", "lo"),
                     _parse_bound(pair[1], f"{path}.bounds[{j}]", "hi"))
                )
            out.append({"id": qid, "type": "box", "query": BoxQuery(tuple(bounds))})
        elif qtype == "count":
            if "t" not in q or "n" not in q:
                raise SchemaError(f"{path}: count query needs t and n")
            out.append({"id": qid, "type": "count",
                        "t": _number(q, "t", path), "n": _count(q, "n", path)})
        else:
            raise SchemaError(f"{path}.type: unknown query type {qtype!r}")
    return out


def load_queries_file(path: str) -> list[dict]:
    return parse_queries_document(_load_json(path))
