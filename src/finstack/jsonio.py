"""JSON interchange for groupoids, descent data, categories, and Kan inputs.

Documents use string ids throughout.  Schemas are validated before any
computation; violations raise :class:`SchemaError` with the offending key.
The loaders of cocycles, morphism classes and Kan inputs live with their
types, in ``torsor``, ``spans`` and ``kan``; they are reachable here too,
through stand-ins that import their module on first call.
"""

from __future__ import annotations

import json
from typing import Mapping

from . import _lazy
from .category import CatFunctor, FiniteCategory, functor, validate_category
from .errors import SchemaError
from .groupoid import FiniteGroupoid, validate_groupoid


def _require(doc: Mapping, key: str, kind: type):
    if not isinstance(doc, dict):
        raise SchemaError(f"expected an object with key {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise SchemaError(f"key {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _ids(value, what: str) -> list:
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise SchemaError(f"{what} must be a list of string ids")
    return value


def _id_table(value, what: str) -> dict:
    if not (isinstance(value, dict) and all(isinstance(x, str) for x in value.values())):
        raise SchemaError(f"{what} must map string ids to string ids")
    return value


def load_json(path: str, data: bytes | None = None) -> dict:
    """The JSON object in ``data``, the bytes of ``path``, read here if not given."""
    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise SchemaError(f"{path}: repeated key {key!r}")
        return obj

    try:
        if data is None:
            with open(path, "rb") as fh:
                data = fh.read()
        doc = json.loads(data, object_pairs_hook=unique_keys)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return doc


def _category_tables(doc: Mapping, arrows_key: str) -> tuple:
    """(objects, arrows, src, tgt, comp, id) of a category document whose
    arrows are listed under ``arrows_key``."""
    objects = _ids(_require(doc, "objects", list), "objects")
    arrows, src, tgt = [], {}, {}
    for entry in _require(doc, arrows_key, list):
        if not isinstance(entry, dict):
            raise SchemaError(f"{arrows_key} entries must be objects with id/src/tgt")
        a = _require(entry, "id", str)
        arrows.append(a)
        src[a] = _require(entry, "src", str)
        tgt[a] = _require(entry, "tgt", str)
    comp = {}
    for entry in _require(doc, "comp", list):
        if not (type(entry) is list and len(entry) == 3 and type(entry[0]) is str
                and type(entry[1]) is str and type(entry[2]) is str):
            if len(_ids(entry, "comp entries")) != 3:
                raise SchemaError("comp entries must be triples [a, b, ab]")
        if (pair := (entry[0], entry[1])) in comp:
            raise SchemaError(f"comp repeats the pair {entry[:2]!r}")
        comp[pair] = entry[2]
    return objects, arrows, src, tgt, comp, _id_table(_require(doc, "id", dict), "id")


def groupoid_from_json(doc: Mapping) -> FiniteGroupoid:
    """A groupoid document is a category document with its arrows under
    ``arrows``, plus the inverse table ``inv``."""
    tables = _category_tables(doc, "arrows")
    return validate_groupoid(*tables, _id_table(_require(doc, "inv", dict), "inv"))


def groupoid_to_json(g: FiniteGroupoid) -> dict:
    names = {x: str(x) for x in g.objects}
    names.update({a: str(a) for a in g.morphisms})
    if len(set(names.values())) != len(names):
        raise SchemaError("ids do not stringify injectively")
    return {
        "objects": [names[x] for x in g.objects],
        "arrows": [{"id": names[a], "src": names[g.src[a]], "tgt": names[g.tgt[a]]}
                   for a in g.morphisms],
        "comp": [[names[a], names[b], names[c]] for a, b, c in sorted(
            g.composites(), key=lambda abc: (str(abc[0]), str(abc[1])))],
        "id": {names[x]: names[g.ident[x]] for x in g.objects},
        "inv": {names[a]: names[g.inv[a]] for a in g.morphisms},
    }


def groupoid_functor_tables(doc: Mapping) -> tuple:
    """The object and arrow tables of a groupoid functor document."""
    return (_id_table(_require(doc, "objects", dict), "objects"),
            _id_table(_require(doc, "arrows", dict), "arrows"))


def groupoid_functor_from_json(doc: Mapping) -> CatFunctor:
    source = groupoid_from_json(_require(doc, "source", dict))
    target = groupoid_from_json(_require(doc, "target", dict))
    return functor(source, target, *groupoid_functor_tables(doc))


def category_from_json(doc: Mapping) -> FiniteCategory:
    return validate_category(*_category_tables(doc, "morphisms"))


def cat_functor_from_json(doc: Mapping, source: FiniteCategory, target: FiniteCategory) -> CatFunctor:
    return functor(source, target, _id_table(_require(doc, "objects", dict), "objects"),
                   _id_table(_require(doc, "morphisms", dict), "morphisms"))


cocycle_from_json = _lazy("torsor", "cocycle_from_json")
cocycle_to_json = _lazy("torsor", "cocycle_to_json")
morphism_class_from_json = _lazy("spans", "morphism_class_from_json")
fiber_from_json = _lazy("kan", "fiber_from_json")
indexed_category_from_json = _lazy("kan", "indexed_category_from_json")
lift_from_json = _lazy("kan", "lift_from_json")
