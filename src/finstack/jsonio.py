"""JSON interchange for groupoids, descent data, categories, and Kan inputs.

Documents use string ids throughout.  Schemas are validated before any
computation; violations raise :class:`SchemaError` with the offending key.
"""

from __future__ import annotations

import json
from typing import Mapping

from .category import CatFunctor, FiniteCategory, functor, validate_category
from .errors import SchemaError
from .groupoid import FiniteGroupoid, validate_groupoid
from .kan import (
    FinSetFiber,
    IndexedCategory,
    Lift,
    PullbackFunctor,
    constant_pullback,
    identity_pullback,
    indexed_category,
    lift,
    make_fiber,
    relabel_pullback,
)
from .spans import MorphismClass, morphism_class
from .torsor import Cocycle, covered_space, validate_cocycle


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


def load_json(path: str) -> dict:
    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise SchemaError(f"{path}: repeated key {key!r}")
        return obj

    try:
        with open(path, "rb") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
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
        if (entry[0], entry[1]) in comp:
            raise SchemaError(f"comp repeats the pair {entry[:2]!r}")
        comp[(entry[0], entry[1])] = entry[2]
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
        "comp": [[names[a], names[b], names[c]] for (a, b), c in sorted(
            g.comp.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))],
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


def cocycle_from_json(doc: Mapping, target: FiniteGroupoid) -> Cocycle:
    points = _ids(_require(doc, "W", list), "W")
    cover_doc = _require(doc, "cover", dict)
    cov = covered_space(points, {i: set(_ids(part, f"cover {i!r}")) for i, part in cover_doc.items()})
    a_doc = _require(doc, "a", dict)
    for i in a_doc:
        if i not in cover_doc:
            raise SchemaError(f"a key {i!r} is not a chart of cover")
    gamma_doc = _require(doc, "gamma", dict)
    gamma = {}
    for key, table in gamma_doc.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise SchemaError(f"gamma key {key!r} must look like 'i,j'")
        if parts[0] not in cover_doc or parts[1] not in cover_doc:
            raise SchemaError(f"gamma key {key!r} names a chart outside cover")
        gamma[(parts[0], parts[1])] = dict(_id_table(table, f"gamma {key!r}"))
    a = {i: dict(_id_table(t, f"a {i!r}")) for i, t in a_doc.items()}
    return validate_cocycle(cov, target, a, gamma)


def cocycle_to_json(c: Cocycle) -> dict:
    return {
        "W": [str(w) for w in c.cov.points],
        "cover": {str(i): [str(w) for w in sorted(c.cov.cover[i], key=str)]
                  for i in c.cov.indices()},
        "a": {str(i): {str(w): str(x) for w, x in sorted(c.a[i].items(), key=lambda kv: str(kv[0]))}
              for i in c.cov.indices()},
        "gamma": {f"{i},{j}": {str(w): str(arrow) for w, arrow in
                               sorted(table.items(), key=lambda kv: str(kv[0]))}
                  for (i, j), table in sorted(c.gamma.items(), key=lambda kv: str(kv[0]))},
    }


def category_from_json(doc: Mapping) -> FiniteCategory:
    return validate_category(*_category_tables(doc, "morphisms"))


def cat_functor_from_json(doc: Mapping, source: FiniteCategory, target: FiniteCategory) -> CatFunctor:
    return functor(source, target, _id_table(_require(doc, "objects", dict), "objects"),
                   _id_table(_require(doc, "morphisms", dict), "morphisms"))


def morphism_class_from_json(doc: Mapping, cat: FiniteCategory) -> MorphismClass:
    members = set(_ids(_require(doc, "members", list), "members"))
    oracle = None
    if "pullbacks" in doc:
        oracle = {}
        for entry in _require(doc, "pullbacks", list):
            cospan = _ids(_require(entry, "cospan", list), "cospan")
            if len(cospan) != 2:
                raise SchemaError("cospan must have two morphisms")
            if (cospan[0], cospan[1]) in oracle:
                raise SchemaError(f"pullbacks repeats the cospan {cospan!r}")
            oracle[(cospan[0], cospan[1])] = (
                _require(entry, "apex", str),
                _require(entry, "proj1", str),
                _require(entry, "proj2", str),
            )
    return morphism_class(cat, members, oracle)


def fiber_from_json(doc: Mapping) -> FinSetFiber:
    if not isinstance(doc, dict):
        raise SchemaError("a fiber must map set names to lists of elements")
    for name, elems in doc.items():
        if not isinstance(elems, list):
            raise SchemaError(f"fiber set {name!r} must be a list")
        if any(isinstance(x, (list, dict)) for x in elems):
            raise SchemaError(f"fiber set {name!r} has an unhashable element")
        seen: set = set()
        for x in elems:
            if x in seen:
                raise SchemaError(f"fiber set {name!r} repeats the element {x!r}")
            seen.add(x)
    return make_fiber(doc)


def _pullback_from_json(doc: Mapping, source: FinSetFiber, target: FinSetFiber) -> PullbackFunctor:
    kind = _require(doc, "kind", str)
    if kind == "identity":
        return identity_pullback(source)
    if kind == "constant":
        return constant_pullback(source, target, _require(doc, "at", str))
    if kind == "relabel":
        objects = _require(doc, "objects", dict)
        carriers = _require(doc, "carriers", dict)
        for name, table in carriers.items():
            if not isinstance(table, dict):
                raise SchemaError(f"carrier {name!r} must map elements to elements")
        return relabel_pullback(source, target, objects, carriers)
    raise SchemaError(f"unknown pullback kind {kind!r}")


def indexed_category_from_json(doc: Mapping, base: FiniteCategory) -> IndexedCategory:
    fibers_doc = _require(doc, "fibers", dict)
    fibers = {b: fiber_from_json(d) for b, d in fibers_doc.items()}
    for b in base.objects:
        if b not in fibers:
            raise SchemaError(f"missing fiber for base object {b!r}")
    pulls_doc = _require(doc, "pulls", dict)
    pulls = {}
    for m in base.morphisms:
        if m not in pulls_doc:
            raise SchemaError(f"missing pullback functor for base morphism {m!r}")
        pulls[m] = _pullback_from_json(pulls_doc[m], fibers[base.tgt[m]], fibers[base.src[m]])
    return indexed_category(base, fibers, pulls)


def lift_from_json(doc: Mapping, ic: IndexedCategory, shape: FiniteCategory,
                   anchor: CatFunctor) -> Lift:
    """Lift maps become fiber morphisms in the fiber over the anchor of their
    source, which checks that each is a total function between its sets."""
    objects = _require(doc, "objects", dict)
    shape_objects = set(shape.objects)
    for d in objects:
        if d not in shape_objects:
            raise SchemaError(f"objects key {d!r} is not an object of the shape")
    morphisms = {}
    for m, entry in _require(doc, "morphisms", dict).items():
        if m not in shape.src:
            raise SchemaError(f"morphisms key {m!r} is not a morphism of the shape")
        src, tgt = _require(entry, "src", str), _require(entry, "tgt", str)
        table = _require(entry, "map", dict)
        morphisms[m] = ic.fiber(anchor.obj_map[shape.src[m]]).mor(src, tgt, table)
    return lift(ic, shape, anchor, objects, morphisms)
