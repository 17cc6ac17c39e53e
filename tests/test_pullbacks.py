"""Structural pullback functors against the exhaustive table oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finstack as fs
from finstack.category import chain_category
from finstack.errors import FinstackError
from finstack.jsonio import _pullback_from_json
from finstack.kan import identity_pullback, relabel_pullback
from kan_oracle import (
    all_morphisms,
    check_indexed_category,
    table_pullback,
    to_elements,
    to_positions,
    validate_table,
)

NAMES = ["n0", "n1", "n2"]
TARGET_NAMES = ["t0", "t1", "t2"]
# per-name edits of a relabel document; "none" is listed often so that most
# documents stay close to valid
EDITS = ["none"] * 6 + ["partial", "extra-key", "outside", "no-object",
                        "unknown-object", "no-carrier", "non-surjective"]


def fiber_sets(pool, names=NAMES, max_names=3, max_size=3):
    return st.lists(st.sampled_from(names), max_size=max_names, unique=True).flatmap(
        lambda chosen: st.fixed_dictionaries(
            {n: st.lists(st.sampled_from(pool), max_size=max_size, unique=True) for n in chosen}))


@st.composite
def carrier(draw, elems, pool):
    """A map elems -> pool: injective, collapsing to one element, or arbitrary."""
    shape = draw(st.sampled_from(["injective", "singleton", "any"]))
    if shape == "injective":
        values = draw(st.permutations(pool))[:len(elems)]
    elif shape == "singleton":
        values = [draw(st.sampled_from(pool))] * len(elems)
    else:
        values = [draw(st.sampled_from(pool)) for _ in elems]
    return dict(zip(elems, values))


@st.composite
def relabel_case(draw, source):
    """A relabel document on ``source`` and a target fiber built around it."""
    target, objects, carriers = {}, {}, {}
    for name, elems in source.items():
        image = draw(st.sampled_from(TARGET_NAMES))
        table = draw(carrier(elems, "pqrs"))
        target.setdefault(image, sorted(set(table.values())))
        edit = draw(st.sampled_from(EDITS))
        if edit == "partial" and table:
            table.pop(draw(st.sampled_from(sorted(table))))
        elif edit == "extra-key":
            table["zz"] = "p"
        elif edit == "outside" and table:
            table[draw(st.sampled_from(sorted(table)))] = "x"
        elif edit == "non-surjective":
            target[image] = sorted(set(target[image]) | {"s"})
        if edit != "no-object":
            objects[name] = "t9" if edit == "unknown-object" else image
        if edit != "no-carrier":
            carriers[name] = table
    target.update(draw(fiber_sets("pqrs", names=TARGET_NAMES, max_names=1)))
    return target, {"kind": "relabel", "objects": objects, "carriers": carriers}


@st.composite
def pullback_case(draw):
    """(source sets, target sets, pullback document) of any of the three kinds."""
    source = draw(fiber_sets("abcd"))
    kind = draw(st.sampled_from(["identity", "constant", "relabel", "relabel"]))
    if kind == "identity":
        target = dict(source) if draw(st.booleans()) else draw(fiber_sets("abcd"))
        return source, target, {"kind": "identity"}
    if kind == "constant":
        target = draw(fiber_sets("pqr", names=TARGET_NAMES))
        return source, target, {"kind": "constant",
                                "at": draw(st.sampled_from(sorted(target) + ["t9"]))}
    target, doc = draw(relabel_case(source))
    return source, target, doc


def oracle_accepts(doc, source, target) -> bool:
    try:
        validate_table(source, target, table_pullback(doc, source, target))
    except (KeyError, FinstackError):
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(pullback_case())
def test_structural_validation_matches_exhaustive_oracle(case):
    source_sets, target_sets, doc = case
    source, target = fs.make_fiber(source_sets), fs.make_fiber(target_sets)
    accepted = oracle_accepts(doc, source, target)
    try:
        pf = _pullback_from_json(doc, source, target)
        pf.validate(source, target)
    except FinstackError:
        assert not accepted
        return
    assert accepted
    table = table_pullback(doc, source, target)
    for m in all_morphisms(source):
        assert pf.on_obj(m.src) == table.on_obj(m.src)
        assert to_elements(target, pf.on_mor(to_positions(source, m))) == table.on_mor(m)


@st.composite
def chain_case(draw):
    """Pullback documents over the base 0 -> 1 -> 2 with one fiber everywhere.

    Identity pullbacks are mostly the identity kind; the composite (0, 2) is
    often a copy of one of its factors, so that strict composition holds
    often enough to be tested both ways.
    """
    sets = draw(fiber_sets("abc", max_names=2, max_size=2))
    names = sorted(sets)

    def doc():
        kind = draw(st.sampled_from(["identity", "constant", "relabel"]))
        if kind == "identity" or not names:
            return {"kind": "identity"}
        if kind == "constant":
            return {"kind": "constant", "at": draw(st.sampled_from(names))}
        objects = {n: draw(st.sampled_from(names)) for n in names}
        return {"kind": "relabel", "objects": objects,
                "carriers": {n: draw(carrier(sets[n], sets[objects[n]] or ["a"])) for n in names}}

    docs = {(i, i): doc() if draw(st.integers(0, 4)) == 0 else {"kind": "identity"}
            for i in range(3)}
    docs[(0, 1)] = doc()
    docs[(1, 2)] = doc()
    docs[(0, 2)] = draw(st.sampled_from([docs[(0, 1)], docs[(1, 2)], doc()]))
    return sets, docs


@settings(max_examples=300, deadline=None)
@given(chain_case())
def test_strict_laws_match_exhaustive_oracle(case):
    sets, docs = case
    base = chain_category(2)
    fiber = fs.make_fiber(sets)
    fibers = {b: fiber for b in base.objects}
    try:
        check_indexed_category(base, fibers, {m: table_pullback(docs[m], fiber, fiber)
                                              for m in base.morphisms})
        accepted = True
    except (KeyError, FinstackError):
        accepted = False
    try:
        fs.indexed_category(base, fibers, {m: _pullback_from_json(docs[m], fiber, fiber)
                                           for m in base.morphisms})
    except FinstackError:
        assert not accepted
        return
    assert accepted


@pytest.mark.parametrize("source_sets, target_sets, carriers, valid", [
    # a bijection onto each image set
    ({"n0": ["a", "b"]}, {"t0": ["p", "q"]}, {"n0": {"a": "q", "b": "p"}}, True),
    # many-to-one onto a one-element set, when every image set is that small
    ({"n0": ["a", "b"], "n1": []}, {"t0": ["p"], "t1": []},
     {"n0": {"a": "p", "b": "p"}, "n1": {}}, True),
    # the same collapse, next to a two-element image set
    ({"n0": ["a", "b"], "n1": ["c", "d"]}, {"t0": ["p"], "t1": ["q", "r"]},
     {"n0": {"a": "p", "b": "p"}, "n1": {"c": "q", "d": "r"}}, False),
    # not onto the image set
    ({"n0": ["a"]}, {"t0": ["p", "q"]}, {"n0": {"a": "p"}}, False),
    # keys outside the set are ignored
    ({"n0": [], "n1": ["a"]}, {"t0": [], "t1": ["p"]}, {"n0": {"zz": "p"}, "n1": {"a": "p", "b": "q"}},
     True),
])
def test_relabel_carriers(source_sets, target_sets, carriers, valid):
    source, target = fs.make_fiber(source_sets), fs.make_fiber(target_sets)
    objects = {n: "t" + n[1:] for n in source_sets}
    doc = {"kind": "relabel", "objects": objects, "carriers": carriers}
    assert oracle_accepts(doc, source, target) == valid
    if valid:
        relabel_pullback(source, target, objects, carriers).validate(source, target)
    else:
        with pytest.raises(FinstackError):
            relabel_pullback(source, target, objects, carriers).validate(source, target)


def test_identity_pullback_needs_equal_sets():
    source = fs.make_fiber({"n0": ["a", "b"]})
    identity_pullback(source).validate(source, fs.make_fiber({"n0": ["b", "a"], "n1": []}))
    # positions forget elements, so sets of one size must still differ
    for target in ({"n1": ["a", "b"]}, {"n0": ["a"]}, {"n0": ["a", "c"]}):
        with pytest.raises(FinstackError):
            identity_pullback(source).validate(source, fs.make_fiber(target))


def test_probe_morphisms_are_identities_and_constant_maps():
    fiber = fs.make_fiber({"e": [], "s": ["a", "b"]})
    probes = fiber.probe_morphisms()
    assert fiber.identity("e") in probes and fiber.identity("s") in probes
    assert fiber.mor("s", "s", {"a": "b", "b": "b"}) in probes
    assert fiber.mor("s", "s", {"a": "b", "b": "a"}) not in probes
    assert len(probes) == 2 + 2
