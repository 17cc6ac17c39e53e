"""The table laws decided on generators, against the exhaustive oracles.

``category.validated`` decides associativity on the triples whose middle is a
generator, ``category.functor`` decides composition on the generators of the
source, ``spans._check_pullback_square`` decides the universal property by
counting the arrows into the apex against the commuting pairs, and
``groupoid.fiber_product_2`` hoists its per-arrow lookups.  Each must give the
same verdict, exception and witness as the exhaustive code it replaced
(``category_oracle``, ``spans_oracle``); the category oracles run on dict-keyed
tables and never read a composition row.  ``compose`` and ``composites`` read,
off the rows, the values of the composition law that each table was built
from; the core asks that law for each composable pair exactly once, when the
rows are first read.
"""

from __future__ import annotations

import itertools
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import category_oracle
import finstack as fs
import spans_oracle
from finstack import category, jsonio
from finstack.category import FiniteCategory, validated
from finstack.errors import DanglingId, FinstackError
from finstack.spans import _check_pullback_square
from support import (cylinder_category, groupoid_zoo, pair2, point_inclusion, s3, self_action,
                     subset_poset, swap_action, z2, z3)
from test_core import BUILT, LEGS, ZOO, builder_outputs, translation_projection
from test_spans import load_bench_docs


@pytest.fixture(params=["default", "no-scan"])
def scan_below(request, monkeypatch):
    """Run a test as it is, and with no table small enough to be scanned
    whole, so that every verdict comes from the generators."""
    if request.param == "no-scan":
        monkeypatch.setattr(category, "SCAN_BELOW", 0)


def outcome(fn, *args):
    """The value ``fn`` returns, or the class and text of the error it raises."""
    try:
        return "ok", fn(*args)
    except FinstackError as exc:
        return type(exc).__name__, str(exc)


def tables(c) -> list:
    """The raw tables of a category or an oracle ``Table``."""
    return [c.objects, c.morphisms, dict(c.src), dict(c.tgt), category_oracle.comp_mapping(c),
            dict(c.ident)]


def same_verdict(raw) -> tuple:
    """Validate ``raw`` tables both ways; the two outcomes, a valid table's
    tables or the error, must agree."""
    got = outcome(validated, FiniteCategory, *raw)
    want = outcome(category_oracle.validated, *raw)
    if got[0] == "ok":
        assert want[0] == "ok" and tables(got[1]) == tables(want[1])
    else:
        assert got == want
    return got


def cylinders():
    docs = load_bench_docs()
    return [jsonio.category_from_json(docs.cylinder(k, 2)[0]) for k in (1, 2, 3, 5, 12)]


@pytest.mark.usefixtures("scan_below")
def test_valid_tables_pass_both_ways():
    cases = [c for _, c in BUILT] + [fs.symmetric_groupoid(5), cylinder_category()[0]]
    cases += [subset_poset(n)[0] for n in (2, 3, 4)] + cylinders()
    for c in cases:
        verdict, value = same_verdict(tables(c))
        assert verdict == "ok" and tables(value) == tables(c)


def corruption_cases():
    return [z3(), s3(), fs.pair_groupoid([1, 2, 3]), fs.chain_category(3), subset_poset(2)[0]]


@pytest.mark.usefixtures("scan_below")
def test_every_single_comp_corruption_gets_the_same_witness():
    """Each comp entry set to every other arrow, or dropped.  Some changes
    pass the unit laws, so the generator check must fail and the scan name
    the first failing triple."""
    axioms = set()
    for c in corruption_cases():
        raw = tables(c)
        comp = raw[4]
        for key, value in comp.items():
            for other in c.morphisms:
                if other != value:
                    verdict, text = same_verdict(raw[:4] + [{**comp, key: other}] + raw[5:])
                    assert verdict == "AxiomViolation"
                    axioms.add(text.split()[1])
            dropped = {k: v for k, v in comp.items() if k != key}
            assert same_verdict(raw[:4] + [dropped] + raw[5:])[0] == "DanglingId"
    assert axioms == {"associativity", "left-unit", "right-unit", "comp-endpoints"}


def small_functors():
    shift = fs.functor(fs.chain_category(1), fs.chain_category(2), {0: 1, 1: 2},
                       {(0, 0): (1, 1), (0, 1): (1, 2), (1, 1): (2, 2)})
    k = z3()
    double = fs.functor(k, k, {"*": "*"}, {a: 2 * a % 3 for a in k.morphisms})
    return [fs.identity_functor(s3()), double, translation_projection(z2()),
            translation_projection(z3()), point_inclusion(pair2(), 1), shift,
            fs.identity_functor(fs.chain_category(3)), fs.identity_functor(self_action())]


@pytest.mark.usefixtures("scan_below")
def test_every_single_mor_map_corruption_gets_the_same_witness():
    seen = set()
    for f in small_functors():
        assert outcome(fs.functor, f.source, f.target, f.obj_map, f.mor_map) == ("ok", f)
        oracle_tables = category_oracle.Table.of(f.source), category_oracle.Table.of(f.target)
        for m, image in f.mor_map.items():
            for other in f.target.morphisms:
                if other == image:
                    continue
                maps = (f.obj_map, {**f.mor_map, m: other})
                got = outcome(fs.functor, f.source, f.target, *maps)
                assert got == outcome(category_oracle.functor, *oracle_tables, *maps)
                seen.add(got[1].split(" fails")[0])
    assert "axiom functor-composition" in seen


def generator_spec_holds(c) -> bool:
    """Arrow b, taken in cost order, is a generator exactly when no composite
    of the generators kept before it is b, and the generators reach every
    non-identity arrow."""
    identities = set(c.ident.values())
    order = sorted((m for m in c.morphisms if m not in identities),
                   key=lambda b: len(c.morphisms_into(c.src[b])) * len(c.morphisms_from(c.tgt[b])))

    def closure(gens):
        reached = set(gens)
        while True:
            new = {c.compose(w, g) for w in reached for g in gens if c.tgt[w] == c.src[g]}
            if new <= reached:
                return reached
            reached |= new

    kept = []
    for b in order:
        if b not in closure(kept):
            kept.append(b)
    return tuple(kept) == c.generators and closure(kept) | identities == set(c.morphisms)


def preorder(n_and_pairs):
    """The thin category on range(n) of the reflexive-transitive closure of ``pairs``."""
    n, pairs = n_and_pairs
    le = {(x, x) for x in range(n)} | {(x, y) for x, y in pairs if x < n and y < n}
    for z, x, y in itertools.product(range(n), repeat=3):
        if (x, z) in le and (z, y) in le:
            le.add((x, y))
    return fs.poset_category(range(n), lambda x, y: (x, y) in le)


RELATIONS = st.tuples(st.integers(1, 5),
                      st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8))


def preorders():
    """Thin categories on up to five objects: the reflexive-transitive closure of a random relation."""
    return RELATIONS.map(preorder)


POOL = [c for _, c in BUILT] + [fs.cyclic_groupoid(m) for m in (4, 6, 12)] + [
    subset_poset(3)[0], cylinder_category()[0]]


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(POOL), preorders()))
def test_generators_reach_every_non_identity_arrow(c):
    assert generator_spec_holds(c)


def recorded_comp(build) -> tuple:
    """``build()``, and by ``id`` each table it constructs, the pairs (f, g)
    that the core asked that table's law for, in the order asked, each with
    the law's value.  The core asks only when the rows are first read, so a
    list grows until then."""
    asked = {}
    init = FiniteCategory.__init__

    def recording(self, objects, morphisms, src, tgt, law, ident):
        calls = asked[id(self)] = []

        def recorded(f, g):
            calls.append(((f, g), law(f, g)))
            return calls[-1][1]

        init(self, objects, morphisms, src, tgt, recorded, ident)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FiniteCategory, "__init__", recording)
        built = build()
    return built, asked


def assert_rows_hold(c, comp: dict) -> None:
    """``compose`` agrees with the oracle table of ``comp`` on every
    composable pair, and ``composites`` lists those pairs in id order."""
    table = category_oracle.Table(c.objects, c.morphisms, c.src, c.tgt, comp, c.ident)
    pairs = [(f, g) for f in c.morphisms for g in c.morphisms if c.tgt[f] == c.src[g]]
    assert len(pairs) == len(comp)
    assert [c.compose(f, g) for f, g in pairs] == [table.compose(f, g) for f, g in pairs]
    assert [fg[:2] for fg in c.composites()] == [
        (f, g) for f in c.morphisms for g in table.morphisms_from(c.tgt[f])]
    assert category_oracle.comp_mapping(c) == comp


def zoo() -> list:
    """Every builder's outputs, documents through the validator, and the
    preorders behind Milnor's E."""
    return [c for _, c in groupoid_zoo() + builder_outputs()] + cylinders() + [
        fs.symmetric_groupoid(4), fs.cyclic_groupoid(12), cylinder_category()[0], subset_poset(3)[0]] + [
        fs.milnor_E(g, 1).factor.category for g in (z3(), s3(), swap_action())]


def test_compose_reads_the_given_table_on_the_zoo():
    built, asked = recorded_comp(zoo)
    for c in built:
        c.rows  # the core asks the law on this first read
        if id(c) in asked:
            assert_rows_hold(c, dict(asked[id(c)]))
        else:  # the skeleton of a groupoid built before the recording is that groupoid
            assert any(c is g for _, g in ZOO)


def test_the_core_asks_the_law_each_composable_pair_once():
    """A counting law is asked each composable pair exactly once, in id order
    (f by position, g in id order among the arrows out of tgt f), and no other pair."""
    built, asked = recorded_comp(zoo)
    for c in built:
        c.rows
        if id(c) in asked:
            pairs = [fg for fg, _ in asked[id(c)]]
            assert pairs == [(f, g) for f in c.morphisms for g in c.morphisms if c.tgt[f] == c.src[g]]


LEG_PAIRS = st.sampled_from(LEGS).flatmap(lambda legs: st.tuples(*[st.sampled_from(legs)] * 2))
GROUPOIDS = st.sampled_from([g for _, g in ZOO])


def actions():
    """Z/(n k) acting on n points by translation mod n."""
    return st.tuples(st.integers(1, 4), st.integers(1, 3)).map(lambda nk: partial(
        fs.action_groupoid, range(nk[0]), fs.cyclic_groupoid(nk[0] * nk[1]),
        lambda x, g, n=nk[0]: (x + g) % n))


def full_subgroupoids():
    return GROUPOIDS.flatmap(lambda g: st.sets(st.sampled_from(g.objects)).map(
        lambda keep: partial(fs.full_subgroupoid, g, keep)))


def commas():
    """Comma categories (d down F) of the small functors and the fiber-product legs."""
    functors = small_functors() + [f for legs in LEGS for f in legs]
    return st.sampled_from(functors).flatmap(lambda f: st.sampled_from(f.target.objects).map(
        lambda d: partial(fs.comma_category, d, f)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(RELATIONS.map(lambda r: partial(preorder, r)),
                 LEG_PAIRS.map(lambda fh: partial(fs.fiber_product_2, *fh)),
                 actions(),
                 st.tuples(GROUPOIDS, GROUPOIDS).map(lambda gh: partial(fs.disjoint_union, *gh)),
                 full_subgroupoids(),
                 commas()))
def test_compose_reads_the_given_table_on_draws(build):
    """On preorders, iso-comma fiber products of functors into small groupoids,
    action groupoids, disjoint unions, full subgroupoids and comma categories."""
    c, asked = recorded_comp(build)
    c.rows
    assert_rows_hold(c, dict(asked[id(c)]))


@settings(max_examples=40, deadline=None)
@given(st.one_of(LEG_PAIRS.map(lambda fh: partial(fs.fiber_product_2, *fh)), commas()))
def test_a_derived_table_asks_its_law_on_the_first_read_of_its_rows(build):
    """An iso-comma fiber product or a comma category asks its law nothing
    while its ids, endpoints and hom-sets are read; the first read of its
    rows asks each composable pair once, in id order, and a second read
    asks nothing more."""
    c, asked = recorded_comp(build)
    calls = asked[id(c)]
    [c.hom(x, y) for x in c.objects for y in c.objects]
    [(c.morphisms_from(x), c.morphisms_into(x)) for x in c.objects]
    assert (c.position, c.slots, calls) == (dict(zip(c.morphisms, range(len(c.morphisms)))),
                                            [c.morphisms_from(c.src[m]).index(m) for m in c.morphisms],
                                            [])
    rows = c.rows
    pairs = [(f, g) for f in c.morphisms for g in c.morphisms if c.tgt[f] == c.src[g]]
    assert [fg for fg, _ in calls] == pairs
    assert c.rows is rows and len(calls) == len(pairs) and "_law" not in vars(c)


def test_validated_tables_have_their_rows_filled():
    """``validated`` reads the rows it checks, so an outside table is filled
    before the value is returned, with or without an inverse table."""
    cases = [c for _, c in BUILT] + [fs.symmetric_groupoid(4), cylinder_category()[0], subset_poset(3)[0]]
    for c in cases:
        assert "rows" in vars(validated(FiniteCategory, *tables(c)))
        if hasattr(c, "inv"):
            assert "rows" in vars(fs.validate_groupoid(*tables(c), c.inv))
    for c in cylinders() + [fs.poset_category(range(3), int.__le__)]:
        assert "rows" in vars(c)


def test_a_missing_pair_is_named_first_in_id_order():
    """Dropping comp entries gives ``DanglingId("comp (missing entry)", ...)``
    at the first missing pair, f by position and g by slot, as the oracle
    names it, whichever entries are dropped and in whatever order."""
    for c in corruption_cases():
        raw = tables(c)
        pairs = [(f, g) for f, g, _ in c.composites()]
        for dropped in (pairs[-1:], pairs[::3], pairs[::-2], pairs[len(pairs) // 2:]):
            comp = {fg: h for fg, h in reversed(raw[4].items()) if fg not in dropped}
            got = outcome(validated, FiniteCategory, *raw[:4], comp, raw[5])
            first = next(fg for fg in pairs if fg in dropped)
            assert got == ("DanglingId", str(DanglingId("comp (missing entry)", first)))
            assert got == outcome(category_oracle.validated, *raw[:4], comp, raw[5])


def late_factor_category():
    """r: x -> y is kept before b: y -> z, and r . b = rb comes after b in
    cost order, so choosing b must also reach rb through the earlier r.

    e is an idempotent at x and d1, d2 are left zeros at z with b . d = b.
    """
    arrows = {"1x": "xx", "1y": "yy", "1z": "zz", "e": "xx", "r": "xy", "b": "yz", "rb": "xz",
              "d1": "zz", "d2": "zz"}
    comp = {("e", "e"): "e", ("e", "r"): "r", ("e", "rb"): "rb", ("r", "b"): "rb"}
    comp.update({(f, d): f for f in ("b", "rb") for d in ("d1", "d2")})
    comp.update({(d, d2): d for d in ("d1", "d2") for d2 in ("d1", "d2")})
    for m, (x, y) in arrows.items():
        comp[("1" + x, m)] = comp[(m, "1" + y)] = m
    return fs.validate_category("xyz", arrows, {m: e[0] for m, e in arrows.items()},
                                {m: e[1] for m, e in arrows.items()}, comp,
                                {x: "1" + x for x in "xyz"})


def test_generators_reach_a_composite_through_an_earlier_generator():
    c = late_factor_category()
    assert c.generators == ("r", "b", "e", "d1", "d2")
    assert generator_spec_holds(c)


def test_generators_on_the_large_cases():
    assert len(fs.symmetric_groupoid(5).generators) == 4
    cylinder = cylinders()[-1]
    assert generator_spec_holds(cylinder)
    assert len(cylinder.generators) == 12 * 3 + 2


def pullback_cases():
    """Subset posets with their meets, cylinders with their identity cospans,
    and groupoids, where (f, g) has the pullback (src f, id, f . inv g)."""
    cases = [subset_poset(n) for n in (2, 3, 4)]
    for cat in cylinders() + [cylinder_category()[0]]:
        cases.append((cat, {(e, e): (x, e, e) for x, e in cat.ident.items()}))
    for g in (z3(), fs.pair_groupoid([1, 2, 3])):
        cases.append((g, {(f, h): (g.src[f], g.ident[g.src[f]], g.compose(f, g.inv[h]))
                          for f in g.morphisms for h in g.morphisms_into(g.tgt[f])}))
    return cases


def same_square_verdict(cat, f, g, apex, pf, pg) -> str:
    got = outcome(_check_pullback_square, cat, f, g, apex, pf, pg, {})
    assert got == outcome(spans_oracle.check_pullback_square, cat, f, g, apex, pf, pg)
    return got[0] if got[0] != "InvalidClass" else got[1].split(": ", 1)[1].split(" at ")[0]


def swapped_entries(cat, f, g, apex, pf, pg):
    """The entry with one projection, or the apex and both projections,
    swapped for other arrows with valid endpoints."""
    a, b = cat.src[f], cat.src[g]
    yield from ((apex, p, pg) for p in cat.hom(apex, a) if p != pf)
    yield from ((apex, pf, p) for p in cat.hom(apex, b) if p != pg)
    for other in cat.objects:
        if other != apex:
            yield from ((other, p1, p2) for p1 in cat.hom(other, a) for p2 in cat.hom(other, b))


def test_pullback_squares_match_the_oracle():
    for cat, oracle in pullback_cases():
        for (f, g), entry in oracle.items():
            assert same_square_verdict(cat, f, g, *entry) == "ok"


def test_swapped_pullback_entries_get_the_same_witness():
    seen = set()
    cases = pullback_cases()
    del cases[2]  # the 4-bit poset's 625 entries, each swapped 16 ways, would take long
    for cat, oracle in cases:
        for (f, g), entry in oracle.items():
            for swapped in swapped_entries(cat, f, g, *entry):
                seen.add(same_square_verdict(cat, f, g, *swapped))
    assert {"ok", "oracle square does not commute",
            "oracle output fails the universal property"} <= seen


def same_class_verdict(cat, f, g, apex, pf, pg) -> str:
    """The entry, as the one-entry oracle of the class of every arrow, gets the
    outcome of ``spans_oracle.check_pullback_square``: the same exception class,
    message and witness.  The count reads no hom-set, so a spy on ``hom`` sees
    the per-object scan, which must run exactly for the entries that fail the
    universal property."""
    scanned = []
    vars(cat)["hom"] = lambda x, y: scanned.append((x, y)) or FiniteCategory.hom(cat, x, y)
    try:
        got = outcome(fs.morphism_class, cat, cat.morphisms, {(f, g): (apex, pf, pg)})
    finally:
        del vars(cat)["hom"]
    want = outcome(spans_oracle.check_pullback_square, cat, f, g, apex, pf, pg)
    assert got[0] == want[0] and (want[0] == "ok" or got == want)
    fails = want[0] != "ok" and "universal property" in want[1]
    assert bool(scanned) == fails
    return want[0] if want[0] != "InvalidClass" else want[1].split(": ", 1)[1].split(" at ")[0]


def test_pullback_entries_through_the_class_match_the_oracle():
    """Every entry of every case, and each of its swapped entries."""
    seen = set()
    for cat, oracle in pullback_cases():
        for (f, g), entry in oracle.items():
            for square in (entry, *swapped_entries(cat, f, g, *entry)):
                seen.add(same_class_verdict(cat, f, g, *square))
    assert {"ok", "oracle square does not commute",
            "oracle output fails the universal property"} <= seen


@st.composite
def squares(draw):
    """A preorder, a groupoid or a category with idempotents, a cospan (f, g),
    and an apex with arrows to src f and src g as the projections."""
    cat = draw(st.one_of(preorders(), GROUPOIDS,
                         st.sampled_from([late_factor_category(), cylinder_category()[0]])))
    f = draw(st.sampled_from(cat.morphisms))
    g = draw(st.sampled_from(cat.morphisms_into(cat.tgt[f])))
    a, b = cat.src[f], cat.src[g]
    apexes = [x for x in cat.objects if cat.hom(x, a) and cat.hom(x, b)]
    assume(apexes)
    apex = draw(st.sampled_from(apexes))
    return cat, f, g, apex, draw(st.sampled_from(cat.hom(apex, a))), draw(st.sampled_from(cat.hom(apex, b)))


@settings(max_examples=150, deadline=None)
@given(squares())
def test_drawn_squares_match_the_oracle(square):
    assert same_class_verdict(*square) == same_square_verdict(*square)


def test_a_count_that_matches_with_colliding_images_fails():
    """On the identity cospan of x in ``late_factor_category``, the square of
    the idempotent e sends both arrows into x, 1x and e, to (e, e): as many
    arrows as commuting pairs, yet the pair (1x, 1x) has no mediator."""
    c = late_factor_category()
    assert same_class_verdict(c, "1x", "1x", "x", "e", "e") == "oracle output fails the universal property"


def test_swapped_entry_is_rejected_through_the_class():
    cat = cylinders()[2]
    one_x = cat.ident["X"]
    bad = {(one_x, one_x): ("V", "r", "r")}
    expected = outcome(spans_oracle.check_pullback_square, cat, one_x, one_x, "V", "r", "r")
    assert expected[0] == "InvalidClass"
    assert outcome(fs.morphism_class, cat, {"r"}, bad) == expected


def test_fiber_product_2_tables_match_the_oracle():
    for legs in LEGS:
        for f, h in itertools.product(legs, repeat=2):
            got, want = fs.fiber_product_2(f, h), spans_oracle.fiber_product_2(f, h)
            for name in ("objects", "morphisms", "src", "tgt", "rows", "ident", "inv"):
                assert getattr(got, name) == getattr(want, name)
