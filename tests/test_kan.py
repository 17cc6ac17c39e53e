from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import finstack as fs
from finstack.category import functor, chain_category, discrete_category, validate_category
from finstack.errors import (
    DanglingId,
    EnumerationBudgetExceeded,
    FinstackError,
    NoFinalObject,
    NotFComplete,
    NotFunctorial,
)
from finstack.kan import (
    FibMor,
    compatible_families,
    constant_pullback,
    counit,
    fiber_diagram,
    identity_pullback,
    lift_morphisms,
    precompose_lift,
    relabel_pullback,
)
import kan_oracle
from support import assert_search_matches_oracle, pair2, pt, recorded_searches, z2


def span_category():
    """u <- s -> v plus identities."""
    return validate_category(
        ["s", "u", "v"],
        ["is", "iu", "iv", "mu", "mv"],
        {"is": "s", "iu": "u", "iv": "v", "mu": "s", "mv": "s"},
        {"is": "s", "iu": "u", "iv": "v", "mu": "u", "mv": "v"},
        {("is", "is"): "is", ("iu", "iu"): "iu", ("iv", "iv"): "iv",
         ("is", "mu"): "mu", ("mu", "iu"): "mu", ("is", "mv"): "mv", ("mv", "iv"): "mv"},
        {"s": "is", "u": "iu", "v": "iv"},
    )


def point_base():
    return discrete_category(["*"])


def product_instance():
    """Discrete E into a span: the extension at the apex is a binary product."""
    d_cat = span_category()
    e_cat = discrete_category(["e1", "e2"])
    f = functor(e_cat, d_cat, {"e1": "u", "e2": "v"},
                    {("id", "e1"): "iu", ("id", "e2"): "iv"})
    base = point_base()
    ic = fs.trivial_indexed_category(base, {"s1": ["a"], "s2": ["x", "y"],
                                            "r2": ["p", "q"], "s4": [0, 1, 2, 3]})
    p = functor(d_cat, base, {d: "*" for d in d_cat.objects},
                    {m: ("id", "*") for m in d_cat.morphisms})
    q = f.then(p)
    fib = ic.fiber("*")
    p_lift = fs.lift(ic, e_cat, q, {"e1": "s2", "e2": "r2"},
                     {("id", "e1"): fib.identity("s2"), ("id", "e2"): fib.identity("r2")})
    return ic, f, p, p_lift


def span_lift(ic, p):
    """A lift over the span u <- s -> v of the product instance, with a
    constant map to u."""
    fib = ic.fiber("*")
    return fs.lift(ic, p.source, p, {"s": "s2", "u": "s1", "v": "r2"},
                   {"is": fib.identity("s2"), "iu": fib.identity("s1"),
                    "iv": fib.identity("r2"),
                    "mu": fib.mor("s2", "s1", {"x": "a", "y": "a"}),
                    "mv": fib.mor("s2", "r2", {"x": "p", "y": "q"})})


def parallel_pair(x="x", y="y", f="f", g="g"):
    """Two parallel morphisms f, g: x -> y plus identities."""
    ix, iy = ("id", x), ("id", y)
    return validate_category(
        [x, y], [ix, iy, f, g],
        {ix: x, iy: y, f: x, g: x}, {ix: x, iy: y, f: y, g: y},
        {(ix, ix): ix, (iy, iy): iy, (ix, f): f, (f, iy): f, (ix, g): g, (g, iy): g},
        {x: ix, y: iy},
    )


def equalizer_instance():
    """RF(s) is the equalizer of al, be: N -> K, which agree on N.0 and N.2;
    D is s -> d0 => d1 with both composites equal."""
    e_cat = parallel_pair("e0", "e1", "al", "be")
    ids = {x: ("id", x) for x in ("s", "d0", "d1")}
    src = {"x": "s", "y": "s", "dal": "d0", "dbe": "d0"}
    tgt = {"x": "d0", "y": "d1", "dal": "d1", "dbe": "d1"}
    comp = {("x", "dal"): "y", ("x", "dbe"): "y"}
    for m in src:
        comp.update({(ids[src[m]], m): m, (m, ids[tgt[m]]): m})
    comp.update({(i, i): i for i in ids.values()})
    d_cat = validate_category(list(ids), list(ids.values()) + list(src),
                              {**{i: x for x, i in ids.items()}, **src},
                              {**{i: x for x, i in ids.items()}, **tgt}, comp, ids)
    f = functor(e_cat, d_cat, {"e0": "d0", "e1": "d1"},
                {("id", "e0"): ids["d0"], ("id", "e1"): ids["d1"], "al": "dal", "be": "dbe"})
    base = point_base()
    ic = fs.trivial_indexed_category(base, {"N": ["N.0", "N.1", "N.2"], "K": ["K.0", "K.1"]})
    p = functor(d_cat, base, {d: "*" for d in d_cat.objects},
                {m: ("id", "*") for m in d_cat.morphisms})
    fib = ic.fiber("*")
    p_lift = fs.lift(ic, e_cat, f.then(p), {"e0": "N", "e1": "K"},
                     {("id", "e0"): fib.identity("N"), ("id", "e1"): fib.identity("K"),
                      "al": fib.mor("N", "K", {"N.0": "K.0", "N.1": "K.1", "N.2": "K.0"}),
                      "be": fib.mor("N", "K", {"N.0": "K.0", "N.1": "K.0", "N.2": "K.0"})})
    return ic, f, p, p_lift


def test_comma_discrete_e_is_discrete():
    d_cat = span_category()
    e_cat = discrete_category(["e1", "e2"])
    f = functor(e_cat, d_cat, {"e1": "u", "e2": "v"},
                    {("id", "e1"): "iu", ("id", "e2"): "iv"})
    comma = fs.comma_category("s", f)
    assert len(comma.objects) == 2
    assert all(comma.is_identity(m) for m in comma.morphisms)


def test_comma_chain_example():
    d_cat = chain_category(1)
    e_cat = discrete_category(["e"])
    f = functor(e_cat, d_cat, {"e": 1}, {("id", "e"): (1, 1)})
    comma = fs.comma_category(0, f)
    assert comma.objects == (("e", (0, 1)),)


def test_comma_empty_e():
    d_cat = chain_category(1)
    e_cat = discrete_category([])
    f = functor(e_cat, d_cat, {}, {})
    assert fs.comma_category(0, f).objects == ()


def test_finset_limit_product():
    fib = fs.make_fiber({"a2": ["x", "y"], "b1": ["z"]})
    shape = discrete_category(["g1", "g2"])
    diag = fiber_diagram(fib, shape, {"g1": "a2", "g2": "b1"},
                         {("id", "g1"): fib.identity("a2"), ("id", "g2"): fib.identity("b1")})
    cone = fs.finset_limit(fib, diag)
    assert len(cone.cones) == 2


def test_finset_limit_equalizer():
    fib = fs.make_fiber({"three": [1, 2, 3], "two": ["a", "b"]})
    shape = parallel_pair()
    maps_equal_at = {1: "a", 2: "b", 3: "a"}
    other = {1: "a", 2: "b", 3: "b"}
    diag = fiber_diagram(fib, shape, {"x": "three", "y": "two"},
                         {("id", "x"): fib.identity("three"), ("id", "y"): fib.identity("two"),
                          "f": fib.mor("three", "two", maps_equal_at),
                          "g": fib.mor("three", "two", other)})
    cone = fs.finset_limit(fib, diag)
    # cones = elements where the two maps agree, paired with the common value
    assert len(cone.cones) == 2


def test_finset_limit_empty_diagram_and_no_cones():
    fib = fs.make_fiber({"two": ["a", "b"]})
    shape = discrete_category([])
    diag = fiber_diagram(fib, shape, {}, {})
    assert len(fs.finset_limit(fib, diag).cones) == 1


def test_global_limit_identity_pulls():
    base = chain_category(1)
    fib = fs.make_fiber({"one": ["*"], "two": ["p", "q"], "four": [0, 1, 2, 3]})
    ident = identity_pullback(fib)
    ic = fs.indexed_category(base, {0: fib, 1: fib},
                             {(0, 0): ident, (1, 1): ident, (0, 1): ident})
    shape = discrete_category(["g1", "g2"])
    diag = fiber_diagram(fib, shape, {"g1": "two", "g2": "two"},
                         {("id", "g1"): fib.identity("two"), ("id", "g2"): fib.identity("two")})
    assert fs.is_global_limit(ic, 1, diag, "four")


def test_global_limit_fails_under_constant_pullback():
    base = chain_category(1)
    fib = fs.make_fiber({"one": ["*"], "two": ["p", "q"], "four": [0, 1, 2, 3]})
    ident = identity_pullback(fib)
    const2 = constant_pullback(fib, fib, "two")
    ic = fs.indexed_category(base, {0: fib, 1: fib},
                             {(0, 0): ident, (1, 1): ident, (0, 1): const2})
    shape = discrete_category(["g1", "g2"])
    diag = fiber_diagram(fib, shape, {"g1": "two", "g2": "two"},
                         {("id", "g1"): fib.identity("two"), ("id", "g2"): fib.identity("two")})
    # the product of two copies goes to the diagonal two -> two x two
    assert not fs.is_global_limit(ic, 1, diag, "four")
    # the terminal object check: empty diagram pulled through the constant functor
    empty = fiber_diagram(fib, discrete_category([]), {}, {})
    assert not fs.is_global_limit(ic, 1, empty, "one")


def test_right_kan_product_at_span_apex():
    ic, f, p, p_lift = product_instance()
    rf = fs.right_kan(ic, f, p, p_lift)
    assert rf.lift.objects["s"] == "s4"
    assert len(rf.cones["s"].cones) == 4
    # brute-force cone enumeration agrees with the product exactly
    fib = ic.fiber("*")
    expected = sorted(itertools.product(fib.elems("s2"), fib.elems("r2")))
    got = sorted(rf.cones["s"].cones)
    assert [tuple(c) for c in got] == [tuple(c) for c in expected]


def test_right_kan_counit_triangle():
    ic, f, p, p_lift = product_instance()
    rf = fs.right_kan(ic, f, p, p_lift)
    eps = counit(rf)
    for e in f.source.objects:
        assert eps[e].src == rf.lift.objects[f.obj_map[e]]
        assert eps[e].tgt == p_lift.objects[e]


def test_right_kan_adjunction_bijection():
    ic, f, p, p_lift = product_instance()
    rf = fs.right_kan(ic, f, p, p_lift)
    rep = fs.adjunction_check(ic, f, p, p_lift, rf.lift, rf)
    assert rep.bijective
    assert rep.left_size == rep.right_size == 16

    q_lift = span_lift(ic, p)
    rep2 = fs.adjunction_check(ic, f, p, p_lift, q_lift, rf)
    assert rep2.bijective


def along_identity_instance():
    ic, f, p, _ = product_instance()
    return ic, fs.identity_functor(f.target), p, span_lift(ic, p)


def test_right_kan_along_identity_is_isomorphic_to_input():
    ic, ident, p, q_lift = along_identity_instance()
    d_cat = ident.target
    fib = ic.fiber("*")
    rf = fs.right_kan(ic, ident, p, q_lift)
    for d in d_cat.objects:
        assert len(fib.elems(rf.lift.objects[d])) == len(fib.elems(q_lift.objects[d]))
    rep = fs.adjunction_check(ic, ident, p, q_lift, q_lift, rf)
    assert rep.bijective


def test_right_kan_equalizer():
    ic, f, p, p_lift = equalizer_instance()
    rf = fs.right_kan(ic, f, p, p_lift)
    assert rf.lift.objects == {"s": "K", "d0": "N", "d1": "K"}
    assert rf.cones["s"].cones == (("N.0", "K.0"), ("N.2", "K.0"))
    assert fs.adjunction_check(ic, f, p, p_lift, rf.lift, rf).bijective


def relabel_chain(sets, shift=0):
    """The chain 0 -> 1 as base and shape, with the identity anchor: fiber 1
    is ``sets``, fiber 0 a copy with m-prefixed names and elements ("m", x),
    and the pullback relabels each set's j-th element as the copy of its
    (j + shift)-th, cyclically."""
    base = chain_category(1)
    fib1 = fs.make_fiber(sets)
    fib0 = fs.make_fiber({f"m{n}": [("m", x) for x in xs] for n, xs in sets.items()})
    carriers = {n: {x: ("m", xs[(j + shift) % len(xs)]) for j, x in enumerate(xs)}
                for n, xs in sets.items()}
    pull01 = relabel_pullback(fib1, fib0, {n: f"m{n}" for n in sets}, carriers)
    ic = fs.indexed_category(base, {0: fib0, 1: fib1},
                             {(0, 0): identity_pullback(fib0),
                              (1, 1): identity_pullback(fib1),
                              (0, 1): pull01})
    return ic, functor(base, base, {0: 0, 1: 1}, {m: m for m in base.morphisms})


def constant_chain(sets, at):
    """The chain 0 -> 1 as base and shape, with the identity anchor: both
    fibers are ``sets``, and the pullback along 0 -> 1 is constant at ``at``."""
    base = chain_category(1)
    fib = fs.make_fiber(sets)
    ident = identity_pullback(fib)
    ic = fs.indexed_category(base, {0: fib, 1: fib},
                             {(0, 0): ident, (1, 1): ident,
                              (0, 1): constant_pullback(fib, fib, at)})
    return ic, functor(base, base, {0: 0, 1: 1}, {m: m for m in base.morphisms})


def relabel_instance():
    """E = {e} over 1 in the chain 0 -> 1, whose pullback relabels each set."""
    ic, p_to_base = relabel_chain({"n1": ["z"], "n2": ["u", "v"]})
    e_cat = discrete_category(["e"])
    f = functor(e_cat, p_to_base.source, {"e": 1}, {("id", "e"): (1, 1)})
    p_lift = fs.lift(ic, e_cat, f.then(p_to_base), {"e": "n2"},
                     {("id", "e"): ic.fiber(1).identity("n2")})
    return ic, f, p_to_base, p_lift


def test_right_kan_with_relabel_pullback():
    ic, f, p_to_base, p_lift = relabel_instance()
    rf = fs.right_kan(ic, f, p_to_base, p_lift)
    assert rf.lift.objects[1] == "n2"
    assert rf.lift.objects[0] == "mn2"
    rep = fs.adjunction_check(ic, f, p_to_base, p_lift, rf.lift, rf)
    assert rep.bijective


def test_right_kan_not_complete_raises():
    base = chain_category(1)
    fib = fs.make_fiber({"one": ["*"], "two": ["p", "q"], "four": [0, 1, 2, 3]})
    ident = identity_pullback(fib)
    const2 = constant_pullback(fib, fib, "two")
    ic = fs.indexed_category(base, {0: fib, 1: fib},
                             {(0, 0): ident, (1, 1): ident, (0, 1): const2})
    d_cat = chain_category(1)
    e_cat = discrete_category(["e1", "e2"])
    f = functor(e_cat, d_cat, {"e1": 1, "e2": 1},
                    {("id", "e1"): (1, 1), ("id", "e2"): (1, 1)})
    p_to_base = functor(d_cat, base, {0: 0, 1: 1}, {m: m for m in d_cat.morphisms})
    q = f.then(p_to_base)
    p_lift = fs.lift(ic, e_cat, q, {"e1": "two", "e2": "two"},
                     {("id", "e1"): fib.identity("two"), ("id", "e2"): fib.identity("two")})
    with pytest.raises(NotFComplete):
        fs.right_kan(ic, f, p_to_base, p_lift)


def test_corrupted_extension_breaks_bijection():
    ic, f, p, p_lift = product_instance()
    rf = fs.right_kan(ic, f, p, p_lift)
    fib = ic.fiber("*")
    # collapse the extension at the apex to a singleton: a valid lift, but not
    # the right Kan extension, so transport can no longer be bijective
    collapsed = fs.lift(
        ic, f.target, p,
        {"s": "s1", "u": rf.lift.objects["u"], "v": rf.lift.objects["v"]},
        {"is": fib.identity("s1"),
         "iu": fib.identity(rf.lift.objects["u"]),
         "iv": fib.identity(rf.lift.objects["v"]),
         "mu": fib.mor("s1", rf.lift.objects["u"],
                          {"a": fib.elems(rf.lift.objects["u"])[0]}),
         "mv": fib.mor("s1", rf.lift.objects["v"],
                          {"a": fib.elems(rf.lift.objects["v"])[0]})},
    )
    corrupted = fs.RightKanResult(lift=collapsed, along=rf.along,
                                  diagrams=rf.diagrams, cones=rf.cones,
                                  projections={
                                      "s": {obj: fib.mor("s1", rf.diagrams["s"].on_obj[obj],
                                                            {"a": fib.elems(rf.diagrams["s"].on_obj[obj])[0]})
                                            for obj in rf.cones["s"].shape_objects},
                                      "u": rf.projections["u"],
                                      "v": rf.projections["v"],
                                  })
    rep = fs.adjunction_check(ic, f, p, p_lift, rf.lift, corrupted)
    assert not rep.bijective


def test_lift_morphism_enumeration_counts():
    ic, f, p, p_lift = product_instance()
    morphisms = lift_morphisms(p_lift, p_lift)
    # E discrete with fibers of sizes 2 and 2: 2^2 * 2^2 maps, no naturality cut
    assert len(morphisms) == 16


def assert_lift_morphisms_match_oracle(l1, l2):
    """The same families in the same order, compared as element-level functions."""
    fibers = {d: l1.ic.fiber(l1.anchor.obj_map[d]) for d in l1.shape.objects}
    got = tuple({d: kan_oracle.to_elements(fibers[d], nu[d]) for d in nu}
                for nu in lift_morphisms(l1, l2))
    assert got == kan_oracle.lift_morphisms(l1, l2)


@st.composite
def random_lift(draw, ic, shape, anchor):
    """A lift with random objects and random maps on the non-identity morphisms."""
    objects = {d: draw(st.sampled_from(ic.fiber(anchor.obj_map[d]).names())) for d in shape.objects}
    morphisms = {}
    for m in shape.morphisms:
        a, b = shape.src[m], shape.tgt[m]
        fiber = ic.fiber(anchor.obj_map[a])
        if shape.is_identity(m):
            morphisms[m] = fiber.identity(objects[a])
            continue
        tgt = ic.pull(anchor.mor_map[m]).on_obj(objects[b])
        values = fiber.elems(tgt)
        assume(values or not fiber.elems(objects[a]))
        morphisms[m] = fiber.mor(objects[a], tgt, {x: draw(st.sampled_from(values))
                                                   for x in fiber.elems(objects[a])})
    return fs.lift(ic, shape, anchor, objects, morphisms)


@st.composite
def lift_pair(draw):
    """Two random lifts of one anchor, on sets of at most 3 elements: over the
    span of the product instance, the parallel pair of the equalizer
    instance, the chain of the relabel instance (with its relabelling
    rotated), or a chain whose pullback is constant."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    sets = {f"n{i}": [f"x{j}" for j in range(k)] for i, k in enumerate(sizes)}
    kind = draw(st.sampled_from(["span", "pair", "relabel", "constant"]))
    if kind == "relabel":
        ic, anchor = relabel_chain(sets, draw(st.integers(0, 2)))
    elif kind == "constant":
        ic, anchor = constant_chain(sets, draw(st.sampled_from(sorted(sets))))
    else:
        base = point_base()
        ic = fs.trivial_indexed_category(base, sets)
        shape = span_category() if kind == "span" else parallel_pair()
        anchor = functor(shape, base, {d: "*" for d in shape.objects},
                         {m: ("id", "*") for m in shape.morphisms})
    l1, l2 = (draw(random_lift(ic, anchor.source, anchor)) for _ in range(2))
    # the oracle composes element tables for every family; keep the families few
    fibers = {d: ic.fiber(anchor.obj_map[d]) for d in anchor.source.objects}
    assume(math.prod(len(fibers[d].elems(l2.objects[d])) ** len(fibers[d].elems(l1.objects[d]))
                     for d in fibers) <= 1000)
    return l1, l2


@settings(max_examples=200, deadline=None)
@given(lift_pair())
def test_lift_morphisms_match_oracle_on_random_lifts(lifts):
    assert_lift_morphisms_match_oracle(*lifts)


@pytest.mark.parametrize("src, tgt, table", [
    ("two", "one", {"p": "*"}),                         # partial
    ("two", "one", {"p": "*", "q": "*", "r": "*"}),     # extra key
    ("two", "one", {"p": "*", "q": "?"}),               # outside the target set
    ("two", "one", {"p": "*", "q": ["*"]}),             # unhashable image
    ("six", "one", {}),                                 # unknown set
], ids=["partial", "extra-key", "outside", "unhashable", "unknown-set"])
def test_fiber_mor_rejects_what_is_not_a_function(src, tgt, table):
    fib = fs.make_fiber({"one": ["*"], "two": ["p", "q"]})
    with pytest.raises(FinstackError):
        fib.mor(src, tgt, table)


def test_fiber_mor_is_positional():
    fib = fs.make_fiber({"one": ["*"], "two": ["q", "p"]})
    assert fib.mor("two", "two", {"p": "q", "q": "p"}).images == (1, 0)
    assert fib.mor("one", "two", {"*": "q"}).images == (1,)
    assert kan_oracle.positional_morphisms(fib, "two", "one") == \
        (fib.mor("two", "one", {"p": "*", "q": "*"}),)
    assert kan_oracle.positional_morphisms(fib, "one", "two")[0] == \
        fib.mor("one", "two", {"*": "p"})


def test_lift_morphisms_match_exhaustive_oracle():
    ic, f, p, p_lift = product_instance()
    rf = fs.right_kan(ic, f, p, p_lift)
    q_lift = span_lift(ic, p)
    ric, rf_, rp, rp_lift = relabel_instance()
    r_ext = fs.right_kan(ric, rf_, rp, rp_lift).lift
    pairs = [(p_lift, p_lift), (q_lift, rf.lift), (rf.lift, q_lift), (q_lift, q_lift),
             (r_ext, r_ext)]
    for l1, l2 in pairs:
        assert_lift_morphisms_match_oracle(l1, l2)
    # by the adjunction, as many as from F*(Q) = (s1, r2) to P = (s2, r2): 2 * 4
    assert len(lift_morphisms(q_lift, rf.lift)) == 8


def test_diagram_special_fiber_of_atlas():
    shape = chain_category(1)
    g = z2()
    point = pt()
    incl = fs.functor(point, g, {"pt": "*"}, {("pt", "pt"): 0})
    diagram = fs.groupoid_diagram(
        shape, {0: point, 1: g},
        {(0, 0): fs.identity_functor(point), (1, 1): fs.identity_functor(g), (0, 1): incl})
    atlas = fs.action_groupoid([0, 1], g, lambda x, k: (x + k) % 2)
    cover = fs.functor(atlas, g, {0: "*", 1: "*"}, {a: a[1] for a in atlas.morphisms})
    sd = fs.diagram_special(diagram, cover)
    fiber = sd.pulled.nodes[0]
    assert len(fs.pi0(fiber)) == 2
    assert all(len(fs.vertex_group(fiber, x).morphisms) == 1 for x in fiber.objects)
    # transformation naturality on objects and arrows
    for m in shape.morphisms:
        a, b = shape.src[m], shape.tgt[m]
        for o in sd.pulled.nodes[a].objects:
            assert sd.to_base[b].obj_map[sd.pulled.arrows[m].obj_map[o]] == \
                diagram.arrows[m].obj_map[sd.to_base[a].obj_map[o]]
        for arr in sd.pulled.nodes[a].morphisms:
            assert sd.to_base[b].mor_map[sd.pulled.arrows[m].mor_map[arr]] == \
                diagram.arrows[m].mor_map[sd.to_base[a].mor_map[arr]]


def test_diagram_special_point_cover_discrete_fiber():
    shape = chain_category(1)
    g = z2()
    point = pt()
    incl = fs.functor(point, g, {"pt": "*"}, {("pt", "pt"): 0})
    diagram = fs.groupoid_diagram(
        shape, {0: point, 1: g},
        {(0, 0): fs.identity_functor(point), (1, 1): fs.identity_functor(g), (0, 1): incl})
    sd = fs.diagram_special(diagram, incl)
    fiber = sd.pulled.nodes[0]
    assert len(fiber.objects) == 2
    assert all(fiber.is_identity(a) for a in fiber.morphisms)


def test_diagram_special_weak_equivalence_cover_pulls_back():
    shape = chain_category(1)
    g = pair2()
    point = pt()
    incl = fs.functor(point, g, {"pt": 1}, {("pt", "pt"): (1, 1)})
    diagram = fs.groupoid_diagram(
        shape, {0: point, 1: g},
        {(0, 0): fs.identity_functor(point), (1, 1): fs.identity_functor(g), (0, 1): incl})
    sd = fs.diagram_special(diagram, incl)
    # the cover pt -> pair groupoid is a weak equivalence; so are both pulled legs
    assert fs.is_weak_equivalence(incl)
    for d in shape.objects:
        assert fs.is_weak_equivalence(sd.to_base[d])


def test_diagram_special_injective_on_objects_label_stable():
    shape = chain_category(1)
    g = z2()
    point = pt()
    incl = fs.functor(point, g, {"pt": "*"}, {("pt", "pt"): 0})
    diagram = fs.groupoid_diagram(
        shape, {0: point, 1: g},
        {(0, 0): fs.identity_functor(point), (1, 1): fs.identity_functor(g), (0, 1): incl})

    def injective_on_objects(fun):
        values = [fun.obj_map[x] for x in fun.source.objects]
        return len(set(values)) == len(values)

    atlas = fs.action_groupoid([0, 1], g, lambda x, k: (x + k) % 2)
    cover = fs.functor(atlas, g, {0: "*", 1: "*"}, {a: a[1] for a in atlas.morphisms})
    sd = fs.diagram_special(diagram, cover)
    for m in shape.morphisms:
        if injective_on_objects(diagram.arrows[m]):
            assert injective_on_objects(sd.pulled.arrows[m])


def test_diagram_special_requires_final_object():
    shape = discrete_category([0, 1])
    g = z2()
    diagram = fs.groupoid_diagram(
        shape, {0: g, 1: g},
        {("id", 0): fs.identity_functor(g), ("id", 1): fs.identity_functor(g)})
    with pytest.raises(NoFinalObject):
        fs.diagram_special(diagram, fs.identity_functor(g))


def test_groupoid_diagram_rejects_non_functorial():
    shape = chain_category(1)
    g = fs.cyclic_groupoid(3)
    inversion = fs.functor(g, g, {"*": "*"}, {0: 0, 1: 2, 2: 1})
    with pytest.raises(NotFunctorial):
        # the shape identity must be assigned the identity functor
        fs.groupoid_diagram(shape, {0: g, 1: g},
                            {(0, 0): inversion, (1, 1): fs.identity_functor(g),
                             (0, 1): fs.identity_functor(g)})


def base_change_instance():
    """The product instance over the chain 0 -> 1, pulled back along the
    functor to the point."""
    ic, f, _, p_lift = product_instance()
    old_base = ic.base
    new_base = chain_category(1)
    to_old = functor(new_base, old_base, {0: "*", 1: "*"},
                         {m: ("id", "*") for m in new_base.morphisms})
    pulled_ic = fs.indexed_category(
        new_base,
        {b: ic.fibers[to_old.obj_map[b]] for b in new_base.objects},
        {m: ic.pulls[to_old.mor_map[m]] for m in new_base.morphisms},
    )
    d_cat = f.target
    p_prime = functor(d_cat, new_base, {d: 1 for d in d_cat.objects},
                          {m: (1, 1) for m in d_cat.morphisms})
    q_prime = f.then(p_prime)
    lift_prime = fs.lift(pulled_ic, f.source, q_prime, dict(p_lift.objects),
                         dict(p_lift.morphisms))
    return pulled_ic, f, p_prime, lift_prime


def test_completeness_survives_base_change():
    """Pulling the indexed category back along a base functor preserves the
    extension: the same comma limits are computed in the relabeled fibers."""
    ic, f, p, p_lift = product_instance()
    pulled_ic, _, p_prime, lift_prime = base_change_instance()
    rf_original = fs.right_kan(ic, f, p, p_lift)
    rf_pulled = fs.right_kan(pulled_ic, f, p_prime, lift_prime)
    assert rf_pulled.lift.objects == rf_original.lift.objects
    assert rf_pulled.lift.morphisms == rf_original.lift.morphisms
    rep = fs.adjunction_check(pulled_ic, f, p_prime, lift_prime, rf_pulled.lift, rf_pulled)
    assert rep.bijective


KAN_INSTANCES = {
    "product": product_instance,
    "along-identity": along_identity_instance,
    "relabel": relabel_instance,
    "equalizer": equalizer_instance,
    "base-change": base_change_instance,
}


@pytest.mark.parametrize("build", KAN_INSTANCES.values(), ids=KAN_INSTANCES.keys())
def test_right_kan_factorizations_match_element_scan(build):
    """RF's morphisms, found by looking up pulled cones, equal those of the
    element scan.  The instances of test_acceptance are the product,
    along-identity and relabel instances."""
    ic, f, p, p_lift = build()
    rf = fs.right_kan(ic, f, p, p_lift)
    d_cat = f.target
    got = {m: kan_oracle.to_elements(ic.fiber(p.obj_map[d_cat.src[m]]), rf.lift.morphisms[m])
           for m in d_cat.morphisms}
    assert got == kan_oracle.factorizations(ic, p, rf)


def test_finset_limit_no_cones():
    fib = fs.make_fiber({"three": [1, 2, 3], "two": ["a", "b"]})
    shape = parallel_pair()
    diag = fiber_diagram(fib, shape, {"x": "three", "y": "two"},
                         {("id", "x"): fib.identity("three"), ("id", "y"): fib.identity("two"),
                          "f": fib.mor("three", "two", {1: "a", 2: "a", 3: "a"}),
                          "g": fib.mor("three", "two", {1: "b", 2: "b", 3: "b"})})
    assert fs.finset_limit(fib, diag).cones == ()


def test_fiber_diagram_rejects_an_unhashable_object_name():
    """An unhashable name is undeclared, like any other dangling name."""
    fib = fs.make_fiber({"two": ["a", "b"]})
    with pytest.raises(DanglingId, match=r"undeclared id \['two'\]"):
        fiber_diagram(fib, discrete_category(["g"]), {"g": ["two"]}, {})


@st.composite
def constraint_network(draw):
    """At most four variables of at most three values, with up to five unary
    or binary constraints over tables valued in {0, 1, 2}."""
    sizes = draw(st.lists(st.integers(0, 3), max_size=4))
    constraints = []
    for _ in range(draw(st.integers(0, 5)) if sizes else 0):
        i = draw(st.integers(0, len(sizes) - 1))
        j = draw(st.none() | st.integers(0, len(sizes) - 1))
        table = lambda k: draw(st.lists(st.integers(0, 2), min_size=sizes[k], max_size=sizes[k]))  # noqa: E731
        constraints.append((i, table(i), j, draw(st.integers(0, 2)) if j is None else table(j)))
    return sizes, constraints


@settings(max_examples=300, deadline=None)
@given(constraint_network())
def test_compatible_families_match_filtered_product(network):
    sizes, constraints = network
    expected = [v for v in itertools.product(*(range(k) for k in sizes))
                if all(left[v[i]] == (right if j is None else right[v[j]])
                       for i, left, j, right in constraints)]
    assert compatible_families(sizes, constraints) == expected


@pytest.mark.parametrize("budget, decided", [(38, True), (37, False)])
def test_compatible_families_budget_counts_assignments_and_copies(monkeypatch, budget, decided):
    # three free variables of two values: 2 + 4 + 8 assignments, and 8
    # families of 3 values copied out
    monkeypatch.setattr(fs.kan, "SEARCH_BUDGET", budget)
    if decided:
        assert len(compatible_families([2, 2, 2], [])) == 8
    else:
        with pytest.raises(EnumerationBudgetExceeded):
            compatible_families([2, 2, 2], [])


@st.composite
def wide_constraint_network(draw):
    """Up to nine variables of at most three values, with unary, self and
    binary constraints over tables valued in {0, 1, 2}; about half of the
    constraints after the first repeat an earlier one's variables."""
    sizes = draw(st.lists(st.integers(0, 3), max_size=9))
    constraints = []
    for _ in range(draw(st.integers(0, 12)) if sizes else 0):
        if constraints and draw(st.booleans()):
            i, _, j, _ = draw(st.sampled_from(constraints))
        else:
            i = draw(st.integers(0, len(sizes) - 1))
            j = draw(st.none() | st.integers(0, len(sizes) - 1))
        table = lambda k: draw(st.lists(st.integers(0, 2), min_size=sizes[k], max_size=sizes[k]))  # noqa: E731
        constraints.append((i, table(i), j, draw(st.integers(0, 2)) if j is None else table(j)))
    return sizes, constraints


@settings(max_examples=200, deadline=None)
@given(wide_constraint_network())
def test_compatible_families_search_order_matches_score_oracle(network):
    """One order rule places the variables as the score/fresh bookkeeping
    did, so the families and the budgets at which the search raises agree."""
    assert_search_matches_oracle(*network)


@pytest.mark.parametrize("build", KAN_INSTANCES.values(), ids=KAN_INSTANCES.keys())
def test_kan_searches_match_score_oracle(monkeypatch, build):
    """Every cone and hom-set search of right_kan and adjunction_check places
    its variables, finds its families and exhausts its budget as the
    score/fresh oracle does."""
    ic, f, p, p_lift = build()

    def run():
        rf = fs.right_kan(ic, f, p, p_lift)
        fs.adjunction_check(ic, f, p, p_lift, rf.lift, rf)

    _, calls = recorded_searches(monkeypatch, run)
    assert len(calls) == len(f.target.objects) + 2
    for sizes, constraints in calls:
        assert_search_matches_oracle(sizes, constraints)


@pytest.mark.parametrize("build", KAN_INSTANCES.values(), ids=KAN_INSTANCES.keys())
def test_right_kan_diagram_shapes_are_the_commas(build):
    """The comma category at d is held once, as the shape of its diagram."""
    ic, f, p, p_lift = build()
    rf = fs.right_kan(ic, f, p, p_lift)
    assert list(rf.diagrams) == list(f.target.objects)
    for d, diagram in rf.diagrams.items():
        assert diagram.shape == fs.comma_category(d, f)
    assert "commas" not in fs.RightKanResult._fields


def idempotent_category():
    """One object x with the identity and an idempotent e."""
    return validate_category(
        ["x"], [("id", "x"), "e"], {("id", "x"): "x", "e": "x"}, {("id", "x"): "x", "e": "x"},
        {(("id", "x"), ("id", "x")): ("id", "x"), (("id", "x"), "e"): "e",
         ("e", ("id", "x")): "e", ("e", "e"): "e"},
        {"x": ("id", "x")},
    )


# ids whose reprs are prefixes of each other's, and ids of mixed types
ELEMENTS = ("x0", "x1", "x2", 1, 10, -1, "1", "10", "a'", 'a"b', (1, 2), (1, 20))


@st.composite
def random_diagram(draw):
    """A diagram in a fiber of sets of at most 3 elements out of ELEMENTS,
    over the empty, discrete, parallel-pair, span or idempotent shape."""
    sets = draw(st.lists(st.lists(st.sampled_from(ELEMENTS), unique=True, max_size=3),
                         min_size=1, max_size=3))
    fib = fs.make_fiber({f"n{i}": xs for i, xs in enumerate(sets)})
    shape = draw(st.sampled_from([discrete_category([]), discrete_category(["g1", "g2"]),
                                  parallel_pair(), span_category(), idempotent_category()]))
    on_obj = {x: draw(st.sampled_from(fib.names())) for x in shape.objects}
    on_mor = {}
    for m in shape.morphisms:
        a, b = on_obj[shape.src[m]], on_obj[shape.tgt[m]]
        if shape.is_identity(m):
            on_mor[m] = fib.identity(a)
            continue
        assume(fib.elems(b) or not fib.elems(a))
        images = tuple(draw(st.integers(0, len(fib.elems(b)) - 1)) for _ in fib.elems(a))
        idempotent = shape.src[m] == shape.tgt[m] and shape.compose(m, m) == m
        assume(not idempotent or all(images[k] == k for k in images))
        on_mor[m] = FibMor(a, b, images)
    return fib, fiber_diagram(fib, shape, on_obj, on_mor)


@settings(max_examples=300, deadline=None)
@given(random_diagram())
def test_finset_limit_matches_filtered_product(fib_and_diagram):
    fib, diagram = fib_and_diagram
    assert fs.finset_limit(fib, diagram) == kan_oracle.finset_limit(fib, diagram)


def pullback_chain(fib0, fib1, pull01):
    """The chain 0 -> 1 as base, with fibers fib0 and fib1 and pull01 along 0 -> 1."""
    return fs.indexed_category(chain_category(1), {0: fib0, 1: fib1},
                               {(0, 0): identity_pullback(fib0),
                                (1, 1): identity_pullback(fib1), (0, 1): pull01})


@st.composite
def pulled_diagram(draw):
    """A diagram of random_diagram in the fiber over 1 of the chain 0 -> 1,
    whose fiber also holds its limit as the set "lim".  The pullback along
    0 -> 1 is the identity, constant at one set, a relabelling by
    bijections, or a collapse of every set onto one of at most one element."""
    fib, diagram = draw(random_diagram())
    cones = fs.finset_limit(fib, diagram).cones
    sets = dict(fib.sets, lim=[f"x{j}" for j in range(len(cones))])
    fib1 = fs.make_fiber(sets)
    kind = draw(st.sampled_from(["identity", "constant", "relabel", "collapse"]))
    if kind == "identity":
        ic = pullback_chain(fib1, fib1, identity_pullback(fib1))
    elif kind == "constant":
        ic, _ = constant_chain(sets, draw(st.sampled_from(sorted(sets))))
    elif kind == "relabel":
        ic, _ = relabel_chain(sets, draw(st.integers(0, 2)))
    else:
        fib0 = fs.make_fiber({"none": [], "one": ["*"]})
        ic = pullback_chain(fib0, fib1, relabel_pullback(
            fib1, fib0, {n: "one" if xs else "none" for n, xs in sets.items()},
            {n: {x: "*" for x in xs} for n, xs in sets.items()}))
    return ic, diagram


def test_global_limit_closed_form_matches_enumerating_oracle():
    """Set sizes decide globality as the enumerating check does, on every
    kind of pullback, and both verdicts occur."""
    verdicts = []

    @settings(max_examples=300, deadline=None)
    @given(pulled_diagram())
    def agree(case):
        ic, diagram = case
        verdict = fs.is_global_limit(ic, 1, diagram, "lim")
        assert verdict == kan_oracle.is_global_limit(ic, 1, diagram, "lim")
        verdicts.append(verdict)

    agree()
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("build", KAN_INSTANCES.values(), ids=KAN_INSTANCES.keys())
def test_right_kan_enumerates_each_cone_set_once(monkeypatch, build):
    """One cone search per object of D; globality enumerates nothing."""
    calls = []
    enumerate_cones = fs.finset_limit
    monkeypatch.setattr("finstack.kan.finset_limit",
                        lambda *args: calls.append(args) or enumerate_cones(*args))
    ic, f, p, p_lift = build()
    fs.right_kan(ic, f, p, p_lift)
    assert len(calls) == len(f.target.objects)


@pytest.mark.parametrize("build", KAN_INSTANCES.values(), ids=KAN_INSTANCES.keys())
def test_unchecked_builders_pass_the_validating_constructors(build):
    """The comma diagrams of right_kan and the restriction of precompose_lift
    are built without checks; the validating constructors accept them."""
    ic, f, p, p_lift = build()
    rf = fs.right_kan(ic, f, p, p_lift)
    for d, diagram in rf.diagrams.items():
        assert fiber_diagram(ic.fiber(p.obj_map[d]), diagram.shape, diagram.on_obj,
                             diagram.on_mor) == diagram
    restricted = precompose_lift(f, rf.lift)
    assert fs.lift(ic, restricted.shape, restricted.anchor, restricted.objects,
                   restricted.morphisms) == restricted
