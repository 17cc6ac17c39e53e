"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they are produced.  All comparisons are exact integer equalities.
"""

from __future__ import annotations

import itertools
import json

import finstack as fs
import finstack.jsonio as jio
from finstack.cli import main
from finstack.errors import NotFComplete
from bar_oracle import bar_homology
from descent_oracle import validate_torsor
import kan_oracle
from milnor_oracle import level_product_chains, orbit_quotient, projection_chain_map
from support import (
    all_morphisms_class,
    cocycle_zoo,
    cylinder_category,
    is_sparse_chain_map,
    pair2,
    s3,
    subset_poset,
    weak_equivalence_zoo,
    z2,
    z3,
)
from test_kan import product_instance


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_group_homology_reproduction():
    ok = True
    cx = fs.chain_complex(fs.nerve(z2(), 5))
    expected_z2 = [(1, ()), (0, (2,)), (0, ()), (0, (2,)), (0, ())]
    for n, pair in enumerate(expected_z2):
        ok = ok and fs.homology(cx, n).pair() == pair
        ok = ok and bar_homology(z2(), n).pair() == pair

    cx3 = fs.chain_complex(fs.nerve(z3(), 4))
    for n, pair in [(1, (0, (3,))), (2, (0, ())), (3, (0, (3,)))]:
        ok = ok and fs.homology(cx3, n).pair() == pair
        ok = ok and bar_homology(z3(), n).pair() == pair

    cxs = fs.chain_complex(fs.nerve(s3(), 3))
    ok = ok and fs.homology(cxs, 1).pair() == (0, (2,))
    ok = ok and bar_homology(s3(), 1).pair() == (0, (2,))
    for n in range(3):
        ok = ok and fs.homology(cxs, n).pair() == bar_homology(s3(), n).pair()
    report(1, "group-homology reproduction", ok)


def test_criterion_2_projective_spaces():
    expected = {
        2: [(1, ()), (0, (2,)), (0, ())],
        3: [(1, ()), (0, (2,)), (0, ()), (1, ())],
        4: [(1, ()), (0, (2,)), (0, ()), (0, (2,)), (0, ())],
    }
    ok = True
    for levels, values in expected.items():
        bcx = fs.chain_complex(fs.milnor_B(z2(), levels))
        for k, pair in enumerate(values):
            ok = ok and fs.homology(bcx, k).pair() == pair
        ncx = fs.chain_complex(fs.nerve(z2(), levels))
        for k in range(max(levels - 1, 0)):
            ok = ok and fs.homology(bcx, k).pair() == fs.homology(ncx, k).pair()
    report(2, "projective-space homology of the quotient model", ok)


def test_criterion_3_total_space_contractibility_window():
    ok = True
    for levels in (2, 3):
        cx = fs.chain_complex(fs.milnor_E(z2(), levels))
        for k in range(1, levels):
            ok = ok and fs.homology(cx, k).pair() == (0, ())
        ok = ok and fs.homology(cx, levels).pair() == (1, ())
    report(3, "total-space contractibility window", ok)


def test_criterion_4_comparison_chain_map():
    zoo = [("Z2", z2()), ("Z3", z3()), ("pair", pair2()),
           ("swap", fs.action_groupoid([1, 2], z2(), lambda x, k: x if k == 0 else 3 - x))]
    levels = 3
    ok = True
    for name, g in zoo:
        b = fs.milnor_B(g, levels)
        ncx = fs.chain_complex(fs.nerve(g, levels))
        bcx = level_product_chains(b)
        cmap = projection_chain_map(b, ncx)
        for k, orbit_map in orbit_quotient(g, levels).orbit.items():
            for simplex, rep in orbit_map.items():
                ok = ok and fs.milnor_to_nerve(g, simplex) == fs.milnor_to_nerve(g, rep)
        ok = ok and is_sparse_chain_map(bcx, ncx, cmap, levels)
        for n in range(levels - 1):
            ok = ok and fs.induced_map_is_isomorphism(bcx, ncx, cmap, n)
    report(4, "comparison map well-defined and quasi-iso", ok)


def test_criterion_5_morita_invariance():
    dim = 3
    ok = True
    for name, functor in weak_equivalence_zoo():
        ok = ok and fs.is_weak_equivalence(functor)
        cx1 = fs.chain_complex(fs.nerve(functor.source, dim))
        cx2 = fs.chain_complex(fs.nerve(functor.target, dim))
        for n in range(dim):
            ok = ok and fs.homology(cx1, n).pair() == fs.homology(cx2, n).pair()
    report(5, "Morita-invariant nerve homology", ok)


def test_criterion_6_torsor_round_trip():
    instances = cocycle_zoo()
    ok = len(instances) >= 5
    ok = ok and all(len(c.cov.points) <= 4 and len(c.cov.indices()) <= 3
                    for _, c in instances)
    for name, c in instances:
        torsor = validate_torsor(fs.cocycle_to_torsor(c))
        back = fs.torsor_to_cocycle(torsor)
        ok = ok and fs.find_cocycle_morphism(c, back) is not None
        ok = ok and fs.find_cocycle_morphism(back, c) is not None
    report(6, "torsor round trip with validated morphism", ok)


def test_criterion_7_pi1_correctness():
    ok = True
    for g, order in [(z2(), 2), (z3(), 3), (s3(), 6), (pair2(), 1)]:
        rep = fs.pi1_iso_check(g, g.objects[0])
        ok = ok and rep.isomorphic is True and rep.presented_order == order
    report(7, "edge-path group matches isotropy", ok)


def test_criterion_8_localization_laws():
    ok = True
    poset, oracle = subset_poset(2)
    rid = fs.identities_class(poset)
    for x in poset.objects:
        for y in poset.objects:
            ok = ok and len(fs.span_pi0(rid, x, y)) == len(poset.hom(x, y))

    cyl, rcyl = cylinder_category()
    rid_cyl = fs.identities_class(cyl)
    for x in cyl.objects:
        for y in cyl.objects:
            ok = ok and len(fs.span_pi0(rid_cyl, x, y)) == len(cyl.hom(x, y))

    # zigzag on every instance whose hypothesis holds
    full = frozenset({0, 1})
    for x in poset.objects:
        ok = ok and fs.zigzag_check(rid, fs.span_pi0(rid, x, full)).bijective
    ok = ok and fs.zigzag_check(rcyl, fs.span_pi0(rcyl, "X", "Y")).bijective

    # composition descends to classes, exhaustively on the poset zoo
    rall = all_morphisms_class(poset, oracle)
    from finstack.spans import well_defined_on_classes
    objs = sorted(poset.objects, key=len)
    triples = [(objs[3], objs[1], objs[0]), (objs[3], objs[2], objs[1]),
               (objs[1], objs[3], objs[2])]
    for x, y, z in triples:
        ok = ok and well_defined_on_classes(rall, x, y, z)
    report(8, "localization laws", ok)


def test_criterion_9_kan_adjunction():
    ok = True

    # instance 1: discrete E into a span; extension at the apex is the product
    ic, f, p, p_lift = product_instance()
    rf = fs.right_kan(ic, f, p, p_lift)
    ok = ok and fs.adjunction_check(ic, f, p, p_lift, rf.lift, rf).bijective
    fib = ic.fiber("*")
    brute = sorted(itertools.product(fib.elems("s2"), fib.elems("r2")))
    ok = ok and kan_oracle.element_cones(fib, rf.lift.objects["s"], rf.projections["s"]) == \
        tuple(brute)

    # instance 2: extension along the identity
    from finstack.category import functor, chain_category, discrete_category
    d_cat = f.target
    q_lift = fs.lift(ic, d_cat, p, {"s": "s2", "u": "s1", "v": "r2"},
                     {"is": fib.identity("s2"), "iu": fib.identity("s1"),
                      "iv": fib.identity("r2"),
                      "mu": fib.mor("s2", "s1", {"x": "a", "y": "a"}),
                      "mv": fib.mor("s2", "r2", {"x": "p", "y": "q"})})
    ident = fs.identity_functor(d_cat)
    rf2 = fs.right_kan(ic, ident, p, q_lift)
    ok = ok and fs.adjunction_check(ic, ident, p, q_lift, q_lift, rf2).bijective

    # instance 3: nontrivial relabeling pullback along a chain
    from finstack.kan import identity_pullback, relabel_pullback, constant_pullback
    base = chain_category(1)
    fib0 = fs.make_fiber({"m1": ["a"], "m2": ["c", "d"]})
    fib1 = fs.make_fiber({"n1": ["z"], "n2": ["u", "v"]})
    ic3 = fs.indexed_category(
        base, {0: fib0, 1: fib1},
        {(0, 0): identity_pullback(fib0), (1, 1): identity_pullback(fib1),
         (0, 1): relabel_pullback(fib1, fib0, {"n1": "m1", "n2": "m2"},
                                                  {"n1": {"z": "a"}, "n2": {"u": "c", "v": "d"}})})
    d3 = chain_category(1)
    e3 = discrete_category(["e"])
    f3 = functor(e3, d3, {"e": 1}, {("id", "e"): (1, 1)})
    p3 = functor(d3, base, {0: 0, 1: 1}, {m: m for m in d3.morphisms})
    lift3 = fs.lift(ic3, e3, f3.then(p3), {"e": "n2"}, {("id", "e"): fib1.identity("n2")})
    rf3 = fs.right_kan(ic3, f3, p3, lift3)
    ok = ok and fs.adjunction_check(ic3, f3, p3, lift3, rf3.lift, rf3).bijective

    # negative instance: a constant pullback at a doubleton destroys globality
    ic4 = fs.indexed_category(
        base, {0: fib1, 1: fib1},
        {(0, 0): identity_pullback(fib1), (1, 1): identity_pullback(fib1),
         (0, 1): constant_pullback(fib1, fib1, "n2")})
    e4 = discrete_category(["e1", "e2"])
    f4 = functor(e4, d3, {"e1": 1, "e2": 1},
                     {("id", "e1"): (1, 1), ("id", "e2"): (1, 1)})
    lift4 = fs.lift(ic4, e4, f4.then(p3), {"e1": "n1", "e2": "n1"},
                    {("id", "e1"): fib1.identity("n1"), ("id", "e2"): fib1.identity("n1")})
    raised = False
    try:
        fs.right_kan(ic4, f4, p3, lift4)
    except NotFComplete:
        raised = True
    ok = ok and raised
    report(9, "relative right Kan adjunction", ok)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    z2_path = tmp_path / "z2.json"
    z2_path.write_text(json.dumps(jio.groupoid_to_json(z2())))
    name, cocycle = cocycle_zoo()[0]
    c_path = tmp_path / "c.json"
    c_path.write_text(json.dumps(jio.cocycle_to_json(cocycle)))
    commands = [
        ["validate", "--groupoid", str(z2_path)],
        ["nerve", "--groupoid", str(z2_path), "--dim", "3"],
        ["homology", "--groupoid", str(z2_path), "--dim", "4", "--degree", "1"],
        ["pi1", "--groupoid", str(z2_path), "--basepoint", "*"],
        ["milnor", "--groupoid", str(z2_path), "--levels", "3", "--space", "B",
         "--compare-nerve"],
        ["torsor", "roundtrip", "--groupoid", str(z2_path), "--cocycle", str(c_path)],
    ]
    ok = True
    for argv in commands:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        ok = ok and code1 == code2 == 0 and out1 == out2 and out1.encode() == out2.encode()
    report(10, "CLI reports byte-identical across runs", ok)
