from __future__ import annotations

import pytest

import finstack as fs
from finstack.errors import EnumerationBudgetExceeded, FinstackError, UnknownBasepoint, UnknownObject
from pi1_oracle import coset_enumeration, tabulated_pi1_presentation
from support import groupoid_zoo, pair2, s3, swap_action, weak_equivalence_zoo, z2, z3


def test_presentation_z2():
    pres = fs.pi1_presentation(z2(), "*")
    assert len(pres.generators) == 1
    assert pres.relations == (((0, 1), (0, 1)),)
    assert pres.abelianization() == (0, (2,))


def test_presentation_pair_groupoid_trivial():
    pres = fs.pi1_presentation(pair2(), 1)
    assert pres.abelianization() == (0, ())


def test_presentation_circle_free_rank_one():
    pres = fs.pi1_presentation(fs.simplicial_circle().category, "p")
    assert len(pres.generators) == 2
    assert len(pres.relations) == 1
    assert pres.abelianization() == (1, ())


def test_presentation_unknown_basepoint():
    with pytest.raises(UnknownBasepoint):
        fs.pi1_presentation(z2(), "missing")


def test_abelianization_matches_h1():
    for g in (z2(), z3(), s3(), pair2(), swap_action()):
        pres = fs.pi1_presentation(g, g.objects[0])
        cx = fs.chain_complex(fs.nerve(g, 2))
        h1 = fs.homology(cx, 1)
        assert pres.abelianization() == (h1.free_rank, h1.torsion)


def test_coset_enumeration_small_groups():
    # <a | a^2>
    assert coset_enumeration(1, [((0, 1), (0, 1))]) == 2
    # <a | a^3>
    assert coset_enumeration(1, [((0, 1),) * 3]) == 3
    # <a, b | a^2, b^2, (ab)^2> = Klein four group
    relators = [((0, 1), (0, 1)), ((1, 1), (1, 1)), ((0, 1), (1, 1), (0, 1), (1, 1))]
    assert coset_enumeration(2, relators) == 4
    # free group of rank 1 exceeds any budget
    with pytest.raises(EnumerationBudgetExceeded):
        coset_enumeration(1, [], budget=50)


@pytest.mark.parametrize("g,order", [(z2(), 2), (z3(), 3), (s3(), 6), (pair2(), 1)])
def test_pi1_iso_check(g, order):
    report = fs.pi1_iso_check(g, g.objects[0])
    assert report.relations_hold
    assert report.surjective
    assert report.presented_order == order
    assert report.vertex_group_order == order
    assert report.isomorphic is True


def certificate_zoo():
    """Groupoids with nontrivial groups, trees and several components."""
    targets = [(f"{name}-target", f.target) for name, f in weak_equivalence_zoo()]
    return groupoid_zoo() + targets + [("S4", fs.symmetric_groupoid(4)),
                                       ("pair6", fs.pair_groupoid(range(6)))]


@pytest.mark.parametrize("g", [g for _, g in certificate_zoo()],
                         ids=[name for name, _ in certificate_zoo()])
def test_certificate_order_matches_coset_enumeration(g):
    for x in g.objects:
        pres = fs.pi1_presentation(g, x)
        report = fs.pi1_iso_check(g, x, pres=pres)
        assert report.isomorphic is True
        assert report.presented_order == coset_enumeration(len(pres.generators), pres.relations)


def presentation_zoo():
    """The certificate zoo's nerves, and the circle: a category that is not a groupoid."""
    return [(name, fs.nerve(g, 2)) for name, g in certificate_zoo()] + \
        [("circle", fs.simplicial_circle()),
         # the repr of object 1 is a prefix of those of 10 and 11
         ("pair-1-10-11-2", fs.nerve(fs.pair_groupoid([1, 10, 11, 2]), 2))]


@pytest.mark.parametrize("s", [s for _, s in presentation_zoo()],
                         ids=[name for name, _ in presentation_zoo()])
def test_presentation_matches_tabulated_oracle(s):
    for x in s.category.objects:
        pres, oracle = fs.pi1_presentation(s.category, x), tabulated_pi1_presentation(s, x)
        assert pres == oracle
        assert list(pres.tree_parent) == list(oracle.tree_parent)  # BFS order, parents first


def expected_note(pres, word):
    """The note naming the certificate relator ``word`` of ``pres``."""
    arrows = tuple(pres.generators[i][0] for i, sign in word if sign > 0)
    if len(word) == 1:
        return f"missing relator for tree edge {arrows!r}"
    return f"missing relator for composable pair {arrows!r}"


@pytest.mark.parametrize("g,x", [(z3(), "*"), (s3(), "*"), (fs.pair_groupoid(range(3)), 1),
                                 (swap_action(), 2)],
                         ids=["Z3", "S3", "pair3", "swap-action"])
def test_dropping_any_relator_decides_nothing(g, x):
    """Each tree or composition relator dropped alone leaves the verdict open."""
    pres = fs.pi1_presentation(g, x)
    kinds = set()
    for i, word in enumerate(pres.relations):
        kinds.add(len(word) == 1)
        dropped = pres._replace(relations=pres.relations[:i] + pres.relations[i + 1:])
        report = fs.pi1_iso_check(g, x, pres=dropped)
        assert report.relations_hold and report.surjective
        assert report.presented_order is None
        assert report.isomorphic is None
        assert report.note == expected_note(pres, word)
    assert kinds == ({False} if len(g.objects) == 1 else {True, False})


def test_pi1_iso_check_reuses_given_presentation():
    g = s3()
    pres = fs.pi1_presentation(g, "*")
    assert fs.pi1_iso_check(g, "*", pres=pres) == fs.pi1_iso_check(g, "*")


@pytest.mark.parametrize("g,at,x", [
    (fs.disjoint_union(z2(), z3()), (0, "*"), (1, "*")),
    (fs.pair_groupoid(range(3)), 0, 1),
], ids=["Z2+Z3", "pair3"])
def test_pi1_iso_check_refuses_presentation_at_other_basepoint(g, at, x):
    pres = fs.pi1_presentation(g, at)
    with pytest.raises(FinstackError) as info:
        fs.pi1_iso_check(g, x, pres=pres)
    assert str(info.value) == f"presentation is based at {at!r}, not at {x!r}"


def test_pi1_iso_check_unknown_object():
    g = z2()
    pres = fs.pi1_presentation(g, "*")
    for kwargs in ({}, {"pres": pres}):
        with pytest.raises(UnknownObject):
            fs.pi1_iso_check(g, "missing", **kwargs)


def test_pi1_swap_action_trivial():
    report = fs.pi1_iso_check(swap_action(), 1)
    assert report.isomorphic is True
    assert report.vertex_group_order == 1
