from __future__ import annotations

import itertools

import pytest

import finstack as fs
from finstack.errors import AxiomViolation, DanglingId, MismatchedTarget, NotAnAction, UnknownObject
from support import (groupoid_zoo, pair2, point_inclusion, pt, s3_on_letters, self_action,
                     swap_action, z2, z3)


def test_z2_valid():
    g = fs.validate_groupoid(
        ["*"], ["e", "g"],
        {"e": "*", "g": "*"}, {"e": "*", "g": "*"},
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        {"*": "e"}, {"e": "e", "g": "g"},
    )
    assert len(g.morphisms) == 2
    assert g.compose("g", "g") == "e"


def test_broken_inverse_rejected():
    with pytest.raises(AxiomViolation) as err:
        fs.validate_groupoid(
            ["*"], ["e", "g"],
            {"e": "*", "g": "*"}, {"e": "*", "g": "*"},
            {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "g"},
            {"*": "e"}, {"e": "e", "g": "g"},
        )
    assert "inverse" in err.value.axiom or "unit" in err.value.axiom


def test_missing_comp_entry_rejected():
    with pytest.raises(DanglingId):
        fs.validate_groupoid(
            ["*"], ["e"], {"e": "*"}, {"e": "*"}, {}, {"*": "e"}, {"e": "e"},
        )


def test_pair_groupoid_hom_sets_singletons():
    g = pair2()
    assert len(g.objects) == 2 and len(g.morphisms) == 4
    for x in g.objects:
        for y in g.objects:
            assert len(g.hom(x, y)) == 1


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_associativity_exhaustive(name, g):
    for a, b in itertools.product(g.morphisms, repeat=2):
        if g.tgt[a] != g.src[b]:
            continue
        for c in g.morphisms:
            if g.tgt[b] != g.src[c]:
                continue
            assert g.compose(g.compose(a, b), c) == g.compose(a, g.compose(b, c))


def test_action_groupoid_trivial_base():
    g = fs.action_groupoid(["*"], z2(), lambda x, k: x)
    assert len(g.objects) == 1 and len(g.morphisms) == 2


def test_action_groupoid_swap():
    g = swap_action()
    assert len(g.objects) == 2 and len(g.morphisms) == 4
    assert len(fs.pi0(g)) == 1
    for x in g.objects:
        assert len(fs.vertex_group(g, x).morphisms) == 1


def test_action_groupoid_rejects_non_action():
    table = {(1, 0): 1, (1, 1): 2, (2, 0): 2, (2, 1): 2}
    with pytest.raises(NotAnAction):
        fs.action_groupoid([1, 2], z2(), lambda x, k: table[(x, k)])


def test_free_action_has_trivial_isotropy():
    g = self_action(z3())
    assert len(fs.pi0(g)) == 1
    for x in g.objects:
        assert len(fs.vertex_group(g, x).morphisms) == 1


def test_fiber_product_strict_diagonal():
    g = z2()
    d = fs.fiber_product_strict(fs.identity_functor(g), fs.identity_functor(g))
    assert len(d.objects) == 1 and len(d.morphisms) == 2


def test_fiber_product_strict_point():
    p = pt()
    f = fs.identity_functor(p)
    d = fs.fiber_product_strict(f, f)
    assert len(d.objects) == 1


def test_fiber_product_strict_disjoint_inclusions_empty():
    g = pair2()
    d = fs.fiber_product_strict(point_inclusion(g, 1), point_inclusion(g, 2))
    assert d.objects == () and d.morphisms == ()


def test_fiber_product_strict_mismatched_target():
    with pytest.raises(MismatchedTarget):
        fs.fiber_product_strict(fs.identity_functor(z2()), fs.identity_functor(z3()))


def test_fiber_product_2_point_over_group():
    g = z2()
    incl = point_inclusion(g, "*")
    d = fs.fiber_product_2(incl, incl)
    assert len(d.objects) == 2
    assert all(d.is_identity(a) for a in d.morphisms)


def test_fiber_product_2_identity_legs_equivalent_to_base():
    g = z2()
    prod, p1, p2 = fs.fiber_product_2_projections(fs.identity_functor(g), fs.identity_functor(g))
    assert fs.is_weak_equivalence(p1)
    assert fs.is_weak_equivalence(p2)


def test_fiber_product_2_empty_factor():
    empty = fs.validate_groupoid([], [], {}, {}, {}, {}, {})
    g = z2()
    f = fs.functor(empty, g, {}, {})
    assert fs.fiber_product_2(f, point_inclusion(g, "*")).objects == ()


def test_fiber_product_2_weak_equivalence_legs_pull_back():
    g = z2()
    weak = point_inclusion(self_action(), 0)
    other = point_inclusion(self_action(), 1)
    prod, p1, p2 = fs.fiber_product_2_projections(
        weak.then(fs.identity_functor(self_action())), other)
    assert fs.is_weak_equivalence(p2)


def test_weak_equivalence_examples():
    g = pair2()
    assert fs.is_weak_equivalence(point_inclusion(g, 1))
    assert fs.is_weak_equivalence(fs.identity_functor(z3()))
    # identity-only functor pt -> Z/2 is not full
    assert not fs.is_weak_equivalence(point_inclusion(z2(), "*"))


def test_weak_equivalence_closed_under_composition():
    g = pair2()
    prod, p1, _ = fs.fiber_product_2_projections(fs.identity_functor(g), fs.identity_functor(g))
    assert fs.is_weak_equivalence(p1)
    assert fs.is_weak_equivalence(p1.then(fs.identity_functor(g)))


def test_pi0_examples():
    assert len(fs.pi0(pair2())) == 1
    two = fs.disjoint_union(z2(), pt())
    assert len(fs.pi0(two)) == 2
    assert len(fs.pi0(self_action())) == 1
    # components list their objects in id order, and come in the order of
    # their first objects; the repr of 1 is a prefix of that of 10
    assert fs.pi0(fs.disjoint_union(fs.pair_groupoid([2, 10, 1]), pt())) == \
        (((0, 1), (0, 10), (0, 2)), ((1, "pt"),))
    swap = fs.action_groupoid([2, 10, 1], z2(), lambda x, g: {1: 2, 2: 1}.get(x, x) if g else x)
    assert fs.pi0(swap) == ((1, 2), (10,))


def test_vertex_group_examples():
    g = pair2()
    assert len(fs.vertex_group(g, 1).morphisms) == 1
    assert len(fs.vertex_group(z3(), "*").morphisms) == 3
    with pytest.raises(UnknownObject):
        fs.vertex_group(g, 99)


def inclusion(sub, g):
    return fs.functor(sub, g, {x: x for x in sub.objects}, {a: a for a in sub.morphisms})


SKELETON_ZOO = groupoid_zoo() + [
    ("point", pt()),
    ("pair3", fs.pair_groupoid([1, 2, 3])),
    ("S3-on-letters", s3_on_letters()),
    ("Z2+pair3", fs.disjoint_union(z2(), fs.pair_groupoid([1, 2, 3]))),
    ("Z2-self-action+swap", fs.disjoint_union(self_action(), swap_action())),
]


@pytest.mark.parametrize("name,g", SKELETON_ZOO)
def test_skeleton_inclusion_is_weak_equivalence(name, g):
    sk = fs.skeleton(g)
    assert [c[0] for c in fs.pi0(g)] == list(sk.objects)
    assert fs.is_weak_equivalence(inclusion(sk, g))


def test_full_subgroupoid_examples():
    g = fs.disjoint_union(z2(), fs.pair_groupoid([1, 2, 3]))
    sub = fs.full_subgroupoid(g, [(1, 3), (1, 1)])
    assert sub.objects == ((1, 1), (1, 3))
    assert len(sub.morphisms) == 4
    assert fs.full_subgroupoid(g, g.objects) == g
    assert fs.full_subgroupoid(g, []).objects == ()
    # not a weak equivalence: it misses the Z/2 component
    assert not fs.is_weak_equivalence(inclusion(sub, g))


def test_full_subgroupoid_rejects_unknown_object():
    with pytest.raises(UnknownObject):
        fs.full_subgroupoid(pair2(), [1, 99])
    with pytest.raises(UnknownObject):
        fs.full_subgroupoid(z2(), ["pt"])


def test_fiber_product_2_of_two_weak_equivalences():
    g = pair2()
    incl = point_inclusion(g, 1)           # weak equivalence
    ident = fs.identity_functor(g)         # weak equivalence
    prod, p1, p2 = fs.fiber_product_2_projections(incl, ident)
    assert fs.is_weak_equivalence(p1)
    assert fs.is_weak_equivalence(p2)
