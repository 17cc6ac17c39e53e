"""The table core: builders that skip the axiom pass, checked against it, and the union-find.

Builders that only combine validated values construct their result without
validation.  Here every such result is validated again from its raw tables,
and must come back equal; this is the oracle for those builders.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finstack as fs
from category_oracle import comp_mapping
from finstack import jsonio
from finstack.category import partition
from finstack.kan import FibMor
from support import (groupoid_zoo, pair2, point_inclusion, pt, s3, s3_on_letters, self_action,
                     swap_action, z2, z3)


def revalidated(c):
    """``c`` rebuilt from its raw tables through the exhaustive validator."""
    tables = (c.objects, c.morphisms, c.src, c.tgt, comp_mapping(c), c.ident)
    if isinstance(c, fs.FiniteGroupoid):
        return fs.validate_groupoid(*tables, c.inv)
    return fs.validate_category(*tables)


def assert_valid(c):
    assert revalidated(c) == c


def assert_valid_functor(f):
    assert fs.functor(f.source, f.target, f.obj_map, f.mor_map) == f


def constant_functor(source, target, x):
    return fs.CatFunctor(source, target, {o: x for o in source.objects},
                         {a: target.ident[x] for a in source.morphisms})


def translation_projection(group):
    """The functor from the self-action groupoid of ``group`` onto ``group``."""
    sa = self_action(group)
    (star,) = group.objects
    return fs.CatFunctor(sa, group, {x: star for x in sa.objects},
                         {a: a[1] for a in sa.morphisms})


ZOO = groupoid_zoo() + [("S3", s3()), ("point", pt()), ("Z2-self-action", self_action())]


def builder_outputs():
    out = [("pair", fs.pair_groupoid([1, 2, 3])), ("point", pt()),
           ("swap-action", swap_action()), ("Z3-self-action", self_action(z3())),
           ("S3-self-action", self_action(s3()))]
    for (n1, g1), (n2, g2) in itertools.product(ZOO[:4], repeat=2):
        out.append((f"union-{n1}-{n2}", fs.disjoint_union(g1, g2)))
    for name, g in ZOO:
        out.extend((f"vertex-{name}-{x}", fs.vertex_group(g, x)) for x in g.objects)
        out.append((f"full-{name}", fs.full_subgroupoid(g, g.objects[1:])))
        out.append((f"skeleton-{name}", fs.skeleton(g)))
        ident = fs.identity_functor(g)
        out.append((f"strict-{name}", fs.fiber_product_strict(ident, ident)))
        out.append((f"iso-comma-{name}", fs.fiber_product_2(ident, ident)))
    g = pair2()
    out.append(("strict-points", fs.fiber_product_strict(point_inclusion(g, 1), point_inclusion(g, 2))))
    out.append(("full-pair-union", fs.full_subgroupoid(
        fs.disjoint_union(fs.pair_groupoid([1, 2, 3]), s3_on_letters()), [(0, 1), (0, 3), (1, 2)])))
    out.append(("strict-sign", fs.fiber_product_strict(translation_projection(z2()),
                                                       constant_functor(z3(), z2(), "*"))))
    out.extend((f"discrete-{n}", fs.discrete_category(range(n))) for n in range(3))
    out.extend((f"chain-{n}", fs.chain_category(n)) for n in (0, 1, 2, 4, 11))
    shift = fs.functor(fs.chain_category(1), fs.chain_category(2), {0: 1, 1: 2},
                       {(0, 0): (1, 1), (0, 1): (1, 2), (1, 1): (2, 2)})
    ends = fs.functor(fs.discrete_category(["a", "b"]), fs.chain_category(2), {"a": 0, "b": 2},
                      {("id", "a"): (0, 0), ("id", "b"): (2, 2)})
    for fun_name, fun in (("shift", shift), ("ends", ends),
                          ("identity", fs.identity_functor(fs.chain_category(2)))):
        out.extend((f"comma-{fun_name}-{d}", fs.comma_category(d, fun)) for d in range(3))
    return out


BUILT = builder_outputs()


@pytest.mark.parametrize("c", [c for _, c in BUILT], ids=[name for name, _ in BUILT])
def test_builder_output_passes_validation(c):
    assert_valid(c)


def test_then_composites_pass_validation():
    g = pair2()
    proj = translation_projection(z2())
    for f, h in [(point_inclusion(g, 1), fs.identity_functor(g)),
                 (fs.identity_functor(proj.source), proj),
                 (proj, constant_functor(z2(), g, 2)),
                 (point_inclusion(self_action(), 0), proj)]:
        composite = f.then(h)
        assert_valid_functor(composite)
        assert composite.source is f.source and composite.target is h.target


def test_diagram_special_outputs_pass_validation():
    shape = fs.chain_category(1)
    g = z2()
    proj = translation_projection(g)
    diagram = fs.groupoid_diagram(
        shape, {0: proj.source, 1: g},
        {(0, 0): fs.identity_functor(proj.source), (1, 1): fs.identity_functor(g), (0, 1): proj})
    atlas = fs.action_groupoid([0, 1], g, lambda x, k: (x + k) % 2)
    cover = fs.functor(atlas, g, {0: "*", 1: "*"}, {a: a[1] for a in atlas.morphisms})
    sd = fs.diagram_special(diagram, cover)
    for d in shape.objects:
        assert_valid(sd.pulled.nodes[d])
        assert_valid_functor(sd.to_base[d])
        assert_valid_functor(sd.to_cover[d])
    for m in shape.morphisms:
        assert_valid_functor(sd.pulled.arrows[m])
    assert fs.groupoid_diagram(shape, sd.pulled.nodes, sd.pulled.arrows) == sd.pulled


def functors_into(k) -> list:
    """Functors into ``k`` from small zoo groupoids."""
    out = [fs.identity_functor(k)]
    out.extend(point_inclusion(k, x) for x in k.objects)
    out.extend(constant_functor(g, k, x) for _, g in ZOO[:4] for x in k.objects)
    if len(k.objects) == 1:
        out.append(translation_projection(k))
    if k.morphisms == (0, 1, 2):
        # the automorphism k -> 2k of Z/3, composed after every functor so far
        double = fs.functor(k, k, {"*": "*"}, {a: 2 * a % 3 for a in k.morphisms})
        out.extend([f.then(double) for f in out])
    return out


TARGETS = [z2(), z3(), pair2(), swap_action()]
LEGS = [functors_into(k) for k in TARGETS]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fiber_product_2_builds_valid_groupoids(data):
    legs = LEGS[data.draw(st.integers(0, len(TARGETS) - 1), label="target")]
    f = data.draw(st.sampled_from(legs), label="f")
    h = data.draw(st.sampled_from(legs), label="h")
    prod, p1, p2 = fs.fiber_product_2_projections(f, h)
    assert_valid(prod)
    assert_valid_functor(p1)
    assert_valid_functor(p2)
    k = f.target
    assert len(prod.objects) == sum(len(k.hom(f.obj_map[x], h.obj_map[y]))
                                    for x in f.source.objects for y in h.source.objects)


def closure_partition(elements, pairs) -> list:
    """Classes by reachability in the undirected graph of ``pairs``, naively."""
    classes, seen = [], set()
    for x in elements:
        if x in seen:
            continue
        reach = {x}
        grew = True
        while grew:
            grew = False
            for a, b in pairs:
                if (a in reach) != (b in reach):
                    reach |= {a, b}
                    grew = True
        classes.append([y for y in elements if y in reach])
        seen |= reach
    return classes


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partition_matches_transitive_closure(data):
    elements = data.draw(st.permutations([f"x{i}" for i in range(data.draw(st.integers(0, 12)))]))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(elements), st.sampled_from(elements)),
                               max_size=15)) if elements else []
    assert partition(elements, pairs) == closure_partition(elements, pairs)


def test_partition_hand_cases():
    assert partition([], []) == []
    assert partition([3, 1, 2], []) == [[3], [1], [2]]
    assert partition([3, 1, 2], [(2, 3)]) == [[3, 2], [1]]
    assert partition("abcd", [("d", "a"), ("b", "c"), ("c", "b")]) == [["a", "d"], ["b", "c"]]


def test_table_classes_compare_by_their_tables(tmp_path):
    """Two loads of one groupoid document are equal, whatever each has cached;
    a changed document, a changed inverse table or the bare category is not;
    and a table class stays unhashable, as its dict tables are."""
    doc = tmp_path / "z3.json"
    doc.write_text(json.dumps(jsonio.groupoid_to_json(z3())))
    g, again = (jsonio.groupoid_from_json(jsonio.load_json(str(doc))) for _ in range(2))
    assert g.generators
    assert g == again and not g != again
    doc.write_text(json.dumps(jsonio.groupoid_to_json(fs.cyclic_groupoid(3, name="o"))))
    assert g != jsonio.groupoid_from_json(jsonio.load_json(str(doc)))
    tables = (g.objects, g.morphisms, g.src, g.tgt, g.compose, g.ident)
    assert fs.FiniteGroupoid(*tables, {a: a for a in g.morphisms}) != g
    assert fs.FiniteCategory(*tables) != g
    for value in (g, fs.FiniteCategory(*tables)):
        with pytest.raises(TypeError):
            hash(value)


def test_chains_nerves_and_covers_compare_by_their_fields():
    """ChainComplex, TruncatedSimplicialSet and CoveredSpace compare by the
    fields they are built from, not by their caches, and stay unhashable."""
    s = fs.nerve(z2(), 3)
    s.count(3, nondegenerate=True)
    assert s == fs.nerve(z2(), 3) and s != fs.nerve(z2(), 2) and s != fs.nerve(z3(), 3)
    cx = fs.chain_complex(s)
    fs.homology(cx, 1)
    assert cx == fs.chain_complex(fs.nerve(z2(), 3))
    assert cx != fs.ChainComplex(cx.basis, cx.boundary, complete_above=True)
    assert cx != fs.chain_complex(fs.nerve(z3(), 3))
    cov = fs.covered_space(["w", "v"], {0: ["v", "w"], 1: ["w"]})
    assert cov == fs.covered_space(["v", "w"], {0: {"w", "v"}, 1: {"w"}})
    assert cov != fs.covered_space(["v", "w"], {0: ["v", "w"], 1: ["v"]})
    for value in (s, cx, cov):
        with pytest.raises(TypeError):
            hash(value)


def test_records_hash_and_print_as_their_fields():
    """A record hashes as the tuple of its fields and prints as Name(field=value, ...)."""
    g = z2()
    cx = fs.chain_complex(fs.nerve(g, 3))
    records = [fs.homology(cx, 1), fs.Span("x", "r", "g"), FibMor("a", "b", (0, 1)),
               fs.pi1_iso_check(g, "*"), fs.AdjunctionReport(1, 1, True, "")]
    for r in records:
        assert hash(r) == hash(tuple(r))
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(r._fields, r))
        assert repr(r) == f"{type(r).__name__}({fields})"
    assert repr(records[0]) == "HomologyGroup(degree=1, free_rank=0, torsion=(2,))"
    with pytest.raises(TypeError):
        hash(fs.identity_functor(g))
