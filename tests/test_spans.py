from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import finstack as fs
from finstack.errors import HypothesisFails, InvalidClass, OracleMissing
from finstack import jsonio
from finstack.spans import all_spans, close_composition, identity_span, well_defined_on_classes
import spans_oracle
from support import all_morphisms_class, cylinder_category, subset_poset


def test_category_validation_catches_missing_comp():
    with pytest.raises(Exception):
        fs.validate_category(["x"], [("id", "x"), "f"],
                             {("id", "x"): "x", "f": "x"},
                             {("id", "x"): "x", "f": "x"},
                             {}, {"x": ("id", "x")})


def test_morphism_class_adds_identities():
    cat = fs.chain_category(1)
    rcls = fs.morphism_class(cat, {(0, 1)})
    assert cat.ident[0] in rcls and cat.ident[1] in rcls


def test_morphism_class_closes_composition():
    cat = fs.chain_category(2)
    rcls = fs.morphism_class(cat, {(0, 1), (1, 2)})
    assert (0, 2) in rcls


def test_morphism_class_rejects_stray_members():
    cat = fs.chain_category(1)
    with pytest.raises(InvalidClass):
        fs.morphism_class(cat, {"nonsense"})


def test_oracle_universal_property_validated():
    cat, oracle = subset_poset(2)
    bad = dict(oracle)
    # sabotage one pullback: claim the empty set is the apex of a meet that is not empty
    f = next(m for m in cat.morphisms if cat.src[m] != cat.tgt[m])
    key = (f, f)
    apex = cat.src[f]
    bad[key] = (frozenset(), (frozenset(), cat.src[f]), (frozenset(), cat.src[f]))
    if apex != frozenset():
        with pytest.raises(InvalidClass):
            fs.morphism_class(cat, set(cat.morphisms), bad)


def test_identities_only_classes_match_hom_sets():
    cat, _ = subset_poset(2)
    rid = fs.identities_class(cat)
    for x in cat.objects:
        for y in cat.objects:
            assert len(fs.span_pi0(rid, x, y)) == len(cat.hom(x, y))


def test_localized_hom_reverses_poset_arrow():
    cat = fs.chain_category(1)
    rall = all_morphisms_class(cat)
    classes = fs.span_pi0(rall, 1, 0)
    assert len(classes) == 1
    rep = classes.representatives()[0]
    assert rep.apex == 0


def test_span_pi0_empty_when_no_spans():
    cat = fs.discrete_category(["x", "y"])
    rid = fs.identities_class(cat)
    assert len(fs.span_pi0(rid, "x", "y")) == 0


def test_compose_with_identity_span():
    cat, oracle = subset_poset(2)
    rall = all_morphisms_class(cat, oracle)
    full = frozenset({0, 1})
    single = frozenset({0})
    for span in all_spans(rall, full, single):
        composite = fs.compose_spans(rall, span, identity_span(cat, single))
        classes = fs.span_pi0(rall, full, single)
        assert classes.same_class(span, composite)


def test_compose_through_terminal_is_meet():
    cat, oracle = subset_poset(2)
    rall = all_morphisms_class(cat, oracle)
    full = frozenset({0, 1})
    a, b = frozenset({0}), frozenset({1})
    s1 = fs.Span(a, (a, a), (a, full))
    s2 = fs.Span(b, (b, full), (b, b))
    composite = fs.compose_spans(rall, s1, s2)
    assert composite.apex == a & b


def test_compose_requires_oracle():
    cat = fs.chain_category(1)
    rall = all_morphisms_class(cat)
    span = identity_span(cat, 0)
    with pytest.raises(OracleMissing):
        fs.compose_spans(rall, span, span)


def test_composition_descends_to_classes():
    cat, oracle = subset_poset(2)
    rall = all_morphisms_class(cat, oracle)
    objs = [frozenset({0, 1}), frozenset({0}), frozenset()]
    assert well_defined_on_classes(rall, *objs)


def test_composition_associative_up_to_class():
    cat, oracle = subset_poset(2)
    rall = all_morphisms_class(cat, oracle)
    x, y = frozenset({0, 1}), frozenset({0})
    z, w = frozenset({0, 1}), frozenset()
    out = fs.span_pi0(rall, x, w)
    for s1 in all_spans(rall, x, y):
        for s2 in all_spans(rall, y, z):
            for s3 in all_spans(rall, z, w):
                left = fs.compose_spans(rall, fs.compose_spans(rall, s1, s2), s3)
                right = fs.compose_spans(rall, s1, fs.compose_spans(rall, s2, s3))
                assert out.same_class(left, right)


def test_r_homotopic_reflexive():
    cat, rcls = cylinder_category()
    assert fs.r_homotopic(rcls, "f", "f")


def test_r_homotopic_distinct_parallel_maps():
    cat, rcls = cylinder_category()
    assert fs.r_homotopic(rcls, "f", "f2")
    classes = fs.r_homotopy_classes(rcls, "X", "Y")
    assert len(classes) == 1


def test_r_homotopy_trivial_for_identity_class_in_poset():
    cat, _ = subset_poset(2)
    rid = fs.identities_class(cat)
    full = frozenset({0, 1})
    for x in cat.objects:
        classes = fs.r_homotopy_classes(rid, x, full)
        assert len(classes) == len(cat.hom(x, full))


def test_zigzag_identities_class():
    cat, _ = subset_poset(2)
    rid = fs.identities_class(cat)
    full = frozenset({0, 1})
    for x in cat.objects:
        report = fs.zigzag_check(rid, fs.span_pi0(rid, x, full))
        assert report.bijective
        assert report.homotopy_class_count == len(cat.hom(x, full))


def test_zigzag_cylinder_confirms_bijection():
    cat, rcls = cylinder_category()
    report = fs.zigzag_check(rcls, fs.span_pi0(rcls, "X", "Y"))
    assert report.bijective
    assert report.homotopy_class_count == 1
    assert report.span_class_count == 1


def test_zigzag_hypothesis_failure():
    cat = fs.chain_category(1)
    rall = all_morphisms_class(cat)
    with pytest.raises(HypothesisFails):
        fs.zigzag_check(rall, fs.span_pi0(rall, 1, 0))


def test_theta_span_identity_case():
    cat, oracle = subset_poset(2)
    rall = all_morphisms_class(cat, oracle)
    full = frozenset({0, 1})
    sub = frozenset({0})
    phi = (sub, full)
    span = fs.theta_span(rall, cat.ident[full], phi, phi)
    classes = fs.span_pi0(rall, sub, sub)
    assert classes.same_class(span, identity_span(cat, sub))


def test_theta_span_functorial_up_to_class():
    cat, oracle = subset_poset(2)
    rall = all_morphisms_class(cat, oracle)
    full = frozenset({0, 1})
    a, b = frozenset({0}), frozenset({1})
    empty = frozenset()
    # chain empty -> a -> full with covers
    f1 = (empty, a)
    f2 = (a, full)
    phi_x = (empty, empty)
    phi_y = (a, a)
    phi_z = (b, full)
    span_f1 = fs.theta_span(rall, f1, phi_x, phi_y)
    span_f2 = fs.theta_span(rall, f2, phi_y, phi_z)
    span_comp = fs.theta_span(rall, cat.compose(f1, f2), phi_x, phi_z)
    composite = fs.compose_spans(rall, span_f1, span_f2)
    classes = fs.span_pi0(rall, empty, b)
    assert classes.same_class(span_comp, composite)


def test_theta_span_rejects_cover_outside_class():
    cat, oracle = subset_poset(2)
    rid = fs.morphism_class(cat, {cat.ident[x] for x in cat.objects},
                            {k: v for k, v in oracle.items()
                             if cat.src[k[0]] == cat.tgt[k[0]] and cat.src[k[1]] == cat.tgt[k[1]]})
    full = frozenset({0, 1})
    sub = frozenset({0})
    with pytest.raises(InvalidClass):
        fs.theta_span(rid, cat.ident[full], (sub, full), (sub, full))


def test_theta_span_coherent_on_all_composable_pairs():
    cat, oracle = subset_poset(2)
    rall = all_morphisms_class(cat, oracle)
    empty = frozenset()
    full = frozenset({0, 1})
    covers = {x: (empty, x) if x != frozenset({1}) else cat.ident[x] for x in cat.objects}
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.tgt[f] != cat.src[g]:
                continue
            x, y, z = cat.src[f], cat.tgt[f], cat.tgt[g]
            span_f = fs.theta_span(rall, f, covers[x], covers[y])
            span_g = fs.theta_span(rall, g, covers[y], covers[z])
            span_fg = fs.theta_span(rall, cat.compose(f, g), covers[x], covers[z])
            composite = fs.compose_spans(rall, span_f, span_g)
            classes = fs.span_pi0(rall, cat.src[covers[x]], cat.src[covers[z]])
            assert classes.same_class(span_fg, composite)


def load_bench_docs():
    """``bench/docs.py`` builds plain-table documents and imports only the standard library."""
    path = Path(__file__).resolve().parent.parent / "bench" / "docs.py"
    spec = importlib.util.spec_from_file_location("bench_docs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def oracle_zoo():
    docs = load_bench_docs()
    cases = [("poset2", subset_poset(2)[0]), ("poset3", subset_poset(3)[0])]
    cases += [(f"cylinder{k}", jsonio.category_from_json(docs.cylinder(k, 2)[0])) for k in range(1, 6)]
    cases += [("chain3", fs.chain_category(3)), ("chain1", fs.chain_category(1)),
              ("chain11", fs.chain_category(11)),  # the repr of object 1 is a prefix of 10's
              ("cylinder-fixture", cylinder_category()[0]),
              ("discrete", fs.discrete_category(["x", "y"]))]
    return cases


def generating_sets(cat):
    """The identities, every morphism, and each single morphism."""
    return [set(), set(cat.morphisms)] + [{m} for m in cat.morphisms]


@pytest.mark.parametrize("cat", [pytest.param(cat, id=name) for name, cat in oracle_zoo()])
def test_localization_matches_pairwise_oracle(cat):
    """Span components from the arrows into each apex, R-homotopy from the
    section sets of (r, g) and the composition closure equal the pairwise search."""
    pairs = [{m, m2} for m in cat.morphisms for m2 in cat.morphisms]
    for members in generating_sets(cat) + pairs:
        assert close_composition(cat, members) == spans_oracle.close_composition(cat, members)
    for members in generating_sets(cat):
        rcls = fs.morphism_class(cat, members)
        for x in cat.objects:
            for y in cat.objects:
                assert fs.span_pi0(rcls, x, y).classes == spans_oracle.span_pi0(rcls, x, y).classes
                assert (fs.r_homotopy_classes(rcls, x, y)
                        == spans_oracle.r_homotopy_classes(rcls, x, y))
        for f in cat.morphisms:
            for f2 in cat.morphisms:
                assert fs.r_homotopic(rcls, f, f2) == spans_oracle.r_homotopic(rcls, f, f2)


def test_close_composition_of_a_chain_of_generators():
    """The covering relations of a chain generate every arrow, over several rounds."""
    cat = fs.chain_category(5)
    members = {(i, i + 1) for i in range(5)}
    assert close_composition(cat, members) == spans_oracle.close_composition(cat, members)
    assert close_composition(cat, members) == frozenset(cat.morphisms)
