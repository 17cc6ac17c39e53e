from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finstack as fs
import finstack.jsonio as jio
from descent_oracle import (
    TorsorViolation,
    glue_torsor,
    morphism_violations_by_ids,
    search_cocycle_morphism,
    search_space,
    search_torsor_isomorphism,
    validate_cocycle_by_triples,
    validate_torsor,
)
from finstack.category import sorted_ids
from finstack.errors import (
    AxiomViolation,
    C1Violation,
    C2Violation,
    DanglingId,
    FinstackError,
    MismatchedTarget,
)
from finstack.torsor import cocycle_morphism_violations
from support import (cocycle_zoo, gauge_cocycle, load_jobs, pair2, pt, s3, two_chart_z3_cocycle, z2,
                     z3)

GROUPS = [z2(), z3(), s3()]


def one_chart_cocycle():
    g = z2()
    cov = fs.covered_space(["u", "v"], {"0": {"u", "v"}})
    return fs.validate_cocycle(cov, g, {"0": {"u": "*", "v": "*"}},
                               {("0", "0"): {"u": 0, "v": 0}})


def twist_cocycle():
    """Two charts over one point with transition g; valid by C2 since g.g = e."""
    g = z2()
    cov = fs.covered_space(["w"], {"0": {"w"}, "1": {"w"}})
    return fs.validate_cocycle(
        cov, g,
        {"0": {"w": "*"}, "1": {"w": "*"}},
        {("0", "0"): {"w": 0}, ("0", "1"): {"w": 1},
         ("1", "0"): {"w": 1}, ("1", "1"): {"w": 0}},
    )


def test_cover_must_cover():
    with pytest.raises(DanglingId):
        fs.covered_space(["u", "v"], {"0": {"u"}})


def test_repeated_base_point_rejected():
    with pytest.raises(AxiomViolation, match="distinct-points fails at 'w'"):
        fs.covered_space(["w", "v", "w"], {"0": {"v", "w"}})


def test_one_chart_cocycle_valid():
    c = one_chart_cocycle()
    assert c.cov.indices() == ("0",)


def test_twist_cocycle_valid():
    twist_cocycle()


def test_c2_violation_witness():
    g = z2()
    cov = fs.covered_space(["w"], {"0": {"w"}, "1": {"w"}})
    with pytest.raises(C2Violation) as err:
        fs.validate_cocycle(
            cov, g,
            {"0": {"w": "*"}, "1": {"w": "*"}},
            {("0", "0"): {"w": 0}, ("0", "1"): {"w": 1},
             ("1", "0"): {"w": 0}, ("1", "1"): {"w": 0}},
        )
    assert err.value.witness == ("w", "0", "1", "0")


def test_c2_violation_witness_is_the_first_in_id_order():
    """C2 fails at w10 and w2 of one chart triple; points are scanned in id
    order, where 'w10' comes before 'w2', so w10 is the witness."""
    g = z2()
    points = ["w2", "w1", "w10"]
    cov = fs.covered_space(points, {"0": set(points), "1": set(points)})
    with pytest.raises(C2Violation) as err:
        fs.validate_cocycle(
            cov, g,
            {"0": dict.fromkeys(points, "*"), "1": dict.fromkeys(points, "*")},
            {("0", "0"): dict.fromkeys(points, 0), ("0", "1"): dict.fromkeys(points, 1),
             ("1", "0"): {"w1": 1, "w10": 0, "w2": 0}, ("1", "1"): dict.fromkeys(points, 0)},
        )
    assert err.value.witness == ("w10", "0", "1", "0")
    assert str(err.value) == "C2 fails at w='w10', (i,j,k)=('0','1','0')"


def test_overlap_lists_the_common_points_in_id_order():
    for _, c in cocycle_zoo():
        cov = c.cov
        for labels in [()] + [(i, j, k) for i in cov.indices() for j in cov.indices()
                              for k in cov.indices()]:
            common = set(cov.points).intersection(*(cov.cover[i] for i in labels))
            assert cov.overlap(*labels) == sorted_ids(common)


def test_c1_violation():
    g = pair2()
    cov = fs.covered_space(["w"], {"0": {"w"}, "1": {"w"}})
    with pytest.raises(C1Violation):
        fs.validate_cocycle(
            cov, g,
            {"0": {"w": 1}, "1": {"w": 1}},
            {("0", "0"): {"w": (1, 1)}, ("0", "1"): {"w": (2, 2)},
             ("1", "0"): {"w": (1, 1)}, ("1", "1"): {"w": (1, 1)}},
        )


def test_trivial_cover_torsor_is_product():
    c = one_chart_cocycle()
    t = fs.cocycle_to_torsor(c)
    assert sum(map(len, t.fibers.values())) == 4
    for w in c.cov.points:
        fiber = t.fibers[w]
        assert len(fiber) == 2
        u = fiber[0]
        for v in fiber:
            delta = t.delta(u, v)
            assert c.target.src[delta] == t.f(u)
            assert c.target.tgt[delta] == t.f(v)


def test_twist_torsor_size_and_cartesianness():
    t = fs.cocycle_to_torsor(twist_cocycle())
    assert sum(map(len, t.fibers.values())) == 2
    validate_torsor(t)


def test_empty_base_torsor():
    g = z2()
    cov = fs.covered_space([], {})
    c = fs.validate_cocycle(cov, g, {}, {})
    t = fs.cocycle_to_torsor(c)
    assert t.fibers == {}
    assert fs.torsor_to_cocycle(t).cov.points == ()


def test_roundtrip_reproduces_cocycle_on_the_nose():
    for name, c in cocycle_zoo():
        c2 = fs.torsor_to_cocycle(fs.cocycle_to_torsor(c))
        assert c2.a == c.a, name
        assert c2.gamma == c.gamma, name


def test_roundtrip_admits_morphism_both_ways():
    for name, c in cocycle_zoo():
        c2 = fs.torsor_to_cocycle(fs.cocycle_to_torsor(c))
        for source, target in ((c, c2), (c2, c)):
            morphism = fs.find_cocycle_morphism(source, target)
            assert morphism is not None, name
            assert fs.check_cocycle_morphism(source, target, morphism.delta), name


def test_identity_morphism_from_gamma():
    for name, c in cocycle_zoo():
        delta = {(i, j): dict(table) for (i, j), table in c.gamma.items()}
        assert fs.check_cocycle_morphism(c, c, delta), name


def assert_constructions_validate(c):
    """Oracle: gluing a torsor and reading its cocycle back, both built without
    validation, pass the exhaustive validators unchanged."""
    t = fs.cocycle_to_torsor(c)
    assert validate_torsor(t) is t
    back = fs.torsor_to_cocycle(t)
    assert fs.validate_cocycle(back.cov, back.target, back.a, back.gamma) == back


def test_torsor_invariants_exhaustive():
    for name, c in cocycle_zoo():
        assert_constructions_validate(c)


def test_corrupted_pairing_caught():
    """The validator reads the pairing through ``Torsor.delta``."""
    t = fs.cocycle_to_torsor(one_chart_cocycle())
    u, v = t.fibers["u"]

    class BadPairing(fs.Torsor):
        def delta(self, x, y):
            return super().delta(x, x if (x, y) == (u, v) else y)

    with pytest.raises(TorsorViolation):
        validate_torsor(BadPairing(*t))


@pytest.mark.parametrize("law", ["fiber-domain", "fibers-disjoint", "section"])
def test_corrupted_fibers_caught(law):
    """The fibers are keyed by W, pairwise disjoint, and hold the sections."""
    t = fs.cocycle_to_torsor(one_chart_cocycle())
    fu, fv = t.fibers["u"], t.fibers["v"]
    fibers = {"fiber-domain": {"u": fu},
              "fibers-disjoint": {"u": fu, "v": fv + fu[:1]},
              "section": {"u": fu[1:], "v": fv}}[law]
    with pytest.raises(TorsorViolation) as err:
        validate_torsor(t._replace(fibers=fibers))
    assert err.value.law == law


def test_torsor_is_held_as_its_fibers():
    c = two_chart_z3_cocycle(12)
    t = fs.cocycle_to_torsor(c)
    assert list(t.fibers) == list(c.cov.points)
    assert all(fiber == sorted_ids(fiber) and len(fiber) == 3 for fiber in t.fibers.values())
    elements = [u for fiber in t.fibers.values() for u in fiber]
    assert len(set(elements)) == len(elements) == 36


def test_point_cocycles_over_group_are_all_equivalent():
    # over a discrete base a group-valued twist trivializes chartwise
    c1 = twist_cocycle()
    g = z2()
    cov = fs.covered_space(["w"], {"0": {"w"}, "1": {"w"}})
    trivial = fs.validate_cocycle(
        cov, g,
        {"0": {"w": "*"}, "1": {"w": "*"}},
        {("0", "0"): {"w": 0}, ("0", "1"): {"w": 0},
         ("1", "0"): {"w": 0}, ("1", "1"): {"w": 0}},
    )
    assert fs.find_cocycle_morphism(c1, trivial) is not None
    assert fs.torsor_isomorphic(fs.cocycle_to_torsor(c1), fs.cocycle_to_torsor(trivial))


def component_obstruction_pair():
    # disconnected target: descent data anchored in different components
    du = fs.disjoint_union(z2(), pt())
    c_left = gauge_cocycle(du, {"0": {"u"}}, {"u": (0, "*")}, {("0", "u"): (0, 0)})
    c_right = gauge_cocycle(du, {"0": {"u"}}, {"u": (1, "pt")}, {("0", "u"): (1, ("pt", "pt"))})
    return c_left, c_right


def test_component_obstruction_blocks_morphisms():
    c_left, c_right = component_obstruction_pair()
    assert fs.find_cocycle_morphism(c_left, c_right) is None
    assert not fs.torsor_isomorphic(fs.cocycle_to_torsor(c_left), fs.cocycle_to_torsor(c_right))


def test_morphism_transport_to_torsor_isomorphism():
    for name, c in cocycle_zoo():
        c2 = fs.torsor_to_cocycle(fs.cocycle_to_torsor(c))
        if fs.find_cocycle_morphism(c, c2) is not None:
            assert fs.torsor_isomorphic(fs.cocycle_to_torsor(c), fs.cocycle_to_torsor(c2)), name


def test_torsor_isomorphic_reflexive():
    t = fs.cocycle_to_torsor(twist_cocycle())
    assert fs.torsor_isomorphic(t, t)


def test_transition_data_export():
    c = twist_cocycle()
    data = c.transition_data()
    assert set(data) == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}
    assert data[("0", "1")] == {"w": 1}


def test_constructed_data_failing_the_check_raises():
    # C2 fails on this unvalidated cocycle, so the pointwise data breaks M2
    g = z2()
    cov = fs.covered_space(["w"], {"0": {"w"}, "1": {"w"}})
    a = {"0": {"w": "*"}, "1": {"w": "*"}}
    broken = fs.Cocycle(cov=cov, target=g, a=a,
                        gamma={("0", "0"): {"w": 0}, ("0", "1"): {"w": 1},
                               ("1", "0"): {"w": 0}, ("1", "1"): {"w": 0}})
    trivial = fs.validate_cocycle(cov, g, a, {ij: {"w": 0} for ij in broken.gamma})
    with pytest.raises(AxiomViolation):
        fs.find_cocycle_morphism(broken, trivial)
    delta = {ik: {"w": 0} for ik in broken.gamma}
    bad = cocycle_morphism_violations(broken, trivial, delta)
    assert bad == morphism_violations_by_ids(broken, trivial, delta)
    assert bad == [("M2-left", "w", "0", "1", "0"), ("M2-left", "w", "0", "1", "1")]


def assert_agrees_with_oracle(c, c2, name):
    morphism = fs.find_cocycle_morphism(c, c2)
    if morphism is not None:
        assert fs.check_cocycle_morphism(c, c2, morphism.delta), name
    assert (morphism is None) == (search_cocycle_morphism(c, c2) is None), name


def test_constructor_agrees_with_search_oracle_on_zoo():
    zoo = cocycle_zoo()
    for name, c in zoo:
        for name2, c2 in zoo:
            if c.cov.points != c2.cov.points or c.target != c2.target:
                with pytest.raises(MismatchedTarget):
                    fs.find_cocycle_morphism(c, c2)
            else:
                assert_agrees_with_oracle(c, c2, (name, name2))
    c_left, c_right = component_obstruction_pair()
    assert_agrees_with_oracle(c_left, c_right, "component-obstruction")
    assert_agrees_with_oracle(c_right, c_left, "component-obstruction-reversed")


@st.composite
def gauge_cocycles(draw, group, points):
    """A valid cocycle over ``points`` with a random cover and random gauge arrows."""
    cover = {str(i): set(draw(st.lists(st.sampled_from(points), min_size=1, unique=True)))
             for i in range(draw(st.integers(1, 3)))}
    for w in points:
        if not any(w in part for part in cover.values()):
            cover[draw(st.sampled_from(sorted(cover)))].add(w)
    gauges = {(i, w): draw(st.sampled_from(group.morphisms))
              for i in sorted(cover) for w in sorted(cover[i])}
    return gauge_cocycle(group, cover, {w: "*" for w in points}, gauges)


@st.composite
def cocycle_pairs(draw):
    """Two cocycles over one base and one group: a random pair or a roundtrip pair."""
    group = draw(st.sampled_from(GROUPS))
    points = [f"w{n}" for n in range(draw(st.integers(1, 3)))]
    c = draw(gauge_cocycles(group, points))
    if draw(st.booleans()):
        return c, fs.torsor_to_cocycle(fs.cocycle_to_torsor(c))
    return c, draw(gauge_cocycles(group, points))


@settings(max_examples=60, deadline=None)
@given(cocycle_pairs())
def test_pointwise_morphisms_on_random_gauge_cocycles(pair):
    c, c2 = pair
    for source, target in ((c, c2), (c2, c)):
        # a group has one object, so every hom-set is nonempty and a morphism exists
        morphism = fs.find_cocycle_morphism(source, target)
        assert morphism is not None
        assert fs.check_cocycle_morphism(source, target, morphism.delta)
        if search_space(source, target) <= 4096:
            assert search_cocycle_morphism(source, target) is not None


@st.composite
def random_gauge_cocycles(draw):
    group = draw(st.sampled_from(GROUPS))
    return draw(gauge_cocycles(group, [f"w{n}" for n in range(draw(st.integers(1, 3)))]))


@settings(max_examples=60, deadline=None)
@given(random_gauge_cocycles())
def test_constructions_validate_on_random_gauge_cocycles(c):
    assert_constructions_validate(c)


DISCONNECTED = [fs.disjoint_union(z2(), pt()), fs.disjoint_union(pair2(), z2()),
                fs.disjoint_union(z3(), pair2())]


@st.composite
def anchored_cocycles(draw, target, points,
                      charts=st.integers(1, 3).map(lambda n: [str(i) for i in range(n)])):
    """A valid cocycle with random anchors, so points may land in different
    components; ``charts`` draws the chart ids."""
    cover = {i: set(draw(st.lists(st.sampled_from(points), min_size=1, unique=True)))
             for i in draw(charts)}
    for w in points:
        if not any(w in part for part in cover.values()):
            cover[draw(st.sampled_from(sorted(cover)))].add(w)
    anchor = {w: draw(st.sampled_from(target.objects)) for w in points}
    gauges = {(i, w): draw(st.sampled_from(target.morphisms_from(anchor[w])))
              for i in sorted(cover) for w in sorted(cover[i])}
    return gauge_cocycle(target, cover, anchor, gauges)


@st.composite
def disconnected_torsor_pairs(draw):
    target = draw(st.sampled_from(DISCONNECTED))
    points = [f"w{n}" for n in range(draw(st.integers(1, 3)))]
    return tuple(fs.cocycle_to_torsor(draw(anchored_cocycles(target, points))) for _ in "12")


@settings(max_examples=150, deadline=None)
@given(disconnected_torsor_pairs())
def test_direct_torsor_isomorphism_matches_search_oracle(pair):
    t1, t2 = pair
    assert fs.torsor_isomorphic(t1, t2) == search_torsor_isomorphism(t1, t2)


def test_direct_torsor_isomorphism_matches_search_oracle_on_zoo():
    zoo = cocycle_zoo() + list(zip(("left", "right"), component_obstruction_pair()))
    answers = set()
    for name, c in zoo:
        for name2, c2 in zoo:
            if c.cov.points == c2.cov.points and c.target == c2.target:
                t1, t2 = fs.cocycle_to_torsor(c), fs.cocycle_to_torsor(c2)
                answer = fs.torsor_isomorphic(t1, t2)
                assert answer == search_torsor_isomorphism(t1, t2), (name, name2)
                answers.add(answer)
    assert answers == {True, False}


def assert_glue_matches_oracle(c, name=None):
    """The union-find glue has the same fibers and sections, and its anchor
    and pairing tables agree with ``Torsor.f`` and ``Torsor.delta`` on every
    element and every pair in one fiber."""
    t = fs.cocycle_to_torsor(c)
    glued, f, delta = glue_torsor(c)
    assert t == glued, name
    elements = [u for fiber in t.fibers.values() for u in fiber]
    assert f == {u: t.f(u) for u in elements}, name
    assert delta == {(u, v): t.delta(u, v)
                     for fiber in t.fibers.values() for u in fiber for v in fiber}, name


def test_first_chart_glue_matches_union_find_oracle_on_zoo():
    for name, c in cocycle_zoo() + list(zip(("left", "right"), component_obstruction_pair())):
        assert_glue_matches_oracle(c, name)


def test_first_chart_glue_matches_union_find_oracle_on_400_points():
    assert_glue_matches_oracle(two_chart_z3_cocycle(400))


def test_first_chart_glue_matches_union_find_oracle_on_bench_documents():
    count = 0
    for job in load_jobs().WORKLOADS["descent"]():
        g = jio.groupoid_from_json(job.docs["g"])
        for key in sorted({"c", "c2"} & set(job.docs)):
            c = jio.cocycle_from_json(job.docs[key], g)
            assert_glue_matches_oracle(c, (job.name, key))
            count += 1
    assert count == 50


@st.composite
def prefix_chart_cocycles(draw):
    """Cocycles on the charts 1, 10 and 2, as strings or as ints: the repr of
    one chart id is a prefix of another's, so the first chart and the least
    chart point by repr could part ways."""
    target = draw(st.sampled_from(GROUPS + DISCONNECTED))
    points = [f"w{n}" for n in range(draw(st.integers(1, 3)))]
    return draw(anchored_cocycles(target, points, st.sampled_from([("1", "10", "2"), (1, 10, 2)])))


@settings(max_examples=150, deadline=None)
@given(prefix_chart_cocycles())
def test_first_chart_glue_matches_union_find_oracle_on_prefix_chart_ids(c):
    """(i0, w, alpha) is the least member of its class, i0 the first chart containing w."""
    assert_glue_matches_oracle(c)


@st.composite
def prefix_arrow_cocycles(draw):
    """Cocycles into Z/12, whose arrow 1 has a repr that is a prefix of those
    of the arrows 10 and 11."""
    points = [f"w{n}" for n in range(draw(st.integers(1, 3)))]
    return draw(anchored_cocycles(fs.cyclic_groupoid(12), points))


@settings(max_examples=50, deadline=None)
@given(prefix_arrow_cocycles())
def test_first_chart_glue_matches_union_find_oracle_on_prefix_arrow_ids(c):
    """Each fiber lists its elements in the order of the arrows out of a_i0(w)."""
    assert_glue_matches_oracle(c)


def per_point_charts(cov) -> dict:
    """The chart list of each point, as the torsor builders computed it on every call."""
    return {w: [i for i in cov.indices() if w in cov.cover[i]] for w in cov.points}


def test_chart_lists_match_the_per_point_scan_on_zoo():
    for name, c in cocycle_zoo():
        assert c.cov.charts == per_point_charts(c.cov), name
        assert list(c.cov.charts) == list(c.cov.points), name


@st.composite
def random_covers(draw):
    """A cover of up to six points by up to four charts, ids of mixed types
    whose reprs may be prefixes of each other's."""
    ids = ["w", "w1", "w10", 1, 10, -1, (1, 2)]
    points = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6, unique=True))
    charts = draw(st.lists(st.sampled_from(["1", "10", "2", 1, 10, 2]), min_size=1, max_size=4,
                           unique=True))
    cover = {i: set(draw(st.lists(st.sampled_from(points), unique=True))) for i in charts}
    for w in points:
        cover[draw(st.sampled_from(charts))].add(w)
    return points, cover


@settings(max_examples=200, deadline=None)
@given(random_covers())
def test_chart_lists_match_the_per_point_scan_on_random_covers(points_and_cover):
    points, cover = points_and_cover
    cov = fs.covered_space(points, cover)
    assert cov.charts == per_point_charts(cov)
    assert list(cov.charts) == list(cov.points)
    # the chart lists are derived, so equality still reads points and cover only
    assert cov == fs.covered_space(points, cover)


def mismatched_pairs():
    """Cocycles over another base set, and over the same base into another group."""
    c = twist_cocycle()
    other_base = gauge_cocycle(z2(), {"0": {"v"}}, {"v": "*"}, {("0", "v"): 0})
    other_target = gauge_cocycle(z3(), {"0": {"w"}, "1": {"w"}}, {"w": "*"},
                                 {("0", "w"): 0, ("1", "w"): 1})
    return [(c, other_base, "live over different base sets"),
            (c, other_target, "have different target groupoids")]


@pytest.mark.parametrize("c, c2, reason", mismatched_pairs(), ids=["base", "target"])
def test_mismatched_bases_raise_with_their_noun(c, c2, reason):
    for source, target in ((c, c2), (c2, c)):
        with pytest.raises(MismatchedTarget) as raised:
            fs.find_cocycle_morphism(source, target)
        assert str(raised.value) == f"cocycles {reason}"
        with pytest.raises(MismatchedTarget) as raised:
            fs.torsor_isomorphic(fs.cocycle_to_torsor(source), fs.cocycle_to_torsor(target))
        assert str(raised.value) == f"torsors {reason}"


BAD_MORPHISM_WITNESSES = """
from finstack.torsor import cocycle_morphism_violations
from support import gauge_cocycle, z2
points = [f"w{k}" for k in range(8)]
c = gauge_cocycle(z2(), {"0": set(points), "1": set(points)}, dict.fromkeys(points, "*"),
                  {(i, w): 0 for i in "01" for w in points})
delta = {(i, k): dict.fromkeys(points, 1 if (i, k) == ("0", "0") else 0) for i in "01" for k in "01"}
print(cocycle_morphism_violations(c, c, delta))
"""


def test_cocycle_morphism_witnesses_do_not_depend_on_the_hash_seed():
    """Witnesses come point by point in id order, not in the order of a set
    of points, so two hash seeds give one list."""
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(tests).parent / "src")
    lists = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", BAD_MORPHISM_WITNESSES], capture_output=True,
                             text=True, env=env, check=True)
        lists.append(run.stdout)
    assert lists[0] == lists[1]
    assert lists[0].startswith("[('M2-right', 'w0', '0', '0', '1'), ('M2-left', 'w0', '0', '1', '0'), ")


def outcome(validate, *args) -> tuple | None:
    """The class, message and witness of the error ``validate`` raises, or None."""
    try:
        validate(*args)
    except FinstackError as err:
        return type(err), str(err), getattr(err, "witness", None)
    return None


def single_changes(table: dict, others):
    """``table`` with one entry set to each value of ``others(entry)``, and
    with one entry dropped."""
    for w, value in table.items():
        for other in others(value):
            yield {**table, w: other}
        yield {v: x for v, x in table.items() if v != w}


def corruptions(c):
    """(a, gamma) with one entry changed: an a value set to another object or
    to an undeclared id, or dropped; a gamma value set to another arrow with
    its endpoints, so that C1 still holds, or to an undeclared id, or dropped."""
    g = c.target
    for i, table in c.a.items():
        for changed in single_changes(table, lambda x: [o for o in g.objects if o != x] + ["ghost"]):
            yield {**c.a, i: changed}, c.gamma
    for ij, table in c.gamma.items():
        for changed in single_changes(table, lambda m: [n for n in g.hom(g.src[m], g.tgt[m]) if n != m]
                                      + ["ghost"]):
            yield c.a, {**c.gamma, ij: changed}


@st.composite
def small_cocycles(draw):
    """Valid cocycles on one to four charts over up to three points."""
    target = draw(st.sampled_from(GROUPS + DISCONNECTED + [pair2()]))
    points = [f"w{n}" for n in range(draw(st.integers(1, 3)))]
    charts = st.integers(1, 4).map(lambda n: [str(i) for i in range(n)])
    return draw(anchored_cocycles(target, points, charts))


@settings(max_examples=60, deadline=None)
@given(small_cocycles())
def test_every_single_corruption_fails_as_in_the_triple_scan(c):
    """C2 at the first chart of each point, with the rest of the validator,
    raises what the scan over every chart triple raises, witness included;
    a gamma changed within its hom-set breaks C2 but not C1, and the
    hand-built cocycle it gives breaks M2 as the id-based check says."""
    assert outcome(fs.validate_cocycle, c.cov, c.target, c.a, c.gamma) is None
    identity = c.gamma  # the identity morphism of c
    for a, gamma in corruptions(c):
        expected = outcome(validate_cocycle_by_triples, c.cov, c.target, a, gamma)
        assert expected is not None
        assert outcome(fs.validate_cocycle, c.cov, c.target, a, gamma) == expected
        if a is c.a and expected[0] is C2Violation:
            broken = fs.Cocycle(c.cov, c.target, a, gamma)
            bad = cocycle_morphism_violations(broken, c, identity)
            assert bad and bad == morphism_violations_by_ids(broken, c, identity)


@st.composite
def transition_tables(draw):
    """Anchors and gamma tables with the right endpoints but otherwise
    random, over Z/2, Z/3 or the pair groupoid: C2 holds or fails."""
    target = draw(st.sampled_from([z2(), z3(), pair2()]))
    points = [f"w{n}" for n in range(draw(st.integers(1, 2)))]
    cover = {str(i): set(draw(st.lists(st.sampled_from(points), min_size=1, unique=True)))
             for i in range(draw(st.integers(1, 3)))}
    for w in points:
        cover["0"].add(w)
    cov = fs.covered_space(points, cover)
    a = {i: {w: draw(st.sampled_from(target.objects)) for w in sorted(part)} for i, part in cover.items()}
    gamma = {(i, j): {w: draw(st.sampled_from(target.hom(a[i][w], a[j][w]))) for w in cov.overlap(i, j)}
             for i in cov.indices() for j in cov.indices()}
    return cov, target, a, gamma


@settings(max_examples=200, deadline=None)
@given(transition_tables())
def test_c2_at_the_first_charts_decides_c2(tables):
    assert outcome(fs.validate_cocycle, *tables) == outcome(validate_cocycle_by_triples, *tables)


@st.composite
def morphism_pairs(draw):
    """Two valid cocycles over one base and target with morphism data between them."""
    c = draw(small_cocycles())
    c2 = draw(anchored_cocycles(c.target, list(c.cov.points)))
    morphism = fs.find_cocycle_morphism(c, c2)
    if morphism is None:
        c2, morphism = c, fs.find_cocycle_morphism(c, c)
    return c, c2, morphism.delta


@settings(max_examples=60, deadline=None)
@given(morphism_pairs())
def test_every_single_delta_corruption_has_the_id_based_violations(pair):
    """Morphism data is not unique, so a changed arrow may still be valid."""
    c, c2, delta = pair
    assert cocycle_morphism_violations(c, c2, delta) == [] == morphism_violations_by_ids(c, c2, delta)
    for ik, table in delta.items():
        for changed in single_changes(table, lambda m: [n for n in c.target.morphisms if n != m]):
            corrupted = {**delta, ik: changed}
            assert cocycle_morphism_violations(c, c2, corrupted) == morphism_violations_by_ids(
                c, c2, corrupted)
