"""Shared instance zoo for the test suite."""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import finstack as fs
import finstack.kan as kan
import finstack.simplicial as simplicial
from finstack.category import sorted_ids, validate_category
from finstack.errors import EnumerationBudgetExceeded

import kan_oracle
from nerve_oracle import tabulated_nerve

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_jobs():
    """The benchmark's job generators, ``bench/jobs.py``, as a module."""
    sys.path.insert(0, str(BENCH))  # jobs.py imports its sibling docs.py
    try:
        spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def z2():
    return fs.cyclic_groupoid(2)


def z3():
    return fs.cyclic_groupoid(3)


def s3():
    return fs.symmetric_groupoid(3)


def dihedral4():
    """The dihedral group of order 8 as pairs (rotation, reflection); it has no constructor."""
    elements = [(r, f) for f in (0, 1) for r in range(4)]
    mult = {((r, f), (s, h)): ((r + (-s if f else s)) % 4, f ^ h)
            for r, f in elements for s, h in elements}
    return fs.groupoid_from_group(elements, mult, (0, 0))


def quaternion8():
    """The quaternion group of order 8 as pairs (sign, unit) with unit in 1, i, j, k."""
    units = {("1", u): (1, u) for u in "1ijk"}
    units.update({(u, "1"): (1, u) for u in "1ijk"})
    units.update({(u, u): (-1, "1") for u in "ijk"})
    for a, b, c in ("ijk", "jki", "kij"):
        units[(a, b)], units[(b, a)] = (1, c), (-1, c)
    elements = [(s, u) for s in (1, -1) for u in "1ijk"]
    mult = {}
    for s, u in elements:
        for t, v in elements:
            sign, w = units[(u, v)]
            mult[((s, u), (t, v))] = (s * t * sign, w)
    return fs.groupoid_from_group(elements, mult, (1, "1"))


def elementary_abelian8():
    """(Z/2)^3 as bit triples under coordinatewise addition."""
    elements = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    mult = {(x, y): tuple(p ^ q for p, q in zip(x, y)) for x in elements for y in elements}
    return fs.groupoid_from_group(elements, mult, (0, 0, 0))


def pair2():
    return fs.pair_groupoid([1, 2])


def pt():
    return fs.point_groupoid()


def swap_action():
    """Z/2 acting on two points by the swap: connected, trivial isotropy."""
    g = z2()
    return fs.action_groupoid([1, 2], g, lambda x, k: x if k == 0 else (3 - x))


def self_action(group=None):
    """A finite group acting on itself by right translation."""
    g = group or z2()
    return fs.action_groupoid(list(g.morphisms), g, lambda x, k: g.compose(x, k))


def s3_on_letters():
    """S3 permuting three letters: connected, with isotropy Z/2 at each letter."""
    return fs.action_groupoid(range(3), s3(), lambda x, p: p[x])


def apply_columns(columns, vector: dict) -> dict:
    """The sparse vector sum_i vector[i] * columns[i], zeros dropped."""
    out: dict = {}
    for i, c in vector.items():
        for r, a in columns[i].items():
            out[r] = out.get(r, 0) + c * a
    return {r: v for r, v in out.items() if v}


def is_sparse_chain_map(source, target, chain_map, top: int) -> bool:
    """Whether d(f(x)) = f(d(x)) for every basis element x in degrees 1..top."""
    return all(apply_columns(target.boundary[k], chain_map[k][x])
               == apply_columns(chain_map[k - 1], source.boundary[k][x])
               for k in range(1, top + 1) for x in range(source.dim(k)))


def groupoid_zoo():
    return [
        ("Z2", z2()),
        ("Z3", z3()),
        ("pair", pair2()),
        ("swap-action", swap_action()),
    ]


def point_inclusion(target, obj):
    p = pt()
    return fs.functor(p, target, {"pt": obj}, {("pt", "pt"): target.ident[obj]})


def weak_equivalence_zoo():
    """Named weak equivalences used by the Morita-invariance tests."""
    pairs = []
    pairs.append(("pt->pair", point_inclusion(pair2(), 1)))
    sa = self_action()
    pairs.append(("pt->selfaction", point_inclusion(sa, 0)))

    # discrete 2-point groupoid into Z/2 acting freely on Z/2 x {a, b}
    g = z2()
    points = [(h, y) for h in (0, 1) for y in ("a", "b")]
    free = fs.action_groupoid(points, g, lambda x, k: ((x[0] + k) % 2, x[1]))
    disc = fs.validate_groupoid(
        ["a", "b"],
        ["ea", "eb"],
        {"ea": "a", "eb": "b"},
        {"ea": "a", "eb": "b"},
        {("ea", "ea"): "ea", ("eb", "eb"): "eb"},
        {"a": "ea", "b": "eb"},
        {"ea": "ea", "eb": "eb"},
    )
    incl = fs.functor(disc, free,
                      {"a": (0, "a"), "b": (0, "b")},
                      {"ea": ((0, "a"), 0), "eb": ((0, "b"), 0)})
    pairs.append(("orbits->free-action", incl))
    return pairs


def cylinder_category():
    """Five objects; V covers X with two sections, making f and f2 homotopic.

    R is {identities, r}.  The two isolated objects keep the instance honest
    about components that play no role.
    """
    objects = ["A", "B", "V", "X", "Y"]
    ids = {x: ("id", x) for x in objects}
    morphisms = list(ids.values()) + ["r", "t", "t2", "e1", "e2", "g", "f", "f2", "h1", "h2"]
    src = {m: m[1] for m in ids.values()}
    tgt = {m: m[1] for m in ids.values()}
    src.update({"r": "V", "t": "X", "t2": "X", "e1": "V", "e2": "V",
                "g": "V", "f": "X", "f2": "X", "h1": "V", "h2": "V"})
    tgt.update({"r": "X", "t": "V", "t2": "V", "e1": "V", "e2": "V",
                "g": "Y", "f": "Y", "f2": "Y", "h1": "Y", "h2": "Y"})
    comp = {}
    for m in morphisms:
        comp[(ids[src[m]], m)] = m
        comp[(m, ids[tgt[m]])] = m
    comp.update({
        ("t", "r"): ("id", "X"), ("t2", "r"): ("id", "X"),
        ("t", "e1"): "t", ("t", "e2"): "t2", ("t2", "e1"): "t", ("t2", "e2"): "t2",
        ("t", "g"): "f", ("t2", "g"): "f2",
        ("t", "h1"): "f", ("t", "h2"): "f2", ("t2", "h1"): "f", ("t2", "h2"): "f2",
        ("r", "t"): "e1", ("r", "t2"): "e2", ("r", "f"): "h1", ("r", "f2"): "h2",
        ("e1", "r"): "r", ("e2", "r"): "r",
        ("e1", "e1"): "e1", ("e1", "e2"): "e2", ("e2", "e1"): "e1", ("e2", "e2"): "e2",
        ("e1", "g"): "h1", ("e2", "g"): "h2",
        ("e1", "h1"): "h1", ("e1", "h2"): "h2", ("e2", "h1"): "h1", ("e2", "h2"): "h2",
    })
    cat = validate_category(objects, morphisms, src, tgt, comp, ids)
    rcls = fs.morphism_class(cat, set(ids.values()) | {"r"})
    return cat, rcls


def subset_poset(n=2):
    """Poset of subsets of {0..n-1} with the full meet-pullback oracle."""
    universe = list(range(n))
    subsets = []
    for mask in range(1 << n):
        subsets.append(frozenset(i for i in universe if mask & (1 << i)))
    cat = fs.poset_category(subsets, lambda a, b: a <= b)
    oracle = {}
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.tgt[f] != cat.tgt[g]:
                continue
            a, b = cat.src[f], cat.src[g]
            meet = a & b
            oracle[(f, g)] = (meet, (meet, a), (meet, b))
    return cat, oracle


def all_morphisms_class(cat, oracle=None):
    return fs.morphism_class(cat, set(cat.morphisms), oracle)


def gauge_cocycle(target, cover_sets, anchor, gauges):
    """Deterministic valid cocycle from per-chart gauge arrows.

    ``anchor[w]`` is an object; ``gauges[(i, w)]`` is an arrow with source
    anchor[w].  Then a_i = tgt(gauge) and gamma_ij = inv(gauge_i) . gauge_j,
    which satisfies both cocycle conditions by construction.
    """
    cov = fs.covered_space(sorted_ids({w for part in cover_sets.values() for w in part}),
                           cover_sets)
    a = {i: {w: target.tgt[gauges[(i, w)]] for w in cov.cover[i]} for i in cov.indices()}
    gamma = {}
    for i in cov.indices():
        for j in cov.indices():
            gamma[(i, j)] = {w: target.compose(target.inv[gauges[(i, w)]], gauges[(j, w)])
                             for w in cov.overlap(i, j)}
    return fs.validate_cocycle(cov, target, a, gamma)


def cocycle_zoo():
    """Generated descent data over small bases, at least five instances."""
    instances = []

    g2 = z2()
    instances.append(("trivial-two-charts", gauge_cocycle(
        g2,
        {"0": {"u", "v"}, "1": {"v"}},
        {"u": "*", "v": "*"},
        {("0", "u"): 0, ("0", "v"): 0, ("1", "v"): 0},
    )))
    instances.append(("z2-gauge-mix", gauge_cocycle(
        g2,
        {"0": {"u", "v", "w"}, "1": {"v", "w"}, "2": {"w"}},
        {"u": "*", "v": "*", "w": "*"},
        {("0", "u"): 0, ("0", "v"): 1, ("0", "w"): 0,
         ("1", "v"): 0, ("1", "w"): 1, ("2", "w"): 0},
    )))

    g3 = z3()
    instances.append(("z3-three-charts", gauge_cocycle(
        g3,
        {"0": {"p", "q"}, "1": {"q", "r"}, "2": {"p", "r"}},
        {"p": "*", "q": "*", "r": "*"},
        {("0", "p"): 1, ("0", "q"): 2, ("1", "q"): 0,
         ("1", "r"): 1, ("2", "p"): 0, ("2", "r"): 2},
    )))

    pg = pair2()
    instances.append(("pair-groupoid-base4", gauge_cocycle(
        pg,
        {"0": {"w0", "w1", "w2", "w3"}, "1": {"w1", "w3"}},
        {"w0": 1, "w1": 2, "w2": 1, "w3": 1},
        {("0", "w0"): (1, 1), ("0", "w1"): (2, 1), ("0", "w2"): (1, 2), ("0", "w3"): (1, 1),
         ("1", "w1"): (2, 2), ("1", "w3"): (1, 2)},
    )))

    du = fs.disjoint_union(z2(), pt())
    instances.append(("disconnected-target", gauge_cocycle(
        du,
        {"0": {"u"}, "1": {"u"}},
        {"u": (0, "*")},
        {("0", "u"): (0, 0), ("1", "u"): (0, 1)},
    )))

    s = s3()
    e = tuple(range(3))
    tr = (1, 2, 0)
    instances.append(("s3-two-points", gauge_cocycle(
        s,
        {"0": {"x", "y"}, "1": {"x", "y"}},
        {"x": "*", "y": "*"},
        {("0", "x"): e, ("0", "y"): tr, ("1", "x"): tr, ("1", "y"): e},
    )))
    return instances


def two_chart_z3_cocycle(n: int):
    """W = w0..w{n-1} under two charts A and B that both cover it, a = *,
    gamma_AB(w_k) = k mod 3 and gamma_BA(w_k) = -k mod 3."""
    points = [f"w{k}" for k in range(n)]
    gauges = {("A", w): 0 for w in points} | {("B", f"w{k}"): k % 3 for k in range(n)}
    return gauge_cocycle(z3(), {"A": set(points), "B": set(points)}, {w: "*" for w in points},
                         gauges)


STRING_LEVELS = simplicial.string_levels  # unpatched, so corruptions never stack


def corrupted_string_levels(degree: int, index: int, j: int, value: int):
    """``string_levels`` with entry ``index`` of face column j in ``degree``
    (d_j of string ``index``) set to ``value``; the columns it builds from
    are untouched."""
    def corrupted(*args):
        for k, (level, cols) in enumerate(STRING_LEVELS(*args)):
            if k == degree:
                cols = list(cols)
                cols[j] = list(cols[j])
                cols[j][index] = value
            yield level, cols

    return corrupted


def covered_corruptions(category, levels: int):
    """(degree, string index, entry, value) for every single-entry change of a
    face column that the d_i s_j identities read: every string below the top
    degree, and the top-degree strings that hold an identity, as the
    tabulated nerve lists them."""
    clean = list(STRING_LEVELS(category, category.morphisms, levels))
    oracle = tabulated_nerve(category, levels)
    for k in range(1, levels + 1):
        for index, (x, row) in enumerate(zip(oracle.simplices[k], zip(*clean[k][1]))):
            if k < levels or any(map(category.is_identity, x)):
                for j, entry in enumerate(row):
                    for value in range(len(clean[k - 1][0])):
                        if value != entry:
                            yield k, index, j, value


def level_strings(levels: list, arrows: tuple) -> list:
    """The strings of each degree of ``string_levels(g, arrows, cap)``, read
    back off its output: string x of degree n >= 1 is the string that its
    prefix column d_n names (none for n = 1) followed by its last arrow."""
    strings = [tuple(levels[0][0])]
    for n, (lasts, cols) in enumerate(levels[1:], 1):
        strings.append(tuple((strings[-1][p] if n > 1 else ()) + (arrows[j],)
                             for p, j in zip(cols[-1], lasts)))
    return strings


def basis_strings(g, cx) -> dict:
    """Each degree's basis of the normalized chains of a nerve of g, as the
    identity-free strings that its indices name (see ``level_strings``)."""
    arrows = tuple(a for a in g.morphisms if not g.is_identity(a))
    strings = level_strings(list(STRING_LEVELS(g, arrows, cx.top_degree)), arrows)
    return {n: tuple(strings[n][x] for x in basis) for n, basis in cx.basis.items()}


def assert_levels_match_oracle(category, cap: int) -> None:
    """``string_levels`` over all arrows agrees with the tabulated nerve: the
    strings read back off its last arrows and prefix columns are the
    oracle's, each degree has one face column per face and entry x of column
    i is the index one degree down of the oracle's d_i x, the degeneracy
    tables built from the columns point at the oracle's s_m, and their images
    are the strings that hold an identity."""
    oracle = tabulated_nerve(category, cap)
    levels = list(simplicial.string_levels(category, category.morphisms, cap))
    slots = simplicial._slots(category)
    assert level_strings(levels, category.morphisms) == [oracle.simplices[n] for n in range(cap + 1)]
    table = []
    for n, (level, cols) in enumerate(levels):
        strings = oracle.simplices[n]
        assert len(cols) == (n + 1 if n else 0)
        if n:
            below = oracle.simplices[n - 1]
            assert [[below[q] for q in col] for col in cols] == \
                [[oracle.face(n, i, x) for x in strings] for i in range(n + 1)]
            images = {y for up in table for y in up}
            assert [y in images for y in range(len(strings))] == \
                [any(map(category.is_identity, x)) for x in strings]
        if n < cap:
            table = simplicial._degeneracies(category, level, cols, table, slots)
            above = oracle.simplices[n + 1]
            assert [[above[y] for y in up] for up in table] == \
                [[oracle.degeneracy(n, m, x) for x in strings] for m in range(n + 1)]


def assert_search_matches_oracle(sizes, constraints) -> None:
    """``kan.compatible_families`` returns the families of the score/fresh
    oracle, places its variables in the oracle's order (read off the one
    ``max`` call that picks each), and raises at exactly the budgets at
    which the oracle raises: those below the oracle's node count."""
    families, order, nodes = kan_oracle.search_profile(sizes, constraints)
    picks = []

    def picking_max(*args, **kwargs):
        picks.append(max(*args, **kwargs))
        return picks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kan, "max", picking_max, raising=False)
        mp.setattr(kan, "SEARCH_BUDGET", math.inf)
        assert kan.compatible_families(sizes, constraints) == families
    assert picks == order
    for budget in sorted({0, nodes // 2, nodes - 1, nodes} - {-1}):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kan, "SEARCH_BUDGET", budget)
            for search in (kan.compatible_families, kan_oracle.compatible_families):
                if budget < nodes:
                    with pytest.raises(EnumerationBudgetExceeded):
                        search(sizes, constraints)
                else:
                    assert search(sizes, constraints) == families


def recorded_searches(monkeypatch, run) -> tuple:
    """``run()``'s result and the (sizes, constraints) of every
    ``kan.compatible_families`` call it makes."""
    calls = []
    search = kan.compatible_families
    monkeypatch.setattr(kan, "compatible_families",
                        lambda sizes, constraints: calls.append((sizes, constraints))
                        or search(sizes, constraints))
    try:
        return run(), calls
    finally:
        monkeypatch.undo()
