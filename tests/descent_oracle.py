"""Independent descent oracles: brute-force searches run under a budget.

``search_cocycle_morphism`` assigns one arrow of hom(a_i(w), a'_k(w)) to every
chart pair (i, k) and every point w of their overlap, and keeps a candidate
only if it passes the M1/M2 check; it is exponential in the number of slots.
``search_torsor_isomorphism`` tries every image of the first element of each
fiber and checks the induced bijection against f and the pairing.
``validate_torsor`` checks the torsor laws exhaustively; the torsors of
:mod:`finstack.torsor` are glued from validated cocycles and are correct by
construction, so the check lives here.  ``glue_torsor`` glues the chart
points with a union-find and names each class by its least member, which
:func:`finstack.torsor.cocycle_to_torsor` reads off the first chart instead;
it tabulates the anchor and the pairing from the arrows of each class in its
charts, which :class:`finstack.torsor.Torsor` reads off the element itself.
``validate_cocycle_by_triples`` decides C2 on every chart triple, where
:func:`finstack.torsor.validate_cocycle` decides it at the first chart of
each point, and ``morphism_violations_by_ids`` checks M1/M2 by composing
ids, where :func:`finstack.torsor.cocycle_morphism_violations` composes
arrow positions.
"""

from __future__ import annotations

import itertools
import math

from finstack.category import idkey, partition, sorted_ids
from finstack.errors import C1Violation, C2Violation, DanglingId, MismatchedTarget
from finstack.torsor import Cocycle, CocycleMorphism, Torsor, check_cocycle_morphism

SEARCH_BUDGET = 200_000


class SearchBudgetExceeded(Exception):
    """An oracle search tried more candidates than its budget allows."""


class TorsorViolation(Exception):
    """A torsor law fails; ``witness`` names where."""

    def __init__(self, law: str, witness: object):
        self.law = law
        self.witness = witness
        super().__init__(f"torsor law {law} fails at {witness!r}")


def search_space(c: Cocycle, c2: Cocycle) -> int:
    """Number of assignments the search ranges over."""
    g = c.target
    return math.prod(len(g.hom(c.a[i][w], c2.a[k][w]))
                     for i in c.cov.indices() for k in c2.cov.indices()
                     for w in set(c.cov.cover[i]) & set(c2.cov.cover[k]))


def validate_cocycle_by_triples(cov, target, a: dict, gamma: dict) -> Cocycle:
    """Check C1 on every chart pair and C2 on every chart triple (i, j, k),
    each over the points of its overlap in id order, raising what
    :func:`finstack.torsor.validate_cocycle` raises."""
    indices = cov.indices()
    objects, arrows = set(target.objects), set(target.morphisms)
    for i in indices:
        table = a.get(i)
        if table is None or set(table) != cov.cover[i]:
            raise DanglingId("a (domain mismatch)", i)
        for w, x in table.items():
            if x not in objects:
                raise DanglingId("a", (i, w), x)
    for i in indices:
        for j in indices:
            table = gamma.get((i, j), {})
            if set(table) != cov.cover[i] & cov.cover[j]:
                raise DanglingId("gamma (domain mismatch)", (i, j))
            for w, arrow in table.items():
                if arrow not in arrows:
                    raise DanglingId("gamma", (i, j, w), arrow)
                if target.src[arrow] != a[i][w] or target.tgt[arrow] != a[j][w]:
                    raise C1Violation(w, i, j)
    for i in indices:
        for j in indices:
            for k in indices:
                for w in cov.overlap(i, j, k):
                    if target.compose(gamma[(i, j)][w], gamma[(j, k)][w]) != gamma[(i, k)][w]:
                        raise C2Violation(w, i, j, k)
    return Cocycle(cov=cov, target=target,
                   a={i: dict(a[i]) for i in indices},
                   gamma={(i, j): dict(gamma.get((i, j), {})) for i in indices for j in indices})


def morphism_violations_by_ids(c: Cocycle, c2: Cocycle, delta: dict) -> list:
    """The M1/M2 witnesses of :func:`finstack.torsor.cocycle_morphism_violations`,
    in its order, found by composing ids."""
    g = c.target
    points = c.cov.points
    charts = {w: [i for i in c.cov.indices() if w in c.cov.cover[i]] for w in points}
    charts2 = {w: [k for k in c2.cov.indices() if w in c2.cov.cover[k]] for w in points}
    bad = [("domain", i, k) for i in c.cov.indices() for k in c2.cov.indices()
           if set(delta.get((i, k), {})) != c.cov.cover[i] & c2.cov.cover[k]]
    if bad:
        return bad
    for w in points:
        for i in charts[w]:
            for k in charts2[w]:
                arrow = delta[(i, k)][w]
                if g.src[arrow] != c.a[i][w] or g.tgt[arrow] != c2.a[k][w]:
                    bad.append(("M1", w, i, k))
    if bad:
        return bad
    for w in points:
        for i in charts[w]:
            for k in charts2[w]:
                for l in charts2[w]:
                    if g.compose(delta[(i, k)][w], c2.gamma[(k, l)][w]) != delta[(i, l)][w]:
                        bad.append(("M2-right", w, i, k, l))
                for j in charts[w]:
                    if g.compose(c.gamma[(i, j)][w], delta[(j, k)][w]) != delta[(i, k)][w]:
                        bad.append(("M2-left", w, i, j, k))
    return bad


def validate_torsor(t: Torsor) -> Torsor:
    """Exhaustively check fiber, section, pairing, and cartesianness laws."""
    g = t.target
    if set(t.fibers) != set(t.cov.points):
        raise TorsorViolation("fiber-domain", set(t.fibers) ^ set(t.cov.points))
    seen: set = set()
    for w, fiber in t.fibers.items():
        if len(set(fiber)) != len(fiber) or seen & set(fiber):
            raise TorsorViolation("fibers-disjoint", w)
        seen |= set(fiber)
    for i, table in t.sections.items():
        if set(table) != set(t.cov.cover[i]):
            raise TorsorViolation("section-domain", i)
        for w, u in table.items():
            if u not in t.fibers[w]:
                raise TorsorViolation("section", (i, w))
    for fiber in t.fibers.values():
        for u in fiber:
            for v in fiber:
                arrow = t.delta(u, v)
                if g.src[arrow] != t.f(u) or g.tgt[arrow] != t.f(v):
                    raise TorsorViolation("pairing-endpoints", (u, v))
    for fiber in t.fibers.values():
        for u in fiber:
            if t.delta(u, u) != g.ident[t.f(u)]:
                raise TorsorViolation("pairing-unit", u)
            for v in fiber:
                for w2 in fiber:
                    if g.compose(t.delta(u, v), t.delta(v, w2)) != t.delta(u, w2):
                        raise TorsorViolation("pairing-composition", (u, v, w2))
            for rho in g.morphisms_from(t.f(u)):
                matches = [v for v in fiber if t.delta(u, v) == rho]
                if len(matches) != 1:
                    raise TorsorViolation("cartesianness", (u, rho, matches))
    return t


def glue_torsor(c: Cocycle) -> tuple:
    """Glue the chart pieces U_i x_{a_i} R along the transition arrows; returns
    the torsor, its anchor table f and its pairing table delta.

    Chart points (i, w, alpha) with src(alpha) = a_i(w) are identified when
    alpha = gamma_ij(w) . beta; the anchor of a class is the target of its
    arrow in its own chart, and the pairing of two classes compares their
    arrows inside a common chart.  The result satisfies every torsor law by
    construction from a valid cocycle, so it is not validated again.
    """
    g = c.target
    indices = c.cov.indices()
    chart_points = [(i, w, alpha)
                    for i in indices
                    for w in sorted_ids(c.cov.cover[i])
                    for alpha in g.morphisms_from(c.a[i][w])]
    glued = (((i, w, alpha), (j, w, g.compose(g.inv[c.gamma[(i, j)][w]], alpha)))
             for i, w, alpha in chart_points for j in indices if w in c.cov.cover[j])
    rep_of = {}
    chart_arrow = {}
    for pts in partition(chart_points, glued):
        rep = min(pts, key=idkey)
        for i, w, alpha in pts:
            rep_of[(i, w, alpha)] = rep
            chart_arrow[(rep, i)] = alpha
    elements = sorted_ids(set(rep_of.values()))

    fibers: dict = {w: [] for w in c.cov.points}
    for rep in elements:
        fibers[rep[1]].append(rep)
    fibers = {w: tuple(fiber) for w, fiber in fibers.items()}
    f = {rep: g.tgt[chart_arrow[(rep, rep[0])]] for rep in elements}
    delta = {}
    for fiber in fibers.values():
        for u in fiber:
            i = u[0]
            for v in fiber:
                delta[(u, v)] = g.compose(g.inv[chart_arrow[(u, i)]], chart_arrow[(v, i)])
    sections = {i: {w: rep_of[(i, w, g.ident[c.a[i][w]])] for w in c.cov.cover[i]}
                for i in indices}
    return Torsor(cov=c.cov, target=g, fibers=fibers, sections=sections), f, delta


def search_cocycle_morphism(c: Cocycle, c2: Cocycle,
                            budget: int = SEARCH_BUDGET) -> CocycleMorphism | None:
    """Brute-force search for morphism data; None when no assignment satisfies M1/M2."""
    g = c.target
    slots = []
    for i in c.cov.indices():
        for k in c2.cov.indices():
            for w in sorted_ids(set(c.cov.cover[i]) & set(c2.cov.cover[k])):
                options = g.hom(c.a[i][w], c2.a[k][w])
                if not options:
                    return None
                slots.append(((i, k, w), options))
    tried = 0
    for choice in itertools.product(*[options for _, options in slots]):
        tried += 1
        if tried > budget:
            raise SearchBudgetExceeded(f"morphism search exceeded {budget} assignments")
        delta: dict = {}
        for ((i, k, w), _), arrow in zip(slots, choice):
            delta.setdefault((i, k), {})[w] = arrow
        for i in c.cov.indices():
            for k in c2.cov.indices():
                delta.setdefault((i, k), {})
        if check_cocycle_morphism(c, c2, delta):
            return CocycleMorphism(source=c, target_cocycle=c2, delta=delta)
    return None


def search_torsor_isomorphism(t1: Torsor, t2: Torsor, budget: int = SEARCH_BUDGET) -> bool:
    """Whether a fiberwise bijection over W commutes with both f and the pairing."""
    if t1.cov.points != t2.cov.points:
        raise MismatchedTarget("torsors live over different base sets")
    if t1.target != t2.target:
        raise MismatchedTarget("torsors have different target groupoids")
    tried = 0
    for w in t1.cov.points:
        fiber1, fiber2 = t1.fibers[w], t2.fibers[w]
        if len(fiber1) != len(fiber2):
            return False
        if not fiber1:
            continue
        u0 = fiber1[0]
        found = False
        for v0 in fiber2:
            tried += 1
            if tried > budget:
                raise SearchBudgetExceeded(f"isomorphism search exceeded {budget} attempts")
            if t2.f(v0) != t1.f(u0):
                continue
            image = {}
            ok = True
            for u in fiber1:
                rho = t1.delta(u0, u)
                matches = [v for v in fiber2 if t2.delta(v0, v) == rho]
                if len(matches) != 1 or t2.f(matches[0]) != t1.f(u):
                    ok = False
                    break
                image[u] = matches[0]
            if ok and len(set(image.values())) == len(fiber2):
                if all(t2.delta(image[u], image[v]) == t1.delta(u, v)
                       for u in fiber1 for v in fiber1):
                    found = True
                    break
        if not found:
            return False
    return True
