"""Descent data over a finite covered set: 1-cocycles, torsors, and morphisms.

The base set carries the discrete topology, so every cover is open and all
compatibility conditions are pointwise equalities between arrows.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, NamedTuple

from .errors import (
    AxiomViolation,
    C1Violation,
    C2Violation,
    DanglingId,
    MismatchedTarget,
    SchemaError,
)
from .category import sorted_ids
from .groupoid import FiniteGroupoid
from .jsonio import _id_table, _ids, _require


class CoveredSpace:
    """A finite set ``points``, in id order, with the cover ``cover``: index
    -> frozenset of points.  ``charts`` maps each point to the indices of the
    cover sets that contain it, in id order, and is built on first use."""

    def __init__(self, points: tuple, cover: dict):
        self.points, self.cover = points, cover
        self._indices = sorted_ids(cover)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points, self.cover) == (other.points, other.cover)

    def indices(self) -> tuple:
        return self._indices

    @cached_property
    def charts(self) -> dict:
        return {w: [i for i in self._indices if w in self.cover[i]] for w in self.points}

    def overlap(self, *labels) -> tuple:
        """The points in every named cover set, in id order."""
        if not labels:
            return self.points
        common = frozenset.intersection(*(self.cover[i] for i in labels))
        return tuple(w for w in self.points if w in common)


def covered_space(points, cover: dict) -> CoveredSpace:
    points = sorted_ids(points)
    point_set = set(points)
    if len(point_set) != len(points):
        raise AxiomViolation("distinct-points", next(w for w in points if points.count(w) > 1))
    fixed = {}
    for i, part in cover.items():
        part = frozenset(part)
        if not part <= point_set:
            raise DanglingId("cover", i, sorted_ids(part - point_set))
        fixed[i] = part
    covered = set().union(*fixed.values()) if fixed else set()
    if covered != point_set:
        raise DanglingId("cover (not covering)", sorted_ids(point_set - covered))
    return CoveredSpace(points=points, cover=fixed)


class Cocycle(NamedTuple):
    cov: CoveredSpace
    target: FiniteGroupoid
    a: dict      # i -> {w: object}
    gamma: dict  # (i, j) -> {w: arrow}

    def transition_data(self) -> dict:
        """Forgetful export: the transition arrows only, without the anchor maps."""
        return {ij: dict(table) for ij, table in self.gamma.items()}


def validate_cocycle(cov: CoveredSpace, target: FiniteGroupoid, a: dict, gamma: dict) -> Cocycle:
    """Check the source/target condition and the multiplication law pointwise."""
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


def cocycle_from_json(doc: Mapping, target: FiniteGroupoid) -> Cocycle:
    points = _ids(_require(doc, "W", list), "W")
    cover_doc = _require(doc, "cover", dict)
    cov = covered_space(points, {i: set(_ids(part, f"cover {i!r}")) for i, part in cover_doc.items()})
    a_doc = _require(doc, "a", dict)
    for i in a_doc:
        if i not in cover_doc:
            raise SchemaError(f"a key {i!r} is not a chart of cover")
    gamma_doc = _require(doc, "gamma", dict)
    gamma = {}
    for key, table in gamma_doc.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise SchemaError(f"gamma key {key!r} must look like 'i,j'")
        if parts[0] not in cover_doc or parts[1] not in cover_doc:
            raise SchemaError(f"gamma key {key!r} names a chart outside cover")
        gamma[(parts[0], parts[1])] = dict(_id_table(table, f"gamma {key!r}"))
    a = {i: dict(_id_table(t, f"a {i!r}")) for i, t in a_doc.items()}
    return validate_cocycle(cov, target, a, gamma)


def cocycle_to_json(c: Cocycle) -> dict:
    return {
        "W": [str(w) for w in c.cov.points],
        "cover": {str(i): [str(w) for w in sorted(c.cov.cover[i], key=str)]
                  for i in c.cov.indices()},
        "a": {str(i): {str(w): str(x) for w, x in sorted(c.a[i].items(), key=lambda kv: str(kv[0]))}
              for i in c.cov.indices()},
        "gamma": {f"{i},{j}": {str(w): str(arrow) for w, arrow in
                               sorted(table.items(), key=lambda kv: str(kv[0]))}
                  for (i, j), table in sorted(c.gamma.items(), key=lambda kv: str(kv[0]))},
    }


class Torsor(NamedTuple):
    """A total set over W, held as its fibers and sections.  An element is a chart
    point (i0, w, alpha), and its anchor and pairing are read off alpha."""

    cov: CoveredSpace
    target: FiniteGroupoid
    fibers: dict    # point of W -> the elements over it, in id order
    sections: dict  # i -> {w: element} for w in U_i

    def f(self, u):  # the object that the chart arrow of u reaches
        return self.target.tgt[u[2]]

    def delta(self, u, v):  # alpha_u^-1 . alpha_v, for u and v in one fiber
        return self.target.compose(self.target.inv[u[2]], v[2])


def cocycle_to_torsor(c: Cocycle) -> Torsor:
    """Glue the chart pieces U_i x_{a_i} R along the transition arrows.

    Chart points (i, w, alpha) with src(alpha) = a_i(w) are identified when
    alpha = gamma_ij(w) . beta.  Let i0 be the first chart containing w.  By
    C2 the class of (i0, w, alpha) is {(j, w, inv(gamma_{i0 j}(w)) . alpha) :
    w in U_j}, which meets chart i0 in alpha alone, so the fiber over w is read
    off chart i0, and the section of chart i at w, the class of the identity
    of a_i(w), is (i0, w, gamma_{i0 i}(w)).  The result satisfies every torsor
    law by construction from a valid cocycle, so it is not validated again.
    """
    g = c.target
    fibers, sections = {}, {i: {} for i in c.cov.indices()}
    for w, charts in c.cov.charts.items():
        i0 = charts[0]
        fibers[w] = tuple((i0, w, alpha) for alpha in g.morphisms_from(c.a[i0][w]))
        for i in charts:
            sections[i][w] = (i0, w, c.gamma[(i0, i)][w])
    return Torsor(cov=c.cov, target=g, fibers=fibers, sections=sections)


def torsor_to_cocycle(t: Torsor) -> Cocycle:
    """Read the descent data off the sections.  The pairing laws of a valid
    torsor give C1 and C2 directly, so the cocycle is not validated again."""
    indices = t.cov.indices()
    a = {i: {w: t.f(t.sections[i][w]) for w in t.cov.cover[i]} for i in indices}
    gamma = {(i, j): {w: t.delta(t.sections[i][w], t.sections[j][w])
                      for w in t.cov.overlap(i, j)}
             for i in indices for j in indices}
    return Cocycle(cov=t.cov, target=t.target, a=a, gamma=gamma)


class CocycleMorphism(NamedTuple):
    source: Cocycle
    target_cocycle: Cocycle
    delta: dict  # (i, k) -> {w: arrow} on U_i of source and U'_k of target


def _require_same_base(c: Cocycle | Torsor, c2: Cocycle | Torsor, noun: str) -> None:
    if c.cov.points != c2.cov.points:
        raise MismatchedTarget(f"{noun} live over different base sets")
    if c.target != c2.target:
        raise MismatchedTarget(f"{noun} have different target groupoids")


def cocycle_morphism_violations(c: Cocycle, c2: Cocycle, delta: dict) -> list:
    """Witnesses of M1/M2 failures for candidate morphism data; empty means
    valid.  Tables off their overlaps come first, in chart order; M1, then M2,
    is checked only when all before it holds, point by point in id order."""
    _require_same_base(c, c2, "cocycles")
    g, charts, charts2 = c.target, c.cov.charts, c2.cov.charts
    bad = [("domain", i, k) for i in c.cov.indices() for k in c2.cov.indices()
           if set(delta.get((i, k), {})) != c.cov.cover[i] & c2.cov.cover[k]]
    if bad:
        return bad
    for w in c.cov.points:
        for i in charts[w]:
            for k in charts2[w]:
                arrow = delta[(i, k)][w]
                if g.src[arrow] != c.a[i][w] or g.tgt[arrow] != c2.a[k][w]:
                    bad.append(("M1", w, i, k))
    if bad:
        return bad
    for w in c.cov.points:
        for i in charts[w]:
            for k in charts2[w]:
                for l in charts2[w]:
                    if g.compose(delta[(i, k)][w], c2.gamma[(k, l)][w]) != delta[(i, l)][w]:
                        bad.append(("M2-right", w, i, k, l))
                for j in charts[w]:
                    if g.compose(c.gamma[(i, j)][w], delta[(j, k)][w]) != delta[(i, k)][w]:
                        bad.append(("M2-left", w, i, j, k))
    return bad


def check_cocycle_morphism(c: Cocycle, c2: Cocycle, delta: dict) -> bool:
    return not cocycle_morphism_violations(c, c2, delta)


def find_cocycle_morphism(c: Cocycle, c2: Cocycle) -> CocycleMorphism | None:
    """Morphism data built point by point; None when no morphism exists.

    M2 forces delta_ik(w) = gamma_{i,i0}(w) . delta0 . gamma'_{k0,k}(w), with i0, k0
    the first charts containing w and delta0 any arrow a_i0(w) -> a'_k0(w); by C2
    every such choice satisfies M1/M2.  The result is checked before it is returned.
    """
    _require_same_base(c, c2, "cocycles")
    g = c.target
    delta: dict = {(i, k): {} for i in c.cov.indices() for k in c2.cov.indices()}
    for w, charts in c.cov.charts.items():
        charts2 = c2.cov.charts[w]
        i0, k0 = charts[0], charts2[0]
        options = g.hom(c.a[i0][w], c2.a[k0][w])
        if not options:
            return None
        for i in charts:
            head = g.compose(c.gamma[(i, i0)][w], options[0])
            for k in charts2:
                delta[(i, k)][w] = g.compose(head, c2.gamma[(k0, k)][w])
    bad = cocycle_morphism_violations(c, c2, delta)
    if bad:
        raise AxiomViolation(bad[0][0], bad[0][1:])
    return CocycleMorphism(source=c, target_cocycle=c2, delta=delta)


def torsor_isomorphic(t1: Torsor, t2: Torsor) -> bool:
    """Whether a fiberwise bijection over W commutes with both f and the pairing.

    One exists iff, for every w, the fibers have one size and, when they are
    nonempty, some v0 in F'_w has f'(v0) = f(u0) for the first u0 in F_w.  By
    cartesianness u -> delta(u0, u) and v -> delta'(v0, v) are bijections onto
    the arrows out of f(u0), so matching them gives a bijection that keeps f;
    it keeps the pairing because delta(u, v) = delta(u0, u)^-1 . delta(u0, v).
    """
    _require_same_base(t1, t2, "torsors")
    for w in t1.cov.points:
        fiber1, fiber2 = t1.fibers[w], t2.fibers[w]
        if len(fiber1) != len(fiber2):
            return False
        if fiber1 and all(t2.f(v) != t1.f(fiber1[0]) for v in fiber2):
            return False
    return True
