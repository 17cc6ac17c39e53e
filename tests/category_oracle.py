"""Oracles for the table laws: every composable triple and every comp entry.

``validated`` composes every composable triple and ``functor`` checks every
entry of the source's comp table.  They were the runtime's code before the
laws were decided on a generating set of arrows (``FiniteCategory.generators``),
and are kept here to check that the verdict, the exception and its witness
are unchanged.  They run on :class:`Table`, the dict-keyed tables that the
core held before composition became rows of arrow positions, so they never
read a row, and a table may be corrupt, with dangling ids.
"""

from __future__ import annotations

from finstack.category import CatFunctor, sorted_ids
from finstack.errors import AxiomViolation, DanglingId


def comp_mapping(c) -> dict:
    """The mapping (f, g) -> "f then g" of a category, in its composites' order."""
    return {(f, g): h for f, g, h in c.composites()}


class Table:
    """A category as sorted ids, endpoint tables and ``comp``, a dict from
    each composable pair (f, g) to "f then g"."""

    def __init__(self, objects, morphisms, src, tgt, comp, ident):
        self.objects, self.morphisms = sorted_ids(objects), sorted_ids(morphisms)
        self.src, self.tgt, self.comp, self.ident = src, tgt, comp, ident
        self._from: dict = {}
        for m in self.morphisms:
            self._from.setdefault(src[m], []).append(m)

    @classmethod
    def of(cls, c) -> Table:
        return cls(c.objects, c.morphisms, c.src, c.tgt, comp_mapping(c), c.ident)

    def compose(self, f, g):
        return self.comp[(f, g)]

    def composites(self):
        return ((f, g, h) for (f, g), h in self.comp.items())

    def morphisms_from(self, x) -> list:
        return self._from.get(x, [])


def validated(objects, morphisms, src, tgt, comp, ident) -> Table:
    """Check the category axioms exhaustively and return the tables."""
    objects, morphisms = tuple(objects), tuple(morphisms)
    obj_set, mor_set = set(objects), set(morphisms)
    if len(obj_set) != len(objects):
        raise AxiomViolation("distinct-object-ids", sorted_ids(objects))
    if len(mor_set) != len(morphisms):
        raise AxiomViolation("distinct-morphism-ids", sorted_ids(morphisms))
    for m in morphisms:
        if src.get(m) not in obj_set:
            raise DanglingId("src", m, src.get(m))
        if tgt.get(m) not in obj_set:
            raise DanglingId("tgt", m, tgt.get(m))
    c = Table(objects, morphisms, dict(src), dict(tgt), dict(comp), dict(ident))
    src, tgt, comp, ident = c.src, c.tgt, c.comp, c.ident
    for x in c.objects:
        e = ident.get(x)
        if e not in mor_set:
            raise DanglingId("id", x, e)
        if src[e] != x or tgt[e] != x:
            raise AxiomViolation("identity-endpoints", (x, e))
    for (f, g), h in comp.items():
        if f not in mor_set or g not in mor_set:
            raise DanglingId("comp", (f, g))
        if h not in mor_set:
            raise DanglingId("comp", (f, g), h)
        if tgt[f] != src[g]:
            raise AxiomViolation("comp-domain", (f, g))
        if src[h] != src[f] or tgt[h] != tgt[g]:
            raise AxiomViolation("comp-endpoints", (f, g, h))
    for f in c.morphisms:
        for g in c.morphisms_from(tgt[f]):
            if (f, g) not in comp:
                raise DanglingId("comp (missing entry)", (f, g))
    for f in c.morphisms:
        if comp[(ident[src[f]], f)] != f:
            raise AxiomViolation("left-unit", f)
        if comp[(f, ident[tgt[f]])] != f:
            raise AxiomViolation("right-unit", f)
    for f in c.morphisms:
        for g in c.morphisms_from(tgt[f]):
            fg = comp[(f, g)]
            for h in c.morphisms_from(tgt[g]):
                if comp[(fg, h)] != comp[(f, comp[(g, h)])]:
                    raise AxiomViolation("associativity", (f, g, h))
    return c


def functor(source: Table, target: Table, obj_map, mor_map) -> CatFunctor:
    """Check the tables against src/tgt/id and every comp entry of the source."""
    objects, morphisms = set(target.objects), set(target.morphisms)
    for x in source.objects:
        if obj_map.get(x) not in objects:
            raise DanglingId("obj_map", x, obj_map.get(x))
    for m in source.morphisms:
        fm = mor_map.get(m)
        if fm not in morphisms:
            raise DanglingId("mor_map", m, fm)
        if target.src[fm] != obj_map[source.src[m]] or target.tgt[fm] != obj_map[source.tgt[m]]:
            raise AxiomViolation("functor-endpoints", m)
    for x in source.objects:
        if mor_map[source.ident[x]] != target.ident[obj_map[x]]:
            raise AxiomViolation("functor-identity", x)
    for (f, g), h in source.comp.items():
        if target.comp[(mor_map[f], mor_map[g])] != mor_map[h]:
            raise AxiomViolation("functor-composition", (f, g))
    return CatFunctor(source, target, dict(obj_map), dict(mor_map))
