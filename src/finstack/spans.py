"""Localization by a calculus of right fractions: spans, components, homotopy.

A morphism class R must contain all identities and be closed under
composition; base-extension closure is checked against whatever pullbacks the
supplied oracle knows.  Localized hom-sets are connected components of span
categories, linked by the arrows into each apex; R-homotopy classes are
linked by the section sets {t . g} of each r in R and map g out of its source.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .category import FiniteCategory, idkey, partition, sorted_ids
from .errors import DanglingId, HypothesisFails, InvalidClass, OracleMissing, SchemaError, UnknownObject
from .jsonio import _ids, _require


class Span(NamedTuple):
    """Left leg lands in the inverted class; both legs share the apex."""

    apex: object
    left: object
    right: object

    def key(self):
        return (idkey(self.apex), idkey(self.left), idkey(self.right))


class MorphismClass:
    """A class of morphisms of ``category``; ``oracle`` maps a cospan (f, g)
    to its pullback (apex, proj to src f, proj to src g)."""

    def __init__(self, category: FiniteCategory, members: frozenset, oracle: Mapping | None = None):
        self.category, self.members, self.oracle = category, members, oracle

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.category, self.members, self.oracle) == (other.category, other.members, other.oracle)

    def __contains__(self, m) -> bool:
        return m in self.members

    def pullback(self, f, g):
        if self.oracle is None or (f, g) not in self.oracle:
            raise OracleMissing((f, g))
        return self.oracle[(f, g)]


def _maps_into(cat: FiniteCategory, a) -> list:
    """The pairs (x, hom(x, a)) with hom(x, a) not empty, in object order."""
    return [(x, maps) for x in cat.objects if (maps := cat.hom(x, a))]


def _check_pullback_square(cat: FiniteCategory, f, g, apex, pf, pg, maps_into_a: list) -> None:
    """Every (q1, q2) with q1 . f = q2 . g has exactly one u: x -> apex with
    u . pf = q1 and u . pg = q2; ``maps_into_a`` is ``_maps_into(cat, src f)``."""
    comp = cat.comp
    if cat.src[pf] != apex or cat.src[pg] != apex:
        raise InvalidClass("oracle projections must leave the apex", (f, g))
    if cat.tgt[pf] != cat.src[f] or cat.tgt[pg] != cat.src[g]:
        raise InvalidClass("oracle projections land wrong", (f, g))
    if comp[(pf, f)] != comp[(pg, g)]:
        raise InvalidClass("oracle square does not commute", (f, g))
    for x, q1s in maps_into_a:
        q2s = [(q2, comp[(q2, g)]) for q2 in cat.hom(x, cat.src[g])]
        if not q2s:
            continue
        images = [(comp[(u, pf)], comp[(u, pg)]) for u in cat.hom(x, apex)]
        for q1 in q1s:
            q1f = comp[(q1, f)]
            for q2, q2g in q2s:
                if q2g == q1f and images.count((q1, q2)) != 1:
                    raise InvalidClass("oracle output fails the universal property",
                                       (f, g, x, q1, q2))


def close_composition(cat: FiniteCategory, members) -> frozenset:
    """Transitive closure of a generating set under composition, with identities."""
    closed = set(members) | {cat.ident[x] for x in cat.objects}
    grew = True
    while grew:
        grew = False
        for r1 in list(closed):
            for r2 in cat.morphisms_from(cat.tgt[r1]):
                if r2 in closed:
                    composite = cat.compose(r1, r2)
                    if composite not in closed:
                        closed.add(composite)
                        grew = True
    return frozenset(closed)


def morphism_class(cat: FiniteCategory, members, oracle: Mapping | None = None) -> MorphismClass:
    """Build the class generated by ``members``: identities are added and the
    composition closure is computed eagerly; base-extension closure is then
    checked against the oracle's pullbacks."""
    members = frozenset(members)
    if not members <= set(cat.morphisms):
        raise InvalidClass("members outside the category", sorted_ids(members - set(cat.morphisms)))
    members = close_composition(cat, members)
    if oracle is not None:
        maps_into: dict = {}  # object a -> _maps_into(cat, a), for each a met as src f
        for (f, g), (apex, pf, pg) in oracle.items():
            for m in (f, g, pf, pg):
                if m not in cat.src:
                    raise DanglingId("pullbacks", (f, g), m)
            if apex not in cat.ident:
                raise DanglingId("pullbacks", (f, g), apex)
            if cat.tgt[f] != cat.tgt[g]:
                raise InvalidClass("oracle key is not a cospan", (f, g))
            a = cat.src[f]
            if a not in maps_into:
                maps_into[a] = _maps_into(cat, a)
            _check_pullback_square(cat, f, g, apex, pf, pg, maps_into[a])
            if f in members and pg not in members:
                raise InvalidClass("not closed under base extension", (f, g, pg))
            if g in members and pf not in members:
                raise InvalidClass("not closed under base extension", (g, f, pf))
    return MorphismClass(category=cat, members=members, oracle=oracle)


def morphism_class_from_json(doc: Mapping, cat: FiniteCategory) -> MorphismClass:
    members = set(_ids(_require(doc, "members", list), "members"))
    oracle = None
    if "pullbacks" in doc:
        oracle = {}
        for entry in _require(doc, "pullbacks", list):
            cospan = _ids(_require(entry, "cospan", list), "cospan")
            if len(cospan) != 2:
                raise SchemaError("cospan must have two morphisms")
            if (cospan[0], cospan[1]) in oracle:
                raise SchemaError(f"pullbacks repeats the cospan {cospan!r}")
            oracle[(cospan[0], cospan[1])] = (
                _require(entry, "apex", str),
                _require(entry, "proj1", str),
                _require(entry, "proj2", str),
            )
    return morphism_class(cat, members, oracle)


def identities_class(cat: FiniteCategory) -> MorphismClass:
    return morphism_class(cat, {cat.ident[x] for x in cat.objects})


def all_spans(rcls: MorphismClass, x, y) -> tuple:
    """Every span from x to y, in :meth:`Span.key` order (apex, left leg, right leg)."""
    cat = rcls.category
    return tuple(Span(v, r, g)
                 for v in cat.objects
                 for r in cat.hom(v, x) if r in rcls
                 for g in cat.hom(v, y))


class SpanClasses:
    """Connected components of a span category, with canonical representatives.

    ``classes`` is a tuple of tuples of spans, each in key order, the classes
    ordered by representative.
    """

    def __init__(self, source, target, classes: tuple):
        self.source, self.target, self.classes = source, target, classes

    def _compared(self) -> tuple:
        return self.source, self.target, self.classes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def representatives(self) -> tuple:
        return tuple(c[0] for c in self.classes)

    def class_index(self, span: Span) -> int:
        for i, component in enumerate(self.classes):
            if span in component:
                return i
        raise KeyError(span)

    def same_class(self, s1: Span, s2: Span) -> bool:
        return self.class_index(s1) == self.class_index(s2)

    def __len__(self) -> int:
        return len(self.classes)


def span_pi0(rcls: MorphismClass, x, y) -> SpanClasses:
    """Localized hom-set from x to y as components of the span category."""
    cat = rcls.category
    for obj in (x, y):
        if obj not in cat.objects:
            raise UnknownObject(obj)
    spans = all_spans(rcls, x, y)
    # h: U -> apex(s) is a span morphism into s from (U, h . left, h . right),
    # which is a span exactly when h . left is in R
    linked = ((Span(cat.src[h], left, cat.compose(h, s.right)), s)
              for s in spans for h in cat.morphisms_into(s.apex)
              if (left := cat.compose(h, s.left)) in rcls)
    return SpanClasses(source=x, target=y, classes=tuple(map(tuple, partition(spans, linked))))


def compose_spans(rcls: MorphismClass, s1: Span, s2: Span) -> Span:
    """Composite through the oracle pullback of (right leg of s1, left leg of s2)."""
    cat = rcls.category
    apex, p1, p2 = rcls.pullback(s1.right, s2.left)
    return Span(apex, cat.compose(p1, s1.left), cat.compose(p2, s2.right))


def identity_span(cat: FiniteCategory, x) -> Span:
    return Span(x, cat.ident[x], cat.ident[x])


def _homotopy_sets(rcls: MorphismClass, x, y):
    """The maps t . g: X -> Y over the sections t of r, for each r: V -> X in R
    and g: V -> Y.  Two maps are one-step homotopic exactly when one set holds both."""
    cat = rcls.category
    for r in cat.morphisms_into(x):
        if r in rcls:
            sections = [t for t in cat.hom(x, cat.src[r]) if cat.compose(t, r) == cat.ident[x]]
            for g in cat.hom(cat.src[r], y):
                yield [cat.compose(t, g) for t in sections]


def r_homotopic(rcls: MorphismClass, f, f2) -> bool:
    """One-step homotopy: a common R-cover of the source with two sections,
    that is r: V -> X in R, sections t, t' of r and g: V -> Y with t . g = f
    and t' . g = f2."""
    cat = rcls.category
    x, y = cat.src[f], cat.tgt[f]
    if cat.src[f2] != x or cat.tgt[f2] != y:
        return False
    return any(f in maps and f2 in maps for maps in _homotopy_sets(rcls, x, y))


def r_homotopy_classes(rcls: MorphismClass, x, y) -> tuple:
    """Hom(x, y) modulo the equivalence generated by one-step homotopies."""
    homs = rcls.category.hom(x, y)
    linked = ((f, maps[0]) for maps in _homotopy_sets(rcls, x, y) for f in maps)
    return tuple(map(tuple, partition(homs, linked)))


class ZigzagReport(NamedTuple):
    source: object
    target: object
    homotopy_class_count: int
    span_class_count: int
    injective: bool
    surjective: bool

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def zigzag_check(rcls: MorphismClass, sclasses: SpanClasses) -> ZigzagReport:
    """Compare Hom(x, y)/homotopy with the span classes from x to y via f -> (id, f).

    Requires every R-morphism into x to admit a section; raises
    :class:`HypothesisFails` with a sectionless witness otherwise.
    """
    cat = rcls.category
    x, y = sclasses.source, sclasses.target
    for r in cat.morphisms_into(x):
        if r in rcls and not any(cat.compose(t, r) == cat.ident[x]
                                 for t in cat.hom(x, cat.src[r])):
            raise HypothesisFails(r)
    hclasses = r_homotopy_classes(rcls, x, y)
    image = [sclasses.class_index(Span(x, cat.ident[x], c[0])) for c in hclasses]
    injective = len(set(image)) == len(image)
    surjective = set(image) == set(range(len(sclasses)))
    return ZigzagReport(source=x, target=y, homotopy_class_count=len(hclasses),
                        span_class_count=len(sclasses), injective=injective, surjective=surjective)


def theta_span(rcls: MorphismClass, f, phi_x, phi_y) -> Span:
    """Localized image of f between chosen covers: pull the target cover back.

    ``phi_x`` and ``phi_y`` are R-morphisms onto the source and target of f;
    the span is the pullback of (phi_x . f, phi_y), whose left projection is
    again in R by base-extension closure.
    """
    cat = rcls.category
    if phi_x not in rcls or phi_y not in rcls:
        raise InvalidClass("cover morphisms must belong to R", (phi_x, phi_y))
    if cat.tgt[phi_x] != cat.src[f]:
        raise InvalidClass("phi_x must cover the source of f", (f, phi_x))
    if cat.tgt[phi_y] != cat.tgt[f]:
        raise InvalidClass("phi_y must cover the target of f", (f, phi_y))
    composite = cat.compose(phi_x, f)
    apex, p1, p2 = rcls.pullback(composite, phi_y)
    if p1 not in rcls:
        raise InvalidClass("pullback projection escaped R", p1)
    return Span(apex, p1, p2)


def well_defined_on_classes(rcls: MorphismClass, x, y, z) -> bool:
    """Composition descends to span classes: exhaustive check on one triple.

    For every pair of composable spans and every class-equivalent replacement
    of either factor, the composites land in one class.
    """
    left = span_pi0(rcls, x, y)
    right = span_pi0(rcls, y, z)
    out = span_pi0(rcls, x, z)
    for component_l in left.classes:
        for component_r in right.classes:
            composites = []
            for s1 in component_l:
                for s2 in component_r:
                    try:
                        composites.append(out.class_index(compose_spans(rcls, s1, s2)))
                    except OracleMissing:
                        return False
            if len(set(composites)) > 1:
                return False
    return True
