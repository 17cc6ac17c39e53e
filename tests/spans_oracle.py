"""Oracles for the localized hom-sets, the R-homotopy relation and the class closure.

``span_pi0`` links every ordered pair of spans that ``span_morphisms`` finds a
span morphism between; ``r_homotopic`` searches every cover r in R, map g and
pair of sections for a one-step homotopy, and ``r_homotopy_classes`` runs it
on every pair of maps; ``close_composition`` re-sorts the class in every
round.  They were the runtime's code before each relation was generated from
the witnesses that define it (arrows into each apex, section sets of (r, g)),
and are kept here to check those generators exactly on small categories.
"""

from __future__ import annotations

from finstack.category import FiniteCategory, idkey, partition
from finstack.errors import UnknownObject
from finstack.spans import MorphismClass, Span, SpanClasses, all_spans


def close_composition(cat: FiniteCategory, members) -> frozenset:
    """Transitive closure of a generating set under composition, with identities."""
    closed = set(members) | {cat.ident[x] for x in cat.objects}
    grew = True
    while grew:
        grew = False
        for r1 in sorted(closed, key=idkey):
            for r2 in sorted(closed, key=idkey):
                if cat.tgt[r1] == cat.src[r2]:
                    composite = cat.compose(r1, r2)
                    if composite not in closed:
                        closed.add(composite)
                        grew = True
    return frozenset(closed)


def span_morphisms(cat: FiniteCategory, source: Span, target: Span) -> tuple:
    """Apex maps from source to target commuting with both legs."""
    return tuple(h for h in cat.hom(source.apex, target.apex)
                 if cat.compose(h, target.left) == source.left
                 and cat.compose(h, target.right) == source.right)


def span_pi0(rcls: MorphismClass, x, y) -> SpanClasses:
    """Localized hom-set from x to y as components of the span category."""
    cat = rcls.category
    for obj in (x, y):
        if obj not in cat.objects:
            raise UnknownObject(obj)
    spans = all_spans(rcls, x, y)
    linked = ((s1, s2) for s1 in spans for s2 in spans
              if s1 is not s2 and span_morphisms(cat, s1, s2))
    classes = sorted((tuple(sorted(c, key=Span.key)) for c in partition(spans, linked)),
                     key=lambda c: c[0].key())
    return SpanClasses(source=x, target=y, classes=tuple(classes))


def r_homotopic(rcls: MorphismClass, f, f2) -> bool:
    """One-step homotopy: a common R-cover of the source with two sections.

    Searches exhaustively for V, r: V -> X in R, sections t, t' of r, and
    g: V -> Y with g after t = f and g after t' = f2.
    """
    cat = rcls.category
    x, y = cat.src[f], cat.tgt[f]
    if cat.src[f2] != x or cat.tgt[f2] != y:
        return False
    for v in cat.objects:
        for r in cat.hom(v, x):
            if r not in rcls:
                continue
            sections = [t for t in cat.hom(x, v) if cat.compose(t, r) == cat.ident[x]]
            for g in cat.hom(v, y):
                hits_f = [t for t in sections if cat.compose(t, g) == f]
                hits_f2 = [t for t in sections if cat.compose(t, g) == f2]
                if hits_f and hits_f2:
                    return True
    return False


def r_homotopy_classes(rcls: MorphismClass, x, y) -> tuple:
    """Hom(x, y) modulo the equivalence generated by one-step homotopies."""
    cat = rcls.category
    homs = cat.hom(x, y)
    linked = ((f, f2) for f in homs for f2 in homs
              if idkey(f) < idkey(f2) and r_homotopic(rcls, f, f2))
    return tuple(sorted((tuple(sorted(c, key=idkey)) for c in partition(homs, linked)),
                        key=lambda c: idkey(c[0])))
