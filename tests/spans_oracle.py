"""Oracles for the localized hom-sets, the R-homotopy relation and the class closure.

``span_pi0`` links every ordered pair of spans that ``span_morphisms`` finds a
span morphism between; ``r_homotopic`` searches every cover r in R, map g and
pair of sections for a one-step homotopy, and ``r_homotopy_classes`` runs it
on every pair of maps; ``close_composition`` re-sorts the class in every
round.  They were the runtime's code before each relation was generated from
the witnesses that define it (arrows into each apex, section sets of (r, g)),
and are kept here to check those generators exactly on small categories.

``check_pullback_square`` refilters hom(x, apex) for every object x and every
pair of maps into the two legs, and ``fiber_product_2`` composes each carried
k as a fresh path; they were the runtime's code before the universal property
was decided by counting the arrows into the apex and the per-arrow lookups
were read once; it builds its own comp mapping, pair by pair, and hands it to
the validator.
"""

from __future__ import annotations

from finstack.category import CatFunctor, FiniteCategory, idkey, partition
from finstack.errors import InvalidClass, MismatchedTarget, UnknownObject
from finstack.groupoid import FiniteGroupoid, validate_groupoid
from finstack.spans import MorphismClass, Span, SpanClasses, all_spans


def check_pullback_square(cat: FiniteCategory, f, g, apex, pf, pg) -> None:
    if cat.src[pf] != apex or cat.src[pg] != apex:
        raise InvalidClass("oracle projections must leave the apex", (f, g))
    if cat.tgt[pf] != cat.src[f] or cat.tgt[pg] != cat.src[g]:
        raise InvalidClass("oracle projections land wrong", (f, g))
    if cat.compose(pf, f) != cat.compose(pg, g):
        raise InvalidClass("oracle square does not commute", (f, g))
    for x in cat.objects:
        for q1 in cat.hom(x, cat.src[f]):
            for q2 in cat.hom(x, cat.src[g]):
                if cat.compose(q1, f) != cat.compose(q2, g):
                    continue
                mediators = [u for u in cat.hom(x, apex)
                             if cat.compose(u, pf) == q1 and cat.compose(u, pg) == q2]
                if len(mediators) != 1:
                    raise InvalidClass("oracle output fails the universal property",
                                       (f, g, x, q1, q2))


def fiber_product_2(f: CatFunctor, h: CatFunctor) -> FiniteGroupoid:
    """Iso-comma fiber product: objects are triples (x, y, k) with k: f(x) -> h(y)."""
    if f.target != h.target:
        raise MismatchedTarget("fiber product needs a common target")
    k_grp = f.target
    g1, g2 = f.source, h.source

    objects = [(x, y, k)
               for x in g1.objects for y in g2.objects
               for k in k_grp.hom(f.obj_map[x], h.obj_map[y])]
    src, tgt, comp, inv = {}, {}, {}, {}
    for a in g1.morphisms:
        for b in g2.morphisms:
            back = k_grp.inv[f.mor_map[a]]
            for k in k_grp.hom(f.obj_map[g1.src[a]], h.obj_map[g2.src[b]]):
                k2 = k_grp.compose(k_grp.compose(back, k), h.mor_map[b])
                src[(a, b, k)] = (g1.src[a], g2.src[b], k)
                tgt[(a, b, k)] = (g1.tgt[a], g2.tgt[b], k2)
                inv[(a, b, k)] = (g1.inv[a], g2.inv[b], k2)
                for c in g1.morphisms_from(g1.tgt[a]):
                    for d in g2.morphisms_from(g2.tgt[b]):
                        comp[((a, b, k), (c, d, k2))] = (g1.compose(a, c), g2.compose(b, d), k)
    return validate_groupoid(objects, src.keys(), src, tgt, comp,
                             {(x, y, k): (g1.ident[x], g2.ident[y], k) for x, y, k in objects}, inv)


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
