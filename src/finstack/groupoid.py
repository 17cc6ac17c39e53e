"""Finite groupoids: finite categories with an inverse table, and fiber products.

The tables, the axiom checks and the functors are the category core of
:mod:`finstack.category`; this module adds inverses and the groupoid
builders.  Builders that only combine validated groupoids construct their
result directly, without a second axiom pass: they hand the core their
composition law, and the core asks it for each composable pair.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping

from .category import CatFunctor, FiniteCategory, partition, sorted_ids, validated
from .errors import AxiomViolation, DanglingId, MismatchedTarget, NotAnAction, UnknownObject


class FiniteGroupoid(FiniteCategory):
    """A finite category whose every morphism has the inverse ``inv[a]``."""

    def __init__(self, objects, morphisms, src: Mapping, tgt: Mapping, law: Callable,
                 ident: Mapping, inv: Mapping):
        super().__init__(objects, morphisms, src, tgt, law, ident)
        self.inv = inv

    def _compared(self) -> tuple:
        return super()._compared() + (self.inv,)

    def __str__(self):
        return f"FiniteGroupoid({len(self.objects)} objects, {len(self.morphisms)} arrows)"


def validate_groupoid(objects, morphisms, src, tgt, comp, ident, inv) -> FiniteGroupoid:
    """Check the category axioms, then the inverse laws, and return the validated
    value; an ``inv`` key that is not an arrow is named last."""
    g = validated(lambda *tables: FiniteGroupoid(*tables, dict(inv)),
                  objects, morphisms, src, tgt, comp, ident)
    mor_set = set(g.morphisms)
    for a in g.morphisms:
        ia = g.inv.get(a)
        if ia not in mor_set:
            raise DanglingId("inv", a, ia)
        if g.src[ia] != g.tgt[a] or g.tgt[ia] != g.src[a]:
            raise AxiomViolation("inverse-endpoints", a)
        if g.compose(a, ia) != g.ident[g.src[a]]:
            raise AxiomViolation("right-inverse", a)
        if g.compose(ia, a) != g.ident[g.tgt[a]]:
            raise AxiomViolation("left-inverse", a)
    for a in inv:
        if a not in mor_set:
            raise DanglingId("inv", a)
    return g


def groupoid_from_group(elements, mult: Mapping, unit, name: object = "*") -> FiniteGroupoid:
    """One-object groupoid from a finite group multiplication table.

    ``mult[(g, h)]`` is the diagrammatic product "g then h".
    """
    elements = sorted_ids(elements)
    inv = {}
    for g in elements:
        for h in elements:
            if mult[(g, h)] == unit:
                inv[g] = h
    return validate_groupoid(
        objects=[name],
        morphisms=elements,
        src={g: name for g in elements},
        tgt={g: name for g in elements},
        comp=dict(mult),
        ident={name: unit},
        inv=inv,
    )


def cyclic_groupoid(m: int, name: object = "*") -> FiniteGroupoid:
    """One-object groupoid for the cyclic group of order ``m``; arrows 0..m-1."""
    elements = range(m)
    mult = {(g, h): (g + h) % m for g in elements for h in elements}
    return groupoid_from_group(elements, mult, 0, name=name)


def symmetric_groupoid(n: int, name: object = "*") -> FiniteGroupoid:
    """One-object groupoid for the symmetric group on ``n`` letters.

    Arrows are permutations as tuples; ``compose(p, q)`` applies p first.
    """
    perms = sorted(itertools.permutations(range(n)))
    mult = {(p, q): tuple(q[p[i]] for i in range(n)) for p in perms for q in perms}
    unit = tuple(range(n))
    return groupoid_from_group(perms, mult, unit, name=name)


def pair_groupoid(points) -> FiniteGroupoid:
    """The pair (indiscrete) groupoid: exactly one arrow (x, y) between any two points."""
    points = list(points)
    arrows = [(x, y) for x in points for y in points]
    return FiniteGroupoid(
        points,
        arrows,
        {(x, y): x for x, y in arrows},
        {(x, y): y for x, y in arrows},
        lambda f, g: (f[0], g[1]),
        {x: (x, x) for x in points},
        {(x, y): (y, x) for x, y in arrows},
    )


def point_groupoid(name: object = "pt") -> FiniteGroupoid:
    return pair_groupoid([name])


def disjoint_union(g1: FiniteGroupoid, g2: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union with ids tagged 0/1 to keep them distinct."""
    tagged = ((0, g1), (1, g2))
    return FiniteGroupoid(
        [(t, x) for t, g in tagged for x in g.objects],
        [(t, a) for t, g in tagged for a in g.morphisms],
        {(t, a): (t, g.src[a]) for t, g in tagged for a in g.morphisms},
        {(t, a): (t, g.tgt[a]) for t, g in tagged for a in g.morphisms},
        lambda u, v: (u[0], (g1, g2)[u[0]].compose(u[1], v[1])),
        {(t, x): (t, g.ident[x]) for t, g in tagged for x in g.objects},
        {(t, a): (t, g.inv[a]) for t, g in tagged for a in g.morphisms},
    )


def action_groupoid(points, group: FiniteGroupoid, act: Callable) -> FiniteGroupoid:
    """Translation groupoid of a right action of a one-object groupoid on a finite set.

    Objects are the points; the arrow ``(x, g)`` runs from ``x`` to ``act(x, g)``.
    """
    if len(group.objects) != 1:
        raise NotAnAction("acting groupoid must have one object")
    points = sorted_ids(points)
    point_set = set(points)
    unit = group.ident[group.objects[0]]
    for x in points:
        if act(x, unit) != x:
            raise NotAnAction(("unit", x))
        for g in group.morphisms:
            if act(x, g) not in point_set:
                raise NotAnAction(("image outside the set", x, g))
            for h in group.morphisms:
                if act(act(x, g), h) != act(x, group.compose(g, h)):
                    raise NotAnAction((x, g, h))

    arrows = [(x, g) for x in points for g in group.morphisms]
    tgt = {(x, g): act(x, g) for x, g in arrows}
    return FiniteGroupoid(
        points,
        arrows,
        {(x, g): x for x, g in arrows},
        tgt,
        lambda u, v: (u[0], group.compose(u[1], v[1])),
        {x: (x, unit) for x in points},
        {(x, g): (tgt[(x, g)], group.inv[g]) for x, g in arrows},
    )


def fiber_product_strict(f: CatFunctor, h: CatFunctor) -> FiniteGroupoid:
    """Strict fiber product: pairs whose images under the two functors agree exactly."""
    if f.target != h.target:
        raise MismatchedTarget("fiber product needs a common target")
    g1, g2 = f.source, h.source
    objects = [(x, y) for x in g1.objects for y in g2.objects if f.obj_map[x] == h.obj_map[y]]
    arrows = [(a, b) for a in g1.morphisms for b in g2.morphisms
              if f.mor_map[a] == h.mor_map[b]]
    return FiniteGroupoid(
        objects,
        arrows,
        {(a, b): (g1.src[a], g2.src[b]) for a, b in arrows},
        {(a, b): (g1.tgt[a], g2.tgt[b]) for a, b in arrows},
        lambda u, v: (g1.compose(u[0], v[0]), g2.compose(u[1], v[1])),
        {(x, y): (g1.ident[x], g2.ident[y]) for x, y in objects},
        {(a, b): (g1.inv[a], g2.inv[b]) for a, b in arrows},
    )


def fiber_product_2(f: CatFunctor, h: CatFunctor) -> FiniteGroupoid:
    """Iso-comma fiber product: objects are triples (x, y, k) with k: f(x) -> h(y).

    An arrow (a, b, k) runs from (src a, src b, k) to
    (tgt a, tgt b, inv(f(a)) . k . h(b)); this is the finite model of the
    2-categorical fiber product of groupoids.
    """
    if f.target != h.target:
        raise MismatchedTarget("fiber product needs a common target")
    k_grp = f.target
    g1, g2 = f.source, h.source

    objects = [(x, y, k)
               for x in g1.objects for y in g2.objects
               for k in k_grp.hom(f.obj_map[x], h.obj_map[y])]
    k_arrows, k_at, k_slots, k_rows = k_grp.morphisms, k_grp.position, k_grp.slots, k_grp.rows
    rights = [(b, g2.src[b], g2.tgt[b], g2.inv[b], h.obj_map[g2.src[b]], k_slots[k_at[h.mor_map[b]]])
              for b in g2.morphisms]
    src, tgt, inv = {}, {}, {}
    for a in g1.morphisms:
        sa, ta, ia = g1.src[a], g1.tgt[a], g1.inv[a]
        fsa, back_row = f.obj_map[sa], k_rows[k_at[k_grp.inv[f.mor_map[a]]]]
        for b, sb, tb, ib, hsb, hb_slot in rights:
            for k in k_grp.hom(fsa, hsb):
                # k at the source of (a, b) carried to the target: inv(f(a)) . k . h(b)
                k2 = k_arrows[k_rows[back_row[k_slots[k_at[k]]]][hb_slot]]
                arrow = (a, b, k)
                src[arrow] = (sa, sb, k)
                tgt[arrow] = (ta, tb, k2)
                inv[arrow] = (ia, ib, k2)
    return FiniteGroupoid(objects, src.keys(), src, tgt,
                          lambda u, v: (g1.compose(u[0], v[0]), g2.compose(u[1], v[1]), u[2]),
                          {(x, y, k): (g1.ident[x], g2.ident[y], k) for x, y, k in objects}, inv)


def fiber_product_2_projections(f: CatFunctor, h: CatFunctor):
    """The iso-comma square: the product groupoid with its two projections."""
    prod = fiber_product_2(f, h)
    p1 = CatFunctor(prod, f.source, {o: o[0] for o in prod.objects},
                    {m: m[0] for m in prod.morphisms})
    p2 = CatFunctor(prod, h.source, {o: o[1] for o in prod.objects},
                    {m: m[1] for m in prod.morphisms})
    return prod, p1, p2


def is_weak_equivalence(f: CatFunctor) -> bool:
    """Fully faithful and essentially surjective, checked exhaustively."""
    g, h = f.source, f.target
    for x in g.objects:
        for y in g.objects:
            images = [f.mor_map[a] for a in g.hom(x, y)]
            if len(set(images)) != len(images):
                return False
            if set(images) != set(h.hom(f.obj_map[x], f.obj_map[y])):
                return False
    image_objects = {f.obj_map[x] for x in g.objects}
    for z in h.objects:
        if not any(h.hom(z, w) for w in image_objects):
            return False
    return True


def pi0(g: FiniteGroupoid) -> tuple:
    """Connected components of the objects, each in id order; components in
    the order of their first objects."""
    pairs = ((g.src[a], g.tgt[a]) for a in g.morphisms)
    return tuple(map(tuple, partition(g.objects, pairs)))


def full_subgroupoid(g: FiniteGroupoid, objects) -> FiniteGroupoid:
    """The full subgroupoid on ``objects``: every arrow of g between two of them."""
    keep = set(objects)
    unknown = keep - set(g.objects)
    if unknown:
        raise UnknownObject(sorted_ids(unknown)[0])
    arrows = [a for x in keep for a in g.morphisms_into(x) if g.src[a] in keep]
    return FiniteGroupoid(
        keep,
        arrows,
        {a: g.src[a] for a in arrows},
        {a: g.tgt[a] for a in arrows},
        g.compose,
        {x: g.ident[x] for x in keep},
        {a: g.inv[a] for a in arrows},
    )


def skeleton(g: FiniteGroupoid) -> FiniteGroupoid:
    """The full subgroupoid on the first object of each component: equivalent to g."""
    firsts = [c[0] for c in pi0(g)]
    return g if len(firsts) == len(g.objects) else full_subgroupoid(g, firsts)


def vertex_group(g: FiniteGroupoid, x) -> FiniteGroupoid:
    """The one-object groupoid of loops at ``x``."""
    return full_subgroupoid(g, [x])
