"""The table core: finite categories, functors between them, and one union-find.

A finite groupoid (:mod:`finstack.groupoid`) is a finite category with an
inverse table.  Composition is diagrammatic throughout the package:
``compose(f, g)`` means "f then g" and is defined exactly when
``tgt(f) == src(g)``, so that ``src(compose(f, g)) == src(f)`` and
``tgt(compose(f, g)) == tgt(g)``.  An arrow is its position in id order,
and composition a row of positions per arrow; no other module numbers them.

Tables that come from outside the program go through :func:`validate_category`
or :func:`validate_groupoid`, which decide every axiom: associativity and
functoriality on a generating set of arrows (``FiniteCategory.generators``),
with an exhaustive scan only to name the first witness of a failure, or on
tables under ``SCAN_BELOW`` composites.  Builders that only combine
validated values construct the table classes and records directly: their
output is correct by construction.  Builders hand the core their composition
law, and the core alone enumerates composable pairs.  Ids are put in order
once, when a table is built (``FiniteCategory``, ``covered_space``,
``make_fiber``); :func:`partition` and the morphism indexes keep that order,
so components, span and homotopy classes, torsor fibers, fiber names and
cone sets come out in id order without a sort.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import AxiomViolation, DanglingId, MismatchedTarget, NoFinalObject


def idkey(value: object) -> str:
    """Deterministic sort key for ids of mixed type."""
    return repr(value)


def sorted_ids(values: Iterable) -> tuple:
    return tuple(sorted(values, key=idkey))


def partition(elements: Iterable, pairs: Iterable) -> list:
    """Classes of ``elements`` under the equivalence relation generated by ``pairs``.

    Each class lists its members in the order of ``elements``, and the classes
    come in the order of their first members.
    """
    elements = list(elements)
    index = {x: i for i, x in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x, y in pairs:
        rx, ry = find(index[x]), find(index[y])
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    classes: dict = {}
    for i, x in enumerate(elements):
        classes.setdefault(find(i), []).append(x)
    return list(classes.values())


class _set_on_first_read(cached_property):
    """``cached_property`` set by ``setattr``: a ``__dict__`` write slows later reads (CPython 3.11)."""

    def __get__(self, table, owner=None):
        if table is None:
            return self
        setattr(table, self.attrname, value := self.func(table))
        return value


class FiniteCategory:
    """A category given by finite source/target/identity tables and composition rows.

    Construction sorts the ids and numbers each arrow by its place in
    ``morphisms`` (``position``) and in ``morphisms_from`` its source (``slots``).
    The first read of ``rows`` sets ``rows[p][s]`` to the position of ``law(f, g)``,
    "f then g", for f at position p and g at slot s, and drops the law, asked once
    for each composable pair in that order and for no other, or never if nothing
    reads the rows.  It checks no axiom (see :func:`validate_category`).  Values are
    treated as immutable afterwards; two categories are equal when their tables are.
    """

    def __init__(self, objects, morphisms, src: Mapping, tgt: Mapping, law: Callable,
                 ident: Mapping):
        self.objects, self.morphisms = sorted_ids(objects), sorted_ids(morphisms)
        self.src, self.tgt, self.ident = src, tgt, ident
        self.position = dict(zip(self.morphisms, range(len(self.morphisms))))
        by_src: dict = {x: [] for x in self.objects}
        by_tgt: dict = {x: [] for x in self.objects}
        hom: dict = {}
        self.slots = slots = []
        for m in self.morphisms:
            x, y = src[m], tgt[m]
            slots.append(len(by_src[x]))
            by_src[x].append(m)
            by_tgt[y].append(m)
            hom.setdefault((x, y), []).append(m)
        self._from = {x: tuple(v) for x, v in by_src.items()}
        self._into = {x: tuple(v) for x, v in by_tgt.items()}
        self._hom = {xy: tuple(v) for xy, v in hom.items()}
        self._law = law

    @_set_on_first_read
    def rows(self) -> list:
        at, out, tgt, law = self.position, self._from, self.tgt, self._law
        rows = [[at[law(f, g)] for g in out[tgt[f]]] for f in self.morphisms]
        del self._law
        return rows

    def _compared(self) -> tuple:
        return self.objects, self.morphisms, self.src, self.tgt, self.rows, self.ident

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def compose(self, f, g):
        """Diagrammatic composite "f then g"."""
        return self.morphisms[self.rows[self.position[f]][self.slots[self.position[g]]]]

    def composites(self) -> Iterator[tuple]:
        """(f, g, f then g) for every composable pair, in id order: f by position, g by slot."""
        arrows, out, tgt = self.morphisms, self._from, self.tgt
        return chain.from_iterable(zip(repeat(f), out[tgt[f]], map(arrows.__getitem__, row))
                                   for f, row in zip(arrows, self.rows))

    def is_identity(self, f) -> bool:
        return self.ident[self.src[f]] == f

    def hom(self, x, y) -> tuple:
        return self._hom.get((x, y), ())

    def morphisms_from(self, x) -> tuple:
        return self._from.get(x, ())

    def morphisms_into(self, x) -> tuple:
        return self._into.get(x, ())

    @_set_on_first_read
    def generators(self) -> tuple:
        """Non-identity arrows whose left-bracketed composites reach every
        non-identity arrow; needs full rows.

        Arrows b are taken in order of |into(src b)|·|from(tgt b)|, ties in id
        order, and kept when no composite of the arrows kept so far is b.
        """
        src, tgt, into, out = self.src, self.tgt, self._into, self._from
        arrows, at, slots, rows = self.morphisms, self.position, self.slots, self.rows
        identities = set(self.ident.values())
        candidates = sorted((m for m in arrows if m not in identities),
                            key=lambda b: len(into[src[b]]) * len(out[tgt[b]]))
        # the generators, the slots of those out of each object, and the positions reached
        gens, gens_from, reached = [], {}, set()
        for b in candidates:
            p = at[b]
            if p in reached:
                continue
            gens.append(b)
            gens_from.setdefault(src[b], []).append(slots[p])
            # close the reached set under right composition, breadth first:
            # the old composites gain the factor b, the new ones every generator
            queue = [p] + [rows[r][slots[p]] for r in map(at.__getitem__, into[src[b]]) if r in reached]
            for w in queue:
                if w not in reached:
                    reached.add(w)
                    queue += [rows[w][s] for s in gens_from.get(tgt[arrows[w]], ())]
        return tuple(gens)

    def final_object(self):
        """The first object with exactly one morphism from every object."""
        for t in self.objects:
            into = self._into[t]
            if len(into) == len(self.objects) == len({self.src[m] for m in into}):
                return t
        raise NoFinalObject("category has no final object")


# A table with fewer composites than this is scanned whole: on tables this
# small, choosing generators costs more than the scan.
SCAN_BELOW = 32


def _associative_at(c: FiniteCategory, b) -> bool:
    """Whether (f.b).h = f.(b.h) for every f into src b and h out of tgt b."""
    rows, slots, p = c.rows, c.slots, c.position[b]
    through_b = list(map(slots.__getitem__, rows[p]))  # the slots of the b.h
    return all(rows[row[slots[p]]] == list(map(row.__getitem__, through_b))
               for row in map(rows.__getitem__, map(c.position.__getitem__, c._into[c.src[b]])))


def validated(build: Callable, objects, morphisms, src, tgt, comp, ident):
    """Check the category axioms on raw tables and return ``build`` of them.

    ``comp`` maps each composable pair (f, g) of a table from outside the
    program to "f then g"; ``build(objects, morphisms, src, tgt, law, ident)``
    makes the value with the mapping's lookup as its law, and its rows are
    filled here.  Raises :class:`DanglingId` when a table mentions an undeclared
    id and :class:`AxiomViolation` with a witness when a law fails.  The entries
    of ``comp`` are checked in their order; a missing pair is named in id order.
    An ``ident`` key that is not an object is named last, after every law holds.

    Associativity is decided on the triples (f, b, h) with b a generator
    (Light's test, read for categories): the arrows b with (f.b).h = f.(b.h)
    for all f and h hold the identities, by the unit laws, and are closed
    under composition, so they are every arrow once they hold a generating
    set.  Only a failure, or a table under ``SCAN_BELOW`` composites, runs the
    scan over every composable triple, which names the first failing one.
    """
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
    for x in sorted_ids(objects):
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
    try:
        c = build(objects, morphisms, dict(src), dict(tgt), lambda f, g: comp[f, g],
                  {x: ident[x] for x in objects})
        arrows, at, slots, rows = c.morphisms, c.position, c.slots, c.rows
    except KeyError as missing:  # every other id the constructor or the rows look up is checked above
        raise DanglingId("comp (missing entry)", missing.args[0]) from None
    for p, f in enumerate(arrows):
        if rows[at[ident[src[f]]]][slots[p]] != p:
            raise AxiomViolation("left-unit", f)
        if rows[p][slots[at[ident[tgt[f]]]]] != p:
            raise AxiomViolation("right-unit", f)
    if sum(map(len, rows)) < SCAN_BELOW or not all(_associative_at(c, b) for b in c.generators):
        for f, row in zip(arrows, rows):
            for g, fg in zip(c._from[tgt[f]], row):
                for s, gh in enumerate(rows[at[g]]):
                    if rows[fg][s] != row[slots[gh]]:
                        raise AxiomViolation("associativity", (f, g, c._from[tgt[g]][s]))
    for x in ident:
        if x not in obj_set:
            raise DanglingId("id", x)
    return c


def validate_category(objects, morphisms, src, tgt, comp, ident) -> FiniteCategory:
    """Check the category axioms and return the validated value.

    The laws are decided on a generating set; see :func:`validated`.
    """
    return validated(FiniteCategory, objects, morphisms, src, tgt, comp, ident)


def discrete_category(objects) -> FiniteCategory:
    ids = {x: ("id", x) for x in objects}
    ends = {m: x for x, m in ids.items()}
    return FiniteCategory(ids, ids.values(), ends, ends, lambda f, g: f, ids)


def chain_category(n: int) -> FiniteCategory:
    """The poset category 0 -> 1 -> ... -> n, one morphism (i, j) per i <= j."""
    return _poset(range(n + 1), lambda i, j: i <= j)


def poset_category(objects, relation) -> FiniteCategory:
    """Finite poset as a category; ``relation(x, y)`` decides x <= y.  The
    relation is the caller's, so its table goes through the validator."""
    objects = list(objects)
    arrows = [(x, y) for x in objects for y in objects if relation(x, y)]
    return validate_category(objects, arrows, {m: m[0] for m in arrows}, {m: m[1] for m in arrows},
                             {(f, g): (f[0], g[1]) for f in arrows for g in arrows if f[1] == g[0]},
                             {x: (x, x) for x in objects})


def _poset(objects, relation) -> FiniteCategory:
    """The preorder of a reflexive, transitive ``relation``: one arrow (x, y) per x <= y."""
    objects = list(objects)
    arrows = [(x, y) for x in objects for y in objects if relation(x, y)]
    return FiniteCategory(objects, arrows, {m: m[0] for m in arrows}, {m: m[1] for m in arrows},
                          lambda f, g: (f[0], g[1]), {x: (x, x) for x in objects})


class CatFunctor(NamedTuple):
    """A functor of finite categories or groupoids, stored as object and morphism tables."""

    source: FiniteCategory
    target: FiniteCategory
    obj_map: Mapping
    mor_map: Mapping

    def on_obj(self, x):
        return self.obj_map[x]

    def on_mor(self, m):
        return self.mor_map[m]

    def then(self, other: CatFunctor) -> CatFunctor:
        """The composite "self then other"; a composite of functors needs no check."""
        if self.target is not other.source and self.target != other.source:
            raise MismatchedTarget("functors not composable")
        return CatFunctor(
            self.source, other.target,
            {x: other.obj_map[self.obj_map[x]] for x in self.source.objects},
            {m: other.mor_map[self.mor_map[m]] for m in self.source.morphisms},
        )


def functor(source: FiniteCategory, target: FiniteCategory, obj_map, mor_map) -> CatFunctor:
    """Validate that the tables commute with src/tgt/id/comp.

    ``source`` and ``target`` must be valid categories.  Composition is decided
    on the generators of the source: F(s.b) = F(s).F(b) for every s into
    src b and every generator b gives F(s.w) = F(s).F(w) for every arrow w,
    by induction on the length of w.  Only a failure, or a table under
    ``SCAN_BELOW`` composites, scans every composite in id order, which names
    the first failing pair.  Between groupoids this also
    preserves inverses: F(a) . F(inv a) = F(id) = id.
    """
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
    if sum(map(len, source.rows)) < SCAN_BELOW or any(
            target.compose(mor_map[s], mor_map[b]) != mor_map[source.compose(s, b)]
            for b in source.generators for s in source._into[source.src[b]]):
        for f, g, h in source.composites():
            if target.compose(mor_map[f], mor_map[g]) != mor_map[h]:
                raise AxiomViolation("functor-composition", (f, g))
    return CatFunctor(source, target, dict(obj_map), dict(mor_map))


def identity_functor(c: FiniteCategory) -> CatFunctor:
    return CatFunctor(c, c, {x: x for x in c.objects}, {m: m for m in c.morphisms})


def comma_category(d, f: CatFunctor) -> FiniteCategory:
    """The comma category (d down F) for F: E -> D and an object d of D.

    Objects are pairs (e, alpha: d -> F(e)); a morphism (alpha, gamma) with
    gamma: e -> e' runs to (e', alpha . F(gamma)).  Discrete E gives a
    discrete comma category.
    """
    e_cat, d_cat = f.source, f.target
    if d not in set(d_cat.objects):
        raise DanglingId("comma", d)
    objects = [(e, alpha) for e in e_cat.objects for alpha in d_cat.hom(d, f.obj_map[e])]
    src, tgt = {}, {}
    for gamma in e_cat.morphisms:
        for alpha in d_cat.hom(d, f.obj_map[e_cat.src[gamma]]):
            src[(alpha, gamma)] = (e_cat.src[gamma], alpha)
            tgt[(alpha, gamma)] = (e_cat.tgt[gamma], d_cat.compose(alpha, f.mor_map[gamma]))
    return FiniteCategory(objects, src.keys(), src, tgt, lambda u, v: (u[0], e_cat.compose(u[1], v[1])),
                          {(e, alpha): (alpha, e_cat.ident[e]) for e, alpha in objects})
