"""Edge-path group presentations and their certified comparison with vertex groups."""

from __future__ import annotations

from typing import NamedTuple

from .errors import FinstackError, UnknownBasepoint
from .category import FiniteCategory
from .groupoid import FiniteGroupoid
from .homology import invariant_factors


class GroupPresentation(NamedTuple):
    """Generators and relator words; a word is a tuple of (generator index, +-1)."""

    generators: tuple
    relations: tuple
    basepoint: object
    component: tuple
    tree_parent: dict  # vertex -> (edge simplex, forward flag, parent vertex)

    def abelianization(self) -> tuple[int, tuple]:
        """(free rank, torsion) of the abelianized presented group."""
        columns = []
        for word in self.relations:
            col: dict = {}
            for gen, sign in word:
                col[gen] = col.get(gen, 0) + sign
            columns.append(col)
        factors = invariant_factors(columns)
        return len(self.generators) - len(factors), tuple(d for d in factors if d > 1)


def _letter(g: FiniteCategory, index: dict, a, sign: int = 1) -> tuple:
    """The word of arrow a to the power sign: empty for an identity, else one
    letter; an arrow with no generator in ``index`` gets index None and matches no relator."""
    return () if g.is_identity(a) else ((index.get(a), sign),)


def _certificate(g: FiniteCategory, index: dict, tree_parent: dict):
    """The relators :func:`pi1_iso_check`'s certificate asks for, as (note, word)
    pairs: the word [t] of each spanning-tree edge t, then [a][b][ab]^-1 of each
    composable pair (a, b) of non-identity arrows in the component of
    ``tree_parent``, both in ``morphisms`` order.  A note is (kind, arrows)."""
    arrows = [a for a in g.morphisms if g.src[a] in tree_parent and not g.is_identity(a)]
    tree = {parent[0][0] for parent in tree_parent.values() if parent is not None}
    for a in arrows:
        if a in tree:
            yield ("tree edge", (a,)), _letter(g, index, a)
    kept = set(arrows)
    for a, b, ab in g.composites():
        if a in kept and not g.is_identity(b):
            word = _letter(g, index, a) + _letter(g, index, b)
            yield ("composable pair", (a, b)), word + _letter(g, index, ab, -1)


def pi1_presentation(g: FiniteCategory, basepoint) -> GroupPresentation:
    """Edge-path presentation of the fundamental group of the nerve of g at a
    basepoint, read off the composition table of g.

    Generators are the nondegenerate 1-simplices (a,) of the basepoint's
    component, in ``morphisms`` order.  A deterministic BFS spanning tree
    (edges in arrow order) is killed, and each nondegenerate 2-simplex (a, b)
    contributes d2 . d0 = d1, the word [a][b][ab]^-1 with an identity
    composite read as the empty word: the relators are :func:`_certificate`'s.
    """
    if basepoint not in set(g.objects):
        raise UnknownBasepoint(basepoint)

    arrows = [a for a in g.morphisms if not g.is_identity(a)]
    incident: dict = {v: [] for v in g.objects}
    for a in arrows:
        incident[g.src[a]].append(((a,), True, g.tgt[a]))
        incident[g.tgt[a]].append(((a,), False, g.src[a]))

    tree_parent = {basepoint: None}
    queue = [basepoint]
    for u in queue:  # the loop also visits the vertices appended to queue
        for e, forward, w in incident[u]:
            if w not in tree_parent:
                tree_parent[w] = (e, forward, u)
                queue.append(w)

    index = {a: i for i, a in enumerate(a for a in arrows if g.src[a] in tree_parent)}
    return GroupPresentation(
        generators=tuple((a,) for a in index),
        relations=tuple(word for _, word in _certificate(g, index, tree_parent)),
        basepoint=basepoint,
        component=tuple(v for v in g.objects if v in tree_parent),
        tree_parent=tree_parent,
    )


class Pi1Report(NamedTuple):
    """Outcome of comparing the edge-path group with the isotropy group."""

    basepoint: object
    generator_count: int
    vertex_group_order: int
    relations_hold: bool
    surjective: bool
    presented_order: int | None
    isomorphic: bool | None
    note: str


def _missing_relator(g: FiniteGroupoid, pres: GroupPresentation) -> str | None:
    """Name the first relator of :func:`pi1_iso_check`'s certificate that pres lacks."""
    relators = set(pres.relations)
    index = {e[0]: i for i, e in enumerate(pres.generators)}
    for (kind, arrows), word in _certificate(g, index, pres.tree_parent):
        if word not in relators:
            return f"missing relator for {kind} {arrows!r}"
    return None


def pi1_iso_check(g: FiniteGroupoid, x, pres: GroupPresentation | None = None) -> Pi1Report:
    """Check the canonical map phi from the edge-path group P onto the vertex group at x.

    phi sends the generator of an arrow e: u -> v to the loop
    path(u) . e . path(v)^-1 at x, where path(u) is the composite of the tree
    path from x to u.
    The check verifies that every relator maps to the identity arrow (phi is
    well defined) and that the images generate the vertex group (phi is onto).
    ``pres`` is the presentation of g at x, if already built; one
    based at another object is refused with :class:`FinstackError`.

    Injectivity is read off the relators by the edge-path argument (R. Brown,
    *Topology and Groupoids*, 6.7; Spanier, *Algebraic Topology*, ch. 3).
    Write [a] for the generator of a non-identity arrow a, and read an
    identity arrow as the empty word.  The certificate asks the relators to
    contain the word [t] of every spanning-tree edge t, and the word
    [a][b][ab]^-1 of every composable pair (a, b) of non-identity arrows in
    x's component.  Then tree edges are trivial in P; the pair (a, inv a)
    makes [inv a] = [a]^-1; and folding a composable string pair by pair
    gives [a_1]...[a_n] = [a_1 ... a_n].  So each generator [e] equals
    [path(u)][e][path(v)^-1] = [loop(e)], the word of a single loop at x,
    and loops multiply by the same relators.  Every element of P is then the
    word of one loop, so |P| <= |Aut(x)|.  If phi is also well defined and
    onto, it is an isomorphism and the presented order is |Aut(x)|.  If a
    relator of the certificate is missing, nothing is decided: the presented
    order and the verdict are None, and the note names the first one missing.
    """
    if x not in g.objects:
        raise UnknownBasepoint(x)
    if pres is None:
        pres = pi1_presentation(g, x)
    elif pres.basepoint != x:
        raise FinstackError(f"presentation is based at {pres.basepoint!r}, not at {x!r}")
    path = {}  # each tree path composed once; tree_parent lists parents first
    for v, parent in pres.tree_parent.items():
        if parent is None:
            path[v] = g.ident[v]
        else:
            (arrow,), forward, u = parent
            path[v] = g.compose(path[u], arrow if forward else g.inv[arrow])
    images = [g.compose(g.compose(path[g.src[a]], a), g.inv[path[g.tgt[a]]])
              for (a,) in pres.generators]
    aut = g.hom(x, x)
    identity = g.ident[x]

    relations_hold = True
    for word in pres.relations:
        value = identity
        for gen, sign in word:
            arrow = images[gen] if sign > 0 else g.inv[images[gen]]
            value = g.compose(value, arrow)
        if value != identity:
            relations_hold = False
            break

    generated = {identity}
    frontier = set(images)
    while frontier:
        generated |= frontier
        frontier = {g.compose(a, b) for a in frontier for b in images} - generated
    surjective = generated == set(aut)

    missing = _missing_relator(g, pres)
    if missing is not None:
        presented_order, isomorphic, note = None, None, missing
    elif relations_hold and surjective:
        presented_order, isomorphic, note = len(aut), True, "isomorphism confirmed"
    else:
        presented_order, isomorphic, note = None, False, "mismatch"
    return Pi1Report(
        basepoint=x,
        generator_count=len(pres.generators),
        vertex_group_order=len(aut),
        relations_hold=relations_hold,
        surjective=surjective,
        presented_order=presented_order,
        isomorphic=isomorphic,
        note=note,
    )
