"""Edge-path group presentations and their certified comparison with vertex groups."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientTruncation, UnknownBasepoint
from .category import idkey
from .groupoid import FiniteGroupoid, vertex_group
from .homology import invariant_factors
from .simplicial import TruncatedSimplicialSet, nerve


@dataclass(frozen=True)
class GroupPresentation:
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


def pi1_presentation(s: TruncatedSimplicialSet, basepoint) -> GroupPresentation:
    """Edge-path presentation of the fundamental group at a basepoint.

    Generators are the nondegenerate 1-simplices of the basepoint's component;
    a deterministic BFS spanning tree (sorted simplex ids) is killed, and each
    nondegenerate 2-simplex sigma contributes d2(sigma) . d0(sigma) = d1(sigma),
    with degenerate faces read as the empty word.
    """
    if s.cap < 2:
        raise InsufficientTruncation(2, s.cap)
    if basepoint not in set(s.simplices[0]):
        raise UnknownBasepoint(basepoint)

    edges = [e for e in s.simplices[1] if not s.is_degenerate(1, e)]
    incident: dict = {v: [] for v in s.simplices[0]}
    for e in sorted(edges, key=idkey):
        u, v = s.face(1, 1, e), s.face(1, 0, e)
        incident[u].append((e, True, v))
        incident[v].append((e, False, u))

    tree_parent = {basepoint: None}
    tree_edges = set()
    queue = [basepoint]
    for u in queue:  # the loop also visits the vertices appended to queue
        for e, forward, w in incident[u]:
            if w not in tree_parent:
                tree_parent[w] = (e, forward, u)
                tree_edges.add(e)
                queue.append(w)
    component = tuple(sorted(tree_parent, key=idkey))
    in_component = set(component)

    generators = tuple(e for e in edges
                       if s.face(1, 0, e) in in_component and s.face(1, 1, e) in in_component)
    gen_index = {e: i for i, e in enumerate(generators)}

    def word_of_edge(e, sign=1):
        if s.is_degenerate(1, e):
            return ()
        return ((gen_index[e], sign),)

    relations = [word_of_edge(e) for e in generators if e in tree_edges]
    for sigma in s.simplices[2]:
        if s.is_degenerate(2, sigma):
            continue
        d0, d1, d2 = (s.face(2, i, sigma) for i in range(3))
        anchor = s.face(1, 1, d2)
        if anchor not in in_component:
            continue
        word = word_of_edge(d2) + word_of_edge(d0) + \
            tuple((g, -sign) for g, sign in reversed(word_of_edge(d1)))
        relations.append(word)
    return GroupPresentation(
        generators=generators,
        relations=tuple(relations),
        basepoint=basepoint,
        component=component,
        tree_parent=tree_parent,
    )


@dataclass(frozen=True)
class Pi1Report:
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

    def letter(a, sign=1):
        # an arrow that is no generator gives a word that matches no relator
        return () if g.is_identity(a) else ((index.get(a), sign),)

    for v in pres.component:
        if pres.tree_parent[v] is not None:
            edge = pres.tree_parent[v][0]
            if letter(edge[0]) not in relators:
                return f"missing relator for tree edge {edge!r}"
    for u in pres.component:
        for a in g.morphisms_from(u):
            if g.is_identity(a):
                continue
            for b in g.morphisms_from(g.tgt[a]):
                if not g.is_identity(b) and \
                        letter(a) + letter(b) + letter(g.compose(a, b), -1) not in relators:
                    return f"missing relator for composable pair {(a, b)!r}"
    return None


def pi1_iso_check(g: FiniteGroupoid, x, pres: GroupPresentation | None = None) -> Pi1Report:
    """Check the canonical map phi from the edge-path group P onto the vertex group at x.

    phi sends the generator of an arrow e: u -> v to the loop
    path(u) . e . path(v)^-1 at x, where path(u) is the tree path from x to u.
    The check verifies that every relator maps to the identity arrow (phi is
    well defined) and that the images generate the vertex group (phi is onto).
    ``pres`` is the presentation of the nerve of g at x, if already built.

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
    if pres is None:
        pres = pi1_presentation(nerve(g, 2), x)
    vgroup = vertex_group(g, x)

    def path_to(v):
        # tree edges are nerve 1-simplices, i.e. 1-tuples holding one arrow
        arrows = []
        while pres.tree_parent[v] is not None:
            edge, forward, parent = pres.tree_parent[v]
            arrows.append(edge[0] if forward else g.inv[edge[0]])
            v = parent
        arrows.reverse()
        return arrows

    def loop_of_edge(e):
        arrow = e[0]
        u, v = g.src[arrow], g.tgt[arrow]
        arrows = path_to(u) + [arrow] + [g.inv[a] for a in reversed(path_to(v))]
        return g.compose_path(arrows)

    images = [loop_of_edge(e) for e in pres.generators]
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
    surjective = generated == set(vgroup.morphisms)

    missing = _missing_relator(g, pres)
    if missing is not None:
        presented_order, isomorphic, note = None, None, missing
    elif relations_hold and surjective:
        presented_order, isomorphic, note = len(vgroup.morphisms), True, "isomorphism confirmed"
    else:
        presented_order, isomorphic, note = None, False, "mismatch"
    return Pi1Report(
        basepoint=x,
        generator_count=len(pres.generators),
        vertex_group_order=len(vgroup.morphisms),
        relations_hold=relations_hold,
        surjective=surjective,
        presented_order=presented_order,
        isomorphic=isomorphic,
        note=note,
    )
