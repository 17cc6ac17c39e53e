"""Edge-path group presentations and coset-enumeration order certificates."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationBudgetExceeded, InsufficientTruncation, UnknownBasepoint
from .category import idkey
from .groupoid import FiniteGroupoid, vertex_group
from .homology import invariant_factors
from .simplicial import TruncatedSimplicialSet, nerve

COSET_BUDGET = 10_000  # cosets per enumeration in pi1_iso_check


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
    while queue:
        u = queue.pop(0)
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


def coset_enumeration(num_generators: int, relations, budget: int | None = None) -> int:
    """Order of the presented group by coset enumeration over the trivial subgroup.

    Union-find Todd-Coxeter: every live coset has all relator paths traced and
    all generator edges defined, so on termination the live count is the group
    order.  Raises :class:`EnumerationBudgetExceeded` past ``budget`` cosets,
    by default :data:`COSET_BUDGET` as it reads at the call.
    """
    budget = COSET_BUDGET if budget is None else budget
    sentinel = -1
    labels: list[int] = []
    neighbors: list[list[int]] = []
    directions = 2 * num_generators

    def find(c: int) -> int:
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def add_coset() -> int:
        if len(labels) >= budget:
            raise EnumerationBudgetExceeded(budget)
        c = len(labels)
        labels.append(c)
        neighbors.append([sentinel] * directions)
        return c

    def unify(a: int, b: int) -> None:
        pending = [(a, b)]
        while pending:
            c1, c2 = pending.pop()
            c1, c2 = find(c1), find(c2)
            if c1 == c2:
                continue
            c1, c2 = min(c1, c2), max(c1, c2)
            labels[c2] = c1
            for d in range(directions):
                n1, n2 = neighbors[c1][d], neighbors[c2][d]
                if n1 == sentinel:
                    neighbors[c1][d] = n2
                elif n2 != sentinel:
                    pending.append((n1, n2))

    def follow(c: int, d: int) -> int:
        c = find(c)
        n = neighbors[c][d]
        if n == sentinel:
            n = add_coset()
            neighbors[c][d] = n
            neighbors[n][d ^ 1] = c
        return find(n)

    words = [[2 * g + (0 if sign > 0 else 1) for g, sign in word] for word in relations]
    add_coset()
    cursor = 0
    while cursor < len(labels):
        if find(cursor) == cursor:
            for word in words:
                end = cursor
                for d in word:
                    end = follow(end, d)
                unify(end, cursor)
            for d in range(directions):
                follow(cursor, d)
        cursor += 1
    return sum(1 for c in range(len(labels)) if find(c) == c)


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


def pi1_iso_check(g: FiniteGroupoid, x, pres: GroupPresentation | None = None) -> Pi1Report:
    """Check the canonical map from the edge-path group onto the vertex group at x.

    Each 1-simplex maps to its tree-path conjugate loop; the check verifies all
    relators map to the identity arrow and the images generate, then certifies
    injectivity by coset enumeration (surjection between finite groups of
    equal order).  Past :data:`COSET_BUDGET` cosets, injectivity is reported
    untested.  ``pres`` is the presentation of the nerve of g at x, if already built.
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
        frontier = {g.compose(a, b) for a in generated for b in images} - generated
    surjective = generated == set(vgroup.morphisms)

    presented_order: int | None
    try:
        presented_order = coset_enumeration(len(pres.generators), pres.relations)
    except EnumerationBudgetExceeded:
        presented_order = None

    if presented_order is None:
        isomorphic = None
        note = "surjective, injectivity untested" if surjective else "not surjective"
    else:
        isomorphic = relations_hold and surjective and presented_order == len(vgroup.morphisms)
        note = "isomorphism confirmed" if isomorphic else "mismatch"
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
