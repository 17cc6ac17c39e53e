"""Oracles for the edge-path presentation and the order of a finitely presented group.

``tabulated_pi1_presentation`` builds the presentation from the tabulated
nerve's 1- and 2-strings, degenerate ones included, and their faces; it was
``pi1_presentation`` before the presentation was read off the composition
table, and is kept here to check that builder exactly.

``coset_enumeration`` enumerates the cosets of the trivial subgroup under a
budget; it was the runtime's injectivity test in ``pi1_iso_check`` before the
relator certificate replaced it, and is kept here to check the certificate's
presented orders on small groups.
"""

from __future__ import annotations

from finstack.category import idkey
from finstack.errors import EnumerationBudgetExceeded, InsufficientTruncation, UnknownBasepoint
from finstack.fundamental import GroupPresentation
from finstack.simplicial import TruncatedSimplicialSet

from nerve_oracle import tabulated_nerve

COSET_BUDGET = 10_000  # cosets per enumeration


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
            raise EnumerationBudgetExceeded(budget, "coset enumeration", "cosets")
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


def tabulated_pi1_presentation(nerve: TruncatedSimplicialSet, basepoint) -> GroupPresentation:
    """Edge-path presentation of the fundamental group at a basepoint, read
    off the tabulated copy of ``nerve``.

    Generators are the nondegenerate 1-simplices of the basepoint's component;
    a deterministic BFS spanning tree (sorted simplex ids) is killed, and each
    nondegenerate 2-simplex sigma contributes d2(sigma) . d0(sigma) = d1(sigma),
    with degenerate faces read as the empty word.
    """
    if nerve.cap < 2:
        raise InsufficientTruncation(2, nerve.cap)
    s = tabulated_nerve(nerve.category, nerve.cap)
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
