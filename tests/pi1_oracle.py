"""Todd-Coxeter oracle for the order of a finitely presented group.

``coset_enumeration`` enumerates the cosets of the trivial subgroup under a
budget; it was the runtime's injectivity test in ``pi1_iso_check`` before the
relator certificate replaced it, and is kept here to check the certificate's
presented orders on small groups.
"""

from __future__ import annotations

from finstack.errors import EnumerationBudgetExceeded

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
