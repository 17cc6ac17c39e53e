"""Tabulating nerve oracle: every face and degeneracy map stored as a table.

Builds the composable strings of a groupoid together with all (d+1)^2 face
tables and d(d+1)/2 degeneracy tables, and flags as degenerate exactly the
simplices in the union of the degeneracy images.  The runtime nerve holds a
string only as its index, with face columns of indices by index arithmetic
on prefixes, and drops the strings that hold an identity arrow instead.

``simplicial_identity_violations`` is the tuple scan that checks every
simplicial identity on the tabulated nerve by building both sides as
simplices, and ``row_identity_witnesses`` the pass that decides each identity
string by string on face rows: the oracles for the one pass over the face
columns, ``TruncatedSimplicialSet.identity_witnesses``.
"""

from __future__ import annotations

from dataclasses import dataclass

import finstack.simplicial as simplicial
from finstack.category import FiniteCategory, idkey
from finstack.simplicial import TruncatedSimplicialSet

from chain_oracle import lookup_levels


@dataclass(frozen=True)
class TabulatedSimplicialSet:
    """Simplices in degrees <= cap with face and degeneracy tables.

    ``faces[(n, i)]`` sends an n-simplex to its i-th face (1 <= n <= cap);
    ``degeneracies[(n, i)]`` sends an n-simplex to an (n+1)-simplex (n < cap).
    ``degenerate[n]`` flags the simplices lying in the image of a degeneracy.
    """

    cap: int
    simplices: dict
    faces: dict
    degeneracies: dict
    degenerate: dict
    complete_above = False

    def face(self, n: int, i: int, simplex):
        return self.faces[(n, i)][simplex]

    def degeneracy(self, n: int, i: int, simplex):
        return self.degeneracies[(n, i)][simplex]

    def is_degenerate(self, n: int, simplex) -> bool:
        return simplex in self.degenerate[n]

    def count(self, n: int) -> int:
        return len(self.simplices.get(n, ()))

    def chain_levels(self):
        return lookup_levels(self)

    def count_nondegenerate(self, n: int) -> int:
        return self.count(n) - len(self.degenerate.get(n, frozenset()))


def make_simplicial_set(cap: int, simplices: dict, faces: dict, degeneracies: dict) -> TabulatedSimplicialSet:
    """Assemble a tabulated simplicial set, computing the degenerate flags."""
    degenerate = {0: frozenset()}
    for n in range(1, cap + 1):
        image = set()
        for i in range(n):
            image.update(degeneracies[(n - 1, i)].values())
        degenerate[n] = frozenset(image)
    return TabulatedSimplicialSet(
        cap=cap,
        simplices={n: tuple(simplices[n]) for n in range(cap + 1)},
        faces=dict(faces),
        degeneracies=dict(degeneracies),
        degenerate=degenerate,
    )


def tabulated_nerve(g: FiniteCategory, cap: int) -> TabulatedSimplicialSet:
    """The nerve of a finite category with every face and degeneracy map tabulated."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    simplices: dict = {0: tuple(g.objects)}
    for n in range(1, cap + 1):
        strings = []
        for prefix in simplices[n - 1] if n > 1 else [()]:
            start_options = g.morphisms_from(g.tgt[prefix[-1]]) if n > 1 else g.morphisms
            for a in start_options:
                strings.append(prefix + (a,))
        strings.sort(key=idkey)
        simplices[n] = tuple(strings)

    faces: dict = {}
    degeneracies: dict = {}
    for n in range(1, cap + 1):
        for i in range(n + 1):
            table = {}
            for x in simplices[n]:
                if n == 1:
                    table[x] = g.tgt[x[0]] if i == 0 else g.src[x[0]]
                elif i == 0:
                    table[x] = x[1:]
                elif i == n:
                    table[x] = x[:-1]
                else:
                    table[x] = x[:i - 1] + (g.compose(x[i - 1], x[i]),) + x[i + 1:]
            faces[(n, i)] = table
    for n in range(0, cap):
        for i in range(n + 1):
            table = {}
            for x in simplices[n]:
                if n == 0:
                    table[x] = (g.ident[x],)
                else:
                    vertex = g.src[x[0]] if i == 0 else g.tgt[x[i - 1]]
                    table[x] = x[:i] + (g.ident[vertex],) + x[i:]
            degeneracies[(n, i)] = table
    return make_simplicial_set(cap, simplices, faces, degeneracies)


def simplicial_identity_violations(nerve: TruncatedSimplicialSet) -> list:
    """Exhaustively check the simplicial identities of the tabulated copy of
    ``nerve`` inside the truncation window.

    Returns witnesses (kind, n, i, j, simplex); an empty list means all
    identities hold wherever both sides are defined.
    """
    s = tabulated_nerve(nerve.category, nerve.cap)
    bad = []
    for n in range(2, s.cap + 1):
        for x in s.simplices[n]:
            for j in range(n + 1):
                for i in range(j):
                    if s.face(n - 1, i, s.face(n, j, x)) != s.face(n - 1, j - 1, s.face(n, i, x)):
                        bad.append(("dd", n, i, j, x))
    for n in range(0, s.cap - 1):
        for x in s.simplices[n]:
            for i in range(n + 1):
                for j in range(i, n + 1):
                    if s.degeneracy(n + 1, j + 1, s.degeneracy(n, i, x)) != \
                            s.degeneracy(n + 1, i, s.degeneracy(n, j, x)):
                        bad.append(("ss", n, i, j, x))
    for n in range(0, s.cap):
        for x in s.simplices[n]:
            for j in range(n + 1):
                sx = s.degeneracy(n, j, x)
                for i in range(n + 2):
                    got = s.face(n + 1, i, sx)
                    if i == j or i == j + 1:
                        want = x
                    elif i < j:
                        want = s.degeneracy(n - 1, j - 1, s.face(n, i, x))
                    else:
                        want = s.degeneracy(n - 1, j, s.face(n, i - 1, x))
                    if got != want:
                        bad.append(("ds", n, i, j, x))
    return bad


def row_identity_witnesses(s: TruncatedSimplicialSet, kinds: tuple = ("dd", "ss", "ds")) -> list:
    """The first witness (kind, n, i, j, x) of each of ``kinds``, as
    ``TruncatedSimplicialSet.identity_witnesses`` finds it, by a generator per
    string over the face rows, read off the columns of
    ``simplicial.string_levels`` and with its degeneracy tables, and naming
    each witness's string as the tabulated nerve lists it.  An index past
    the next degree's strings fails the identity that reads it."""
    g, tables = s.category, []
    found = {kind: None for kind in ("dd", "ss", "ds") if kind in kinds}
    slots, simplices = simplicial._slots(g), tabulated_nerve(g, s.cap).simplices
    older = below = lower = level_below = cols_below = ()
    for n, (level, cols) in enumerate(simplicial.string_levels(g, g.morphisms, s.cap)):
        strings, rows = simplices[n], list(zip(*cols))
        if n > 1 and "dd" in found and not found["dd"]:
            found["dd"] = next((("dd", n, i, j, x) for j in range(n + 1) for i in range(j)
                                for x, row in zip(strings, rows)
                                if lower[row[j]][i] != lower[row[i]][j - 1]), None)
        if n and ("ds" in found or "ss" in found):
            tables.append(simplicial._degeneracies(g, level_below, cols_below, tables[-1] if tables else [],
                                                   slots))
            up, down = tables[n - 1], tables[n - 2] if n > 1 else ()
            if "ds" in found and not found["ds"]:
                count = len(rows)
                found["ds"] = next((("ds", n - 1, i, j, x)
                                    for j in range(n) for i in range(n + 1)
                                    for y, (x, t) in enumerate(zip(below, up[j]))
                                    if t >= count or rows[t][i] != (
                                        y if i in (j, j + 1) else
                                        down[j - 1][lower[y][i]] if i < j else
                                        down[j][lower[y][i - 1]])), None)
            if n > 1 and "ss" in found and not found["ss"]:
                count = len(below)
                found["ss"] = next((("ss", n - 2, i, j, x)
                                    for j in range(n - 1) for i in range(j + 1)
                                    for x, a, b in zip(older, down[i], down[j])
                                    if a >= count or b >= count or up[j + 1][a] != up[i][b]),
                                   None)
        older, below, lower, level_below, cols_below = below, strings, rows, level, cols
    return [w for w in found.values() if w]
