"""Truncated simplicial sets and the nerve of a finite category."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .category import FiniteCategory, validate_category


@dataclass(frozen=True)
class TruncatedSimplicialSet:
    """The nerve of a finite category in degrees <= cap, whose chains above cap
    are unknown, not zero.  n-simplices are length-n composable arrow strings
    in lexicographic order of arrow positions (``idkey`` order), 0-simplices
    the objects.  d_0 drops the first arrow, d_n the last, inner faces compose
    neighbours, degeneracies insert identities, and a string is degenerate
    exactly when it holds one.  Maps and counts are computed on demand; the
    table ``simplices`` of all strings comes from :func:`string_levels` on
    first use, never by :meth:`chain_levels`.
    """

    category: FiniteCategory
    cap: int
    complete_above = False

    @cached_property
    def simplices(self) -> dict:
        levels = string_levels(self.category, self.category.morphisms, self.cap)
        return {n: strings for n, (strings, _) in enumerate(levels)}

    def face(self, n: int, i: int, x):
        g = self.category
        if n == 1:
            return g.tgt[x[0]] if i == 0 else g.src[x[0]]
        if i == 0:
            return x[1:]
        if i == n:
            return x[:-1]
        return x[:i - 1] + (g.comp[(x[i - 1], x[i])],) + x[i + 1:]

    def degeneracy(self, n: int, i: int, x):
        g = self.category
        if n == 0:
            return (g.ident[x],)
        vertex = g.src[x[0]] if i == 0 else g.tgt[x[i - 1]]
        return x[:i] + (g.ident[vertex],) + x[i:]

    def is_degenerate(self, n: int, x) -> bool:
        return n > 0 and any(map(self.category.is_identity, x))

    def count(self, n: int, nondegenerate: bool = False) -> int:
        """The number of n-simplices: paths of n arrows, counted end by end."""
        g = self.category
        arrows = [a for a in g.morphisms if not (nondegenerate and g.is_identity(a))]
        ways = dict.fromkeys(g.objects, 1)
        for _ in range(n):
            ways, last = dict.fromkeys(g.objects, 0), ways
            for a in arrows:
                ways[g.tgt[a]] += last[g.src[a]]
        return sum(ways.values()) if 0 <= n <= self.cap else 0

    def count_nondegenerate(self, n: int) -> int:
        return self.count(n, nondegenerate=True)

    def chain_levels(self):
        """Yield (identity-free strings, face rows) for degrees 0..cap: the
        normalized chains (see ``homology.chain_complex``)."""
        g = self.category
        return string_levels(g, tuple(a for a in g.morphisms if not g.is_identity(a)), self.cap)


def string_levels(g: FiniteCategory, arrows: tuple, cap: int):
    """Yield (strings, face rows) for degrees 0..cap of the composable strings
    of ``arrows``, a subsequence of ``g.morphisms``, keeping only the last
    degree's rows.

    Degree 0 is the objects and degree n the strings of n arrows, in
    lexicographic order of arrow positions.  A face row holds the index one
    degree down of each face, or ``None`` where an inner face composes to an
    arrow outside ``arrows``.  For x = p + (a,): d_n x = p, d_i x =
    child(d_i p, a) for i < n - 1 and d_{n-1} x = child(d_{n-1} p, last(p) a),
    where the children of a string are contiguous, so child(q, a) = first[q]
    + slot[a].
    """
    pos = {a: j for j, a in enumerate(arrows)}
    out = {x: [pos[a] for a in g.morphisms_from(x) if a in pos] for x in g.objects}
    slot = [out[g.src[a]].index(j) for j, a in enumerate(arrows)]
    # after[a]: (position k, arrow k, position of a then k or None) for arrows k out of tgt(a)
    after = {a: [(k, arrows[k], pos.get(g.comp[(a, arrows[k])])) for k in out[g.tgt[a]]]
             for a in arrows}
    yield g.objects, ()
    strings = tuple((a,) for a in arrows)
    rows = [[g.objects.index(g.tgt[a]), g.objects.index(g.src[a])] for a in arrows]
    # the children of a vertex are all 1-strings, in arrow position order
    first, step = [0] * len(g.objects), range(len(arrows))
    for n in range(1, cap + 1):
        if n > 1:
            next_strings, next_rows, next_first = [], [], []
            for p, (x, row) in enumerate(zip(strings, rows)):
                next_first.append(len(next_rows))
                head, top = row[:-1], first[row[-1]]
                for k, a, c in after[x[-1]]:
                    face = [None if q is None else first[q] + step[k] for q in head]
                    face += (None if c is None else top + step[c], p)
                    next_rows.append(face)
                    next_strings.append(x + (a,))
            strings, rows = tuple(next_strings), next_rows
            first, step = next_first, slot
        yield strings, rows


def simplicial_identity_violations(s: TruncatedSimplicialSet) -> list:
    """Exhaustively check the simplicial identities inside the truncation window.

    Returns witnesses (kind, n, i, j, simplex); an empty list means all
    identities hold wherever both sides are defined.
    """
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


def nerve(g: FiniteCategory, cap: int) -> TruncatedSimplicialSet:
    """The nerve of a finite category, truncated at ``cap``."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    return TruncatedSimplicialSet(g, cap)


def simplicial_circle() -> TruncatedSimplicialSet:
    """The nerve of two parallel arrows a, b: p -> q, truncated at 2.  No two
    non-identity arrows compose, so every 2-simplex is degenerate and the
    realization is the circle formed by a and b."""
    category = validate_category(
        ["p", "q"], ["1p", "1q", "a", "b"],
        {"1p": "p", "1q": "q", "a": "p", "b": "p"},
        {"1p": "p", "1q": "q", "a": "q", "b": "q"},
        {("1p", "1p"): "1p", ("1q", "1q"): "1q", ("1p", "a"): "a", ("a", "1q"): "a",
         ("1p", "b"): "b", ("b", "1q"): "b"},
        {"p": "1p", "q": "1q"})
    return nerve(category, 2)
