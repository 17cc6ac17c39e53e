"""Truncated simplicial sets and the nerve of a finite category."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .category import FiniteCategory, idkey, validate_category


@dataclass(frozen=True)
class TruncatedSimplicialSet:
    """Simplices in degrees <= cap with their face and degeneracy maps.

    ``face(n, i, x)`` is the i-th face of an n-simplex (1 <= n <= cap),
    ``degeneracy(n, i, x)`` the i-th degeneracy of an n-simplex (n < cap) and
    ``is_degenerate(n, x)`` whether x lies in the image of a degeneracy.  All
    three are functions, so nothing is tabulated.  The set is a truncation:
    its chains above ``cap`` are unknown, not zero.
    """

    cap: int
    simplices: dict
    face: Callable
    degeneracy: Callable
    is_degenerate: Callable
    complete_above = False

    def count(self, n: int) -> int:
        return len(self.simplices.get(n, ()))

    def count_nondegenerate(self, n: int) -> int:
        return sum(1 for x in self.simplices.get(n, ()) if not self.is_degenerate(n, x))


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
    """The nerve of a finite category: n-simplices are length-n composable
    arrow strings.

    d_0 drops the first arrow, d_n the last, and inner faces compose
    neighbouring arrows; degeneracies insert identities.  0-simplices are the
    objects themselves.  Only the strings are built; faces and degeneracies
    are computed when asked for.  A string is degenerate exactly when it holds
    an identity arrow.
    """
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
    src, tgt, comp, ident = g.src, g.tgt, g.comp, g.ident
    identities = frozenset(ident.values())

    def face(n: int, i: int, x):
        if n == 1:
            return tgt[x[0]] if i == 0 else src[x[0]]
        if i == 0:
            return x[1:]
        if i == n:
            return x[:-1]
        return x[:i - 1] + (comp[(x[i - 1], x[i])],) + x[i + 1:]

    def degeneracy(n: int, i: int, x):
        if n == 0:
            return (ident[x],)
        vertex = src[x[0]] if i == 0 else tgt[x[i - 1]]
        return x[:i] + (ident[vertex],) + x[i:]

    def is_degenerate(n: int, x) -> bool:
        return n > 0 and not identities.isdisjoint(x)

    return TruncatedSimplicialSet(cap, simplices, face, degeneracy, is_degenerate)


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
