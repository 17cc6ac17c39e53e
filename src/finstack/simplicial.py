"""Truncated simplicial sets and the nerve of a finite category."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .category import FiniteCategory, validate_category


@dataclass(frozen=True)
class TruncatedSimplicialSet:
    """The nerve of a finite category in degrees <= cap, whose chains above cap
    are unknown, not zero.  n-simplices are length-n composable arrow strings
    in lexicographic order of arrow positions (``idkey`` order), 0-simplices
    the objects.  d_0 drops the first arrow, d_n the last, inner faces compose
    neighbours, degeneracies insert identities, and a string is degenerate
    exactly when it holds one.  Counts are computed end by end; the strings
    themselves are met only as the face rows of :func:`string_levels`, read by
    :meth:`chain_levels` and by :meth:`identity_witnesses`, the one pass that
    checks the simplicial identities, for ``nerve`` and for the Milnor factors
    alike.
    """

    category: FiniteCategory
    cap: int
    complete_above = False

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

    def identity_witnesses(self, degeneracies: bool = True) -> list:
        """The first witness (kind, n, i, j, x) of each kind of simplicial
        identity (May 1967, §1) that fails on an n-string x, in the order dd,
        ss, ds; an empty list means all identities hold inside the window:

            dd: d_i d_j x = d_{j-1} d_i x for i < j,
            ss: s_{j+1} s_i x = s_i s_j x for i <= j,
            ds: d_i s_j x = x for i = j, j + 1, s_{j-1} d_i x for i < j
                and s_j d_{i-1} x for i > j + 1.

        One pass of :func:`string_levels` over all arrows decides them all on
        the face rows, with the degeneracies by index arithmetic (see
        ``_degeneracies``); witnesses of a kind are found in (n, j, i, x)
        order.  Without ``degeneracies`` only dd is decided and no degeneracy
        table is built.
        """
        g, tables = self.category, []
        found = dict.fromkeys(("dd", "ss", "ds"))
        older = below = lower = ()
        for n, (strings, rows) in enumerate(string_levels(g, g.morphisms, self.cap)):
            if n > 1 and not found["dd"]:
                found["dd"] = next((("dd", n, i, j, x) for j in range(n + 1) for i in range(j)
                                    for x, row in zip(strings, rows)
                                    if lower[row[j]][i] != lower[row[i]][j - 1]), None)
            if degeneracies and n:
                # degree n - 1's table, s_j y = up[j][y], built only once degree n is out
                # so that it is not held while string_levels builds degree n
                tables.append(_degeneracies(g, below, lower, tables[-1] if tables else []))
                up, down = tables[n - 1], tables[n - 2] if n > 1 else ()
                # an index past the next degree's strings (see _degeneracies) fails the identity
                if not found["ds"]:
                    count = len(rows)
                    found["ds"] = next((("ds", n - 1, i, j, x)
                                        for j in range(n) for i in range(n + 1)
                                        for y, (x, s) in enumerate(zip(below, up[j]))
                                        if s >= count or rows[s][i] != (
                                            y if i in (j, j + 1) else
                                            down[j - 1][lower[y][i]] if i < j else
                                            down[j][lower[y][i - 1]])), None)
                if n > 1 and not found["ss"]:
                    count = len(below)
                    found["ss"] = next((("ss", n - 2, i, j, x)
                                        for j in range(n - 1) for i in range(j + 1)
                                        for x, a, b in zip(older, down[i], down[j])
                                        if a >= count or b >= count or up[j + 1][a] != up[i][b]),
                                       None)
            older, below, lower = below, strings, rows
        return [w for w in found.values() if w]


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
            del next_strings  # only the tuple lives on while the degree is read
        yield strings, rows


def simplicial_identity_violations(s: TruncatedSimplicialSet) -> list:
    """The first witness (kind, n, i, j, x) of each kind of simplicial identity
    that fails inside the truncation window: see
    :meth:`TruncatedSimplicialSet.identity_witnesses`."""
    return s.identity_witnesses()


def _degeneracies(g: FiniteCategory, strings: tuple, rows: list, table: list) -> list:
    """The degeneracy table of the n-strings of ``string_levels`` over all
    arrows, given their face rows ``rows`` and degree n - 1's table ``table``
    (empty for n = 0): entry [m][x] is the index of s_m x among the
    (n+1)-strings.

    The 1-strings are the arrows in order, so s_0 y = (1_y,) is the position
    of 1_y.  For n > 0 the children of an n-string x are contiguous, so x +
    (a,) has index first[x] + slot[a], a's place among the arrows out of its
    source; s_n x appends the identity of x's end, and s_m (p + (a,)) = s_m p
    + (a,) for m < n, where p = d_n x, the last entry of x's row, is x's
    prefix, or its source for n = 1.

    A corrupted row whose d_n points at a prefix with fewer arrows out of its
    end sends s_m x past the (n+1)-strings, by less than the number of arrows.
    ``first`` is padded with that many copies of the (n+1)-string count, so
    such an index, and every index built on it, stays past the strings of its
    degree, where :meth:`TruncatedSimplicialSet.identity_witnesses` counts
    the identities that read it as failing.
    """
    if not table:
        position = {a: i for i, a in enumerate(g.morphisms)}
        return [[position[g.ident[y]] for y in strings]]
    slot = {a: i for y in g.objects for i, a in enumerate(g.morphisms_from(y))}
    ends = [g.tgt[x[-1]] for x in strings]
    first = list(accumulate((len(g.morphisms_from(y)) for y in ends), initial=0))
    first += [first[-1]] * len(g.morphisms)
    up = [[first[s[row[-1]]] + slot[x[-1]] for row, x in zip(rows, strings)] for s in table]
    up.append([f + slot[g.ident[y]] for f, y in zip(first, ends)])
    return up


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
