"""Truncated simplicial sets and the nerve of a finite category."""

from __future__ import annotations

from itertools import accumulate, chain, islice, repeat
from operator import add, itemgetter

from .category import FiniteCategory, validate_category


class TruncatedSimplicialSet:
    """The nerve of a finite category in degrees <= cap, whose chains above cap
    are unknown, not zero.  n-simplices are length-n composable arrow strings
    in lexicographic order of arrow positions (``idkey`` order), 0-simplices
    the objects.  d_0 drops the first arrow, d_n the last, inner faces compose
    neighbours, degeneracies insert identities, and a string is degenerate
    exactly when it holds one.  Counts are walked end by end, once per kind;
    otherwise a string is only its index into the face columns of
    :func:`string_levels`, read by :meth:`chain_levels` and by the one
    identity pass, :meth:`identity_witnesses`, of ``nerve`` and Milnor factors.
    """

    complete_above = False

    def __init__(self, category: FiniteCategory, cap: int):
        self.category, self.cap = category, cap
        self._counts: dict = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.category, self.cap) == (other.category, other.cap)

    def count(self, n: int, nondegenerate: bool = False) -> int:
        """The number of n-simplices: paths of n arrows, identity-free ones
        with ``nondegenerate``, counted end by end in one walk per kind."""
        if not 0 <= n <= self.cap:
            return 0
        if nondegenerate not in self._counts:
            g = self.category
            arrows = [a for a in g.morphisms if not (nondegenerate and g.is_identity(a))]
            ways, counts = dict.fromkeys(g.objects, 1), [len(g.objects)]
            for _ in range(self.cap):
                ways, last = dict.fromkeys(g.objects, 0), ways
                for a in arrows:
                    ways[g.tgt[a]] += last[g.src[a]]
                counts.append(sum(ways.values()))
            self._counts[nondegenerate] = counts
        return self._counts[nondegenerate][n]

    def count_nondegenerate(self, n: int) -> int:
        return self.count(n, nondegenerate=True)

    def chain_levels(self):
        """Yield (basis, face rows) for degrees 0..cap: the normalized chains
        (see ``homology.chain_complex``), each basis the ``range`` of the
        identity-free strings' indices, each degree's face columns row by row."""
        g = self.category
        for level, cols in string_levels(g, tuple(a for a in g.morphisms if not g.is_identity(a)),
                                         self.cap):
            yield range(len(level)), zip(*cols)

    def identity_witnesses(self, kinds: tuple = ("dd", "ss", "ds")) -> list:
        """The first witness (kind, n, i, j, x) of each of ``kinds`` of
        simplicial identity (May 1967, §1) that fails on an n-string x, in the
        order dd, ss, ds; an empty list means they all hold inside the window:

            dd: d_i d_j x = d_{j-1} d_i x for i < j,
            ss: s_{j+1} s_i x = s_i s_j x for i <= j,
            ds: d_i s_j x = x for i = j, j + 1, s_{j-1} d_i x for i < j
                and s_j d_{i-1} x for i > j + 1.

        One pass of :func:`string_levels` over all arrows decides them on the
        face columns, the degeneracies by index arithmetic (``_degeneracies``,
        not built for dd alone).  Each (kind, i, j) compares two columns
        gathered in C, one per side, and scans only a mismatch, so witnesses of
        a kind are found in (n, j, i, x) order; only then is x rebuilt (``_string``).
        """
        g, tables = self.category, []
        found = {kind: None for kind in ("dd", "ss", "ds") if kind in kinds}
        slots = _slots(g) if "ds" in found or "ss" in found else None
        below = lower = lower_pick = lift = ()
        for n, (level, cols) in enumerate(string_levels(g, g.morphisms, self.cap)):
            pick = _getters(cols)
            if n > 1 and "dd" in found and not found["dd"]:
                found["dd"] = _first_failure("dd", n, (
                    (i, j, lower[i], cols[j], pick[j], lower[j - 1], cols[i], pick[i])
                    for j in range(n + 1) for i in range(j)))
            if n and ("ds" in found or "ss" in found):
                # degree n - 1's table, s_j y = up[j][y], built after degree n: not held while that is
                tables.append(_degeneracies(g, below, lower, tables[-1] if tables else [], slots))
                up, down = tables[n - 1], tables[n - 2] if n > 1 else ()
                drop, lift = lift, _getters(up)
                if "ds" in found and not found["ds"]:
                    same = tuple(range(len(below)))  # y = same[same[y]]: same gathers to itself
                    found["ds"] = _first_failure("ds", n - 1, (
                        (i, j, cols[i], up[j], lift[j], same, same, tuple) if i in (j, j + 1) else
                        (i, j, cols[i], up[j], lift[j], down[j - 1], lower[i], lower_pick[i]) if i < j else
                        (i, j, cols[i], up[j], lift[j], down[j], lower[i - 1], lower_pick[i - 1])
                        for j in range(n) for i in range(n + 1)))
                if n > 1 and "ss" in found and not found["ss"]:
                    found["ss"] = _first_failure("ss", n - 2, (
                        (i, j, up[j + 1], down[i], drop[i], up[i], down[j], drop[j])
                        for j in range(n - 1) for i in range(j + 1)))
            below, lower, lower_pick = level, cols, pick
        return [w[:4] + (_string(g, w[1], w[4]),) for w in found.values() if w]


def _getters(index: list) -> list:
    """One itemgetter per index column, shared by the checks that read it, or
    None for an empty column, where itemgetter raises.  Of one index it returns
    the entry bare, and so does the getter on the other side of a check, but
    for ``tuple``, an identity column's getter: then the strings are scanned."""
    return [itemgetter(*p) if p else None for p in index]


def _first_failure(kind: str, n: int, checks):
    """The witness (kind, n, i, j, x) of the first check (i, j, a, p, f, b,
    q, h), with f and h the getters of p and q, such that a[p[x]] != b[q[x]]
    for some string index x, at the first such x, or None.  Each check
    compares the two sides whole, gathered in C, and scans them only when
    they differ.  An index past its column counts as a difference: only a
    degeneracy off a corrupted prefix points there (see ``_degeneracies``).
    """
    for i, j, a, p, f, b, q, h in checks:
        try:
            if f and f(a) == h(b):
                continue
        except IndexError:
            pass
        witness = next(((kind, n, i, j, x) for x, (s, t) in enumerate(zip(p, q))
                        if s >= len(a) or t >= len(b) or a[s] != b[t]), None)
        if witness:
            return witness
    return None


def string_levels(g: FiniteCategory, arrows: tuple, cap: int):
    """Yield (lasts, face columns) for degrees 0..cap of the composable
    strings of ``arrows``, a subsequence of ``g.morphisms``, keeping only the
    last degree's columns.  A string is held only as its index.

    Degree 0 is the objects, with no columns.  Degree n holds the strings of
    n arrows, in lexicographic order of arrow positions: lasts[x] is the
    position in ``arrows`` of string x's last arrow, and column i holds the
    index one degree down of each d_i, ``None`` where an inner face composes
    to an arrow outside ``arrows``.  The children p + (a,) of a string p are
    contiguous, in the order of the slots of a among the arrows out of one
    object, and so are the children of a vertex.  So for i < n - 1 the
    children's d_i are the children of d_i p, which ends where p does; their
    d_{n-1} = d_{n-1} p + (last(p) a) is the child of d_{n-1} p at the slot
    of last(p) a, and their d_n is p.  Each column is one pass over its parent.
    """
    at, rows = g.position, g.rows
    out = {x: [] for x in g.objects}  # the positions in ``arrows`` of those out of x
    kept = [None] * len(g.morphisms)  # by arrow position: its slot in ``out``, None off ``arrows``
    for j, a in enumerate(arrows):
        kept[at[a]] = len(out[g.src[a]])
        out[g.src[a]].append(j)
    # for the arrow at position j: the arrows after it, and the slots of its composites with them
    after = [out[g.tgt[a]] for a in arrows]
    width = list(map(len, after))
    joins = [[kept[c] for c, b in zip(rows[at[a]], g.morphisms_from(g.tgt[a])) if kept[at[b]] is not None]
             for a in arrows]
    yield g.objects, []
    index = {x: i for i, x in enumerate(g.objects)}
    lasts = range(len(arrows))
    cols = [[index[g.tgt[a]] for a in arrows], [index[g.src[a]] for a in arrows]]
    blocks = [out[x] for x in g.objects]  # the children of each string one degree down
    for n in range(1, cap + 1):
        if n > 1:
            widths = list(map(width.__getitem__, lasts))
            # a face outside the arrows has no children, and its children's faces are None
            inner = [list(chain.from_iterable(
                map(blocks.__getitem__, col) if None not in col else
                [repeat(None, w) if q is None else blocks[q] for q, w in zip(col, widths)]))
                for col in cols[:-1]]
            composite = [None if c is None else b[c] for b, cs in
                         zip(map(blocks.__getitem__, cols[-1]), map(joins.__getitem__, lasts)) for c in cs]
            prefix = list(chain.from_iterable(map(repeat, range(len(widths)), widths)))
            cols = inner + [composite, prefix]
            lasts = list(chain.from_iterable(map(after.__getitem__, lasts)))
        yield lasts, cols
        if 1 < n < cap:
            # each index is made once, so the next degree's columns share its ints
            ids = iter(range(len(lasts)))
            blocks = [list(islice(ids, w)) for w in widths]


def _string(g: FiniteCategory, n: int, x: int):
    """String x of degree n of ``string_levels`` over all arrows (object x for
    n = 0), rebuilt for a witness by walking that order: x passes, arrow by
    arrow, the strings that take an earlier arrow next."""
    if not n:
        return g.objects[x]
    ways = [dict.fromkeys(g.objects, 1)]  # ways[m][y]: the strings of m arrows out of y
    for _ in range(n - 1):
        ways.append({y: sum(ways[-1][g.tgt[a]] for a in g.morphisms_from(y)) for y in g.objects})
    string, choices = (), g.morphisms
    for w in reversed(ways):
        for a in choices:
            if x < w[g.tgt[a]]:
                break
            x -= w[g.tgt[a]]
        string, choices = string + (a,), g.morphisms_from(g.tgt[a])
    return string


# the first witness of each kind of simplicial identity, the verdict of ``nerve``
simplicial_identity_violations = TruncatedSimplicialSet.identity_witnesses


def _slots(g: FiniteCategory) -> tuple:
    """(slot, width, unit) by arrow position: the arrow's place among the
    arrows out of its source, the number of arrows out of its end and the
    place of its end's identity among them, which ``_degeneracies`` reads in
    every degree of a pass."""
    return (g.slots, list(map(len, g.rows)),
            [g.slots[g.position[g.ident[g.tgt[a]]]] for a in g.morphisms])


def _degeneracies(g: FiniteCategory, level, cols: list, table: list, slots: tuple) -> list:
    """The degeneracy table of the n-strings of ``string_levels`` over all
    arrows from its ``level`` (objects for n = 0, else last-arrow positions)
    and ``cols``, degree n - 1's table ``table`` (empty for n = 0) and
    ``_slots(g)``: entry [m][x] is the index of s_m x among the (n+1)-strings.

    The 1-strings are the arrows in order, so s_0 y = (1_y,) is the position
    of 1_y.  For n > 0 the children of an n-string x are contiguous, so x +
    (a,) has index first[x] + slot[a]; s_n x appends the identity of x's end,
    and s_m (p + (a,)) = s_m p + (a,) for m < n, where p = d_n x, read off the
    prefix column, is x's prefix, or its source for n = 1.

    A corrupted d_n that points at a prefix with fewer arrows out of its end
    sends s_m x past the (n+1)-strings, by less than the number of arrows.
    ``first`` is padded with that many copies of their count, so such an
    index, and every index built on it, stays past its degree's strings,
    where ``identity_witnesses`` counts the identities that read it as failing.
    """
    if not table:
        return [[g.position[g.ident[y]] for y in level]]
    slot, width, unit = slots
    first = list(accumulate(map(width.__getitem__, level), initial=0))
    first += [first[-1]] * len(g.morphisms)
    tail = list(map(slot.__getitem__, level))
    up = [[first[s[p]] + t for p, t in zip(cols[-1], tail)] for s in table]
    up.append(list(map(add, first, map(unit.__getitem__, level))))
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
