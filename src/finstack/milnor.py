"""Truncated combinatorial model of the universal bundle and its quotient.

The level-capped model keeps levels 0..N.  A k-simplex of the total complex
E chooses active levels l_0 < ... < l_k and arrows a_0, ..., a_k sharing one
source; continuous join coordinates are replaced by which levels are active.
The quotient B divides by the free diagonal translation g . (l, a) =
(l, compose(g, a)).  Both are level products of a nerve X with the level
simplex: a k-cell is a pair (L, x) of a (k+1)-subset L of the levels and a
k-simplex x of X, degenerate ones included, and face j deletes l_j from L
and takes face j of x.  For E, X is the nerve of the preorder on arrows that
relates arrows of one source, and x is the string with vertices a_0, ...,
a_k.  For B, X is the nerve of the groupoid, and x is the string of
quotients inv(a_{j-1}) . a_j, which is constant on orbits and tells them
apart (Milnor, *Construction of universal bundles II*; Segal, *Classifying
spaces and spectral sequences*).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations, product
from math import comb
from operator import add

from .category import FiniteCategory, _poset
from .errors import LevelInactive, NotSameOrbit
from .groupoid import FiniteGroupoid
from .homology import ChainComplex
from .simplicial import TruncatedSimplicialSet, nerve, string_levels


@dataclass(frozen=True)
class MilnorComplex:
    """The level product of the level simplex on 0..``levels`` with the nerve
    ``factor``, zero above degree ``levels``.  Each degree lists its cells by
    level subset, in ``itertools.combinations`` order, then by factor string.
    The table ``simplices`` is built on first use, never by :meth:`chain_levels`.
    """

    groupoid: FiniteGroupoid
    levels: int
    factor: TruncatedSimplicialSet
    complete_above = True

    @cached_property
    def simplices(self) -> dict:
        return {k: tuple(product(combinations(range(self.levels + 1), k + 1), strings))
                for k, strings in self.factor.simplices.items()}

    def face(self, k: int, j: int, cell: tuple) -> tuple:
        subset, x = cell
        return subset[:j] + subset[j + 1:], self.factor.face(k, j, x)

    def count(self, k: int) -> int:
        return comb(self.levels + 1, k + 1) * self.factor.count(k)

    def chain_levels(self):
        """Yield (cells, face rows) for degrees 0..levels (see ``homology.chain_complex``).

        Row j of (L, x) is rank(L minus l_j) |X_{k-1}| + row j of x, where X_k
        holds the factor's k-strings and rank numbers the subsets of one size.
        """
        g, levels = self.factor.category, range(self.levels + 1)
        offsets = {(): 0}
        for k, (strings, rows) in enumerate(string_levels(g, g.morphisms, self.levels)):
            subsets = list(combinations(levels, k + 1))
            shifts = ([offsets[s[:j] + s[j + 1:]] for j in range(k + 1)] for s in subsets)
            yield (tuple(product(subsets, strings)),
                   (list(map(add, shift, row)) for shift, row in product(shifts, rows)))
            offsets = {s: i * len(strings) for i, s in enumerate(subsets)}

    def check_dd_zero(self) -> bool:
        """Whether d^2 = 0, decided on the factor's face rows alone.

        In d^2 (L, x) the block of L minus {l_a, l_b}, a < b, gets exactly two
        unit terms of opposite sign, at row a of row b of x and at row b - 1
        of row a of x, and distinct pairs land in distinct blocks.  So d^2 = 0
        on every cell exactly when those two rows agree for every factor
        string x of degree 2..levels and every a < b, whatever L is.
        """
        g = self.factor.category
        lower = ()
        for k, (_, rows) in enumerate(string_levels(g, g.morphisms, self.levels)):
            if k > 1:
                # faces[j]: the face row of d_j x, for every k-string x in order
                faces = [[lower[row[j]] for row in rows] for j in range(k + 1)]
                if any([f[a] for f in faces[b]] != [f[b - 1] for f in faces[a]]
                       for b in range(k + 1) for a in range(b)):
                    return False
            lower = rows
        return True


def _level_product(g: FiniteGroupoid, levels: int, category: FiniteCategory) -> MilnorComplex:
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    return MilnorComplex(groupoid=g, levels=levels, factor=nerve(category, levels))


def milnor_E(g: FiniteGroupoid, levels: int) -> MilnorComplex:
    """(levels+1)-fold join model of the universal bundle: the level product
    with the nerve of the preorder that relates the arrows of one source."""
    return _level_product(g, levels, _poset(g.morphisms, lambda a, b: g.src[a] == g.src[b]))


def milnor_B(g: FiniteGroupoid, levels: int) -> MilnorComplex:
    """Quotient of E by the diagonal action: the level product with the nerve of g."""
    return _level_product(g, levels, g)


def _arrows(cell: tuple) -> tuple:
    """The arrows a_0, ..., a_k of an E cell (L, x): the vertices of x."""
    subset, x = cell
    return (x,) if len(subset) == 1 else (x[0][0],) + tuple(b for _, b in x)


def _e_cell(subset: tuple, arrows) -> tuple:
    """The E cell with levels ``subset`` and arrows ``arrows``, one per level."""
    arrows = tuple(arrows)
    return subset, arrows[0] if len(arrows) == 1 else tuple(zip(arrows, arrows[1:]))


def translate(g: FiniteGroupoid, gamma, cell: tuple) -> tuple:
    """Diagonal action: compose every arrow of an E cell with gamma on the left."""
    return _e_cell(cell[0], (g.compose(gamma, a) for a in _arrows(cell)))


def milnor_section(b: MilnorComplex, cell: tuple, level: int) -> tuple:
    """The unique E cell over the B cell (L, x) whose arrow at ``level`` is an identity."""
    g = b.groupoid
    subset, x = cell
    if level not in subset:
        raise LevelInactive(level, cell)
    steps = x if len(subset) > 1 else ()
    arrows = list(accumulate(steps, g.compose, initial=g.ident[g.src[x[0]] if steps else x]))
    return translate(g, g.inv[arrows[subset.index(level)]], _e_cell(subset, arrows))


def milnor_pairing(g: FiniteGroupoid, e1: tuple, e2: tuple):
    """The unique arrow gamma with e1 = gamma . e2; raises NotSameOrbit otherwise."""
    if e1[0] != e2[0]:
        raise NotSameOrbit(f"levels differ: {e1!r} vs {e2!r}")
    a1, a2 = _arrows(e1)[0], _arrows(e2)[0]
    if g.tgt[a1] != g.tgt[a2]:
        raise NotSameOrbit(f"targets differ: {e1!r} vs {e2!r}")
    gamma = g.compose(a1, g.inv[a2])
    if translate(g, gamma, e2) != e1:
        raise NotSameOrbit(f"no single translation relates {e1!r} and {e2!r}")
    return gamma


def milnor_to_nerve(g: FiniteGroupoid, cell: tuple):
    """Image of an E cell in the nerve: consecutive arrow quotients.

    A vertex goes to the target object of its arrow; in higher degrees
    arrows a_{j-1} and a_j contribute the arrow inv(a_{j-1}) . a_j.  The value
    is unchanged under diagonal translation, so E -> B is (L, x) ->
    (L, milnor_to_nerve(g, (L, x))).
    """
    a = _arrows(cell)
    if len(a) == 1:
        return g.tgt[a[0]]
    return tuple(g.compose(g.inv[a[j - 1]], a[j]) for j in range(1, len(a)))


def comparison_chain_map(b: MilnorComplex, nerve_cx: ChainComplex) -> dict:
    """The projection (L, x) -> x of B into normalized nerve chains, degree by degree.

    Degree k holds one sparse column {nerve row: 1} per cell of B, the zero
    column {} where x is degenerate.  Each factor string's column is built
    once and repeated for every level subset, so the columns are shared and
    must not be mutated.  Defined in degrees 0..min(levels, nerve cap).
    """
    maps = {}
    for k in range(min(b.levels, nerve_cx.top_degree) + 1):
        rows = {x: i for i, x in enumerate(nerve_cx.basis[k])}
        columns = [{} if row is None else {row: 1} for row in map(rows.get, b.factor.simplices[k])]
        maps[k] = columns * comb(b.levels + 1, k + 1)
    return maps
