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

Homology never builds or eliminates the level product.  An acyclic matching
collapses it onto its critical cells (Forman, *Morse theory for cell
complexes*, Adv. Math. 1998; Skoldberg, *Morse theory from an algebraic
viewpoint*, Trans. AMS 2006).  For a cell (L, x), L = (l_0 < ... < l_k),
scan j = 0, 1, ...: if j > k the cell is critical; if l_j > j it is matched
up with (L + {j}, s_j x); if j < k and arrow j of x is an identity it is
matched down with (L - {l_j}, d_j x).  The critical cells are the
({0..k}, x) with x identity-free.  :meth:`MilnorComplex.certify` reads off
the factor's identity pass (:meth:`TruncatedSimplicialSet.identity_witnesses`),
on its face columns and for every k-string x with k < N and m <= k, the ds
identities

    d_m s_m x = x,  d_{m+1} s_m x = x,
    d_i s_m x = s_{m-1} d_i x for i < m,  d_i s_m x = s_m d_{i-1} x for i > m + 1.

- The first identity makes the matching an involution: (L + {j}, s_j x)
  scans like (L, x) up to j, where its arrow j is an identity, so it is
  matched down with (L, d_j s_j x) = (L, x).  Distinct faces of a cell
  delete distinct levels, so the incidence is the single sign (-1)^j.
  Arrows 0..m-1 of a cell matched down at m are not identities.
- Acyclicity.  Along a V-path, each up partner tau = (L', s_m x) goes to a
  face sigma and on to sigma's up partner tau'.  The key (number of
  identities in tau's string, then tau's level set in reverse lex order,
  then tau's first identity position) strictly increases:
  - a face i < m is s_{m-1} d_i x, which holds at least as many identities
    as s_m x, since d_i x drops or composes arrows that are not identities;
    its up partner has one more;
  - the face i = m + 1 is x with l'_{m+1} deleted; its up partner has as
    many identities as tau, and either a lower level set or the same level
    set with the identity moved right;
  - a face i > m + 1 is s_m d_{i-1} x with l'_0..l'_m = 0..m kept, which is
    matched down, and the path ends.
- Every up partner's string is degenerate.  The projection f: (L, x) -> x
  onto normalized chains is a chain map by the first two identities (the
  faces m and m + 1 of s_m x cancel, and the others are degenerate), and
  it sends the Morse inclusion of a critical cell ({0..k}, x) to x.  So f
  after the Morse inclusion is the identity: the Morse complex is the
  factor's normalized nerve in degrees 0..N and zero above, and f induces
  an isomorphism on H_n for n < N.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import NamedTuple

from .category import FiniteCategory, _poset
from .errors import LevelInactive, NotSameOrbit
from .groupoid import FiniteGroupoid
from .homology import ChainComplex
from .simplicial import TruncatedSimplicialSet, nerve


class MilnorComplex(NamedTuple):
    """The level product of the level simplex on 0..``levels`` with the nerve
    ``factor``, zero above degree ``levels``.  Each degree orders its cells by
    level subset, in ``itertools.combinations`` order, then by factor string.
    No cell is built: homology reads the Morse complex of :meth:`chain_levels`,
    and :meth:`certify` the factor's face columns.
    """

    groupoid: FiniteGroupoid
    levels: int
    factor: TruncatedSimplicialSet
    complete_above = True

    def count(self, k: int) -> int:
        return comb(self.levels + 1, k + 1) * self.factor.count(k)

    def chain_levels(self):
        """Yield (critical cells, face rows) of the level-collapse matching's Morse
        complex for degrees 0..levels: the factor's normalized basis and rows,
        the critical cell ({0..k}, x) numbered by the index of x.  Sound when
        :meth:`certify` finds no witness."""
        return self.factor.chain_levels()

    def certify(self, matching: bool = True) -> tuple:
        """(whether d^2 = 0, the first (x, m) at which a face identity of the
        level-collapse matching fails, or None), read off the factor's one
        identity pass (:meth:`TruncatedSimplicialSet.identity_witnesses`) over
        its face columns, which checks its dd and ds identities and not its
        ss ones.  Without ``matching`` only d^2 = 0 is decided.

        In d^2 (L, x) the block of L minus {l_a, l_b}, a < b, gets exactly two
        unit terms of opposite sign, at d_a d_b x and at d_{b-1} d_a x, and
        distinct pairs land in distinct blocks.  So d^2 = 0
        on every cell exactly when the factor's dd identities hold in degrees
        2..levels, whatever L is.  The matching's identities (see the module
        docstring) are the factor's ds identities d_i s_m x, in degrees below
        the levels, in O(sum |X_k| k^2) whatever the levels.
        """
        found = {w[0]: w for w in self.factor.identity_witnesses(("dd", "ds") if matching else ("dd",))}
        ds = found.get("ds")
        return "dd" not in found, ds and (ds[4], ds[3])


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
    """The projection f onto the nerve after the Morse inclusion of :meth:`MilnorComplex.chain_levels`,
    degree by degree, for ``nerve_cx`` the normalized chains of b's factor.

    Up partners have degenerate strings, so the critical cell ({0..k}, x),
    numbered as x is, goes to x: the identity, one column {row: 1} per
    critical cell.  Defined in degrees 0..min(levels, nerve cap).
    """
    return {k: [{row: 1} for row in range(nerve_cx.dim(k))]
            for k in range(min(b.levels, nerve_cx.top_degree) + 1)}
