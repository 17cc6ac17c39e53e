"""Oracles for the Milnor models E and B.

- The orbit quotient builds the whole total complex E, groups its cells into
  orbits of the diagonal translation, and keeps the least member of each
  orbit (by ``idkey``) as its representative; faces are E's faces read
  through the orbit map.  The runtime builds B directly as a level product
  with the nerve instead.
- The level product's cells (L, x), degenerate strings included, with faces
  (L, x) -> (L minus l_j, d_j x) read off the tabulated factor; its full
  chains, with face rows by index arithmetic on the factor's face columns; and the
  projection (L, x) -> x onto the nerve's normalized chains.  The runtime
  reads homology and the nerve comparison off the Morse complex of the
  level-collapse matching instead, and ``install_level_product`` puts the full
  chains back under the CLI.
- The level-collapse matching cell by cell, by labels: its partners, and
  the Morse boundary of each critical cell by following V-paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb
from operator import add

import finstack.cli as cli
import finstack.simplicial as simplicial
from finstack.category import idkey
from finstack.groupoid import FiniteGroupoid
from finstack.homology import ChainComplex, chain_complex
from finstack.milnor import MilnorComplex, milnor_E, translate

from chain_oracle import lookup_levels
from nerve_oracle import TabulatedSimplicialSet, tabulated_nerve


@dataclass(frozen=True)
class LevelProduct:
    """Every cell (L, x) of a Milnor model, for ``chain_complex``, by level
    subset in ``itertools.combinations`` order, then by factor string."""

    model: MilnorComplex
    complete_above = True

    @cached_property
    def factor(self) -> TabulatedSimplicialSet:
        """The model's factor with every face and degeneracy tabulated."""
        return tabulated_nerve(self.model.factor.category, self.model.levels)

    @cached_property
    def simplices(self) -> dict:
        subsets = range(self.model.levels + 1)
        return {k: tuple(product(combinations(subsets, k + 1), strings))
                for k, strings in self.factor.simplices.items()}

    def face(self, k: int, j: int, cell: tuple) -> tuple:
        subset, x = cell
        return subset[:j] + subset[j + 1:], self.factor.face(k, j, x)

    def chain_levels(self):
        """Yield (cells, face rows) for degrees 0..levels, in ``simplices``
        order, by index arithmetic on the face columns of ``string_levels``,
        read row by row.  Row j of (L, x) is rank(L minus l_j) |X_{k-1}| +
        entry j of x's row, where X_k holds the factor's k-strings, as the
        tabulated factor lists them, and rank numbers the subsets of one size."""
        g, levels = self.model.factor.category, range(self.model.levels + 1)
        offsets = {(): 0}
        for k, (_, cols) in enumerate(simplicial.string_levels(g, g.morphisms, self.model.levels)):
            strings, rows = self.factor.simplices[k], list(zip(*cols))
            subsets = list(combinations(levels, k + 1))
            shifts = ([offsets[s[:j] + s[j + 1:]] for j in range(k + 1)] for s in subsets)
            yield (tuple(product(subsets, strings)),
                   (list(map(add, shift, row)) for shift, row in product(shifts, rows)))
            offsets = {s: i * len(strings) for i, s in enumerate(subsets)}


@dataclass(frozen=True)
class OrbitQuotient:
    """Orbits of the total complex under diagonal translation, faces induced."""

    groupoid: FiniteGroupoid
    levels: int
    simplices: dict
    orbit: dict   # degree -> {simplex of E: its orbit's representative}
    total: LevelProduct
    complete_above = True

    def face(self, k: int, j: int, rep: tuple) -> tuple:
        return self.orbit[k - 1][self.total.face(k, j, rep)]

    def chain_levels(self):
        return lookup_levels(self)

    def count(self, k: int) -> int:
        return len(self.simplices.get(k, ()))


def arrows(cell: tuple) -> tuple:
    """The arrows a_0, ..., a_k of an E cell (L, x): the vertices of x."""
    subset, x = cell
    return (x,) if len(subset) == 1 else (x[0][0],) + tuple(b for _, b in x)


def orbit_quotient(g: FiniteGroupoid, levels: int) -> OrbitQuotient:
    """Quotient by the diagonal action, with ``idkey``-least representatives."""
    total = LevelProduct(milnor_E(g, levels))
    simplices: dict = {}
    orbit: dict = {}
    for k in range(levels + 1):
        orbit_k: dict = {}
        reps = []
        for simplex in total.simplices[k]:
            if simplex in orbit_k:
                continue
            members = [translate(g, gamma, simplex) for gamma in g.morphisms_into(g.src[arrows(simplex)[0]])]
            assert len(set(members)) == len(members), f"action not free at {simplex!r}"
            rep = min(members, key=idkey)
            for member in members:
                orbit_k[member] = rep
            reps.append(rep)
        reps.sort(key=idkey)
        simplices[k] = tuple(reps)
        orbit[k] = orbit_k
    return OrbitQuotient(groupoid=g, levels=levels, simplices=simplices, orbit=orbit, total=total)


def level_product_chains(s: MilnorComplex) -> ChainComplex:
    """The full chains of the level product, every cell a generator."""
    return chain_complex(LevelProduct(s))


def projection_chain_map(b: MilnorComplex, nerve_cx: ChainComplex) -> dict:
    """The projection (L, x) -> x of all of B into normalized nerve chains.

    Degree k holds one sparse column {nerve row: 1} per cell of B, the zero
    column {} where x is degenerate.  The nerve's rows are its nondegenerate
    strings in the tabulated factor's order.  Defined in degrees
    0..min(levels, nerve cap).
    """
    maps, factor = {}, tabulated_nerve(b.factor.category, b.levels)
    for k in range(min(b.levels, nerve_cx.top_degree) + 1):
        kept = [x for x in factor.simplices[k] if not factor.is_degenerate(k, x)]
        assert len(kept) == nerve_cx.dim(k)
        rows = {x: i for i, x in enumerate(kept)}
        columns = [{} if row is None else {row: 1} for row in map(rows.get, factor.simplices[k])]
        maps[k] = columns * comb(b.levels + 1, k + 1)
    return maps


def install_level_product(monkeypatch) -> None:
    """Make ``milnor`` jobs eliminate the full level product and compare it with
    the nerve through the full projection, as before the matching."""
    monkeypatch.setattr(MilnorComplex, "chain_levels", lambda s: LevelProduct(s).chain_levels())
    monkeypatch.setattr(cli, "comparison_chain_map", projection_chain_map)


def partner(p: LevelProduct, cell: tuple):
    """("up" or "down", partner) of a cell under the level-collapse matching,
    or None for a critical cell, read off labels."""
    subset, x = cell
    k = len(subset) - 1
    g = p.model.factor.category
    for j in range(k + 1):
        if subset[j] > j:
            return "up", (subset[:j] + (j,) + subset[j:], p.factor.degeneracy(k, j, x))
        if j < k and g.is_identity(x[j]):
            return "down", p.face(k, j, cell)
    return None


def incidence(p: LevelProduct, k: int, cell: tuple, face: tuple) -> int:
    """The coefficient of ``face`` in the boundary of the k-cell ``cell``."""
    return sum((-1) ** j for j in range(k + 1) if p.face(k, j, cell) == face)


def morse_boundary(p: LevelProduct, k: int, cell: tuple) -> dict:
    """The Morse boundary of a critical k-cell, {critical (k-1)-cell: coefficient}.

    Starting from the boundary, each cell matched up with tau is cancelled by
    subtracting a multiple of the boundary of tau; this ends because the
    matching is acyclic.  Cells matched down drop out.
    """
    chain = {}
    for j in range(k + 1):
        face = p.face(k, j, cell)
        chain[face] = chain.get(face, 0) + (-1) ** j
    while True:
        pending = [c for c, v in chain.items() if v and (partner(p, c) or ("",))[0] == "up"]
        if not pending:
            return {c: v for c, v in chain.items() if v and partner(p, c) is None}
        sigma = pending[0]
        tau = partner(p, sigma)[1]
        q = chain[sigma] * incidence(p, k, tau, sigma)  # incidence is +-1
        for j in range(k + 1):
            face = p.face(k, j, tau)
            chain[face] = chain.get(face, 0) - q * (-1) ** j
