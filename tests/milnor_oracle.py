"""Orbit-quotient oracle for the Milnor quotient B.

Builds the whole total complex E, groups its cells into orbits of the
diagonal translation, and keeps the least member of each orbit (by ``idkey``)
as its representative; faces are E's faces read through the orbit map.  The
runtime builds B directly as a level product with the nerve instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from finstack.category import idkey
from finstack.groupoid import FiniteGroupoid
from finstack.milnor import MilnorComplex, milnor_E, translate

from chain_oracle import lookup_levels


@dataclass(frozen=True)
class OrbitQuotient:
    """Orbits of the total complex under diagonal translation, faces induced."""

    groupoid: FiniteGroupoid
    levels: int
    simplices: dict
    orbit: dict   # degree -> {simplex of E: its orbit's representative}
    total: MilnorComplex
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
    total = milnor_E(g, levels)
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
