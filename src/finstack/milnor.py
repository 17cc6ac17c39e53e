"""Truncated combinatorial model of the universal bundle and its quotient.

The level-capped model keeps levels 0..N.  A k-simplex of the total complex
is a sequence ((i_0, a_0), ..., (i_k, a_k)) with strictly increasing levels
and all arrows sharing one source; continuous join coordinates are replaced
by which levels are active.  The quotient complex divides by the free
diagonal translation g . (i, a) = (i, compose(g, a)).  It is built directly
in section normal form: each orbit has exactly one member whose first arrow
is an identity, so B never enumerates the total complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import LevelInactive, NotSameOrbit
from .category import idkey
from .groupoid import FiniteGroupoid


def _delete(simplex: tuple, j: int) -> tuple:
    return simplex[:j] + simplex[j + 1:]


class _WholeComplex:
    """A semi-simplicial complex built in full: no degenerate simplices, and
    its chains are zero above the top degree."""

    complete_above = True

    def is_degenerate(self, k: int, simplex: tuple) -> bool:
        return False

    def count(self, k: int) -> int:
        return len(self.simplices.get(k, ()))


@dataclass(frozen=True)
class JoinComplex(_WholeComplex):
    """Semi-simplicial total space: faces delete entries, no degeneracies."""

    groupoid: FiniteGroupoid
    levels: int
    simplices: dict

    def face(self, k: int, j: int, simplex: tuple) -> tuple:
        return _delete(simplex, j)

    def common_source(self, simplex: tuple):
        return self.groupoid.src[simplex[0][1]]


@dataclass(frozen=True)
class MilnorBComplex(_WholeComplex):
    """Orbits of the total complex under diagonal translation, faces induced.

    Each orbit is stored as its section normal form: the member whose arrow
    at the first active level is an identity.
    """

    groupoid: FiniteGroupoid
    levels: int
    simplices: dict

    def face(self, k: int, j: int, rep: tuple) -> tuple:
        """Delete entry j; deleting entry 0 is renormalised by the new first arrow."""
        if j:
            return _delete(rep, j)
        rest = rep[1:]
        return translate(self.groupoid, self.groupoid.inv[rest[0][1]], rest)


def milnor_E(g: FiniteGroupoid, levels: int) -> JoinComplex:
    """(levels+1)-fold join model of the universal bundle."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    simplices: dict = {}
    for k in range(levels + 1):
        found = []
        for x in g.objects:
            outgoing = g.morphisms_from(x)
            if not outgoing:
                continue
            for level_choice in itertools.combinations(range(levels + 1), k + 1):
                for arrows in itertools.product(outgoing, repeat=k + 1):
                    found.append(tuple(zip(level_choice, arrows)))
        found.sort(key=idkey)
        simplices[k] = tuple(found)
    return JoinComplex(groupoid=g, levels=levels, simplices=simplices)


def translate(g: FiniteGroupoid, gamma, simplex: tuple) -> tuple:
    """Diagonal action: compose every arrow of the simplex with gamma on the left."""
    return tuple((i, g.compose(gamma, a)) for i, a in simplex)


def milnor_B(g: FiniteGroupoid, levels: int) -> MilnorBComplex:
    """Quotient by the diagonal action, one section normal form per orbit.

    Translating a simplex by the inverse of its first arrow is the only way
    to make that arrow an identity, so the k-simplices of B are a level
    choice, an object y whose identity sits at the first level, and k
    arrows out of y at the remaining levels.
    """
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    simplices: dict = {}
    for k in range(levels + 1):
        found = []
        for y in g.objects:
            first = (g.ident[y],)
            tails = list(itertools.product(g.morphisms_from(y), repeat=k))
            for level_choice in itertools.combinations(range(levels + 1), k + 1):
                found.extend(tuple(zip(level_choice, first + tail)) for tail in tails)
        simplices[k] = tuple(found)
    return MilnorBComplex(groupoid=g, levels=levels, simplices=simplices)


def milnor_section(b: MilnorBComplex, rep: tuple, level: int) -> tuple:
    """The unique orbit representative whose arrow at ``level`` is an identity."""
    g = b.groupoid
    for i, a in rep:
        if i == level:
            return translate(g, g.inv[a], rep)
    raise LevelInactive(level, rep)


def milnor_pairing(g: FiniteGroupoid, e1: tuple, e2: tuple):
    """The unique arrow gamma with e1 = gamma . e2; raises NotSameOrbit otherwise."""
    if tuple(i for i, _ in e1) != tuple(i for i, _ in e2):
        raise NotSameOrbit(f"levels differ: {e1!r} vs {e2!r}")
    if g.tgt[e1[0][1]] != g.tgt[e2[0][1]]:
        raise NotSameOrbit(f"targets differ: {e1!r} vs {e2!r}")
    gamma = g.compose(e1[0][1], g.inv[e2[0][1]])
    if translate(g, gamma, e2) != e1:
        raise NotSameOrbit(f"no single translation relates {e1!r} and {e2!r}")
    return gamma


def milnor_to_nerve(g: FiniteGroupoid, simplex: tuple):
    """Image of a total-space simplex in the nerve: consecutive arrow quotients.

    A vertex goes to the target object of its arrow; in higher degrees entry
    j-1 and entry j contribute the arrow inv(a_{j-1}) . a_j.  The value is
    unchanged under diagonal translation, so it descends to orbits.
    """
    if len(simplex) == 1:
        return g.tgt[simplex[0][1]]
    return tuple(g.compose(g.inv[simplex[j - 1][1]], simplex[j][1])
                 for j in range(1, len(simplex)))


def comparison_chain_map(b: MilnorBComplex, nerve_cx: ChainComplex) -> dict:
    """The orbit-to-nerve map into normalized nerve chains, degree by degree.

    Degree k holds one sparse column {nerve row: 1} per simplex of B; images
    that are degenerate nerve simplices give the zero column {}.  Defined in
    degrees 0..min(levels, nerve cap).
    """
    g = b.groupoid
    maps = {}
    for k in range(min(b.levels, nerve_cx.top_degree) + 1):
        rows = {x: i for i, x in enumerate(nerve_cx.basis[k])}
        images = (rows.get(milnor_to_nerve(g, rep)) for rep in b.simplices[k])
        maps[k] = [{} if row is None else {row: 1} for row in images]
    return maps
