"""Truncated combinatorial model of the universal bundle and its quotient.

The level-capped model keeps levels 0..N.  A k-simplex of the total complex
is a sequence ((i_0, a_0), ..., (i_k, a_k)) with strictly increasing levels
and all arrows sharing one source; continuous join coordinates are replaced
by which levels are active.  The quotient complex divides by the free
diagonal translation g . (i, a) = (i, compose(g, a)).  It is built directly
in section normal form: each orbit has exactly one member whose first arrow
is an identity, so B never enumerates the total complex.  Both list each
degree in lexicographic order of (level, arrow position) entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .errors import LevelInactive, NotSameOrbit
from .groupoid import FiniteGroupoid


def _delete(simplex: tuple, j: int) -> tuple:
    return simplex[:j] + simplex[j + 1:]


class _WholeComplex:
    """A semi-simplicial complex built in full: its chains are zero above the top degree."""

    complete_above = True

    def count(self, k: int) -> int:
        return len(self.simplices.get(k, ()))

    def chain_levels(self):
        """Yield (simplices, face rows) for degrees 0..levels (see
        ``homology.chain_complex``), keeping only the last degree's rows.

        The extensions of a prefix q are contiguous, so extending q by (l, a) gives
        child(q, (l, a)) = first[q] + (l - last[q] - 1) m + pos[a], where m counts
        the arrows out of q's object (the same for each face of q).  For x = p +
        ((l, a),) in degree k: d_k x = p, d_j x = child(d_j p, (l, a)) for 0 < j < k
        and d_0 x = child(d_0 p, (l, lead(a_1, a))), a_1 the arrow at entry 1 of x.
        """
        g, top, simplices = self.groupoid, self.levels, self.simplices
        pos = {a: k for y in g.objects for k, a in enumerate(g.morphisms_from(y))}
        # lead[b][k]: position of lead(b, a) for the k-th arrow a out of src(b)
        lead = {b: [pos[self._lead(b, a)] for a in g.morphisms_from(g.src[b])] for b in g.morphisms}
        width = len(simplices[0]) // (top + 1)
        head = {x[0][1]: i for i, x in enumerate(simplices[0][:width])}
        vertex = {b: head[self._lead(b, b)] for b in g.morphisms}
        yield simplices[0], ()
        if top:
            # base[q] = first[q] - (last[q] + 1) m, so child(q, (l, a)) = base[q] + l m + pos[a]
            base, rows = [], []
            for p, ((l0, a0),) in enumerate(simplices[0]):
                ends = [vertex[a] for a in g.morphisms_from(g.src[a0])]
                base.append(len(rows) - (l0 + 1) * len(ends))
                for l in range(l0 + 1, top + 1):
                    rows += zip([l * width + v for v in ends], repeat(p))
            yield simplices[1], rows
        for k in range(2, top + 1):
            next_base, next_rows = [], []
            for p, (x, row) in enumerate(zip(simplices[k - 1], rows)):
                shift = lead[x[1][1]]
                m, last = len(shift), x[-1][0]
                next_base.append(len(next_rows) - (last + 1) * m)
                for l in range(last + 1, top + 1):
                    d0, *inner = (base[q] + l * m for q in row)
                    next_rows += zip([d0 + j for j in shift], *[range(d, d + m) for d in inner],
                                     repeat(p))
            base, rows = next_base, next_rows
            yield simplices[k], rows


def _extend(g: FiniteGroupoid, levels: int, vertices: tuple) -> dict:
    """Degrees 0..levels from ``vertices``, each k-simplex a (k-1)-simplex extended in
    order by a higher level and an arrow out of its source: lexicographic order."""
    simplices = {0: vertices}
    for k in range(1, levels + 1):
        simplices[k] = tuple(x + ((l, a),) for x in simplices[k - 1]
                             for l in range(x[-1][0] + 1, levels + 1)
                             for a in g.morphisms_from(g.src[x[0][1]]))
    return simplices


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

    def _lead(self, a1, a):
        return a


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

    def _lead(self, a1, a):
        """Arrow a after deleting entry 0, renormalised by the arrow a1 at entry 1."""
        return self.groupoid.compose(self.groupoid.inv[a1], a)


def milnor_E(g: FiniteGroupoid, levels: int) -> JoinComplex:
    """(levels+1)-fold join model of the universal bundle."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    vertices = tuple(((l, a),) for l in range(levels + 1) for a in g.morphisms)
    return JoinComplex(groupoid=g, levels=levels, simplices=_extend(g, levels, vertices))


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
    vertices = tuple(((l, a),) for l in range(levels + 1) for a in g.morphisms if g.is_identity(a))
    return MilnorBComplex(groupoid=g, levels=levels, simplices=_extend(g, levels, vertices))


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
