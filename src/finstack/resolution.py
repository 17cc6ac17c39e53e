"""Group homology of a groupoid from small free ZG-resolutions of its vertex groups.

The nerve of a finite groupoid is homotopy equivalent to the disjoint union
of the B Aut(x), one object x per component (Segal, *Classifying spaces and
spectral sequences*, IHES 1968), and H_n(B G) = H_n(F (x)_ZG Z) for any free
resolution F of Z over ZG (Brown, *Cohomology of Groups*, 1982, ch. I).
Each F is built degree by degree with the sparse elimination and the
lattice membership test of :mod:`finstack.homology`, following Ellis,
*Computing group resolutions*, JSC 2004.  F_n = ZG^{r_n} has r_n cells
after tensoring with Z, against the (|G| - 1)^n of the normalized bar complex.

An element of F_n is a sparse column {i * |G| + h: coefficient}, the sum of
the coefficients times h . e_i over the ZG-generators e_i and group elements h.
"""

from __future__ import annotations

from .groupoid import FiniteGroupoid, pi0
from .homology import ChainComplex, kernel_columns, lattice_insert


def _translates(z: dict, table: list) -> list:
    """The columns g . z for every group element g, in element order."""
    m = len(table)
    return [{k - k % m + row[k % m]: c for k, c in z.items()} for row in table]


def free_resolution(table: list, cap: int) -> list:
    """ZG-generator images of a free resolution F_cap -> ... -> F_0 = ZG -> Z.

    ``table[a][b]`` is the index of the product a . b of the group elements
    with indices a and b.  Entry n - 1 of the result lists the images in
    F_{n-1} of the generators of F_n, for n = 1..cap; d_0 is the augmentation.

    Degree n takes a Z-basis of ker d_{n-1} and keeps a basis vector as a
    generator when inserting it grows the span L of the translates kept so
    far, and then adds its translates to L.  L is a ZG-submodule, so a vector
    outside it is exactly one whose translates enlarge it.  Once the whole
    basis has been seen, L is ker d_{n-1}, because the translates by the
    identity are the basis itself.
    """
    boundary = [{0: 1} for _ in table]
    images = []
    for _ in range(cap):
        echelon: dict = {}
        chosen = []
        for z in kernel_columns(boundary):
            if lattice_insert(echelon, dict(z)):
                chosen.append(z)
                for y in _translates(z, table):
                    lattice_insert(echelon, y)
        images.append(chosen)
        boundary = [y for z in chosen for y in _translates(z, table)]
    return images


def resolution_chains(g: FiniteGroupoid, cap: int) -> ChainComplex:
    """F (x)_ZG Z for the vertex group of each component, block-diagonally, up to degree cap.

    The vertex group is Aut(x) of the first object x of each component, as
    :func:`finstack.groupoid.skeleton` picks it.  Basis labels are (x, i) for
    the i-th generator of F_n at x.  The complex is truncated at ``cap``, so
    H_cap raises :class:`finstack.errors.InsufficientTruncation` as a nerve's
    would.
    """
    basis: dict = {n: [] for n in range(cap + 1)}
    boundary: dict = {n: [] for n in range(1, cap + 1)}
    for component in pi0(g):
        x = component[0]
        aut = g.hom(x, x)
        index = {a: i for i, a in enumerate(aut)}
        table = [[index[g.comp[(a, b)]] for b in aut] for a in aut]
        m = len(aut)
        offset = [len(basis[n]) for n in range(cap + 1)]
        basis[0].append((x, 0))
        for n, gens in enumerate(free_resolution(table, cap), 1):
            for i, z in enumerate(gens):
                col: dict = {}
                for k, c in z.items():
                    row = offset[n - 1] + k // m
                    col[row] = col.get(row, 0) + c
                basis[n].append((x, i))
                boundary[n].append({r: c for r, c in col.items() if c})
    return ChainComplex(basis=basis, boundary=boundary)
