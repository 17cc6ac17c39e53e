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

from .groupoid import FiniteGroupoid, skeleton
from .homology import ChainComplex, kernel_columns, lattice_insert


def _translates(z: dict, table: list):
    """The columns g . z for every group element g, in element order."""
    m = len(table)
    parts = [(k - k % m, k % m, c) for k, c in z.items()]
    for row in table:
        yield {i + row[h]: c for i, h, c in parts}


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
    identity are the basis itself.  L is ker d_{n-1} already once it has full
    rank with unit pivots, because it is then saturated, and the rest of the
    basis is skipped.

    Below the top degree each column of d_n, the translate by h of generator
    k, is inserted once with the unit vector e_{k |G| + h} as its transform,
    in column order: a basis vector's first translate is its membership test,
    as L holds z exactly when it holds g . z.  The inserts that reduce to {}
    then leave a Z-basis of ker d_n, the next degree's basis, so only ker d_0
    of the augmentation needs ``kernel_columns``.
    """
    m = len(table)
    basis = kernel_columns([{0: 1} for _ in table])
    images = []
    for n in range(1, cap + 1):
        echelon: dict = {}
        chosen, transforms, kernel = [], {}, []
        if n < cap:
            def insert(z, j): return lattice_insert(echelon, z, {j: 1}, transforms, kernel)
        else:
            def insert(z, j): return lattice_insert(echelon, z)
        for z in basis:
            if len(echelon) == len(basis) and all(c[r] in (1, -1) for r, c in echelon.items()):
                break
            k = len(chosen) * m
            translates = _translates(z, table)
            if insert(next(translates), k):
                chosen.append(z)
                for h, y in enumerate(translates, k + 1):
                    insert(y, h)
            elif n < cap:
                kernel.pop()  # z is no column of d_n, and its insert changed nothing else
        images.append(chosen)
        basis = kernel
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
    s = skeleton(g)
    for x in s.objects:
        # x is alone in its component, so its arrows are Aut(x), each numbered by its slot
        table = [list(map(s.slots.__getitem__, s.rows[s.position[a]])) for a in s.morphisms_from(x)]
        m = len(table)
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
