"""Independent resolution oracles: the invariant-factor greedy and the
per-degree kernel elimination.

``free_resolution`` keeps a kernel basis vector when its translates change the
invariant factors of the columns kept so far, re-eliminating all of them for
every vector it examines.  ``kernel_free_resolution`` decides the same question
by lattice membership, but takes each degree's basis from a second elimination
of the whole boundary, ``kernel_columns``.  Both keep the same generators as
:func:`finstack.resolution.free_resolution`, which reads each kernel basis off
the transforms of the inserts that build the image.
"""

from __future__ import annotations

from finstack.homology import invariant_factors, kernel_columns, lattice_insert
from finstack.resolution import _translates


def _spans(factors: list, rank: int) -> bool:
    """Whether columns with these invariant factors span a saturated lattice of this rank."""
    return len(factors) == rank and all(d == 1 for d in factors)


def free_resolution(table: list, cap: int) -> list:
    """ZG-generator images of a free resolution F_cap -> ... -> F_0 = ZG -> Z.

    ``table[a][b]`` is the index of the product a . b of the group elements
    with indices a and b.  Entry n - 1 of the result lists the images in
    F_{n-1} of the generators of F_n, for n = 1..cap; d_0 is the augmentation.

    Degree n takes a Z-basis of ker d_{n-1} and keeps a basis vector as a
    generator when its translates change the invariant factors of the columns
    kept so far, that is, when they enlarge their span.  ker d_{n-1} is
    saturated, so the span is the kernel once the columns have only unit
    invariant factors, rank ker d_{n-1} of them.  The basis always gets there,
    because the translates by the identity are the basis itself.
    """
    boundary = [{0: 1} for _ in table]
    images = []
    for n in range(1, cap + 1):
        kernel = kernel_columns(boundary)
        chosen, columns, factors = [], [], []
        for z in kernel:
            if _spans(factors, len(kernel)):
                break
            trial = columns + list(_translates(z, table))
            trial_factors = invariant_factors(trial)
            if trial_factors != factors:
                chosen.append(z)
                columns, factors = trial, trial_factors
        if not _spans(factors, len(kernel)):
            raise RuntimeError(f"the translates of a basis of ker d_{n - 1} do not span it")
        images.append(chosen)
        boundary = columns
    return images


def kernel_free_resolution(table: list, cap: int) -> list:
    """The same images, with ker d_{n-1} eliminated afresh in every degree.

    Degree n takes the Z-basis ``kernel_columns`` gives of ker d_{n-1} and
    keeps a basis vector as a generator when inserting it grows the span L of
    the translates kept so far, and then adds its translates to L.  L is a
    ZG-submodule, so a vector outside it is exactly one whose translates
    enlarge it.
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
