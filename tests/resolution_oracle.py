"""Independent resolution oracle: the invariant-factor greedy.

``free_resolution`` keeps a kernel basis vector when its translates change the
invariant factors of the columns kept so far, re-eliminating all of them for
every vector it examines.  It keeps the same generators as
:func:`finstack.resolution.free_resolution`, which decides the same question
by lattice membership.
"""

from __future__ import annotations

from finstack.homology import invariant_factors, kernel_columns
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
            trial = columns + _translates(z, table)
            trial_factors = invariant_factors(trial)
            if trial_factors != factors:
                chosen.append(z)
                columns, factors = trial, trial_factors
        if not _spans(factors, len(kernel)):
            raise RuntimeError(f"the translates of a basis of ker d_{n - 1} do not span it")
        images.append(chosen)
        boundary = columns
    return images
