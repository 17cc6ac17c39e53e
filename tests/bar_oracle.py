"""Independent group-homology oracle: the normalized bar complex.

Built straight from a multiplication table, with no simplicial machinery:
degree-n generators are tuples of non-unit elements, and the boundary drops,
multiplies neighbours, and drops, killing any tuple that acquires the unit.
The boundaries are dense matrices, and H_n is read off the diagonals of the
dense Smith normal form, apart from the sparse routine behind ``homology``.
"""

from __future__ import annotations

import itertools

from finstack.groupoid import FiniteGroupoid
from finstack.homology import HomologyGroup
from snf_oracle import smith_normal_form, zero_matrix


def bar_boundaries(group: FiniteGroupoid, top: int) -> tuple[dict, dict]:
    """(basis, boundary): generators per degree and the dense d_n for 1 <= n <= top."""
    unit = group.ident[group.objects[0]]
    letters = [g for g in group.morphisms if g != unit]
    basis = {0: ((),)}
    for n in range(1, top + 1):
        basis[n] = tuple(itertools.product(letters, repeat=n))
    index = {n: {g: i for i, g in enumerate(basis[n])} for n in basis}

    boundary = {}
    for n in range(1, top + 1):
        mat = zero_matrix(len(basis[n - 1]), len(basis[n]))
        for col, word in enumerate(basis[n]):
            faces = [word[1:]]
            for i in range(1, n):
                product = group.compose(word[i - 1], word[i])
                faces.append(word[:i - 1] + (product,) + word[i + 1:] if product != unit else None)
            faces.append(word[:-1])
            for i, face in enumerate(faces):
                if face is not None and face in index[n - 1]:
                    mat[index[n - 1][face]][col] += -1 if i % 2 else 1
        boundary[n] = mat
    return basis, boundary


def snf_nonzero_diagonal(m: list) -> list:
    """The nonzero diagonal entries of the dense Smith normal form of ``m``."""
    _, s, _ = smith_normal_form(m)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i]]


def bar_homology(group: FiniteGroupoid, degree: int) -> HomologyGroup:
    basis, boundary = bar_boundaries(group, degree + 1)
    lower = snf_nonzero_diagonal(boundary[degree]) if degree else []
    upper = snf_nonzero_diagonal(boundary[degree + 1])
    return HomologyGroup(degree=degree,
                         free_rank=len(basis[degree]) - len(lower) - len(upper),
                         torsion=tuple(d for d in upper if d > 1))
