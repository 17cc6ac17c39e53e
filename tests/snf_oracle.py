"""Dense transform-path oracle: Smith normal form with both transforms.

Dense matrices are lists of rows of Python ints.  ``smith_normal_form``
returns unimodular transforms, from which kernel bases, exact integer solves
and homology presentations follow.  ``transform_induced_is_isomorphism`` is
the induced-map test these give: present H_n of both complexes, solve the
image of the cycles in the target's cycle basis, and check the result is
onto.  The runtime tests induced maps sparsely; this module is its oracle
on small inputs.
"""

from __future__ import annotations

from finstack.errors import InsufficientTruncation
from finstack.homology import ChainComplex, invariant_factors

Matrix = list


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = zero_matrix(rows, cols)
    for i in range(rows):
        ai, oi = a[i], out[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    oi[j] += v * bk[j]
    return out


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return unimodular (U, V) and diagonal S with U*M*V = S and d1 | d2 | ...

    Pivots are chosen by least absolute value over the remaining submatrix,
    which keeps coefficient growth in check; diagonal entries come out
    nonnegative in divisibility order.
    """
    s = [list(row) for row in m]
    nrows = len(s)
    ncols = len(s[0]) if nrows else 0
    u = identity_matrix(nrows)
    v = identity_matrix(ncols)

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in s:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        si, sj = s[i], s[j]
        for c in range(ncols):
            si[c] += q * sj[c]
        ui, uj = u[i], u[j]
        for c in range(nrows):
            ui[c] += q * uj[c]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in s:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    k = 0
    limit = min(nrows, ncols)
    while k < limit:
        pivot = None
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                val = s[i][j]
                if val and (best is None or abs(val) < best):
                    pivot, best = (i, j), abs(val)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])

        while True:
            for i in range(k + 1, nrows):
                if s[i][k]:
                    add_row(i, k, -(s[i][k] // s[k][k]))
            rest = [i for i in range(k + 1, nrows) if s[i][k]]
            if rest:
                swap_rows(k, min(rest, key=lambda i: abs(s[i][k])))
                continue
            for j in range(k + 1, ncols):
                if s[k][j]:
                    add_col(j, k, -(s[k][j] // s[k][k]))
            rest = [j for j in range(k + 1, ncols) if s[k][j]]
            if rest:
                swap_cols(k, min(rest, key=lambda j: abs(s[k][j])))
                continue

            d = s[k][k]
            offender = next((i for i in range(k + 1, nrows)
                             for j in range(k + 1, ncols) if s[i][j] % d), None)
            if offender is None:
                break
            add_row(k, offender, 1)

        if s[k][k] < 0:
            negate_row(k)
        k += 1

    return u, s, v


def sparse_columns(m: Matrix) -> list:
    """The columns of a dense matrix as dicts {row index: nonzero entry}."""
    ncols = len(m[0]) if m else 0
    return [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(ncols)]


def kernel_basis(m: Matrix) -> Matrix:
    """Columns forming a Z-basis of the integer kernel of ``m``."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if ncols == 0:
        return [[] for _ in range(0)]
    _, s, v = smith_normal_form(m)
    free = [j for j in range(ncols) if j >= nrows or s[j][j] == 0]
    return [[v[i][j] for j in free] for i in range(ncols)]


def solve_columns(k: Matrix, b: Matrix) -> Matrix:
    """Solve k * x = b exactly over the integers, column by column.

    ``k`` must have linearly independent columns containing the columns of
    ``b`` in their span; raises ValueError otherwise.
    """
    ncols_k = len(k[0]) if k else 0
    ncols_b = len(b[0]) if b else 0
    if ncols_k == 0:
        if any(any(row) for row in b):
            raise ValueError("no solution: zero basis cannot reach nonzero column")
        return [[0] * ncols_b for _ in range(0)]
    u, s, v = smith_normal_form(k)
    ub = mat_mul(u, b)
    y = zero_matrix(ncols_k, ncols_b)
    for i in range(len(ub)):
        d = s[i][i] if i < ncols_k else 0
        for j in range(ncols_b):
            if i < ncols_k and d:
                if ub[i][j] % d:
                    raise ValueError("no integral solution")
                y[i][j] = ub[i][j] // d
            elif ub[i][j]:
                raise ValueError("no solution")
    return mat_mul(v, y)


def dense_columns(columns, rows: int) -> Matrix:
    """The dense matrix with the given sparse columns and row count."""
    mat = zero_matrix(rows, len(columns))
    for j, col in enumerate(columns):
        for i, v in col.items():
            mat[i][j] = v
    return mat


def boundary_matrix(cx: ChainComplex, n: int) -> Matrix:
    """The dense matrix of d_n.

    d_0 is the zero map; it is returned with one row so the column count
    (and hence the kernel) is well-defined.
    """
    return dense_columns(cx.boundary_columns(n), 1 if n == 0 else cx.dim(n - 1))


def homology_presentation(cx: ChainComplex, n: int) -> tuple[Matrix, Matrix]:
    """Return (K, X): kernel basis columns of d_n and relations with K*X = d_{n+1}."""
    if n < 0 or n > cx.top_degree:
        raise InsufficientTruncation(n, cx.top_degree)
    k = kernel_basis(boundary_matrix(cx, n))
    x = solve_columns(k, boundary_matrix(cx, n + 1))
    return k, x


def cokernel_invariants(rank: int, relations: Matrix) -> tuple[int, tuple]:
    """Invariants of Z^rank / column-span(relations): (free rank, torsion)."""
    factors = invariant_factors(sparse_columns(relations))
    return rank - len(factors), tuple(d for d in factors if d > 1)


def transform_induced_is_isomorphism(cx1: ChainComplex, cx2: ChainComplex,
                                     chain_map: dict, n: int) -> bool:
    """Whether a chain map of sparse columns induces an isomorphism on H_n.

    Uses that a surjection between isomorphic finitely generated abelian
    groups is an isomorphism.
    """
    k1, x1 = homology_presentation(cx1, n)
    k2, x2 = homology_presentation(cx2, n)
    k1_rank = len(k1[0]) if k1 else 0
    k2_rank = len(k2[0]) if k2 else 0
    if cokernel_invariants(k1_rank, x1) != cokernel_invariants(k2_rank, x2):
        return False
    f = dense_columns(chain_map[n], cx2.dim(n))
    fk1 = mat_mul(f, k1) if k1_rank else [[] for _ in range(cx2.dim(n))]
    y = solve_columns(k2, fk1)
    combined = [y[i] + x2[i] for i in range(k2_rank)]
    factors = invariant_factors(sparse_columns(combined))
    return len(factors) == k2_rank and all(d == 1 for d in factors)
