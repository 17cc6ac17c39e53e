"""Exact integer chain complexes and their homology.

A boundary d_n is stored as one sparse column per basis element of C_n: a
dict from row index (a basis element of C_{n-1}) to a nonzero coefficient.
Homology reads ranks and torsion off the invariant factors of these columns
(``invariant_factors``), with no transform matrices.  Dense matrices, lists
of rows of Python ints, serve the transform path only: ``smith_normal_form``
with both transforms, kernel bases, exact solves and induced maps.
Arithmetic is arbitrary precision throughout.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import gcd

from .errors import InsufficientTruncation
from .simplicial import TruncatedSimplicialSet

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


def _add_column(cols: dict, rows: dict, k, j, q: int) -> None:
    """col_k += q * col_j, keeping the row index in step."""
    ck = cols[k]
    for r, a in cols[j].items():
        b = ck.get(r, 0) + q * a
        if b:
            if r not in ck:
                rows[r].add(k)
            ck[r] = b
        elif r in ck:
            del ck[r]
            rows[r].discard(k)
    if not ck:
        del cols[k]


def _eliminate(cols: dict, rows: dict, i, j) -> int:
    """Clear row i and column j around the pivot (i, j); return the final |pivot|.

    Column operations reduce row i modulo the pivot, and row operations then
    reduce column j; a nonzero remainder becomes the next, strictly smaller
    pivot.  Once both are clear, the pivot's row and column are removed.
    """
    while True:
        col = cols[j]
        v = col[i]
        for k in list(rows[i]):
            q = cols[k][i] // v
            if k != j and q:
                _add_column(cols, rows, k, j, -q)
        others = [k for k in rows[i] if k != j]
        if others:
            j = min(others, key=lambda k: abs(cols[k][i]))
            continue
        # row i now holds only the pivot, so row operations touch column j alone
        for r in [r for r in col if r != i]:
            col[r] %= v
            if not col[r]:
                del col[r]
                rows[r].discard(j)
        rest = [r for r in col if r != i]
        if rest:
            i = min(rest, key=lambda r: abs(col[r]))
            continue
        del cols[j]
        del rows[i]
        return abs(v)


def _eliminate_units(cols: dict, rows: dict) -> int:
    """Pivot on +-1 entries until none is left; return how many were used.

    Each pass takes columns in order; a column with a unit pivots on the unit
    whose row is sparsest, which keeps the Schur-complement fill small.
    """
    count = 0
    progress = True
    while progress:
        progress = False
        for j in list(cols):
            col = cols.get(j)
            units = [r for r, v in col.items() if v == 1 or v == -1] if col else ()
            if units:
                _eliminate(cols, rows, min(units, key=lambda r: len(rows[r])), j)
                count += 1
                progress = True
    return count


def invariant_factors(columns) -> list:
    """The nonzero invariant factors of a sparse integer matrix, d1 | d2 | ...

    ``columns`` is a sequence of dicts {row index: coefficient}.  Unit pivots
    are eliminated sparsely first; the rest is reduced by least-|v| pivots
    and the recorded diagonal is normalized with gcd/lcm.  The length of the
    result is the rank.  Exact, and polynomial in the matrix size.
    """
    cols = {}
    rows = defaultdict(set)
    for j, c in enumerate(columns):
        c = {r: v for r, v in c.items() if v}
        if c:
            cols[j] = c
            for r in c:
                rows[r].add(j)
    ones = 0
    diagonal = []
    while True:
        ones += _eliminate_units(cols, rows)
        if not cols:
            break
        i, j = min(((r, j) for j, c in cols.items() for r in c),
                   key=lambda rj: abs(cols[rj[1]][rj[0]]))
        diagonal.append(_eliminate(cols, rows, i, j))
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            x, y = diagonal[a], diagonal[b]
            g = gcd(x, y)
            diagonal[a], diagonal[b] = g, x // g * y
    return [1] * ones + diagonal


def sparse_columns(m: Matrix) -> list:
    """The columns of a dense matrix as dicts {row index: nonzero entry}."""
    ncols = len(m[0]) if m else 0
    return [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(ncols)]


def boundary_column(faces) -> dict:
    """The sparse boundary column of alternating face rows; ``None`` rows are dropped."""
    col: dict = {}
    for i, row in enumerate(faces):
        if row is not None:
            col[row] = col.get(row, 0) + (-1 if i % 2 else 1)
    return {r: v for r, v in col.items() if v}


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


@dataclass(frozen=True)
class HomologyGroup:
    """An integral homology group: free rank plus torsion in divisibility order."""

    degree: int
    free_rank: int
    torsion: tuple

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        body = " (+) ".join(parts) if parts else "0"
        return f"H_{self.degree} = {body}"

    def pair(self) -> tuple:
        return (self.free_rank, tuple(self.torsion))


@dataclass(frozen=True)
class ChainComplex:
    """Sparse integer boundaries with basis labels.

    ``basis[n]`` labels the free generators of C_n for 0 <= n <= top_degree;
    ``boundary[n]`` maps C_n -> C_{n-1} for 1 <= n <= top_degree, as one
    sparse column {row index: nonzero coefficient} per basis element of C_n.
    When ``complete_above`` is set the complex is genuinely zero above
    ``top_degree`` (a total space, not a truncation), so the boundary out of
    degree top_degree + 1 is the zero map rather than unknown.
    """

    basis: dict
    boundary: dict
    complete_above: bool = False

    @property
    def top_degree(self) -> int:
        return max(self.basis) if self.basis else -1

    def dim(self, n: int) -> int:
        return len(self.basis.get(n, ()))

    def boundary_columns(self, n: int) -> list:
        """The sparse columns of d_n, with the zero maps at the ends."""
        if 1 <= n <= self.top_degree:
            return self.boundary[n]
        if n == 0:
            return [{} for _ in range(self.dim(0))]
        if n < 0:
            raise ValueError("negative degree")
        if self.complete_above and n == self.top_degree + 1:
            return []
        raise InsufficientTruncation(n - 1, self.top_degree)

    def boundary_matrix(self, n: int) -> Matrix:
        """The dense matrix of d_n, for the transform path.

        d_0 is the zero map; it is returned with one row so the column count
        (and hence the kernel) is well-defined.
        """
        columns = self.boundary_columns(n)
        mat = zero_matrix(1 if n == 0 else self.dim(n - 1), len(columns))
        for j, col in enumerate(columns):
            for i, v in col.items():
                mat[i][j] = v
        return mat

    def check_dd_zero(self) -> bool:
        for n in range(2, self.top_degree + 1):
            lower = self.boundary[n - 1]
            for col in self.boundary[n]:
                image: dict = {}
                for r, c in col.items():
                    for s, a in lower[r].items():
                        image[s] = image.get(s, 0) + c * a
                if any(image.values()):
                    return False
        return True


def chain_complex(s: TruncatedSimplicialSet) -> ChainComplex:
    """Normalized chains: free on nondegenerate simplices, degenerate faces dropped."""
    basis = {}
    index = {}
    for n in range(s.cap + 1):
        gens = tuple(x for x in s.simplices[n] if not s.is_degenerate(n, x))
        basis[n] = gens
        index[n] = {x: i for i, x in enumerate(gens)}
    boundary = {}
    for n in range(1, s.cap + 1):
        rows = index[n - 1]
        boundary[n] = [boundary_column([rows.get(s.face(n, i, x)) for i in range(n + 1)])
                       for x in basis[n]]
    return ChainComplex(basis=basis, boundary=boundary)


def homology_presentation(cx: ChainComplex, n: int) -> tuple[Matrix, Matrix]:
    """Return (K, X): kernel basis columns of d_n and relations with K*X = d_{n+1}."""
    if n < 0 or n > cx.top_degree:
        raise InsufficientTruncation(n, cx.top_degree)
    k = kernel_basis(cx.boundary_matrix(n))
    x = solve_columns(k, cx.boundary_matrix(n + 1))
    return k, x


def cokernel_invariants(rank: int, relations: Matrix) -> tuple[int, tuple]:
    """Invariants of Z^rank / column-span(relations): (free rank, torsion)."""
    factors = invariant_factors(sparse_columns(relations))
    return rank - len(factors), tuple(d for d in factors if d > 1)


def homology(cx: ChainComplex, n: int) -> HomologyGroup:
    """H_n = ker d_n / im d_{n+1}, read off invariant factors.

    The free rank is dim C_n - rank d_n - rank d_{n+1}; the torsion is the
    invariant factors of d_{n+1} greater than 1.
    """
    if n < 0 or n > cx.top_degree:
        raise InsufficientTruncation(n, cx.top_degree)
    upper = invariant_factors(cx.boundary_columns(n + 1))
    lower = invariant_factors(cx.boundary_columns(n))
    return HomologyGroup(degree=n, free_rank=cx.dim(n) - len(lower) - len(upper),
                         torsion=tuple(d for d in upper if d > 1))


def homology_range(cx: ChainComplex, degrees) -> list[HomologyGroup]:
    return [homology(cx, n) for n in degrees]


def induced_map_is_isomorphism(cx1: ChainComplex, cx2: ChainComplex,
                               chain_map: dict, n: int) -> bool:
    """Whether a chain map induces an isomorphism H_n(cx1) -> H_n(cx2).

    ``chain_map[n]`` is the degree-n matrix (rows over cx2 basis, columns over
    cx1 basis).  Uses that a surjection between isomorphic finitely generated
    abelian groups is an isomorphism.
    """
    k1, x1 = homology_presentation(cx1, n)
    k2, x2 = homology_presentation(cx2, n)
    k1_rank = len(k1[0]) if k1 else 0
    k2_rank = len(k2[0]) if k2 else 0
    if cokernel_invariants(k1_rank, x1) != cokernel_invariants(k2_rank, x2):
        return False
    fk1 = mat_mul(chain_map[n], k1) if k1_rank else [[] for _ in range(cx2.dim(n))]
    y = solve_columns(k2, fk1)
    combined = [y[i] + x2[i] for i in range(k2_rank)]
    factors = invariant_factors(sparse_columns(combined))
    return len(factors) == k2_rank and all(d == 1 for d in factors)
