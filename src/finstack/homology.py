"""Exact integer chain complexes and their homology.

A boundary d_n is stored as one sparse column per basis element of C_n: a
dict from row index (a basis element of C_{n-1}) to a nonzero coefficient.
One sparse elimination (``_reduce``), run once per boundary of a complex,
serves everything: homology reads ranks and torsion off its invariant
factors, and induced maps are tested on the Z-basis of the cycles that the
same pass yields when it also tracks its unimodular column transform.  No
dense matrix and no transform Smith normal form is built.  Arithmetic is
arbitrary precision throughout.

``lattice_insert`` is not a second elimination: it grows a lattice one column
at a time in echelon form and tells whether a column enlarged it, and it
computes no invariant factors.  It can carry a transform as ``_reduce`` does,
so the inserts that build a lattice also yield a Z-basis of the relations
among the inserted columns, the kernel of their matrix.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd
from typing import NamedTuple

from .errors import InsufficientTruncation

def _add_column(cols: dict, rows: dict, k, j, q: int, v: dict | None) -> None:
    """col_k += q * col_j, keeping the row index and the transform v (if any) in step."""
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
    if v is not None:
        _add(v[k], v[j], q)


def _add(x: dict, y: dict, q: int) -> None:
    """x += q * y for sparse vectors, dropping the entries that cancel."""
    get = x.get
    for r, a in y.items():
        b = get(r, 0) + q * a
        if b:
            x[r] = b
        else:
            del x[r]


def _eliminate(cols: dict, rows: dict, i, j, v: dict | None) -> int:
    """Clear row i and column j around the pivot (i, j); return the final |pivot|.

    Column operations reduce row i modulo the pivot, and row operations then
    reduce column j; a nonzero remainder becomes the next, strictly smaller
    pivot.  Once both are clear, the pivot's row and column are removed, and
    so is the pivot column's transform.
    """
    while True:
        col = cols[j]
        p = col[i]
        for k in list(rows[i]):
            q = cols[k][i] // p
            if k != j and q:
                _add_column(cols, rows, k, j, -q, v)
        others = [k for k in rows[i] if k != j]
        if others:
            j = min(others, key=lambda k: abs(cols[k][i]))
            continue
        # row i now holds only the pivot, so row operations touch column j alone
        for r in [r for r in col if r != i]:
            col[r] %= p
            if not col[r]:
                del col[r]
                rows[r].discard(j)
        rest = [r for r in col if r != i]
        if rest:
            i = min(rest, key=lambda r: abs(col[r]))
            continue
        del cols[j]
        del rows[i]
        if v is not None:
            del v[j]
        return abs(p)


def _eliminate_units(cols: dict, rows: dict, v: dict | None) -> int:
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
            units = [r for r, x in col.items() if x == 1 or x == -1] if col else ()
            if units:
                _eliminate(cols, rows, min(units, key=lambda r: len(rows[r])), j, v)
                count += 1
                progress = True
    return count


def _reduce(columns, kernel: bool) -> tuple[list, list | None]:
    """The nonzero invariant factors and, if ``kernel`` is set, a kernel basis.

    Unit pivots are eliminated sparsely first; the rest is reduced by
    least-|v| pivots and the recorded diagonal is normalized with gcd/lcm.
    With ``kernel`` the column operations are also applied to a transform V,
    one sparse column per input column.  V is unimodular, row operations
    leave it alone, and the pivot columns end with distinct pivot rows, so
    the V columns of the columns never pivoted on (all reduced to zero) are
    a Z-basis of the kernel.
    """
    cols = {}
    rows = defaultdict(set)
    for j, c in enumerate(columns):
        c = {r: x for r, x in c.items() if x}
        if c:
            cols[j] = c
            for r in c:
                rows[r].add(j)
    v = {j: {j: 1} for j in range(len(columns))} if kernel else None
    ones = 0
    diagonal = []
    while True:
        ones += _eliminate_units(cols, rows, v)
        if not cols:
            break
        i, j = min(((r, j) for j, c in cols.items() for r in c),
                   key=lambda rj: abs(cols[rj[1]][rj[0]]))
        diagonal.append(_eliminate(cols, rows, i, j, v))
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            x, y = diagonal[a], diagonal[b]
            g = gcd(x, y)
            diagonal[a], diagonal[b] = g, x // g * y
    return [1] * ones + diagonal, None if v is None else list(v.values())


def lattice_insert(echelon: dict, z: dict, v: dict | None = None,
                   transforms: dict | None = None, kernel: list | None = None) -> bool:
    """Insert the sparse column z into a lattice L held in echelon form; True when L grew.

    ``echelon`` maps each leading row (a column's largest row index) to the
    one lattice column that leads there; z is used up.  While the lattice
    column at z's leading row divides z's entry there, z loses that multiple
    of it.  Where it does not, the remainder takes the lattice column's place
    and the old column is reduced in turn, a Euclid step by column operations
    that leaves the span unchanged; where no column leads, z joins the lattice.
    The leading rows are distinct, so a member of L reduces to {} by exact
    division at every leading row and leaves L unchanged.

    With a transform v (z's coordinates in the inserted columns, used up too)
    the same column operations run on v: ``transforms`` keeps each lattice
    column's transform under its leading row, and when z reduces to {} its
    transform is appended to ``kernel``.  The operations are unimodular, as
    ``_reduce``'s V, and the lattice columns have distinct leading rows, so
    once every column of a matrix has been inserted with its unit vector as
    v, ``kernel`` is a Z-basis of the matrix's kernel.
    """
    grew = False
    while z:
        r = max(z)
        col = echelon.get(r)
        if col is None:
            echelon[r] = z
            if v is not None:
                transforms[r] = v
            return True
        q = z[r] // col[r]
        if q:
            _add(z, col, -q)
            if v is not None:
                _add(v, transforms[r], -q)
        if r in z:
            echelon[r], z = z, col
            if v is not None:
                transforms[r], v = v, transforms[r]
            grew = True
    if v is not None:
        kernel.append(v)
    return grew


def invariant_factors(columns) -> list:
    """The nonzero invariant factors of a sparse integer matrix, d1 | d2 | ...

    ``columns`` is a sequence of dicts {row index: coefficient}.  The length
    of the result is the rank.  Exact, and polynomial in the matrix size.
    """
    return _reduce(columns, False)[0]


def kernel_columns(columns) -> list:
    """A Z-basis of the integer kernel of a sparse matrix, as sparse columns."""
    return _reduce(columns, True)[1]


def boundary_column(faces) -> dict:
    """The sparse boundary column of alternating face rows; ``None`` rows are dropped."""
    col: dict = {}
    for i, row in enumerate(faces):
        if row is not None:
            col[row] = col.get(row, 0) + (-1 if i % 2 else 1)
    return {r: v for r, v in col.items() if v}


class HomologyGroup(NamedTuple):
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


class ChainComplex:
    """Sparse integer boundaries on free generators.

    ``basis[n]`` lists the generators of C_n, 0 <= n <= top_degree, of which
    only the number is read; ``boundary[n]`` maps C_n -> C_{n-1} for 1 <= n <=
    top_degree, as one sparse column {row index: coefficient} per generator.
    When ``complete_above`` is set the complex is genuinely zero above
    ``top_degree`` (a total space, not a truncation), so every boundary above
    top_degree is the zero map rather than unknown, and H_n = 0 there.
    """

    def __init__(self, basis: dict, boundary: dict, complete_above: bool = False):
        self.basis, self.boundary, self.complete_above = basis, boundary, complete_above
        self._reductions: dict = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.basis, self.boundary, self.complete_above) == \
            (other.basis, other.boundary, other.complete_above)

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
        if self.complete_above:
            return []
        raise InsufficientTruncation(n - 1, self.top_degree)

    def reduction(self, n: int, kernel: bool = False) -> tuple[list, list | None]:
        """``_reduce`` of d_n, once per degree: a kernel pass also serves plain requests."""
        done = self._reductions.get(n)
        if done is None or kernel and done[1] is None:
            done = self._reductions[n] = _reduce(self.boundary_columns(n), kernel)
        return done

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


def chain_complex(s) -> ChainComplex:
    """Normalized chains: free on nondegenerate simplices, degenerate faces dropped.

    ``s.chain_levels()`` yields each degree's basis and face rows (the index
    one degree down of each face, ``None`` where it is degenerate).
    With ``complete_above`` s is zero above its top degree (a Milnor model),
    not truncated there (a nerve).  See May, *Simplicial Objects*, section 22.
    """
    basis, boundary = {}, {}
    for n, (gens, rows) in enumerate(s.chain_levels()):
        basis[n] = gens
        if n:
            boundary[n] = [boundary_column(row) for row in rows]
    return ChainComplex(basis=basis, boundary=boundary, complete_above=s.complete_above)


def _homology(cx: ChainComplex, n: int,
              kernel: bool = False) -> tuple[HomologyGroup, int, list | None]:
    """H_n, the rank of the cycles Z_n = ker d_n and, with ``kernel``, a Z-basis of Z_n."""
    if n < 0 or n > cx.top_degree and not cx.complete_above:
        raise InsufficientTruncation(n, cx.top_degree)
    upper = cx.reduction(n + 1)[0]
    lower, cycle_basis = cx.reduction(n, kernel)
    cycles = cx.dim(n) - len(lower)
    group = HomologyGroup(degree=n, free_rank=cycles - len(upper),
                          torsion=tuple(d for d in upper if d > 1))
    return group, cycles, cycle_basis


def homology(cx: ChainComplex, n: int) -> HomologyGroup:
    """H_n = ker d_n / im d_{n+1}, read off invariant factors.

    The free rank is dim C_n - rank d_n - rank d_{n+1}; the torsion is the
    invariant factors of d_{n+1} greater than 1.
    """
    return _homology(cx, n)[0]


def induced_map_is_isomorphism(cx1: ChainComplex, cx2: ChainComplex,
                               chain_map: dict, n: int) -> bool:
    """Whether a chain map f induces an isomorphism H_n(cx1) -> H_n(cx2).

    ``chain_map[n]`` holds one sparse column {cx2 row: coefficient} per basis
    element of cx1 in degree n.  S = f(Z_n cx1) + B_n cx2 lies in Z_n cx2,
    which is pure in the chains of cx2, so S = Z_n cx2 (H_n(f) is onto)
    exactly when the columns [d_{n+1} | f(cycle basis)] have only unit
    invariant factors and rank Z_n cx2 of them.  An onto map between
    isomorphic finitely generated abelian groups is an isomorphism.  The
    cycle basis comes from the same elimination of d_n that gives H_n(cx1).
    """
    h1, _, cycle_basis = _homology(cx1, n, kernel=True)
    h2, cycles, _ = _homology(cx2, n)
    if h1.pair() != h2.pair():
        return False
    f = chain_map[n]
    images = []
    for z in cycle_basis:
        image: dict = {}
        for i, c in z.items():
            for r, a in f[i].items():
                image[r] = image.get(r, 0) + c * a
        images.append(image)
    factors = invariant_factors(cx2.boundary_columns(n + 1) + images)
    return len(factors) == cycles and all(d == 1 for d in factors)
