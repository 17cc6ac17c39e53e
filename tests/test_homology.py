from __future__ import annotations

import importlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finstack as fs
import finstack.jsonio as jio
import finstack.cli as cli
from finstack.cli import main
from finstack.errors import InsufficientTruncation
from finstack.homology import ChainComplex, invariant_factors, kernel_columns, lattice_insert
from bar_oracle import bar_homology, snf_nonzero_diagonal
from milnor_oracle import level_product_chains, projection_chain_map
from snf_oracle import (
    boundary_matrix,
    cokernel_invariants,
    dense_columns,
    homology_presentation,
    kernel_basis,
    mat_mul,
    smith_normal_form,
    solve_columns,
    sparse_columns,
    transform_induced_is_isomorphism,
)
from support import apply_columns, groupoid_zoo, pair2, pt, s3, swap_action, z2, z3

# the package's ``homology`` attribute is the function, not the module
homology_module = importlib.import_module("finstack.homology")


def bareiss_det(m):
    """Fraction-free determinant; independent unimodularity witness."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


SNF_CASES = [
    [[2, 0], [0, 3]],
    [[0, 0], [0, 0]],
    [[1, 0], [0, 1]],
    [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    [[1, 2, 3], [4, 5, 6]],
    [[6], [10], [15]],
    [[2, 1], [1, 2], [3, 3]],
]


@pytest.mark.parametrize("m", SNF_CASES)
def test_snf_transforms_and_divisibility(m):
    u, s, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == s
    assert abs(bareiss_det(u)) == 1
    assert abs(bareiss_det(v)) == 1
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    for i in range(len(s)):
        for j in range(len(s[0])):
            if i != j:
                assert s[i][j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros only at the tail
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))


def test_invariant_factors_hand_values():
    assert invariant_factors(sparse_columns([[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(sparse_columns([[1, 0], [0, 1]])) == [1, 1]
    assert invariant_factors([{0: 4, 1: 6}, {0: 6, 1: 4}]) == [2, 10]


def test_invariant_factors_empty_columns_and_zero_matrices():
    assert invariant_factors([{}, {0: 2}, {}]) == [2]
    assert invariant_factors([]) == []
    for rows, cols in [(1, 1), (2, 2), (3, 2), (2, 5)]:
        m = [[0] * cols for _ in range(rows)]
        assert invariant_factors(sparse_columns(m)) == snf_nonzero_diagonal(m) == []


ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -9, 12])
# no +-1 entries, so the elimination's least-|v| stage does most of the work
UNIT_FREE_ENTRIES = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, 6, -9, 10, 15])


@st.composite
def sparse_matrices(draw, entries=ENTRIES):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for j in draw(st.sets(st.integers(0, cols - 1))):
        for row in m:
            row[j] = 0
    return m


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_invariant_factors_match_dense_snf(m):
    assert invariant_factors(sparse_columns(m)) == snf_nonzero_diagonal(m)


@settings(max_examples=400, deadline=None)
@given(st.one_of(sparse_matrices(), sparse_matrices(UNIT_FREE_ENTRIES)))
def test_kernel_columns_are_a_basis_of_the_kernel(m):
    assert_kernel_basis(m, kernel_columns(sparse_columns(m)))


def assert_kernel_basis(m, basis):
    columns = sparse_columns(m)
    assert all(not apply_columns(columns, z) for z in basis)
    assert len(basis) == len(columns) - len(invariant_factors(columns))
    # each basis spans the other over the integers, so both span the kernel
    ours = dense_columns(basis, len(columns))
    theirs = kernel_basis(m)
    if basis:
        assert mat_mul(ours, solve_columns(ours, theirs)) == theirs
        assert mat_mul(theirs, solve_columns(theirs, ours)) == ours
    else:
        assert not theirs or not theirs[0]


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_matrices(), sparse_matrices(UNIT_FREE_ENTRIES)))
def test_lattice_membership_matches_invariant_factors(m):
    """Inserting a column grows the span of the columns before it exactly when
    adding it changes their invariant factors; the lattice then spans both, and
    inserting a member leaves it unchanged."""
    columns = sparse_columns(m)
    echelon: dict = {}
    for j, z in enumerate(columns):
        grew = lattice_insert(echelon, dict(z))
        assert grew == (invariant_factors(columns[:j + 1]) != invariant_factors(columns[:j]))
        before = {r: dict(col) for r, col in echelon.items()}
        assert not lattice_insert(echelon, dict(z))
        assert echelon == before
        assert invariant_factors(list(echelon.values())) == invariant_factors(columns[:j + 1])


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_matrices(), sparse_matrices(UNIT_FREE_ENTRIES)))
def test_insert_transforms_are_a_basis_of_the_kernel(m):
    """Inserting every column once with its unit vector as transform keeps each
    lattice column equal to its transform applied to the columns, and leaves a
    Z-basis of the kernel in ``kernel``; the unit-free draws run Euclid swaps."""
    columns = sparse_columns(m)
    echelon, transforms, kernel = {}, {}, []
    for j, z in enumerate(columns):
        lattice_insert(echelon, dict(z), {j: 1}, transforms, kernel)
    assert transforms.keys() == echelon.keys()
    assert all(apply_columns(columns, transforms[r]) == col for r, col in echelon.items())
    assert_kernel_basis(m, kernel)


def test_insert_transform_hand_values():
    """2 e0 then 3 e0: one Euclid swap leaves e0 = c1 - c0 in the lattice and
    the relation 3 c0 - 2 c1 in the kernel."""
    echelon, transforms, kernel = {}, {}, []
    assert lattice_insert(echelon, {0: 2}, {0: 1}, transforms, kernel)
    assert lattice_insert(echelon, {0: 3}, {1: 1}, transforms, kernel)
    assert (echelon, transforms, kernel) == ({0: {0: 1}}, {0: {0: -1, 1: 1}}, [{0: 3, 1: -2}])


def test_kernel_columns_hand_values():
    assert kernel_columns([{}, {0: 2}, {}]) == [{0: 1}, {2: 1}]
    # a rank-1 kernel has exactly two generators; which sign comes out is not pinned
    assert kernel_columns([{0: 2}, {0: 3}]) in ([{0: -3, 1: 2}], [{0: 3, 1: -2}])
    assert kernel_columns([{0: 0}]) == [{0: 1}]
    assert kernel_columns([]) == []


def test_kernel_basis_spans_kernel():
    m = [[1, 2, 3], [2, 4, 6]]
    k = kernel_basis(m)
    assert len(k[0]) == 2
    product = mat_mul(m, k)
    assert all(all(x == 0 for x in row) for row in product)


def test_solve_columns_roundtrip():
    k = [[1, 0], [1, 2], [0, 1]]
    x = [[3, 1], [-2, 0]]
    b = mat_mul(k, x)
    assert solve_columns(k, b) == x


def test_solve_columns_rejects_outside_span():
    with pytest.raises(ValueError):
        solve_columns([[2], [0]], [[1], [0]])


def test_cokernel_invariants():
    assert cokernel_invariants(2, [[2, 0], [0, 3]]) == (0, (6,))
    assert cokernel_invariants(3, [[2], [0], [0]]) == (2, (2,))
    assert cokernel_invariants(2, [[], []]) == (2, ())


def test_homology_format_lines():
    assert str(fs.HomologyGroup(0, 1, ())) == "H_0 = Z"
    assert str(fs.HomologyGroup(1, 0, (2,))) == "H_1 = Z/2"
    assert str(fs.HomologyGroup(2, 0, ())) == "H_2 = 0"
    assert str(fs.HomologyGroup(3, 2, (2, 4))) == "H_3 = Z^2 (+) Z/2 (+) Z/4"


def test_nerve_homology_z2_against_known_and_oracle():
    cx = fs.chain_complex(fs.nerve(z2(), 5))
    expected = [(1, ()), (0, (2,)), (0, ()), (0, (2,)), (0, ())]
    for n, pair in enumerate(expected):
        assert fs.homology(cx, n).pair() == pair
        assert bar_homology(z2(), n).pair() == pair


def test_nerve_homology_z3_against_oracle():
    cx = fs.chain_complex(fs.nerve(z3(), 4))
    for n in range(4):
        assert fs.homology(cx, n).pair() == bar_homology(z3(), n).pair()
    assert fs.homology(cx, 1).pair() == (0, (3,))
    assert fs.homology(cx, 2).pair() == (0, ())
    assert fs.homology(cx, 3).pair() == (0, (3,))


def test_nerve_homology_s3_against_oracle():
    cx = fs.chain_complex(fs.nerve(s3(), 3))
    for n in range(3):
        assert fs.homology(cx, n).pair() == bar_homology(s3(), n).pair()
    assert fs.homology(cx, 1).pair() == (0, (2,))


def test_contractible_groupoid_homology():
    cx = fs.chain_complex(fs.nerve(pair2(), 3))
    assert fs.homology(cx, 0).pair() == (1, ())
    assert fs.homology(cx, 1).pair() == (0, ())
    assert fs.homology(cx, 2).pair() == (0, ())


def test_point_homology():
    cx = fs.chain_complex(fs.nerve(pt(), 2))
    assert fs.homology(cx, 0).pair() == (1, ())
    assert fs.homology(cx, 1).pair() == (0, ())


def test_truncation_guard():
    cx = fs.chain_complex(fs.nerve(z2(), 2))
    with pytest.raises(InsufficientTruncation):
        fs.homology(cx, 2)


@pytest.mark.parametrize("space", [fs.milnor_B, fs.milnor_E])
def test_complete_complex_is_zero_above_top_degree(space):
    cx = fs.chain_complex(space(z2(), 2))
    assert cx.top_degree == 2
    for n in (3, 4, 7):
        assert fs.homology(cx, n).pair() == (0, ())


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_dd_zero_and_h0_counts_components(name, g):
    cx = fs.chain_complex(fs.nerve(g, 3))
    assert cx.check_dd_zero()
    assert fs.homology(cx, 0).free_rank == len(fs.pi0(g))


def test_h0_counts_components_disjoint_union():
    g = fs.disjoint_union(z2(), pt())
    cx = fs.chain_complex(fs.nerve(g, 2))
    assert fs.homology(cx, 0).free_rank == 2


def test_presentation_reconstructs_boundary():
    cx = fs.chain_complex(fs.nerve(z2(), 4))
    for n in range(3):
        k, x = homology_presentation(cx, n)
        if k and k[0]:
            assert mat_mul(k, x) == boundary_matrix(cx, n + 1)
        else:
            # zero kernel forces a zero boundary out of degree n+1
            assert all(not any(row) for row in boundary_matrix(cx, n + 1))


def presentation_pair(cx, n):
    """H_n through the transform path: kernel basis, exact solve, cokernel."""
    k, x = homology_presentation(cx, n)
    return cokernel_invariants(len(k[0]) if k else 0, x)


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_sparse_homology_matches_presentation_on_nerves(name, g):
    cx = fs.chain_complex(fs.nerve(g, 4))
    for n in range(4):
        assert fs.homology(cx, n).pair() == presentation_pair(cx, n)


@pytest.mark.parametrize("group", [z2, z3])
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_sparse_homology_matches_presentation_on_milnor(group, levels):
    g = group()
    for cx in (level_product_chains(fs.milnor_E(g, levels)),
               level_product_chains(fs.milnor_B(g, levels))):
        assert cx.check_dd_zero()
        for n in range(levels + 1):
            assert fs.homology(cx, n).pair() == presentation_pair(cx, n)


INDUCED_ZOO = {"z2": z2, "z3": z3, "pair2": pair2, "swap-action": swap_action,
               "z2+pt": lambda: fs.disjoint_union(z2(), pt())}


@pytest.mark.parametrize("name", INDUCED_ZOO)
@pytest.mark.parametrize("levels", [2, 3, 4])
def test_sparse_induced_map_matches_transform_oracle(name, levels):
    g = INDUCED_ZOO[name]()
    b = fs.milnor_B(g, levels)
    bcx = level_product_chains(b)
    ncx = fs.chain_complex(fs.nerve(g, levels))
    cmap = projection_chain_map(b, ncx)
    for scale in (1, 2, 3, -1, 0):
        scaled = {k: [{r: scale * v for r, v in col.items()} for col in cols]
                  for k, cols in cmap.items()}
        for n in range(levels - 1):
            sparse = fs.induced_map_is_isomorphism(bcx, ncx, scaled, n)
            assert sparse == transform_induced_is_isomorphism(bcx, ncx, scaled, n)
            if scale in (1, -1):
                assert sparse, (scale, n)


def test_induced_map_onto_but_not_injective():
    # Z -> Z/2 in degree 0 is onto, so only the group comparison rejects it
    point = fs.ChainComplex(basis={0: ("x",)}, boundary={}, complete_above=True)
    halves = fs.ChainComplex(basis={0: ("y",), 1: ("e",)}, boundary={1: [{0: 2}]},
                             complete_above=True)
    onto = {0: [{0: 1}]}
    assert not fs.induced_map_is_isomorphism(point, halves, onto, 0)
    assert not transform_induced_is_isomorphism(point, halves, onto, 0)
    assert fs.induced_map_is_isomorphism(point, point, onto, 0)


@st.composite
def chain_complexes(draw):
    """Sparse complexes C_3 -> ... -> C_0, zero above: d_1 is drawn, and each
    higher boundary's columns are small combinations of the dense oracle's
    kernel basis of the boundary below, so d d = 0 and torsion turns up."""
    dims = [draw(st.integers(1, 5)) for _ in range(4)]
    below = [[draw(ENTRIES) for _ in range(dims[1])] for _ in range(dims[0])]
    boundary = {1: sparse_columns(below)}
    for n in (2, 3):
        k = kernel_basis(below)
        rank = len(k[0]) if k else 0
        coefficients = [[draw(ENTRIES) for _ in range(rank)] for _ in range(dims[n])]
        below = [[sum(c * x for c, x in zip(coefficients[j], row)) for j in range(dims[n])]
                 for row in k]
        boundary[n] = sparse_columns(below)
    return fs.ChainComplex(basis={n: range(d) for n, d in enumerate(dims)}, boundary=boundary,
                           complete_above=True)


def twin(cx):
    """An equal complex that shares no column and no cached reduction with cx."""
    return fs.ChainComplex(basis=dict(cx.basis), complete_above=cx.complete_above,
                           boundary={n: [dict(c) for c in cols] for n, cols in cx.boundary.items()})


def eliminated(cx1, cx2, chain_map, n):
    """``induced_map_is_isomorphism`` with the identity check bypassed, on fresh twins."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(homology_module, "_identity_on_equal_boundaries", lambda *args: False)
        return fs.induced_map_is_isomorphism(twin(cx1), twin(cx2), chain_map, n)


def identity_map(cx):
    return {n: [{i: 1} for i in range(cx.dim(n))] for n in cx.basis}


@settings(max_examples=200, deadline=None)
@given(chain_complexes())
def test_identity_on_equal_boundaries_agrees_with_elimination(cx):
    """The identity between equal complexes is decided without elimination,
    and elimination and the dense transform oracle also find an isomorphism."""
    assert cx.check_dd_zero()
    other, ident = twin(cx), identity_map(cx)
    for n in range(cx.top_degree + 1):
        assert homology_module._identity_on_equal_boundaries(cx, other, ident, n)
        assert fs.induced_map_is_isomorphism(cx, other, ident, n)
        assert eliminated(cx, other, ident, n)
        assert transform_induced_is_isomorphism(cx, other, ident, n)
    assert cx._reductions == other._reductions == {}


@settings(max_examples=300, deadline=None)
@given(chain_complexes(), st.data())
def test_one_changed_entry_or_map_column_takes_the_elimination_path(cx, data):
    """Changing one entry of d_n or d_{n+1} in either complex, or one column of
    the identity map, fails the check, and the answer is elimination's."""
    n = data.draw(st.integers(0, cx.top_degree), label="n")
    cx1, cx2, f = cx, twin(cx), identity_map(cx)
    if data.draw(st.booleans(), label="change the map"):
        i = data.draw(st.integers(0, cx.dim(n) - 1), label="column")
        f[n][i] = data.draw(st.dictionaries(st.integers(0, cx.dim(n) - 1), st.integers(-3, 3).filter(bool),
                                            max_size=3).filter(lambda col: col != {i: 1}), label="new column")
    else:
        m = data.draw(st.sampled_from([m for m in (n, n + 1) if 1 <= m <= cx.top_degree]), label="degree")
        changed = data.draw(st.sampled_from([cx1, cx2]), label="complex")
        col = changed.boundary[m][data.draw(st.integers(0, cx.dim(m) - 1), label="column")]
        r = data.draw(st.integers(0, cx.dim(m - 1) - 1), label="row")
        entry = col.get(r, 0) + data.draw(st.integers(-3, 3).filter(bool), label="added")
        col.pop(r, None)
        if entry:
            col[r] = entry
    assert not homology_module._identity_on_equal_boundaries(cx1, cx2, f, n)
    assert fs.induced_map_is_isomorphism(cx1, cx2, f, n) == eliminated(cx1, cx2, f, n)


def test_induced_map_raises_as_homology_does_whatever_the_map_holds():
    """Past a truncation, or below degree 0, the error is ``homology``'s even
    where the map looks like an identity between equal boundaries."""
    cx = fs.chain_complex(fs.nerve(z2(), 2))
    f = {**identity_map(cx), -1: [], 3: []}
    for n in (-1, 2, 3):
        with pytest.raises(InsufficientTruncation) as expected:
            fs.homology(cx, n)
        with pytest.raises(InsufficientTruncation, match=f"^{expected.value}$"):
            fs.induced_map_is_isomorphism(cx, twin(cx), f, n)


@pytest.fixture()
def reductions(monkeypatch):
    """Kernel flags of each reduction of a boundary, by (complex id, degree).

    A reduction counts when ``_reduce`` gets the very list that
    ``boundary_columns`` just returned, so the stacked matrices of
    ``induced_map_is_isomorphism`` are not counted.
    """
    seen: dict = {}
    last: dict = {}
    columns_of, reduce = ChainComplex.boundary_columns, homology_module._reduce

    def boundary_columns(self, n):
        last["columns"], last["key"] = columns_of(self, n), (id(self), n)
        return last["columns"]

    def counted(columns, kernel):
        if columns is last.get("columns"):
            seen.setdefault(last["key"], []).append(kernel)
        return reduce(columns, kernel)

    monkeypatch.setattr(ChainComplex, "boundary_columns", boundary_columns)
    monkeypatch.setattr(homology_module, "_reduce", counted)
    return seen


def test_homology_reduces_each_nerve_boundary_once(reductions):
    cx = fs.chain_complex(fs.nerve(s3(), 4))
    assert [str(fs.homology(cx, n)) for n in range(4)] == \
        ["H_0 = Z", "H_1 = Z/2", "H_2 = 0", "H_3 = Z/6"]
    assert reductions == {(id(cx), n): [False] for n in range(5)}


def test_milnor_compare_reduces_only_the_homology_boundaries(reductions, monkeypatch, tmp_path,
                                                             capsys):
    """The comparison map is the identity between equal boundaries, so the
    nerve comparison reduces no boundary, and ``--homology 1`` reduces B's d_1
    and d_2 once each."""
    built = []

    def recorded(s):
        built.append(fs.chain_complex(s))
        return built[-1]

    monkeypatch.setattr(cli, "chain_complex", recorded)
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(jio.groupoid_to_json(z3())))
    base = ["milnor", "--groupoid", str(path), "--levels", "4", "--space", "B", "--compare-nerve"]
    assert main(base) == 0
    assert [line for line in capsys.readouterr().out.splitlines() if "agreement" in line] == \
        [f"[PASS] homology-agreement-degree-{n}" for n in range(3)]
    assert len(built) == 2 and reductions == {}
    built.clear()
    assert main(base + ["--homology", "1"]) == 0
    assert "H_1 = Z/3" in capsys.readouterr().out.splitlines()
    assert reductions == {(id(built[0]), 1): [False], (id(built[0]), 2): [False]}
