from __future__ import annotations

import pytest

import finstack as fs
from finstack.errors import InsufficientTruncation
import finstack.resolution
import homology_closed_form as hc
from finstack.homology import invariant_factors, kernel_columns, lattice_insert
from finstack.resolution import free_resolution
from resolution_oracle import free_resolution as oracle_free_resolution, kernel_free_resolution
from support import (
    apply_columns,
    dihedral4,
    elementary_abelian8,
    groupoid_zoo,
    quaternion8,
    s3,
    weak_equivalence_zoo,
)


def oracle_zoo():
    cases = [(name, g, 6) for name, g in groupoid_zoo()]
    cases += [(f"target-{name}", f.target, 6) for name, f in weak_equivalence_zoo()]
    cases.append(("S3", s3(), 6))
    cases.append(("S3+Z4", fs.disjoint_union(s3(), fs.cyclic_groupoid(4)), 5))
    cases.append(("D4", dihedral4(), 4))
    return cases


@pytest.mark.parametrize("g,dim", [pytest.param(g, dim, id=name) for name, g, dim in oracle_zoo()])
def test_resolution_homology_matches_skeleton_nerve(g, dim):
    """The nerve chains of the skeleton, which `homology` eliminated before, stay the oracle."""
    cx = fs.resolution_chains(g, dim)
    nerve_cx = fs.chain_complex(fs.nerve(fs.skeleton(g), dim))
    assert cx.check_dd_zero()
    assert [fs.homology(cx, n) for n in range(dim)] == [fs.homology(nerve_cx, n) for n in range(dim)]


def test_resolution_sums_components_in_invariant_factor_form():
    cx = fs.resolution_chains(fs.disjoint_union(s3(), fs.cyclic_groupoid(4)), 5)
    assert str(fs.homology(cx, 0)) == "H_0 = Z^2"
    assert str(fs.homology(cx, 3)) == "H_3 = Z/2 (+) Z/12"


def multiplication_table(g):
    aut = g.morphisms
    index = {a: i for i, a in enumerate(aut)}
    return [[index[g.compose(a, b)] for b in aut] for a in aut]


def translated_columns(images, table):
    """Every column g . z of d_n as a Z-matrix, with g . (h e_i) = (g h) e_i."""
    m = len(table)
    columns = []
    for z in images:
        for g in range(m):
            column = {}
            for k, c in z.items():
                i, h = divmod(k, m)
                column[i * m + table[g][h]] = c
            columns.append(column)
    return columns


@pytest.mark.parametrize("g,cap", [
    (fs.cyclic_groupoid(1), 3), (fs.cyclic_groupoid(2), 6), (fs.cyclic_groupoid(5), 6),
    (fs.cyclic_groupoid(6), 6), (s3(), 7), (dihedral4(), 5), (fs.symmetric_groupoid(4), 3),
], ids=["Z1", "Z2", "Z5", "Z6", "S3", "D4", "S4"])
def test_free_resolution_is_exact(g, cap):
    """im d_n = ker d_{n-1}: the translates of d_n's generator images lie in ker d_{n-1}
    and have only unit invariant factors, rank ker d_{n-1} of them."""
    table = multiplication_table(g)
    previous = [{0: 1} for _ in table]  # the augmentation ZG -> Z
    images = free_resolution(table, cap)
    assert len(images) == cap
    for gens in images:
        columns = translated_columns(gens, table)
        assert all(apply_columns(previous, z) == {} for z in gens)
        factors = invariant_factors(columns)
        assert factors == [1] * (len(previous) - len(invariant_factors(previous)))
        previous = columns


def test_free_resolution_stops_at_unit_invariant_factors(monkeypatch):
    """Full rank is not enough: the translates of a kernel vector can have full
    rank and still span a sublattice of finite index.

    For Z/3, ker d_0 has the Z-basis z1 = e0 + e1 - 2 e2, z2 = e2 - e0.  The
    translates of z1 have rank 2, the rank of the kernel, but invariant factors
    [1, 3]; only with z2 added do they span it.
    """
    basis = [{0: 1, 1: 1, 2: -2}, {0: -1, 2: 1}]
    monkeypatch.setattr(finstack.resolution, "kernel_columns", lambda columns: basis)
    table = multiplication_table(fs.cyclic_groupoid(3))
    assert invariant_factors(translated_columns(basis[:1], table)) == [1, 3]
    images = free_resolution(table, 1)
    assert images == [basis]
    assert invariant_factors(translated_columns(images[0], table)) == [1, 1]


def vertex_tables(g):
    """The multiplication table of Aut(x) for the first object x of each component."""
    for component in fs.pi0(g):
        aut = g.hom(component[0], component[0])
        index = {a: i for i, a in enumerate(aut)}
        yield [[index[g.compose(a, b)] for b in aut] for a in aut]


def zoo_tables():
    return [(f"{name}-{i}", table) for name, g in groupoid_zoo() for i, table in enumerate(vertex_tables(g))]


def oracle_groups():
    cases = [(name, table, 6) for name, table in zoo_tables()]
    cases += [(name, multiplication_table(g), cap) for name, g, cap in [
        ("D4", dihedral4(), 6), ("Q8", quaternion8(), 6), ("Z2^3", elementary_abelian8(), 6),
        ("S3", s3(), 8), ("S4", fs.symmetric_groupoid(4), 5)]]
    return cases


@pytest.mark.parametrize("table,cap", [pytest.param(t, cap, id=name) for name, t, cap in oracle_groups()])
def test_free_resolution_matches_invariant_factor_oracle(table, cap):
    """Lattice membership keeps exactly the generators the invariant-factor greedy keeps."""
    assert free_resolution(table, cap) == oracle_free_resolution(table, cap)


@pytest.mark.parametrize("table,cap", [pytest.param(t, cap, id=name) for name, t, cap in
                                       oracle_groups() + [("S5", multiplication_table(fs.symmetric_groupoid(5)), 3)]])
def test_free_resolution_matches_per_degree_kernel_oracle(table, cap):
    """Reading each kernel basis off the inserts keeps exactly the generators
    that eliminating every boundary afresh keeps."""
    assert free_resolution(table, cap) == kernel_free_resolution(table, cap)


def test_free_resolution_eliminates_only_the_augmentation(monkeypatch):
    calls = []

    def counted(columns):
        calls.append(len(columns))
        return kernel_columns(columns)

    monkeypatch.setattr(finstack.resolution, "kernel_columns", counted)
    table = multiplication_table(s3())
    assert free_resolution(table, 6) == kernel_free_resolution(table, 6)
    assert calls == [6]


def recorded_kernels(monkeypatch, table, cap):
    """``free_resolution``'s images and the kernel lists its inserts filled,
    one per degree that inserted with transforms."""
    kernels = []

    def recording(echelon, z, v=None, transforms=None, kernel=None):
        if kernel is not None and not any(kernel is seen for seen in kernels):
            kernels.append(kernel)
        return lattice_insert(echelon, z, v, transforms, kernel)

    monkeypatch.setattr(finstack.resolution, "lattice_insert", recording)
    return free_resolution(table, cap), kernels


def spans_within(lattice: list, members: list) -> bool:
    """Whether every member lies in the Z-span of the lattice columns."""
    echelon: dict = {}
    for z in lattice:
        lattice_insert(echelon, dict(z))
    return not any(lattice_insert(echelon, dict(z)) for z in members)


KERNEL_CASES = [(name, table, 5) for name, table in zoo_tables()] + [
    ("D4", multiplication_table(dihedral4()), 6), ("S4", multiplication_table(fs.symmetric_groupoid(4)), 5)]


@pytest.mark.parametrize("table,cap", [pytest.param(t, cap, id=name) for name, t, cap in KERNEL_CASES])
def test_insert_transforms_span_each_kernel(monkeypatch, table, cap):
    """Below the top degree, the transforms of d_n's zero-reduced inserts lie in
    ker d_n and span the lattice of ``kernel_columns(d_n)``, and the next
    degree's generators are among them."""
    images, kernels = recorded_kernels(monkeypatch, table, cap)
    assert len(kernels) == (cap - 1 if images[0] else 0)
    for n, kernel in enumerate(kernels, 1):
        columns = translated_columns(images[n - 1], table)
        assert all(apply_columns(columns, z) == {} for z in kernel)
        theirs = kernel_columns(columns)
        assert spans_within(kernel, theirs) and spans_within(theirs, kernel)
        assert all(z in kernel for z in images[n])


def test_cyclic_resolutions_have_one_generator_per_degree():
    for m in range(2, 9):
        images = free_resolution(multiplication_table(fs.cyclic_groupoid(m)), 5)
        assert [len(gens) for gens in images] == [1] * 5


def test_resolution_chains_are_truncated_at_cap():
    cx = fs.resolution_chains(fs.cyclic_groupoid(2), 2)
    assert cx.top_degree == 2
    with pytest.raises(InsufficientTruncation) as info:
        fs.homology(cx, 2)
    assert str(info.value) == "degree 2 needs truncation cap >= 3, have 2"


def z(m):
    return fs.cyclic_groupoid(m)


CLOSED_FORMS = [
    ("Z6", lambda: fs.cyclic_groupoid(6), lambda top: hc.cyclic(6, top)),
    ("Z2xZ2", lambda: hc.product_group(z(2), z(2)),
     lambda top: hc.kunneth(hc.cyclic(2, top), hc.cyclic(2, top))),
    ("Z2xZ4", lambda: hc.product_group(z(2), z(4)),
     lambda top: hc.kunneth(hc.cyclic(2, top), hc.cyclic(4, top))),
    ("Z3xZ3", lambda: hc.product_group(z(3), z(3)),
     lambda top: hc.kunneth(hc.cyclic(3, top), hc.cyclic(3, top))),
    ("Z4xZ8", lambda: hc.product_group(z(4), z(8)),
     lambda top: hc.kunneth(hc.cyclic(4, top), hc.cyclic(8, top))),
    ("Z2^3", lambda: hc.product_group(z(2), z(2), z(2)),
     lambda top: hc.kunneth(hc.kunneth(hc.cyclic(2, top), hc.cyclic(2, top)), hc.cyclic(2, top))),
    ("S3", s3, lambda top: hc.dihedral(3, top)),
    ("D10", lambda: hc.dihedral_group(5), lambda top: hc.dihedral(5, top)),
    ("D14", lambda: hc.dihedral_group(7), lambda top: hc.dihedral(7, top)),
    ("Q8", lambda: hc.quaternion_group(2), lambda top: hc.quaternion(2, top)),
    ("Q16", lambda: hc.quaternion_group(4), lambda top: hc.quaternion(4, top)),
]
CLOSED_FORM_TOP = 13


def resolution_homology(g, top: int) -> list:
    """H_0, ..., H_top of ``resolution_chains`` as (free rank, invariant factors)."""
    cx = fs.resolution_chains(g, top + 1)
    return [fs.homology(cx, n).pair() for n in range(top + 1)]


@pytest.mark.parametrize("orders, factors", [
    ((), ()), ((1, 1), ()), ((2, 3), (6,)), ((2, 4, 3), (2, 12)), ((4, 2, 2), (2, 2, 4)),
    ((6, 10, 15), (30, 30)), ((9, 3, 27), (3, 9, 27))])
def test_closed_form_normalizer_gives_invariant_factors(orders, factors):
    assert hc.normalize((0, orders)) == (0, factors)


@pytest.mark.parametrize("group, form", [pytest.param(g, f, id=name) for name, g, f in CLOSED_FORMS])
def test_resolution_homology_matches_closed_forms(group, form):
    """Brown's closed forms (cyclic, Künneth, periodic of period 4) reach
    degrees no nerve and no bar complex does; they share no code with
    ``free_resolution`` or ``lattice_insert``."""
    assert resolution_homology(group(), CLOSED_FORM_TOP) == \
        [hc.normalize(h) for h in form(CLOSED_FORM_TOP)]


def assert_transfer(g, top: int) -> None:
    """|G| annihilates H_n(G) for n > 0 (Brown, ch. III, §10): no free part,
    and every invariant factor divides |G|."""
    for free, factors in resolution_homology(g, top)[1:]:
        assert free == 0 and all(len(g.morphisms) % d == 0 for d in factors)


@pytest.mark.parametrize("group", [pytest.param(g, id=name) for name, g, _ in CLOSED_FORMS])
def test_group_order_annihilates_homology_on_the_closed_form_zoo(group):
    assert_transfer(group(), CLOSED_FORM_TOP)


@pytest.mark.parametrize("table", [pytest.param(t, id=name) for name, t, _ in oracle_groups()])
def test_group_order_annihilates_homology_on_the_oracle_groups(table):
    """Arrows are labelled so that their id order is the table's, which keeps
    the resolution the one the table's own group gets."""
    label = [f"g{i:03d}" for i in range(len(table))]
    unit = table.index(list(range(len(table))))
    g = fs.groupoid_from_group(label, {(label[a], label[b]): label[c] for a, row in enumerate(table)
                                       for b, c in enumerate(row)}, label[unit])
    assert_transfer(g, 7)
