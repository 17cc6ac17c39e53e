from __future__ import annotations

from math import comb

import pytest

import finstack as fs
from finstack.errors import LevelInactive, NotSameOrbit
import finstack.milnor as milnor
from finstack.milnor import translate
from chain_oracle import lookup_levels
from milnor_oracle import arrows, orbit_quotient
from support import groupoid_zoo, is_sparse_chain_map, pair2, pt, s3, z2, z3

MILNOR_ZOO = groupoid_zoo() + [("z2+pt", fs.disjoint_union(z2(), pt()))]


def test_join_counts_octahedron():
    e = fs.milnor_E(z2(), 2)
    assert [e.count(k) for k in range(3)] == [6, 12, 8]


def test_join_point_interval():
    e = fs.milnor_E(pt(), 1)
    cx = fs.chain_complex(e)
    assert fs.homology(cx, 0).pair() == (1, ())
    assert fs.homology(cx, 1).pair() == (0, ())


def test_join_pair_groupoid_level_zero():
    e = fs.milnor_E(pair2(), 0)
    assert e.count(0) == 4
    by_source = {}
    for _, arrow in e.simplices[0]:
        by_source.setdefault(pair2().src[arrow], 0)
        by_source[pair2().src[arrow]] += 1
    assert sorted(by_source.values()) == [2, 2]


def test_total_space_sphere_homology():
    for levels in (2, 3):
        cx = fs.chain_complex(fs.milnor_E(z2(), levels))
        assert fs.homology(cx, 0).pair() == (1, ())
        for k in range(1, levels):
            assert fs.homology(cx, k).pair() == (0, ())
        assert fs.homology(cx, levels).pair() == (1, ())


def test_total_space_connectivity_window_z3():
    cx = fs.chain_complex(fs.milnor_E(z3(), 3))
    assert fs.homology(cx, 0).pair() == (1, ())
    for k in range(1, 3):
        assert fs.homology(cx, k).pair() == (0, ())


def test_quotient_projective_spaces():
    expected = {
        2: [(1, ()), (0, (2,)), (0, ())],
        3: [(1, ()), (0, (2,)), (0, ()), (1, ())],
        4: [(1, ()), (0, (2,)), (0, ()), (0, (2,)), (0, ())],
    }
    for levels, values in expected.items():
        cx = fs.chain_complex(fs.milnor_B(z2(), levels))
        for k, pair in enumerate(values):
            assert fs.homology(cx, k).pair() == pair


def test_quotient_of_contractible_groupoid():
    cx = fs.chain_complex(fs.milnor_B(pair2(), 2))
    assert fs.homology(cx, 0).pair() == (1, ())
    assert fs.homology(cx, 1).pair() == (0, ())


def test_orbits_are_free():
    g = z2()
    b = orbit_quotient(g, 2)
    for k, orbit_map in b.orbit.items():
        for simplex, rep in orbit_map.items():
            translations = g.morphisms_into(g.src[arrows(simplex)[0]])
            members = {translate(g, gamma, simplex) for gamma in translations}
            assert rep in members
            assert len(members) == len(translations)


def test_section_normalizes_requested_level():
    g = z2()
    b = fs.milnor_B(g, 2)
    assert fs.milnor_section(b, ((0,), "*"), 0) == ((0,), 0)
    # the B edge from level 0 to level 2 labelled 1
    assert fs.milnor_section(b, ((0, 2), (1,)), 0) == ((0, 2), ((0, 1),))
    assert fs.milnor_section(b, ((0, 2), (1,)), 2) == ((0, 2), ((1, 0),))
    with pytest.raises(LevelInactive):
        fs.milnor_section(b, ((0, 2), (1,)), 1)


def test_section_is_unique_identity_representative():
    g = z3()
    b = fs.milnor_B(g, 2)
    quotient = orbit_quotient(g, 2)
    for k, cells in b.simplices.items():
        for cell in cells:
            subset = cell[0]
            orbit = quotient.orbit[k][fs.milnor_section(b, cell, subset[0])]
            for level in subset:
                section = fs.milnor_section(b, cell, level)
                assert g.is_identity(dict(zip(subset, arrows(section)))[level])
                assert quotient.orbit[k][section] == orbit
                # E -> B takes the section back to the cell
                assert (subset, fs.milnor_to_nerve(g, section)) == cell


def test_pairing_values_and_laws():
    g = z2()
    assert fs.milnor_pairing(g, ((0,), 1), ((0,), 0)) == 1
    assert fs.milnor_pairing(g, ((0,), 1), ((0,), 1)) == 0
    with pytest.raises(NotSameOrbit):
        fs.milnor_pairing(g, ((0,), 0), ((1,), 0))


def test_pairing_composition_law_exhaustive():
    g = z3()
    e = fs.milnor_E(g, 1)
    b = orbit_quotient(g, 1)
    for k, simplices in e.simplices.items():
        orbits: dict = {}
        for s in simplices:
            orbits.setdefault(b.orbit[k][s], []).append(s)
        for members in orbits.values():
            for e1 in members:
                assert g.is_identity(fs.milnor_pairing(g, e1, e1))
                for e2 in members:
                    for e3 in members:
                        left = g.compose(fs.milnor_pairing(g, e1, e2),
                                         fs.milnor_pairing(g, e2, e3))
                        assert left == fs.milnor_pairing(g, e1, e3)
                    gamma = fs.milnor_pairing(g, e1, e2)
                    assert translate(g, gamma, e2) == e1


def test_projection_to_nerve_values():
    g = z2()
    assert fs.milnor_to_nerve(g, ((0,), 1)) == "*"
    assert fs.milnor_to_nerve(g, ((0, 1), ((0, 1),))) == (1,)
    # representative independence on a translated edge
    assert fs.milnor_to_nerve(g, ((0, 1), ((1, 0),))) == fs.milnor_to_nerve(g, ((0, 1), ((0, 1),)))


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_projection_representative_independent(name, g):
    levels = 2
    b = orbit_quotient(g, levels)
    for k, orbit_map in b.orbit.items():
        for simplex, rep in orbit_map.items():
            assert fs.milnor_to_nerve(g, simplex) == fs.milnor_to_nerve(g, rep)


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_projection_commutes_with_faces(name, g):
    levels = 2
    e = fs.milnor_E(g, levels)
    s = fs.nerve(g, levels)
    for k in range(1, levels + 1):
        for simplex in e.simplices[k]:
            image = fs.milnor_to_nerve(g, simplex)
            for j in range(k + 1):
                face_then_project = fs.milnor_to_nerve(g, e.face(k, j, simplex))
                project_then_face = s.face(k, j, image)
                assert face_then_project == project_then_face


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_comparison_map_is_chain_map(name, g):
    levels = 3
    b = fs.milnor_B(g, levels)
    ncx = fs.chain_complex(fs.nerve(g, levels))
    bcx = fs.chain_complex(b)
    cmap = fs.comparison_chain_map(b, ncx)
    assert [len(cmap[k]) for k in range(levels + 1)] == [b.count(k) for k in range(levels + 1)]
    assert is_sparse_chain_map(bcx, ncx, cmap, levels)


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_comparison_induces_homology_isomorphisms(name, g):
    levels = 3
    b = fs.milnor_B(g, levels)
    ncx = fs.chain_complex(fs.nerve(g, levels))
    bcx = fs.chain_complex(b)
    cmap = fs.comparison_chain_map(b, ncx)
    for n in range(levels - 1):
        assert fs.induced_map_is_isomorphism(bcx, ncx, cmap, n)


@pytest.mark.parametrize("name,g", MILNOR_ZOO)
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_direct_quotient_matches_orbit_oracle(name, g, levels):
    b = fs.milnor_B(g, levels)
    quotient = orbit_quotient(g, levels)

    def orbit(k, cell):
        return quotient.orbit[k][fs.milnor_section(b, cell, cell[0][0])]

    assert [b.count(k) for k in range(levels + 1)] == \
        [quotient.count(k) for k in range(levels + 1)]
    for k in range(levels + 1):
        assert {orbit(k, cell) for cell in b.simplices[k]} == set(quotient.simplices[k])
    for k in range(1, levels + 1):
        for cell in b.simplices[k]:
            for j in range(k + 1):
                assert orbit(k - 1, b.face(k, j, cell)) == quotient.face(k, j, orbit(k, cell))
    bcx = fs.chain_complex(b)
    ocx = fs.chain_complex(quotient)
    for n in range(levels + 1):
        assert fs.homology(bcx, n) == fs.homology(ocx, n)


@pytest.mark.parametrize("space", [fs.milnor_E, fs.milnor_B], ids=["E", "B"])
@pytest.mark.parametrize("name,g", MILNOR_ZOO)
@pytest.mark.parametrize("levels", [0, 1, 2, 3, 4])
def test_milnor_chain_levels_match_face_lookup(space, name, g, levels):
    """Rows by index arithmetic are the rows that face lookups find, and each
    degree is in level-product order: by level subset, then by factor string."""
    s = space(g, levels)
    got = [(gens, [list(row) for row in rows]) for gens, rows in s.chain_levels()]
    assert got == [(gens, list(rows)) for gens, rows in lookup_levels(s)]
    assert [gens for gens, _ in got] == [s.simplices[k] for k in range(levels + 1)]
    for k, cells in s.simplices.items():
        position = {x: i for i, x in enumerate(s.factor.simplices[k])}
        keys = [(subset, position[x]) for subset, x in cells]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.mark.parametrize("space", ["E", "B"])
@pytest.mark.parametrize("name,g", MILNOR_ZOO)
def test_milnor_counts_are_level_products(space, name, g):
    """E's factor has sum |out(y)|^(k+1) k-simplices, one per k+1 arrows of one
    source, and B's sum |out(y)|^k, one per string of k arrows."""
    levels = 4
    s = (fs.milnor_E if space == "E" else fs.milnor_B)(g, levels)
    for k in range(levels + 1):
        strings = sum(len(g.morphisms_from(y)) ** (k + (space == "E")) for y in g.objects)
        assert s.factor.count(k) == strings
        assert s.count(k) == comb(levels + 1, k + 1) * strings == len(s.simplices[k])


@pytest.mark.parametrize("name,g", MILNOR_ZOO)
def test_comparison_columns_are_the_projection(name, g):
    levels = 3
    b = fs.milnor_B(g, levels)
    ncx = fs.chain_complex(fs.nerve(g, levels))
    cmap = fs.comparison_chain_map(b, ncx)
    assert sorted(cmap) == list(range(levels + 1))
    for k, cells in b.simplices.items():
        rows = {x: i for i, x in enumerate(ncx.basis[k])}
        assert cmap[k] == [{rows[x]: 1} if x in rows else {} for _, x in cells]


def test_milnor_chains_build_no_face(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a face was built")

    for cls in (milnor.MilnorComplex, fs.TruncatedSimplicialSet):
        monkeypatch.setattr(cls, "face", forbidden)
    monkeypatch.setattr(milnor, "translate", forbidden)
    for space in (fs.milnor_E, fs.milnor_B):
        s = space(s3(), 4)
        cx = fs.chain_complex(s)
        # neither the cell table nor the factor's string table was built
        assert "simplices" not in vars(s) and "simplices" not in vars(s.factor)
        assert cx.basis == s.simplices
        assert [len(cx.boundary[k]) for k in range(1, 5)] == [s.count(k) for k in range(1, 5)]


@pytest.mark.parametrize("name,g", MILNOR_ZOO)
def test_dd_zero_on_factor_rows_matches_chains(name, g):
    """The d^2 = 0 verdict read off the factor's face rows is the full chains' verdict."""
    for space, top in ((fs.milnor_E, 4), (fs.milnor_B, 5)):
        for levels in range(top + 1):
            s = space(g, levels)
            assert (s.check_dd_zero(), fs.chain_complex(s).check_dd_zero()) == (True, True)


def corrupted_string_levels(degree: int, index: int, j: int, value: int):
    """``string_levels`` with entry j of the face row of string ``index`` in
    ``degree`` set to ``value``; the rows it builds from are untouched."""
    real = milnor.string_levels

    def corrupted(*args):
        for k, (strings, rows) in enumerate(real(*args)):
            if k == degree:
                rows = [list(row) for row in rows]
                rows[index][j] = value
            yield strings, rows

    return corrupted


@pytest.mark.parametrize("space,name,g", [(fs.milnor_B, "Z2", z2()), (fs.milnor_B, "pair", pair2()),
                                          (fs.milnor_E, "Z2", z2())])
def test_dd_zero_on_factor_rows_matches_chains_under_corruption(monkeypatch, space, name, g):
    """Every single-entry change of the factor's face rows at 3 levels gets the
    same verdict from the factor rows and from the full chains."""
    levels = 3
    category = space(g, levels).factor.category
    clean = list(milnor.string_levels(category, category.morphisms, levels))
    verdicts = []
    for k in range(1, levels + 1):
        for index, row in enumerate(clean[k][1]):
            for j, entry in enumerate(row):
                for value in range(len(clean[k - 1][0])):
                    if value != entry:
                        monkeypatch.setattr(milnor, "string_levels",
                                            corrupted_string_levels(k, index, j, value))
                        s = space(g, levels)
                        verdict = s.check_dd_zero()
                        assert verdict == fs.chain_complex(s).check_dd_zero()
                        verdicts.append(verdict)
    assert False in verdicts


def test_dd_zero_accepts_a_change_between_parallel_arrows(monkeypatch):
    """The two arrows of Z/2 have the same faces, so pointing a top-degree face
    of B at 2 levels at the other arrow keeps d^2 = 0, by both checks."""
    g = z2()
    _, rows = list(milnor.string_levels(g, g.morphisms, 2))[2]
    monkeypatch.setattr(milnor, "string_levels", corrupted_string_levels(2, 0, 0, 1 - rows[0][0]))
    s = fs.milnor_B(g, 2)
    assert (s.check_dd_zero(), fs.chain_complex(s).check_dd_zero()) == (True, True)
