from __future__ import annotations

import json
from math import comb

import pytest

import finstack as fs
import finstack.jsonio as jio
from finstack.cli import main
from finstack.errors import LevelInactive, NotSameOrbit
import finstack.milnor as milnor
import finstack.simplicial as simplicial
from finstack.milnor import translate
from chain_oracle import lookup_levels
from milnor_oracle import (LevelProduct, arrows, incidence, install_level_product,
                           level_product_chains, morse_boundary, orbit_quotient, partner,
                           projection_chain_map)
from nerve_oracle import tabulated_nerve
from support import (assert_levels_match_oracle, basis_strings, corrupted_string_levels,
                     covered_corruptions, groupoid_zoo, is_sparse_chain_map, pair2, pt, s3, swap_action, z2, z3)

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
    for _, arrow in LevelProduct(e).simplices[0]:
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
    for k, cells in LevelProduct(b).simplices.items():
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
    for k, simplices in LevelProduct(e).simplices.items():
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
    e = LevelProduct(fs.milnor_E(g, levels))
    s = tabulated_nerve(g, levels)
    for k in range(1, levels + 1):
        for simplex in e.simplices[k]:
            image = fs.milnor_to_nerve(g, simplex)
            for j in range(k + 1):
                face_then_project = fs.milnor_to_nerve(g, e.face(k, j, simplex))
                project_then_face = s.face(k, j, image)
                assert face_then_project == project_then_face


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_comparison_map_is_chain_map(name, g):
    """The projection of all of B onto the nerve is a chain map."""
    levels = 3
    b = fs.milnor_B(g, levels)
    ncx = fs.chain_complex(fs.nerve(g, levels))
    bcx = level_product_chains(b)
    cmap = projection_chain_map(b, ncx)
    assert [len(cmap[k]) for k in range(levels + 1)] == [b.count(k) for k in range(levels + 1)]
    assert is_sparse_chain_map(bcx, ncx, cmap, levels)


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_comparison_induces_homology_isomorphisms(name, g):
    """The projection of all of B induces isomorphisms below degree levels - 1."""
    levels = 3
    b = fs.milnor_B(g, levels)
    ncx = fs.chain_complex(fs.nerve(g, levels))
    bcx = level_product_chains(b)
    cmap = projection_chain_map(b, ncx)
    for n in range(levels - 1):
        assert fs.induced_map_is_isomorphism(bcx, ncx, cmap, n)


@pytest.mark.parametrize("name,g", MILNOR_ZOO)
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_direct_quotient_matches_orbit_oracle(name, g, levels):
    b = fs.milnor_B(g, levels)
    p = LevelProduct(b)
    quotient = orbit_quotient(g, levels)

    def orbit(k, cell):
        return quotient.orbit[k][fs.milnor_section(b, cell, cell[0][0])]

    assert [b.count(k) for k in range(levels + 1)] == \
        [quotient.count(k) for k in range(levels + 1)]
    for k in range(levels + 1):
        assert {orbit(k, cell) for cell in p.simplices[k]} == set(quotient.simplices[k])
    for k in range(1, levels + 1):
        for cell in p.simplices[k]:
            for j in range(k + 1):
                assert orbit(k - 1, p.face(k, j, cell)) == quotient.face(k, j, orbit(k, cell))
    bcx = fs.chain_complex(b)
    ocx = fs.chain_complex(quotient)
    for n in range(levels + 1):
        assert fs.homology(bcx, n) == fs.homology(ocx, n)


@pytest.mark.parametrize("space", [fs.milnor_E, fs.milnor_B], ids=["E", "B"])
@pytest.mark.parametrize("name,g", MILNOR_ZOO)
@pytest.mark.parametrize("levels", [0, 1, 2, 3, 4])
def test_milnor_chain_levels_match_face_lookup(space, name, g, levels):
    """The level product's rows by index arithmetic are the rows that face
    lookups find, and each degree is in level-product order: by level subset,
    then by factor string."""
    s = LevelProduct(space(g, levels))
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
        assert s.count(k) == comb(levels + 1, k + 1) * strings == len(LevelProduct(s).simplices[k])


@pytest.mark.parametrize("name,g", MILNOR_ZOO)
def test_comparison_columns_are_the_projection(name, g):
    levels = 3
    b = fs.milnor_B(g, levels)
    ncx = fs.chain_complex(fs.nerve(g, levels))
    cmap = projection_chain_map(b, ncx)
    assert sorted(cmap) == list(range(levels + 1))
    labels = basis_strings(g, ncx)
    for k, cells in LevelProduct(b).simplices.items():
        rows = {x: i for i, x in enumerate(labels[k])}
        assert cmap[k] == [{rows[x]: 1} if x in rows else {} for _, x in cells]


def test_milnor_chains_build_no_face(monkeypatch):
    """Neither the Morse chains nor the level product's full chains build a
    face or translate a cell, and the Morse chains build no cell of the level
    product."""
    def forbidden(*args):
        raise AssertionError("a face was built")

    monkeypatch.setattr(milnor, "translate", forbidden)
    monkeypatch.setattr(LevelProduct, "face", forbidden)
    for space in (fs.milnor_E, fs.milnor_B):
        s = space(s3(), 4)
        morse = fs.chain_complex(s)
        cx = level_product_chains(s)
        assert cx.basis == LevelProduct(s).simplices
        assert [len(cx.boundary[k]) for k in range(1, 5)] == [s.count(k) for k in range(1, 5)]
        assert [morse.dim(k) for k in range(5)] == [s.factor.count_nondegenerate(k) for k in range(5)]


@pytest.mark.parametrize("name,g", MILNOR_ZOO)
def test_dd_zero_on_factor_rows_matches_chains(name, g):
    """The d^2 = 0 verdict read off the factor's face columns is the full chains' verdict."""
    for space, top in ((fs.milnor_E, 4), (fs.milnor_B, 5)):
        for levels in range(top + 1):
            s = space(g, levels)
            assert (s.certify(matching=False)[0], level_product_chains(s).check_dd_zero()) == (True, True)


@pytest.mark.parametrize("space,name,g", [(fs.milnor_B, "Z2", z2()), (fs.milnor_B, "pair", pair2()),
                                          (fs.milnor_E, "Z2", z2())])
def test_dd_zero_on_factor_rows_matches_chains_under_corruption(monkeypatch, space, name, g):
    """Every single-entry change of the factor's face columns at 3 levels gets
    the same verdict from the factor columns and from the full chains."""
    levels = 3
    category = space(g, levels).factor.category
    clean = list(simplicial.string_levels(category, category.morphisms, levels))
    verdicts = []
    for k in range(1, levels + 1):
        for index, row in enumerate(zip(*clean[k][1])):
            for j, entry in enumerate(row):
                for value in range(len(clean[k - 1][0])):
                    if value != entry:
                        monkeypatch.setattr(simplicial, "string_levels",
                                            corrupted_string_levels(k, index, j, value))
                        s = space(g, levels)
                        verdict = s.certify(matching=False)[0]
                        assert verdict == level_product_chains(s).check_dd_zero()
                        verdicts.append(verdict)
    assert False in verdicts


def test_dd_zero_accepts_a_change_between_parallel_arrows(monkeypatch):
    """The two arrows of Z/2 have the same faces, so pointing a top-degree face
    of B at 2 levels at the other arrow keeps d^2 = 0, by both checks."""
    g = z2()
    _, cols = list(simplicial.string_levels(g, g.morphisms, 2))[2]
    monkeypatch.setattr(simplicial, "string_levels", corrupted_string_levels(2, 0, 0, 1 - cols[0][0]))
    s = fs.milnor_B(g, 2)
    assert (s.certify(matching=False)[0], level_product_chains(s).check_dd_zero()) == (True, True)


def up_matched(p: LevelProduct, k: int) -> dict:
    """{k-cell matched up: its partner}."""
    matches = {cell: partner(p, cell) for cell in p.simplices[k]}
    return {cell: m[1] for cell, m in matches.items() if m and m[0] == "up"}


def has_cycle(graph: dict) -> bool:
    """Whether a directed graph {node: successors} has a cycle, by depth-first search."""
    state = dict.fromkeys(graph, 0)  # 0 unseen, 1 on the stack, 2 done
    for root in graph:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(graph[root]))]
        while stack:
            node, successors = stack[-1]
            nxt = next(successors, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state[nxt] == 1:
                return True
            elif not state[nxt]:
                state[nxt] = 1
                stack.append((nxt, iter(graph[nxt])))
    return False


@pytest.mark.parametrize("space", [fs.milnor_E, fs.milnor_B], ids=["E", "B"])
@pytest.mark.parametrize("name,g", MILNOR_ZOO)
@pytest.mark.parametrize("levels", [0, 1, 2, 3, 4])
def test_level_collapse_matching_cell_by_cell(space, name, g, levels):
    """On every cell, by labels: the matching is an involution with incidence
    +-1 and no closed V-path, every up partner's string is degenerate, the
    critical cells are the ({0..k}, x) with x identity-free, and following
    V-paths from them gives the factor's normalized boundary, which is what
    ``chain_levels`` yields."""
    s = space(g, levels)
    assert s.certify() == (True, None)
    morse, p = fs.chain_complex(s), LevelProduct(s)
    labels = basis_strings(s.factor.category, morse)
    for k, cells in p.simplices.items():
        critical = []
        for cell in cells:
            match = partner(p, cell)
            if match is None:
                critical.append(cell)
                continue
            kind, other = match
            assert partner(p, other) == ({"up": "down", "down": "up"}[kind], cell)
            if kind == "up":
                assert p.factor.is_degenerate(k + 1, other[1])
                assert incidence(p, k + 1, other, cell) in (1, -1)
        assert critical == [(tuple(range(k + 1)), x) for x in labels[k]]
    for k in range(levels):
        # sigma -> sigma' for every other face sigma' of sigma's up partner that is matched up
        ups = up_matched(p, k)
        faces = {sigma: {p.face(k + 1, j, tau) for j in range(k + 2)} for sigma, tau in ups.items()}
        assert not has_cycle({sigma: [f for f in faces[sigma] - {sigma} if f in ups] for sigma in ups})
    for k in range(1, levels + 1):
        index = {x: i for i, x in enumerate(labels[k - 1])}
        for x, column in zip(labels[k], morse.boundary[k]):
            flowed = morse_boundary(p, k, (tuple(range(k + 1)), x))
            assert {index[y]: v for (_, y), v in flowed.items()} == column


@pytest.mark.parametrize("space", [fs.milnor_E, fs.milnor_B], ids=["E", "B"])
@pytest.mark.parametrize("name,g", MILNOR_ZOO + [("S3", s3())])
def test_degeneracy_tables_match_labels(space, name, g):
    """The identity pass's degeneracy tables, by index arithmetic on the face
    rows, point at the strings that the oracle's degeneracies build."""
    assert_levels_match_oracle(space(g, 4).factor.category, 4)


@pytest.mark.parametrize("name,g", MILNOR_ZOO)
def test_morse_chains_are_the_normalized_nerve(name, g):
    """B's Morse chains are the nerve's normalized chains, zero above the
    levels; E's are its factor's; and the comparison map is the identity."""
    levels = 3
    b = fs.milnor_B(g, levels)
    ncx = fs.chain_complex(fs.nerve(g, levels))
    bcx = fs.chain_complex(b)
    assert (bcx.basis, bcx.boundary, bcx.complete_above, ncx.complete_above) == \
        (ncx.basis, ncx.boundary, True, False)
    cmap = fs.comparison_chain_map(b, ncx)
    assert cmap == {k: [{i: 1} for i in range(ncx.dim(k))] for k in range(levels + 1)}
    assert is_sparse_chain_map(bcx, ncx, cmap, levels)
    e = fs.milnor_E(g, levels)
    assert fs.chain_complex(e).boundary == fs.chain_complex(fs.nerve(e.factor.category, levels)).boundary


def milnor_argvs(path: str, space: str, levels: int) -> list:
    base = ["milnor", "--groupoid", path, "--levels", str(levels), "--space", space]
    argvs = [base] + [base + ["--homology", str(k)] for k in range(levels + 2)]
    if space == "B":
        argvs += [base + ["--compare-nerve"], base + ["--compare-nerve", "--homology", str(levels)]]
    return argvs


def run_all(capsys, argvs) -> list:
    results = []
    for argv in argvs:
        code = main(argv)
        out, err = capsys.readouterr()
        results.append((code, out, err))
    return results


@pytest.mark.parametrize("space", ["E", "B"])
@pytest.mark.parametrize("name,g", MILNOR_ZOO)
def test_reports_match_level_product_oracle(tmp_path, capsys, monkeypatch, space, name, g):
    """Through ``main()`` at levels 0..5, with and without ``--homology k`` (k up
    to levels + 1) and ``--compare-nerve``: the Morse complex gives the bytes
    and exit codes of eliminating the whole level product."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jio.groupoid_to_json(g)))
    argvs = [argv for levels in range(6) for argv in milnor_argvs(str(path), space, levels)]
    fast = run_all(capsys, argvs)
    with monkeypatch.context() as patched:
        install_level_product(patched)
        b = fs.milnor_B(g, 2)
        assert fs.chain_complex(b).dim(1) == b.count(1)
        slow = run_all(capsys, argvs)
    assert fast == slow
    assert all(code == 0 and not err for code, _, err in fast)


def test_s3_compare_matches_level_product_oracle(tmp_path, capsys, monkeypatch):
    """S3's B at 5 levels, the largest model the level product eliminates in about a second."""
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(jio.groupoid_to_json(s3())))
    argvs = [["milnor", "--groupoid", str(path), "--levels", "5", "--space", "B",
              "--compare-nerve", "--homology", "4"]]
    fast = run_all(capsys, argvs)
    install_level_product(monkeypatch)
    assert run_all(capsys, argvs) == fast
    assert fast[0][0] == 0 and "H_4 = 0" in fast[0][1].splitlines()


@pytest.mark.parametrize("space,name,g,levels", [("B", "Z2", z2(), 3), ("B", "pair", pair2(), 2),
                                                 ("E", "Z2", z2(), 2)])
def test_corrupted_face_row_leaves_homology_inconclusive(tmp_path, capsys, monkeypatch,
                                                         space, name, g, levels):
    """Every change of one face-column entry that the certificate reads makes it
    fail.  The job then prints no homology group, reads every homology verdict
    as inconclusive with the witness, and exits 3, or 1 where d^2 = 0 fails
    too; it never ends in a traceback."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jio.groupoid_to_json(g)))
    argv = ["milnor", "--groupoid", str(path), "--levels", str(levels), "--space", space, "--homology", "1"]
    names = ["homology-degree-1"]
    if space == "B":
        argv.append("--compare-nerve")
        names += [f"homology-agreement-degree-{n}" for n in range(levels - 1)]
    model = fs.milnor_E if space == "E" else fs.milnor_B
    g = jio.groupoid_from_json(jio.load_json(str(path)))  # with the document's ids, as the job sees them
    for k, index, j, value in covered_corruptions(model(g, levels).factor.category, levels):
        monkeypatch.setattr(simplicial, "string_levels", corrupted_string_levels(k, index, j, value))
        dd_zero, witness = model(g, levels).certify()
        assert witness is not None, (k, index, j, value)
        code = main(argv)
        out, err = capsys.readouterr()
        x, m = witness
        because = f"level-collapse matching uncertified: a face of s_{m} of {x!r} breaks an identity"
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("[")] == \
            [f"[INCONCLUSIVE] {name}: {because}" for name in names] + \
            [f"[{'PASS' if dd_zero else 'FAIL'}] boundary-squared-zero"]
        assert not err and not any(line.startswith("H_") for line in lines)
        assert code == (3 if dd_zero else 1)


def test_corruption_that_keeps_dd_zero_exits_inconclusive(tmp_path, capsys, monkeypatch):
    """Pointing face 0 of Z/2's top string (0, 0) at B's 2 levels to the
    other arrow keeps d^2 = 0 (the arrows are parallel) but breaks
    d_0 s_0 x = x for x = (0,), so every homology verdict is inconclusive and
    the job exits 3."""
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(jio.groupoid_to_json(z2())))
    g = jio.groupoid_from_json(jio.load_json(str(path)))
    _, cols = list(simplicial.string_levels(g, g.morphisms, 2))[2]
    monkeypatch.setattr(simplicial, "string_levels", corrupted_string_levels(2, 0, 0, 1 - cols[0][0]))
    assert fs.milnor_B(g, 2).certify() == (True, (("0",), 0))
    assert main(["milnor", "--groupoid", str(path), "--levels", "2", "--space", "B",
                 "--homology", "2", "--compare-nerve"]) == 3
    because = "level-collapse matching uncertified: a face of s_0 of ('0',) breaks an identity"
    assert capsys.readouterr().out.splitlines()[2:] == [
        "degree 0: 3 simplices", "degree 1: 6 simplices", "degree 2: 4 simplices",
        f"[INCONCLUSIVE] homology-degree-2: {because}",
        f"[INCONCLUSIVE] homology-agreement-degree-0: {because}",
        "[PASS] boundary-squared-zero"]


def test_one_factor_pass_serves_both_certificates(tmp_path, capsys, monkeypatch):
    """A homology job walks the factor's strings over all arrows once, for
    d^2 = 0 and the matching together; a count-only job builds no degeneracy
    table, so it checks no matching identity."""
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(jio.groupoid_to_json(s3())))
    base = ["milnor", "--groupoid", str(path), "--levels", "4", "--space", "B"]
    passes = []
    real = simplicial.string_levels

    def counted(g, arrows, cap):
        if arrows == g.morphisms:  # a pass over all arrows, not the normalized chains
            passes.append(cap)
        return real(g, arrows, cap)

    def forbidden(*args):
        raise AssertionError("the matching was checked")

    monkeypatch.setattr(simplicial, "string_levels", counted)
    assert main(base + ["--compare-nerve", "--homology", "3"]) == 0
    assert passes == [4]
    monkeypatch.setattr(simplicial, "_degeneracies", forbidden)
    assert main(base) == 0
    assert capsys.readouterr().out.endswith("[PASS] boundary-squared-zero\n")
    assert passes == [4, 4]
