from __future__ import annotations

import json
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import finstack as fs
import finstack.jsonio as jio
import finstack.simplicial as simplicial
from finstack.category import chain_category
from finstack.cli import main
from finstack.simplicial import simplicial_identity_violations
from chain_oracle import lookup_levels
from nerve_oracle import row_identity_witnesses, simplicial_identity_violations as tuple_scan, tabulated_nerve
from support import (assert_levels_match_oracle, basis_strings, corrupted_string_levels,
                     covered_corruptions, groupoid_zoo, pair2, pt, s3, weak_equivalence_zoo, z2, z3)


def test_nerve_of_point():
    s = fs.nerve(pt(), 3)
    for n in range(4):
        assert s.count(n) == 1
    assert s.count_nondegenerate(0) == 1
    for n in range(1, 4):
        assert s.count_nondegenerate(n) == 0


def test_nerve_counts_z2():
    s = fs.nerve(z2(), 3)
    assert [s.count(n) for n in range(4)] == [1, 2, 4, 8]
    assert [s.count_nondegenerate(n) for n in range(4)] == [1, 1, 1, 1]


def test_nerve_counts_pair_groupoid():
    # composable strings over the pair groupoid: 2^(n+1) chains of objects
    s = fs.nerve(pair2(), 2)
    assert s.count(0) == 2
    assert s.count(1) == 4
    assert s.count(2) == 8


def test_nerve_faces_compose():
    g = z2()
    _, _, (_, cols) = simplicial.string_levels(g, g.morphisms, 2)
    simplices = tabulated_nerve(g, 2).simplices
    ones, twos = simplices[1], simplices[2]
    x = twos.index((1, 1))  # the string (g, g)
    assert [ones[col[x]] for col in cols] == [(1,), (0,), (1,)]  # d_1 is the composite g.g = e


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_simplicial_identities_hold(name, g):
    assert simplicial_identity_violations(fs.nerve(g, 3)) == []


def test_simplicial_identities_hold_for_circle():
    assert simplicial_identity_violations(fs.simplicial_circle()) == []


IDENTITY_CASES = (
    [(name, fs.nerve(g, 4)) for name, g in groupoid_zoo()]
    + [(f"{name}-target", fs.nerve(f.target, 4)) for name, f in weak_equivalence_zoo()]
    + [(f"{name}-E-factor", fs.milnor_E(g, 3).factor) for name, g in groupoid_zoo()]
    + [("circle", fs.simplicial_circle()), ("S3-cap5", fs.nerve(s3(), 5))]
    + [(f"empty-cap{cap}", fs.nerve(fs.pair_groupoid([]), cap)) for cap in (0, 1)])


@pytest.mark.parametrize("name,s", IDENTITY_CASES, ids=[c[0] for c in IDENTITY_CASES])
def test_identity_pass_matches_tuple_scan(name, s):
    """The one pass over the face columns, the pass string by string over the
    face rows and the scan that builds every face and degeneracy of the
    tabulated nerve as a tuple all find every simplicial identity holding."""
    assert simplicial_identity_violations(s) == tuple_scan(s) == []
    assert assert_passes_agree(s) == []


def assert_passes_agree(s) -> list:
    """The column pass and the row oracle find the same witnesses, of every
    kind and of the kinds that ``MilnorComplex.certify`` asks for; returns
    those of every kind."""
    witnesses = s.identity_witnesses()
    assert witnesses == row_identity_witnesses(s)
    for kinds in (("dd", "ds"), ("dd",)):
        assert s.identity_witnesses(kinds) == row_identity_witnesses(s, kinds)
    return witnesses


EDGE_CASES = [("point-cap4", fs.nerve(pt(), 4)), ("Z2-cap4", fs.nerve(z2(), 4)),
              ("circle", fs.simplicial_circle())]


@pytest.mark.parametrize("name,s", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
def test_degrees_of_one_string_and_none(name, s):
    """``itemgetter`` of one index returns it bare and of none raises: the
    point has one string in each degree over all arrows and none
    identity-free above degree 0, Z/2 one identity-free string in each
    degree, and the circle none in degree 2.  The passes and the tuple scan
    agree there, and the chains are the tabulated nerve's."""
    g = s.category
    sizes = {"point-cap4": [1, 0, 0, 0, 0], "Z2-cap4": [1] * 5, "circle": [2, 2, 0]}[name]
    chains = fs.chain_complex(s)
    assert [len(chains.basis[n]) for n in range(s.cap + 1)] == sizes
    if name == "point-cap4":
        assert [len(x) for x, _ in simplicial.string_levels(g, g.morphisms, 4)] == [1] * 5
    assert assert_passes_agree(s) == tuple_scan(s) == []
    oracle = fs.chain_complex(tabulated_nerve(g, s.cap))
    assert (basis_strings(g, chains), chains.boundary) == (oracle.basis, oracle.boundary)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_swapped_degeneracy_entries_break_ss_and_ds(monkeypatch, degree):
    """Swapping s_m of the first two strings of one degree in the degeneracy
    tables breaks the two kinds of identity that read them, and not dd."""
    real = simplicial._degeneracies
    for m in range(degree + 1):
        def swapped(g, strings, cols, table, slots, m=m):
            up = real(g, strings, cols, table, slots)
            if len(table) == degree:
                up[m][:2] = up[m][1::-1]
            return up

        monkeypatch.setattr(simplicial, "_degeneracies", swapped)
        ss, ds = assert_passes_agree(fs.nerve(s3(), 4))
        assert (ss[0], ds[0], ds[1], ds[3]) == ("ss", "ds", degree, m)


def z2_and_point():
    """Z/2 on x and a point y, ids chosen so that Z/2's arrows come first: the
    1-strings ending at y have fewer arrows out of their end than those before."""
    arrow = lambda a, x: {"id": a, "src": x, "tgt": x}
    return jio.groupoid_from_json({
        "objects": ["x", "y"], "arrows": [arrow("a0", "x"), arrow("a1", "x"), arrow("b", "y")],
        "comp": [["a0", "a0", "a0"], ["a0", "a1", "a1"], ["a1", "a0", "a1"], ["a1", "a1", "a0"],
                 ["b", "b", "b"]],
        "id": {"x": "a0", "y": "b"}, "inv": {"a0": "a0", "a1": "a1", "b": "b"}})


@pytest.mark.parametrize("name,g,cap", [("Z2", z2(), 3), ("pair", pair2(), 2),
                                        ("Z2+pt", z2_and_point(), 3)])
def test_corrupted_face_row_fails_the_nerve_verdict(tmp_path, capsys, monkeypatch, name, g, cap):
    """Through ``main()``, every change of one face-column entry that the d_i s_j
    identities read fails ``simplicial-identities`` with the pass's first
    witness and exit 1; the counts, which read no row, are unchanged, and no
    job ends in a traceback."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jio.groupoid_to_json(g)))
    argv = ["nerve", "--groupoid", str(path), "--dim", str(cap)]
    assert main(argv) == 0
    clean = capsys.readouterr().out.splitlines()
    assert clean[-1] == "[PASS] simplicial-identities"
    g = jio.groupoid_from_json(jio.load_json(str(path)))  # with the document's ids, as the job sees them
    corruptions = list(covered_corruptions(g, cap))
    assert corruptions
    for k, index, j, value in corruptions:
        monkeypatch.setattr(simplicial, "string_levels", corrupted_string_levels(k, index, j, value))
        witnesses = assert_passes_agree(fs.nerve(g, cap))
        assert witnesses, (k, index, j, value)
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        assert out.splitlines() == clean[:-1] + [f"[FAIL] simplicial-identities: {witnesses[0]}"]


def test_prefix_with_fewer_arrows_out_fails_an_identity(monkeypatch):
    """A d_n entry that points at a prefix ending at the point sends a
    degeneracy past the next degree's strings; each of the 13 single d_n
    changes in degrees 1-2 still returns a witness, and the verdict through
    ``main()`` is the test above."""
    g = z2_and_point()
    changes = [c for c in covered_corruptions(g, 3) if c[0] == c[2] < 3]
    assert len(changes) == 13
    for k, index, j, value in changes:
        monkeypatch.setattr(simplicial, "string_levels", corrupted_string_levels(k, index, j, value))
        assert assert_passes_agree(fs.nerve(g, 3)), (k, index, j, value)


def test_column_pass_matches_row_oracle_on_e_factor(monkeypatch):
    """Every covered change of E(Z/2)'s factor at 3 levels gets the same
    witnesses from the column pass and the row oracle, and a witness."""
    factor = fs.milnor_E(z2(), 3).factor
    corruptions = list(covered_corruptions(factor.category, 3))
    assert corruptions
    for k, index, j, value in corruptions:
        monkeypatch.setattr(simplicial, "string_levels", corrupted_string_levels(k, index, j, value))
        assert assert_passes_agree(factor), (k, index, j, value)


CORRUPTION_ZOO = [g for _, g in groupoid_zoo()] + [z2_and_point(), fs.milnor_E(z2(), 2).factor.category]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_column_pass_matches_row_oracle_under_a_drawn_corruption(data):
    """A zoo category, a cap up to 3 and one covered change of its face
    columns: the column pass and the row oracle find the same witnesses."""
    g = data.draw(st.sampled_from(CORRUPTION_ZOO))
    cap = data.draw(st.integers(1, 3))
    changes = list(covered_corruptions(g, cap))
    assume(changes)  # Z/2 at cap 1 has a single vertex, so no entry can change
    change = data.draw(st.sampled_from(changes))
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(simplicial, "string_levels", corrupted_string_levels(*change))
        assert_passes_agree(fs.nerve(g, cap))


def test_circle_shape():
    s = fs.simplicial_circle()
    assert s.count_nondegenerate(0) == 2
    assert s.count_nondegenerate(1) == 2
    assert s.count_nondegenerate(2) == 0
    cx = fs.chain_complex(s)
    assert fs.homology(cx, 0).pair() == (1, ())
    assert fs.homology(cx, 1).pair() == (1, ())


def test_degenerate_flags_match_identity_strings():
    """The normalized chains keep exactly the strings outside the images of
    the oracle's degeneracies, which are the strings that hold an identity."""
    g = pair2()
    oracle = tabulated_nerve(g, 2)
    kept = [sigma for sigma in oracle.simplices[2] if not any(g.is_identity(a) for a in sigma)]
    assert [sigma for sigma in oracle.simplices[2] if not oracle.is_degenerate(2, sigma)] == kept
    assert list(fs.nerve(g, 2).chain_levels())[2][0] == range(len(kept))
    assert basis_strings(g, fs.chain_complex(fs.nerve(g, 2)))[2] == tuple(kept)


def assert_nerve_matches_oracle(g, cap):
    s, oracle = fs.nerve(g, cap), tabulated_nerve(g, cap)
    assert_levels_match_oracle(g, cap)
    for n in range(cap + 1):
        assert s.count_nondegenerate(n) == oracle.count_nondegenerate(n)
    cx, ocx = fs.chain_complex(s), fs.chain_complex(oracle)
    assert basis_strings(g, cx) == ocx.basis
    assert cx.boundary == ocx.boundary
    assert cx.complete_above is ocx.complete_above is False


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_nerve_matches_tabulating_oracle(name, g):
    assert_nerve_matches_oracle(g, 4)


def test_nerve_matches_tabulating_oracle_s3_dim5():
    assert_nerve_matches_oracle(s3(), 5)


def test_circle_degenerate_flags_are_degeneracy_images():
    """The circle's face columns and degeneracy tables are the oracle's, and the
    images of the tables are its strings that hold an identity."""
    assert_nerve_matches_oracle(fs.simplicial_circle().category, 2)


def relabelled_group(names: list):
    """Z/len(names) with the element k renamed to names[k]."""
    m = len(names)
    mult = {(names[a], names[b]): names[(a + b) % m] for a in range(m) for b in range(m)}
    return fs.groupoid_from_group(names, mult, names[0])


ORDER_CASES = [
    # ints whose reprs are prefixes of each other: 1, 10, 11, 12
    ("prefix-ints", fs.cyclic_groupoid(13), 3),
    # strings whose texts are prefixes, and characters sorting below the quote
    ("prefix-strs", relabelled_group(["a", "a.b", "a.b.c", "a!", "a "]), 3),
    ("mixed-group", relabelled_group([0, "0", 1, "b", 12, "12"]), 3),
    ("mixed-pair", fs.pair_groupoid([1, 12, "1", "a.b"]), 3),
    ("cap-0", s3(), 0),
    ("point", pt(), 3),
    ("circle", fs.simplicial_circle().category, 3),
    ("chain", chain_category(3), 4),
]


@pytest.mark.parametrize("name,g,cap", ORDER_CASES, ids=[c[0] for c in ORDER_CASES])
def test_nerve_chains_match_oracle_in_order(name, g, cap):
    """Lexicographic arrow-position order is idkey order, and the nerve's
    face columns by index arithmetic, read row by row, are the rows the
    generic lookup finds in the tabulated nerve."""
    s, oracle = fs.nerve(g, cap), tabulated_nerve(g, cap)
    cx, ocx = fs.chain_complex(s), fs.chain_complex(oracle)
    assert basis_strings(g, cx) == ocx.basis
    assert cx.boundary == ocx.boundary
    assert [(gens, [list(row) for row in rows]) for gens, rows in s.chain_levels()] == \
        [(range(len(gens)), list(rows)) for gens, rows in lookup_levels(oracle)]
    assert_levels_match_oracle(g, cap)


REBUILD_CASES = IDENTITY_CASES + [("Z2+pt", fs.nerve(z2_and_point(), 4))]


@pytest.mark.parametrize("name,s", REBUILD_CASES, ids=[c[0] for c in REBUILD_CASES])
def test_string_levels_hold_strings_as_ints(name, s):
    """Every degree >= 1 of ``string_levels`` holds ints only, over all arrows
    and over the identity-free ones, where an inner face may be None."""
    g = s.category
    for arrows in (g.morphisms, tuple(a for a in g.morphisms if not g.is_identity(a))):
        for level, cols in islice(simplicial.string_levels(g, arrows, s.cap), 1, None):
            assert all(type(p) is int for p in level)
            assert all(type(q) is int or q is None and arrows != g.morphisms for col in cols for q in col)


@pytest.mark.parametrize("name,s", REBUILD_CASES, ids=[c[0] for c in REBUILD_CASES])
def test_witness_string_rebuild_matches_oracle(name, s):
    """The string that a witness index names, rebuilt by walking the order of
    ``string_levels`` over all arrows, is the tabulated nerve's, for every
    index in degrees up to 3: the objects in degree 0."""
    g = s.category
    simplices = tabulated_nerve(g, min(s.cap, 3)).simplices
    for n, strings in simplices.items():
        assert [simplicial._string(g, n, x) for x in range(len(strings))] == list(strings)


def test_valid_input_builds_no_string(tmp_path, capsys, monkeypatch):
    """Valid input has no witness, so no string is rebuilt: with the rebuild
    forbidden, S3's nerve and Z/3's Milnor B and E jobs print the bytes and
    exit codes that they print with it."""
    paths = {}
    for name, g in (("s3", s3()), ("z3", z3())):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(jio.groupoid_to_json(g)))
    argvs = [["nerve", "--groupoid", str(paths["s3"]), "--dim", "5"],
             ["milnor", "--groupoid", str(paths["z3"]), "--space", "B", "--levels", "4",
              "--compare-nerve", "--homology", "3"],
             ["milnor", "--groupoid", str(paths["z3"]), "--space", "E", "--levels", "4",
              "--homology", "3"]]

    def run():
        return [(main(argv), *capsys.readouterr()) for argv in argvs]

    def forbidden(*args):
        raise AssertionError("a string was built")

    clean = run()
    monkeypatch.setattr(simplicial, "_string", forbidden)
    assert run() == clean
    assert [code for code, _, _ in clean] == [0, 0, 0]
    assert clean[0][1].endswith("degree 5: 7776 simplices, 3125 nondegenerate\n[PASS] simplicial-identities\n")


def test_chains_and_counts_leave_the_string_table_unbuilt(monkeypatch):
    """Counts read no string: they hold with ``string_levels`` forbidden."""
    def forbidden(*args):
        raise AssertionError("a string was built")

    s = fs.nerve(s3(), 5)
    fs.chain_complex(s)
    monkeypatch.setattr(simplicial, "string_levels", forbidden)
    assert [s.count(n) for n in range(6)] == [6 ** n for n in range(6)]
    assert [s.count_nondegenerate(n) for n in range(6)] == [5 ** n for n in range(6)]
    assert s.count(6) == s.count(-1) == 0


@pytest.mark.parametrize("name,g", groupoid_zoo())
def test_counts_match_oracle(name, g):
    s, oracle = fs.nerve(g, 4), tabulated_nerve(g, 4)
    for n in range(5):
        assert s.count(n) == oracle.count(n)
        assert s.count_nondegenerate(n) == oracle.count_nondegenerate(n)
