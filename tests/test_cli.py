from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finstack as fs
import finstack.jsonio as jio
from finstack.cli import main
from test_table_laws import recorded_comp
from support import (assert_search_matches_oracle, cocycle_zoo, dihedral4, gauge_cocycle, groupoid_zoo,
                     load_jobs, pair2, point_inclusion, recorded_searches, s3, s3_on_letters,
                     two_chart_z3_cocycle, weak_equivalence_zoo, z2, z3)


@pytest.fixture()
def z2_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(jio.groupoid_to_json(z2())))
    return str(path)


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(jio.groupoid_to_json(pair2())))
    return str(path)


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(jio.groupoid_to_json(s3())))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys, z2_file):
    code, out = run_cli(capsys, ["validate", "--groupoid", z2_file])
    assert code == 0
    assert "[PASS] groupoid-axioms" in out


def test_validate_broken_exit_2(capsys, tmp_path):
    doc = jio.groupoid_to_json(z2())
    doc["inv"]["1"] = "0"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", "--groupoid", str(path)])
    assert code == 2


def test_homology_line(capsys, z2_file):
    code, out = run_cli(capsys, ["homology", "--groupoid", z2_file, "--dim", "4", "--degree", "1"])
    assert code == 0
    assert "H_1 = Z/2" in out


def test_homology_all_degrees(capsys, z2_file):
    code, out = run_cli(capsys, ["homology", "--groupoid", z2_file, "--dim", "3"])
    assert code == 0
    assert "H_0 = Z" in out and "H_2 = 0" in out


def test_homology_s3_degree_4(capsys, s3_file):
    code, out = run_cli(capsys, ["homology", "--groupoid", s3_file, "--dim", "5", "--degree", "4"])
    assert code == 0
    assert "H_4 = 0" in out.splitlines()


def test_homology_degree_at_dim_exit_2(capsys, z2_file):
    """A nerve is truncated at --dim, so H_dim needs one more level."""
    assert main(["homology", "--groupoid", z2_file, "--dim", "2", "--degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: degree 2 needs truncation cap >= 3, have 2"]
    assert captured.out == ""


def homology_oracle_zoo():
    cases = [(name, g, 4) for name, g in groupoid_zoo()]
    cases += [(f"target-{name}", f.target, 4) for name, f in weak_equivalence_zoo()]
    cases.append(("Z2+pair3", fs.disjoint_union(z2(), fs.pair_groupoid([1, 2, 3])), 4))
    cases.append(("S3-on-letters", s3_on_letters(), 5))
    return cases


@pytest.mark.parametrize("g,top", [pytest.param(g, top, id=name)
                                   for name, g, top in homology_oracle_zoo()])
def test_homology_report_matches_full_nerve(capsys, tmp_path, g, top):
    """`homology` computes on a skeleton; the whole nerve of g stays its oracle."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jio.groupoid_to_json(g)))
    for dim in range(1, top + 1):
        full = fs.chain_complex(fs.nerve(g, dim))
        code, out = run_cli(capsys, ["homology", "--groupoid", str(path), "--dim", str(dim)])
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("H_")] == [
            str(fs.homology(full, n)) for n in range(dim)]


def test_homology_builds_resolution_chains(capsys, tmp_path, monkeypatch):
    """On the pair groupoid on 4 points the chains are the trivial group's, and no nerve is built."""
    sizes = []

    def recording(g, cap):
        cx = fs.resolution_chains(g, cap)
        sizes.append([cx.dim(n) for n in range(cx.top_degree + 1)])
        return cx

    def refused(*args):
        raise AssertionError("homology builds no nerve chains")

    monkeypatch.setattr("finstack.cli.resolution_chains", recording)
    monkeypatch.setattr("finstack.cli.nerve", refused)
    monkeypatch.setattr("finstack.cli.chain_complex", refused)
    path = tmp_path / "pair4.json"
    path.write_text(json.dumps(jio.groupoid_to_json(fs.pair_groupoid(range(4)))))
    code, out = run_cli(capsys, ["homology", "--groupoid", str(path), "--dim", "4"])
    assert code == 0
    assert out.splitlines()[2:] == ["H_0 = Z", "H_1 = 0", "H_2 = 0", "H_3 = 0",
                                    "[PASS] boundary-squared-zero"]
    assert sizes == [[1, 0, 0, 0, 0]]


@pytest.mark.parametrize("g,dim,line", [
    (s3(), 11, "H_10 = 0"),
    (dihedral4(), 7, "H_6 = Z/2 (+) Z/2 (+) Z/2"),
    (fs.symmetric_groupoid(4), 5, "H_4 = Z/2"),
    (fs.symmetric_groupoid(4), 6, "H_5 = Z/2 (+) Z/2 (+) Z/2"),
    (fs.symmetric_groupoid(4), 10, "H_9 = Z/2 (+) Z/2 (+) Z/2 (+) Z/2"),
    (fs.symmetric_groupoid(5), 6, "H_5 = Z/2 (+) Z/2 (+) Z/2"),
], ids=["S3", "D4", "S4", "S4-H5", "S4-H9", "S5-H5"])
def test_homology_reaches_high_degrees(capsys, tmp_path, g, dim, line):
    """Degrees the bar complex could not reach: (|G| - 1)^n cells against a few per degree.

    S4 H_5 is what the invariant-factor greedy also gave; S4 H_9 and S5 H_5
    are reached because the resolution tests lattice membership.
    """
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jio.groupoid_to_json(g)))
    code, out = run_cli(capsys, ["homology", "--groupoid", str(path), "--dim", str(dim),
                                 "--degree", str(dim - 1)])
    assert code == 0
    assert out.splitlines()[2:] == [line, "[PASS] boundary-squared-zero"]


def test_nerve_counts(capsys, z2_file):
    code, out = run_cli(capsys, ["nerve", "--groupoid", z2_file, "--dim", "3"])
    assert code == 0
    assert "degree 3: 8 simplices, 1 nondegenerate" in out
    assert "[PASS] simplicial-identities" in out


def test_pi1_report(capsys, z2_file):
    code, out = run_cli(capsys, ["pi1", "--groupoid", z2_file, "--basepoint", "*"])
    assert code == 0
    assert "[PASS] isomorphism" in out
    assert "presented order: 2" in out


def test_pi1_s5_is_decided(capsys, tmp_path):
    """The relator certificate decides S5 (120 arrows) without a search."""
    path = tmp_path / "s5.json"
    path.write_text(json.dumps(jio.groupoid_to_json(fs.symmetric_groupoid(5))))
    code, out = run_cli(capsys, ["pi1", "--groupoid", str(path), "--basepoint", "*"])
    assert code == 0
    assert "presented order: 120" in out.splitlines()
    assert "[PASS] isomorphism" in out.splitlines()


@pytest.mark.parametrize("g", [z2(), s3()], ids=["Z2", "S3"])
def test_pi1_missing_relator_is_inconclusive(capsys, tmp_path, g, monkeypatch):
    """A presentation lacking a certificate relator leaves the isomorphism open."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jio.groupoid_to_json(g)))
    build = fs.pi1_presentation

    def drop_last(category, basepoint):
        pres = build(category, basepoint)
        return pres._replace(relations=pres.relations[:-1])

    monkeypatch.setattr("finstack.cli.pi1_presentation", drop_last)
    out_json = tmp_path / "report.json"
    code, out = run_cli(capsys, ["pi1", "--groupoid", str(path), "--basepoint", "*",
                                 "--json-out", str(out_json)])
    assert code == 3
    assert "presented order: untested" in out.splitlines()
    assert "[INCONCLUSIVE] isomorphism: missing relator for composable pair" in out
    assert "[FAIL]" not in out
    verdicts = json.loads(out_json.read_text())["verdicts"]
    assert [v["passed"] for v in verdicts if v["name"] == "isomorphism"] == [None]


def test_pi1_builds_no_string_table(capsys, s3_file, monkeypatch):
    """pi1 reads its presentation off the composition table and builds no nerve."""
    built = []

    def recording_nerve(g, cap):
        built.append(fs.nerve(g, cap))
        return built[-1]

    monkeypatch.setattr("finstack.cli.nerve", recording_nerve)
    code, out = run_cli(capsys, ["pi1", "--groupoid", s3_file, "--basepoint", "*"])
    assert code == 0
    assert "[PASS] isomorphism" in out.splitlines()
    assert built == []


def test_failed_verdict_outranks_inconclusive():
    from finstack.cli import RunReport
    report = RunReport("x", "0")
    report.add_verdict("a", None, "untested")
    assert report.exit_code() == 3
    report.add_verdict("b", False, "broken")
    assert report.exit_code() == 1
    assert report.to_text().splitlines()[-2:] == ["[INCONCLUSIVE] a: untested", "[FAIL] b: broken"]


def test_milnor_compare(capsys, z2_file):
    code, out = run_cli(capsys, ["milnor", "--groupoid", z2_file, "--levels", "3",
                                 "--space", "B", "--compare-nerve", "--homology", "1"])
    assert code == 0
    assert "H_1 = Z/2" in out
    assert "[PASS] homology-agreement-degree-0" in out
    assert "[PASS] homology-agreement-degree-1" in out


@pytest.mark.parametrize("doc,levels", [("z2_file", 6), ("s3_file", 4), ("s3_file", 6)])
def test_milnor_compare_reaches_larger_models(capsys, request, doc, levels):
    code, out = run_cli(capsys, ["milnor", "--groupoid", request.getfixturevalue(doc),
                                 "--levels", str(levels), "--space", "B", "--compare-nerve"])
    assert code == 0
    verdicts = [line for line in out.splitlines() if line.startswith("[")]
    assert len(verdicts) == levels
    assert all(line.startswith("[PASS]") for line in verdicts)


def test_milnor_e_report(capsys, z2_file):
    """E of Z/2 at 3 levels is the octahedral 3-sphere: the join of four copies of S^0."""
    code, out = run_cli(capsys, ["milnor", "--groupoid", z2_file, "--levels", "3",
                                 "--space", "E", "--homology", "3"])
    assert code == 0
    lines = out.splitlines()
    for k, count in enumerate([8, 24, 32, 16]):
        assert f"degree {k}: {count} simplices" in lines
    assert "H_3 = Z" in lines
    assert "[PASS] boundary-squared-zero" in lines


@pytest.mark.parametrize("space", ["B", "E"])
def test_milnor_homology_above_top_degree_is_zero(capsys, z2_file, space):
    """E and B at 2 levels have no 3-cells and are complete there, so H_3 = 0."""
    code, out = run_cli(capsys, ["milnor", "--groupoid", z2_file, "--levels", "2",
                                 "--space", space, "--homology", "3"])
    assert code == 0
    assert out.splitlines()[-2:] == ["H_3 = 0", "[PASS] boundary-squared-zero"]


def test_milnor_count_only_builds_no_chains(capsys, monkeypatch, s3_file):
    """Without --homology or --compare-nerve the d^2 = 0 verdict is read off the
    factor's face columns, so no chain complex is built and the report is unchanged."""
    class ChainsBuilt(Exception):
        pass

    def refused(*args):
        raise ChainsBuilt

    jobs = [["milnor", "--groupoid", s3_file, "--levels", "4", "--space", "B"],
            ["milnor", "--groupoid", s3_file, "--levels", "3", "--space", "E"]]
    expected = [run_cli(capsys, argv) for argv in jobs]
    assert all(code == 0 and out.endswith("[PASS] boundary-squared-zero\n") for code, out in expected)
    monkeypatch.setattr("finstack.cli.chain_complex", refused)
    assert [run_cli(capsys, argv) for argv in jobs] == expected
    for argv in [jobs[0] + ["--homology", "1"], jobs[1] + ["--homology", "1"],
                 jobs[0] + ["--compare-nerve"]]:
        with pytest.raises(ChainsBuilt):
            main(argv)


def test_milnor_compare_requires_b(capsys, monkeypatch, z2_file):
    """E with --compare-nerve is refused right after the groupoid is read."""
    def forbidden(*args):
        raise AssertionError("E was built")

    monkeypatch.setattr("finstack.cli.milnor_E", forbidden)
    assert main(["milnor", "--groupoid", z2_file, "--levels", "2",
                 "--space", "E", "--compare-nerve", "--homology", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: --compare-nerve needs --space B"]
    assert captured.out == ""


def test_torsor_roundtrip(capsys, tmp_path, z2_file):
    name, c = cocycle_zoo()[1]
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(jio.cocycle_to_json(c)))
    code, out = run_cli(capsys, ["torsor", "roundtrip", "--groupoid", z2_file,
                                 "--cocycle", str(cpath)])
    assert code == 0
    assert "[PASS] roundtrip-morphism-to-input" in out


def test_torsor_roundtrip_cyclic_cover_z3(capsys, tmp_path):
    # four two-point charts around a 4-cycle: 3^16 assignments for a brute-force search
    g = z3()
    points = ["w0", "w1", "w2", "w3"]
    cover = {str(n): {points[n], points[(n + 1) % 4]} for n in range(4)}
    gauges = {(i, w): (7 * int(i) + int(w[1])) % 3 for i in cover for w in cover[i]}
    c = gauge_cocycle(g, cover, {w: "*" for w in points}, gauges)
    gpath = tmp_path / "z3.json"
    cpath = tmp_path / "c.json"
    gpath.write_text(json.dumps(jio.groupoid_to_json(g)))
    cpath.write_text(json.dumps(jio.cocycle_to_json(c)))
    code, out = run_cli(capsys, ["torsor", "roundtrip", "--groupoid", str(gpath),
                                 "--cocycle", str(cpath)])
    assert code == 0
    assert "[PASS] roundtrip-morphism-to-input" in out
    assert "[PASS] roundtrip-morphism-from-input" in out


def test_torsor_compare(capsys, tmp_path, z2_file):
    g = z2()
    cov = {"W": ["w"], "cover": {"0": ["w"], "1": ["w"]},
           "a": {"0": {"w": "*"}, "1": {"w": "*"}}}
    twist = dict(cov, gamma={"0,0": {"w": "0"}, "0,1": {"w": "1"},
                             "1,0": {"w": "1"}, "1,1": {"w": "0"}})
    trivial = dict(cov, gamma={"0,0": {"w": "0"}, "0,1": {"w": "0"},
                               "1,0": {"w": "0"}, "1,1": {"w": "0"}})
    p1 = tmp_path / "twist.json"
    p2 = tmp_path / "trivial.json"
    p1.write_text(json.dumps(twist))
    p2.write_text(json.dumps(trivial))
    # string ids: regenerate the groupoid with string arrow names
    gdoc = jio.groupoid_to_json(g)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(gdoc))
    code, out = run_cli(capsys, ["torsor", "compare", "--groupoid", str(gpath),
                                 "--cocycle", str(p1), "--cocycle2", str(p2)])
    assert code == 0
    assert "morphism-exists: yes" in out
    assert "torsors-isomorphic: yes" in out
    assert "[PASS] morphism-iff-isomorphic" in out


def test_torsor_build_reads_sizes_off_the_fibers(capsys, tmp_path):
    c = two_chart_z3_cocycle(400)
    gpath, cpath = tmp_path / "z3.json", tmp_path / "c.json"
    gpath.write_text(json.dumps(jio.groupoid_to_json(c.target)))
    cpath.write_text(json.dumps(jio.cocycle_to_json(c)))
    code, out = run_cli(capsys, ["torsor", "build", "--groupoid", str(gpath), "--cocycle", str(cpath)])
    assert code == 0
    assert "torsor size: 1200" in out.splitlines()
    assert f"fiber sizes: {','.join(['3'] * 400)}" in out.splitlines()
    assert "[PASS] torsor-invariants" in out.splitlines()


def test_torsor_repeated_base_point_exit_2(capsys, tmp_path, z2_file):
    doc = {"W": ["w", "w"], "cover": {"0": ["w"]}, "a": {"0": {"w": "*"}},
           "gamma": {"0,0": {"w": "0"}}}
    p1 = tmp_path / "repeated.json"
    p2 = tmp_path / "once.json"
    p1.write_text(json.dumps(doc))
    p2.write_text(json.dumps(dict(doc, W=["w"])))
    for argv in (["build", "--cocycle", str(p1)],
                 ["compare", "--cocycle", str(p1), "--cocycle2", str(p2)],
                 ["compare", "--cocycle", str(p2), "--cocycle2", str(p1)]):
        assert main(["torsor", argv[0], "--groupoid", z2_file, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: axiom distinct-points fails at 'w'"]
        assert captured.out == ""
    assert main(["torsor", "build", "--groupoid", z2_file, "--cocycle", str(p2)]) == 0


def test_localize_and_zigzag(capsys, tmp_path):
    cat_doc = {
        "objects": ["0", "1"],
        "morphisms": [{"id": "i0", "src": "0", "tgt": "0"},
                      {"id": "i1", "src": "1", "tgt": "1"},
                      {"id": "f", "src": "0", "tgt": "1"}],
        "comp": [["i0", "i0", "i0"], ["i1", "i1", "i1"],
                 ["i0", "f", "f"], ["f", "i1", "f"]],
        "id": {"0": "i0", "1": "i1"},
    }
    cls_doc = {"members": ["i0", "i1"]}
    cpath = tmp_path / "cat.json"
    rpath = tmp_path / "cls.json"
    cpath.write_text(json.dumps(cat_doc))
    rpath.write_text(json.dumps(cls_doc))
    code, out = run_cli(capsys, ["localize", "--cat", str(cpath), "--class", str(rpath),
                                 "--from", "0", "--to", "1", "--zigzag"])
    assert code == 0
    assert "localized classes: 1" in out
    assert "[PASS] zigzag-bijection" in out


def test_localize_unknown_object_exit_2(capsys, tmp_path):
    cat_doc = {"objects": ["0"], "morphisms": [{"id": "i0", "src": "0", "tgt": "0"}],
               "comp": [["i0", "i0", "i0"]], "id": {"0": "i0"}}
    cpath = tmp_path / "cat.json"
    rpath = tmp_path / "cls.json"
    cpath.write_text(json.dumps(cat_doc))
    rpath.write_text(json.dumps({"members": ["i0"]}))
    for source, target in [("0", "9"), ("9", "0")]:
        code = main(["localize", "--cat", str(cpath), "--class", str(rpath),
                     "--from", source, "--to", target])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: unknown object '9'" in captured.err
        assert captured.out == ""


def category_doc(objects, morphisms, comp, ident):
    """``morphisms`` maps id -> (src, tgt); ``comp`` lists triples [f, g, f then g]."""
    return {"objects": objects,
            "morphisms": [{"id": m, "src": s, "tgt": t} for m, (s, t) in morphisms.items()],
            "comp": comp, "id": ident}


def discrete_doc(objects):
    return category_doc(objects, {f"i{x}": (x, x) for x in objects},
                        [[f"i{x}"] * 3 for x in objects], {x: f"i{x}" for x in objects})


def span_doc():
    """u <- s -> v."""
    return category_doc(
        ["s", "u", "v"],
        {"is": ("s", "s"), "iu": ("u", "u"), "iv": ("v", "v"), "mu": ("s", "u"), "mv": ("s", "v")},
        [["is", "is", "is"], ["iu", "iu", "iu"], ["iv", "iv", "iv"],
         ["is", "mu", "mu"], ["mu", "iu", "mu"], ["is", "mv", "mv"], ["mv", "iv", "mv"]],
        {"s": "is", "u": "iu", "v": "iv"})


def identity_entry(name, elems):
    return {"src": name, "tgt": name, "map": {x: x for x in elems}}


def kan_product_docs():
    """The right Kan extension of (s2, r2) from E = {e1, e2} to u <- s -> v
    over a one-object base: RF(s) is the product, of size 4."""
    sets = {"s1": ["a"], "s2": ["x", "y"], "r2": ["p", "q"], "s4": ["0", "1", "2", "3"]}
    return {
        "base": discrete_doc(["*"]),
        "fibers": {"fibers": {"*": sets}, "pulls": {"i*": {"kind": "identity"}}},
        "along": {"E": discrete_doc(["e1", "e2"]), "D": span_doc(),
                  "F": {"objects": {"e1": "u", "e2": "v"}, "morphisms": {"ie1": "iu", "ie2": "iv"}},
                  "p": {"objects": {"s": "*", "u": "*", "v": "*"},
                        "morphisms": {m: "i*" for m in ("is", "iu", "iv", "mu", "mv")}}},
        "lift": {"objects": {"e1": "s2", "e2": "r2"},
                 "morphisms": {"ie1": identity_entry("s2", sets["s2"]),
                               "ie2": identity_entry("r2", sets["r2"])}},
    }


def kan_relabel_docs():
    """The product instance with s over b0 and u, v over b1 in the base
    b0 -> b1, whose pullback along b0 -> b1 relabels every set."""
    docs = kan_product_docs()
    sets = docs["fibers"]["fibers"]["*"]
    base = category_doc(["b0", "b1"], {"ib0": ("b0", "b0"), "ib1": ("b1", "b1"), "u": ("b0", "b1")},
                        [["ib0", "ib0", "ib0"], ["ib1", "ib1", "ib1"],
                         ["ib0", "u", "u"], ["u", "ib1", "u"]],
                        {"b0": "ib0", "b1": "ib1"})
    docs["base"] = base
    docs["fibers"] = {
        "fibers": {"b0": {f"m{n}": [f"m{x}" for x in xs] for n, xs in sets.items()}, "b1": sets},
        "pulls": {"ib0": {"kind": "identity"}, "ib1": {"kind": "identity"},
                  "u": {"kind": "relabel", "objects": {n: f"m{n}" for n in sets},
                        "carriers": {n: {x: f"m{x}" for x in xs} for n, xs in sets.items()}}},
    }
    docs["along"]["p"] = {"objects": {"s": "b0", "u": "b1", "v": "b1"},
                          "morphisms": {"is": "ib0", "iu": "ib1", "iv": "ib1", "mu": "u", "mv": "u"}}
    return docs


def kan_equalizer_docs():
    """RF(s) is the equalizer of al, be: N -> K, which agree on N.0 and N.2."""
    sets = {"N": ["N.0", "N.1", "N.2"], "K": ["K.0", "K.1"]}
    e_doc = category_doc(["e0", "e1"], {"ie0": ("e0", "e0"), "ie1": ("e1", "e1"),
                                        "al": ("e0", "e1"), "be": ("e0", "e1")},
                         [["ie0", "ie0", "ie0"], ["ie1", "ie1", "ie1"], ["ie0", "al", "al"],
                          ["al", "ie1", "al"], ["ie0", "be", "be"], ["be", "ie1", "be"]],
                         {"e0": "ie0", "e1": "ie1"})
    d_doc = category_doc(["s", "d0", "d1"],
                         {"is": ("s", "s"), "id0": ("d0", "d0"), "id1": ("d1", "d1"),
                          "x": ("s", "d0"), "y": ("s", "d1"), "dal": ("d0", "d1"), "dbe": ("d0", "d1")},
                         [["is", "is", "is"], ["id0", "id0", "id0"], ["id1", "id1", "id1"],
                          ["is", "x", "x"], ["x", "id0", "x"], ["is", "y", "y"], ["y", "id1", "y"],
                          ["x", "dal", "y"], ["x", "dbe", "y"], ["id0", "dal", "dal"],
                          ["dal", "id1", "dal"], ["id0", "dbe", "dbe"], ["dbe", "id1", "dbe"]],
                         {"s": "is", "d0": "id0", "d1": "id1"})
    return {
        "base": discrete_doc(["*"]),
        "fibers": {"fibers": {"*": sets}, "pulls": {"i*": {"kind": "identity"}}},
        "along": {"E": e_doc, "D": d_doc,
                  "F": {"objects": {"e0": "d0", "e1": "d1"},
                        "morphisms": {"ie0": "id0", "ie1": "id1", "al": "dal", "be": "dbe"}},
                  "p": {"objects": {"s": "*", "d0": "*", "d1": "*"},
                        "morphisms": {m["id"]: "i*" for m in d_doc["morphisms"]}}},
        "lift": {"objects": {"e0": "N", "e1": "K"},
                 "morphisms": {"ie0": identity_entry("N", sets["N"]),
                               "ie1": identity_entry("K", sets["K"]),
                               "al": {"src": "N", "tgt": "K",
                                      "map": {"N.0": "K.0", "N.1": "K.1", "N.2": "K.0"}},
                               "be": {"src": "N", "tgt": "K",
                                      "map": {"N.0": "K.0", "N.1": "K.0", "N.2": "K.0"}}}},
    }


def kan_shift_docs(n):
    """The equalizer instance on n points with al = id and be = i -> i+1 mod n,
    which agree nowhere: RF(s) is the empty set Q, and the natural maps on
    either side of the adjunction are the n rotations."""
    docs = kan_equalizer_docs()
    sets = {"N": [f"N.{i}" for i in range(n)], "K": [f"K.{i}" for i in range(n)], "Q": []}
    docs["fibers"]["fibers"]["*"] = sets
    docs["lift"]["morphisms"] = {
        "ie0": identity_entry("N", sets["N"]), "ie1": identity_entry("K", sets["K"]),
        "al": {"src": "N", "tgt": "K", "map": {f"N.{i}": f"K.{i}" for i in range(n)}},
        "be": {"src": "N", "tgt": "K", "map": {f"N.{i}": f"K.{(i + 1) % n}" for i in range(n)}}}
    return docs


def kan_argv(tmp_path, docs):
    argv = ["kan"]
    for name in ("base", "fibers", "along", "lift"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(docs[name]))
        argv += [f"--{name}", str(path)]
    return argv


def test_kan_cli(capsys, tmp_path):
    code, out = run_cli(capsys, kan_argv(tmp_path, kan_product_docs()))
    assert code == 0
    assert "RF at s: s4" in out
    assert "[PASS] adjunction-bijection" in out


def test_kan_input_named_twice_keeps_its_digest(capsys, tmp_path):
    """One file given as both ``--base`` and ``--along`` is read once and
    hashed once per occurrence, as two files would be."""
    docs = kan_product_docs()
    code, out = run_cli(capsys, kan_argv(tmp_path, docs))
    both = tmp_path / "base-along.json"
    both.write_text(json.dumps({**docs["base"], **docs["along"]}))
    argv = kan_argv(tmp_path, docs)
    argv[2] = argv[6] = str(both)
    parts = [Path(path).read_bytes() for path in argv[2::2]]
    digest = hashlib.sha256(b"".join(part + b"\x00" for part in parts)).hexdigest()
    shared_code, shared_out = run_cli(capsys, argv)
    assert (shared_code, code) == (0, 0)
    assert shared_out.splitlines()[1] == f"inputs: sha256:{digest}"
    assert shared_out.splitlines()[2:] == out.splitlines()[2:]


@pytest.mark.parametrize("docs, rf_lines", [
    (kan_relabel_docs, ["RF at s: ms4", "RF at u: r2", "RF at v: r2"]),
    (kan_equalizer_docs, ["RF at d0: N", "RF at d1: K", "RF at s: K"]),
])
def test_kan_cli_relabel_and_equalizer(capsys, tmp_path, docs, rf_lines):
    code, out = run_cli(capsys, kan_argv(tmp_path, docs()))
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("RF at")] == rf_lines
    assert "[PASS] adjunction-bijection" in out


def test_kan_decides_shift_equalizer_within_budget(capsys, tmp_path, monkeypatch):
    """At n = 8 each hom-set ranges over 8^8 * 8^8 candidate pairs of maps;
    each search stays within 1000 nodes."""
    monkeypatch.setattr(fs.kan, "SEARCH_BUDGET", 1000)
    code, out = run_cli(capsys, kan_argv(tmp_path, kan_shift_docs(8)))
    assert code == 0
    assert "RF at s: Q" in out.splitlines()
    assert "hom sizes: 8 vs 8" in out.splitlines()
    assert "[PASS] adjunction-bijection" in out.splitlines()


@pytest.mark.parametrize("n", range(4, 11))
def test_kan_shift_equalizer_searches_match_score_oracle(capsys, tmp_path, monkeypatch, n):
    """The report at n = 4..10 is the rotation count, and every search it
    runs agrees with the score/fresh oracle in order, families and budget."""
    (code, out), calls = recorded_searches(
        monkeypatch, lambda: run_cli(capsys, kan_argv(tmp_path, kan_shift_docs(n))))
    assert code == 0
    assert "RF at s: Q" in out.splitlines()
    assert f"hom sizes: {n} vs {n}" in out.splitlines()
    assert "[PASS] adjunction-bijection" in out.splitlines()
    assert calls
    for sizes, constraints in calls:
        assert_search_matches_oracle(sizes, constraints)


def test_kan_out_of_budget_is_inconclusive(capsys, tmp_path, monkeypatch):
    """100 nodes cover each cone search of the shift equalizer (at most 48
    nodes) but not its hom-set searches (256 nodes each: 128 assignments and
    8 families of 16 values), so the adjunction is inconclusive."""
    monkeypatch.setattr(fs.kan, "SEARCH_BUDGET", 100)
    code, out = run_cli(capsys, kan_argv(tmp_path, kan_shift_docs(8)))
    assert code == 3
    assert "RF at s: Q" in out.splitlines()
    assert "[INCONCLUSIVE] adjunction-bijection: compatible-family search exceeded " \
           "budget of 100 search nodes" in out.splitlines()
    assert "[FAIL]" not in out


def kan_constant_docs():
    """E = eight discrete objects over the one object d, p(d) = 1 in the chain
    0 -> 1, and the lift at a one-element set everywhere, so RF(d) is that
    set.  The pullback along 0 -> 1 is constant at a 4-element set, so it
    sends the limit to the diagonal of that set into its eighth power."""
    sets = {"one": ["*"], "four": ["0", "1", "2", "3"]}
    es = [f"e{i}" for i in range(8)]
    base = category_doc(["0", "1"], {"i0": ("0", "0"), "i1": ("1", "1"), "u": ("0", "1")},
                        [["i0", "i0", "i0"], ["i1", "i1", "i1"], ["i0", "u", "u"], ["u", "i1", "u"]],
                        {"0": "i0", "1": "i1"})
    return {
        "base": base,
        "fibers": {"fibers": {"0": sets, "1": sets},
                   "pulls": {"i0": {"kind": "identity"}, "i1": {"kind": "identity"},
                             "u": {"kind": "constant", "at": "four"}}},
        "along": {"E": discrete_doc(es), "D": discrete_doc(["d"]),
                  "F": {"objects": {e: "d" for e in es}, "morphisms": {f"i{e}": "id" for e in es}},
                  "p": {"objects": {"d": "1"}, "morphisms": {"id": "i1"}}},
        "lift": {"objects": {e: "one" for e in es},
                 "morphisms": {f"i{e}": identity_entry("one", sets["one"]) for e in es}},
    }


def test_kan_non_global_limit_is_decided(capsys, tmp_path):
    """Globality is read off set sizes, 4^8 != 4, without enumerating the
    4^8 cones of the pulled diagram, so the answer is an error, not a budget
    running out."""
    assert main(kan_argv(tmp_path, kan_constant_docs())) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: indexed category not complete at 'd': 'fiber limit is not global'\n"
    assert captured.out == ""


def kan_identity_docs(n):
    """The extension of a lift at one n-element set along the identity of a
    one-object category: RF(P) is P, and Hom(P, P) has n^n elements."""
    sets = {"S": [f"S.{i}" for i in range(n)]}
    return {
        "base": discrete_doc(["*"]),
        "fibers": {"fibers": {"*": sets}, "pulls": {"i*": {"kind": "identity"}}},
        "along": {"E": discrete_doc(["e"]), "D": discrete_doc(["d"]),
                  "F": {"objects": {"e": "d"}, "morphisms": {"ie": "id"}},
                  "p": {"objects": {"d": "*"}, "morphisms": {"id": "i*"}}},
        "lift": {"objects": {"e": "S"}, "morphisms": {"ie": identity_entry("S", sets["S"])}},
    }


@pytest.mark.parametrize("n, code, last", [
    (5, 0, "[PASS] adjunction-bijection"),
    (6, 3, "[INCONCLUSIVE] adjunction-bijection: compatible-family search exceeded "
           "budget of 100000 search nodes"),
])
def test_kan_default_budget_bounds_hom_sets(capsys, tmp_path, n, code, last):
    """The default budget of 10^5 nodes decides the 5^5 = 3125 endomorphisms
    of a 5-element set (19 530 nodes) but not the 6^6 = 46 656 of a
    6-element set (335 922 nodes, counting the values copied out), which a
    filtered product over all 6^6 candidates would decide."""
    out_code, out = run_cli(capsys, kan_argv(tmp_path, kan_identity_docs(n)))
    assert out_code == code
    assert out.splitlines()[-1] == last


def diagram_special_docs():
    """The arrow 0 -> 1 sent to pt -> Z/2, with the cover pt -> Z/2."""
    shape_doc = {
        "objects": ["0", "1"],
        "morphisms": [{"id": "i0", "src": "0", "tgt": "0"},
                      {"id": "i1", "src": "1", "tgt": "1"},
                      {"id": "f", "src": "0", "tgt": "1"}],
        "comp": [["i0", "i0", "i0"], ["i1", "i1", "i1"],
                 ["i0", "f", "f"], ["f", "i1", "f"]],
        "id": {"0": "i0", "1": "i1"},
    }
    pt_doc = jio.groupoid_to_json(fs.point_groupoid())
    g_doc = jio.groupoid_to_json(z2())
    diagram_doc = {
        "shape": shape_doc,
        "nodes": {"0": pt_doc, "1": g_doc},
        "arrows": {
            "i0": {"objects": {"pt": "pt"}, "arrows": {"('pt', 'pt')": "('pt', 'pt')"}},
            "i1": {"objects": {"*": "*"}, "arrows": {"0": "0", "1": "1"}},
            "f": {"objects": {"pt": "*"}, "arrows": {"('pt', 'pt')": "0"}},
        },
    }
    cover_doc = {
        "domain": pt_doc,
        "objects": {"pt": "*"},
        "arrows": {"('pt', 'pt')": "0"},
    }
    return {"diagram": diagram_doc, "cover": cover_doc}


def diagram_special_argv(tmp_path, docs):
    argv = ["diagram-special"]
    for name in ("diagram", "cover"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(docs[name]))
        argv += [f"--{name}", str(path)]
    return argv


def test_diagram_special_cli(capsys, tmp_path):
    code, out = run_cli(capsys, diagram_special_argv(tmp_path, diagram_special_docs()))
    assert code == 0
    assert "[PASS] transformation-natural" in out
    assert "pulled node 0: 2 objects" in out


def test_diagram_special_never_asks_the_iso_comma_law(capsys, tmp_path, monkeypatch):
    """Z/4 acting on 6 points (the pair groupoid on 6 points times Z/4), pulled
    along the Z/4 cover: the report's counts are the closed forms of the
    benchmark's job, the pulled node over n0 has 2304 arrows, and the report
    never reads a fiber product's rows, so neither law is ever asked."""
    jobs = load_jobs()
    z4 = jobs.group_groupoid(jobs.cyclic(4))
    node0 = jobs.transitive([f"x{i}" for i in range(6)], jobs.cyclic(4))
    job = jobs.diagram_special_job(
        "z4-6-z", node0, z4, dict.fromkeys(node0.objects, "*"),
        {a: "*>*." + a.rsplit(".", 1)[1] for a in node0.src}, z4, {"*": "*"}, jobs.identity_map(z4.src))
    argv = job.render("", job.write_docs("", tmp_path))
    products = []

    def recording(f, h, build=fs.fiber_product_2):
        products.append(build(f, h))
        return products[-1]

    monkeypatch.setattr("finstack.groupoid.fiber_product_2", recording)
    (code, out), asked = recorded_comp(lambda: run_cli(capsys, argv))
    assert code == job.code == 0
    assert out.splitlines()[2:] == [line.replace(jobs.P, "") for line in job.lines]
    assert "pulled node n0: 24 objects, 2304 arrows" in out.splitlines()
    assert len(products) == 2 and all(asked[id(prod)] == [] for prod in products)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["arrows"].update({"g": doc["arrows"]["f"]}),  # not a shape morphism
    lambda doc: doc.update({"arrows": "f"}),                        # arrows as a string
    lambda doc: doc["arrows"].update({"f": "f"}),                   # entry as a string
    lambda doc: doc.update({"nodes": ["0", "1"]}),                  # nodes as a list
], ids=["unknown-morphism", "arrows-string", "entry-string", "nodes-list"])
def test_diagram_special_malformed_diagram_exit_2(capsys, tmp_path, edit):
    docs = diagram_special_docs()
    edit(docs["diagram"])
    assert_input_error(capsys, diagram_special_argv(tmp_path, docs))


def test_morita_check_cli(capsys, tmp_path, pair_file):
    incl = point_inclusion(pair2(), 1)
    doc = {
        "source": jio.groupoid_to_json(incl.source),
        "target": jio.groupoid_to_json(incl.target),
        "objects": {"pt": "1"},
        "arrows": {"('pt', 'pt')": "(1, 1)"},
    }
    path = tmp_path / "functor.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, ["morita-check", "--functor", str(path), "--dim", "3"])
    assert code == 0
    assert "[PASS] weak-equivalence" in out
    assert "[PASS] homology-agreement-degree-2" in out


def test_reports_byte_identical_across_runs(capsys, z2_file, tmp_path):
    commands = [
        ["homology", "--groupoid", z2_file, "--dim", "4", "--degree", "1"],
        ["nerve", "--groupoid", z2_file, "--dim", "3"],
        ["milnor", "--groupoid", z2_file, "--levels", "2", "--space", "B", "--compare-nerve"],
        ["pi1", "--groupoid", z2_file, "--basepoint", "*"],
    ]
    for argv in commands:
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        assert first == second


def test_json_out_deterministic(capsys, z2_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["homology", "--groupoid", z2_file, "--dim", "3", "--json-out", str(out1)])
    main(["homology", "--groupoid", z2_file, "--dim", "3", "--json-out", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["command"] == "homology"
    assert any("H_1 = Z/2" in line for line in doc["outputs"])


def test_usage_error_exit_2():
    assert main(["homology"]) == 2
    assert main(["nosuchcommand"]) == 2


def test_dispatch_returns_report(z2_file):
    from finstack.cli import dispatch
    report = dispatch(["homology", "--groupoid", z2_file, "--dim", "3", "--degree", "1"])
    assert report.outputs == ["H_1 = Z/2"]
    assert report.exit_code() == 0


def test_dispatch_writes_json_out_like_main(capsys, z2_file, tmp_path):
    from finstack.cli import dispatch
    via_main, via_dispatch = tmp_path / "main.json", tmp_path / "dispatch.json"
    assert main(["validate", "--groupoid", z2_file, "--json-out", str(via_main)]) == 0
    report = dispatch(["validate", "--groupoid", z2_file, "--json-out", str(via_dispatch)])
    assert via_dispatch.read_text() == via_main.read_text() == report.to_json()
    capsys.readouterr()


def test_dispatch_usage_error(capsys):
    from finstack.cli import dispatch
    from finstack.errors import UsageError
    with pytest.raises(UsageError):
        dispatch(["homology"])
    capsys.readouterr()


def test_module_entry_point_warns_nothing(z2_file):
    """The package does not import ``finstack.cli`` before ``-m`` runs it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "finstack.cli",
                          "validate", "--groupoid", z2_file], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (0, "")


def run_module(argv, input=None, timeout=60):
    """``python -m finstack.cli`` on ``argv`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "finstack.cli", *argv], input=input, capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_input_bytes_are_dropped_after_their_last_load(tmp_path):
    """A 4 MB document is held as bytes until the loader has parsed its last
    occurrence, and no longer: a path named twice keeps its bytes for the
    second load."""
    from finstack.cli import _start
    size = 4_000_000
    path = tmp_path / "padded.json"
    path.write_text(json.dumps(jio.groupoid_to_json(z2())) + " " * size)
    tracemalloc.start()
    try:
        _, load = _start("validate", [str(path), str(path)])
        held = tracemalloc.get_traced_memory()[0]
        load(str(path))
        assert tracemalloc.get_traced_memory()[0] > held - size // 10
        doc = load(str(path))
        assert tracemalloc.get_traced_memory()[0] < held - size * 9 // 10
    finally:
        tracemalloc.stop()
    assert len(jio.groupoid_from_json(doc).morphisms) == 2


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("argv", [["validate", "--groupoid"], ["nerve", "--dim", "3", "--groupoid"]])
def test_input_on_a_pipe_is_read_once(z2_file, argv):
    on_file = run_module(argv + [z2_file])
    on_pipe = run_module(argv + ["/dev/stdin"], input=Path(z2_file).read_text())
    assert (on_pipe.returncode, on_pipe.stderr) == (0, "")
    assert on_pipe.stdout == on_file.stdout


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_input_on_a_fifo_is_read_once(tmp_path, z2_file):
    """A second open of the FIFO would wait for a writer that has gone."""
    fifo = tmp_path / "z2.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(Path(z2_file).read_bytes(),), daemon=True)
    writer.start()
    on_fifo = run_module(["validate", "--groupoid", str(fifo)], timeout=20)
    writer.join(timeout=20)
    assert not writer.is_alive()
    assert (on_fifo.returncode, on_fifo.stderr) == (0, "")
    assert on_fifo.stdout == run_module(["validate", "--groupoid", z2_file]).stdout


# runs in a fresh interpreter: each step prints its exit code and the finstack
# modules, and argparse and gettext, loaded after it
MODULE_PROBE = """
import contextlib, io, json, sys
import finstack.cli

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("finstack", "argparse", "gettext"))

steps = [("import", 0, loaded())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        steps.append((" ".join(argv[:2]), finstack.cli.main(argv), loaded()))
print(json.dumps(steps))
"""


def test_a_launch_loads_only_what_its_subcommand_runs(tmp_path, z2_file):
    """``import finstack.cli`` loads neither ``kan`` nor ``resolution``;
    ``validate`` loads the loader, the table core and ``homology`` (which the
    package binds eagerly); after it, ``torsor validate`` adds only ``torsor``
    and ``diagram-special`` only ``kan``.  None of these well-formed command
    lines loads ``argparse`` or ``gettext``; ``--help`` loads ``argparse``."""
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(jio.cocycle_to_json(cocycle_zoo()[1][1])))
    argvs = [["validate", "--groupoid", z2_file],
             ["torsor", "validate", "--groupoid", z2_file, "--cocycle", str(cpath)],
             diagram_special_argv(tmp_path, diagram_special_docs()), ["--help"]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", MODULE_PROBE, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    (_, _, imported), *steps = json.loads(run.stdout)
    assert {"finstack.kan", "finstack.resolution"}.isdisjoint(imported)
    names = [step[0] for step in steps]
    assert [code for _, code, _ in steps] == [0, 0, 0, 0], names
    validate, torsor, diagram, help_ = (set(modules) for _, _, modules in steps)
    assert validate == {"finstack"} | {f"finstack.{m}" for m in (
        "cli", "jsonio", "category", "groupoid", "errors", "homology")}
    assert torsor - validate == {"finstack.torsor"}
    assert diagram - torsor == {"finstack.kan"}
    assert "argparse" in help_ and help_ - diagram <= {"argparse", "gettext"}


def test_stand_ins_keep_patches_in_place(monkeypatch, capsys, z2_file):
    """``cli.nerve`` imports its module on its first call and keeps the target
    in its own closure: the attribute stays one object, and ``main()`` calls
    whatever replaces it, as the benchmark's layer timers do."""
    import finstack.cli as cli
    stand_in = cli.nerve
    assert stand_in(z2(), 3).count(3) == 8
    assert cli.nerve is stand_in
    calls = []

    def recording(g, dim):
        calls.append(dim)
        return stand_in(g, dim)

    monkeypatch.setattr(cli, "nerve", recording)
    code, out = run_cli(capsys, ["nerve", "--groupoid", z2_file, "--dim", "3"])
    assert (code, calls) == (0, [3])
    assert "degree 3: 8 simplices, 1 nondegenerate" in out


def test_schema_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"objects": ["x"]}))
    assert main(["validate", "--groupoid", str(bad)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert main(["validate", "--groupoid", str(notjson)]) == 2


def assert_input_error(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_list_object_id_exit_2(capsys, tmp_path):
    doc = jio.groupoid_to_json(z2())
    doc["objects"] = [["*"]]
    path = tmp_path / "listid.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, ["validate", "--groupoid", str(path)])


def test_negative_dim_exit_2(capsys, z2_file):
    assert_input_error(capsys, ["nerve", "--groupoid", z2_file, "--dim", "-1"])


def test_gamma_table_as_list_exit_2(capsys, tmp_path, z2_file):
    doc = jio.cocycle_to_json(cocycle_zoo()[1][1])
    doc["gamma"]["0,1"] = ["1", "0"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, ["torsor", "validate", "--groupoid", z2_file, "--cocycle", str(path)])


@pytest.mark.parametrize("objects, members", [([["0"]], ["i0"]), (["0"], [["i0"]])])
def test_localize_list_id_exit_2(capsys, tmp_path, objects, members):
    cat_doc = {"objects": objects, "morphisms": [{"id": "i0", "src": "0", "tgt": "0"}],
               "comp": [["i0", "i0", "i0"]], "id": {"0": "i0"}}
    cpath = tmp_path / "cat.json"
    rpath = tmp_path / "cls.json"
    cpath.write_text(json.dumps(cat_doc))
    rpath.write_text(json.dumps({"members": members}))
    assert_input_error(capsys, ["localize", "--cat", str(cpath), "--class", str(rpath),
                                "--from", "0", "--to", "0"])


def test_groupoid_comp_repeated_pair_exit_2(capsys, tmp_path, z2_file):
    doc = jio.groupoid_to_json(z2())
    assert ["1", "1", "0"] in doc["comp"]
    doc["comp"].insert(0, ["1", "1", "1"])
    path = tmp_path / "repeated-comp.json"
    path.write_text(json.dumps(doc))
    assert main(["homology", "--groupoid", str(path), "--dim", "3"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: comp repeats the pair ['1', '1']"]
    assert main(["homology", "--groupoid", z2_file, "--dim", "3"]) == 0


def write_repeating(path, doc: dict, old: str, new: str) -> None:
    """Write ``doc`` as JSON with its first ``old`` replaced by ``new``, which
    repeats a key and parses, last entry winning, back to ``doc``."""
    text = json.dumps(doc).replace(old, new, 1)
    assert text != json.dumps(doc) and json.loads(text) == doc
    path.write_text(text)


def test_groupoid_repeated_inv_key_exit_2(capsys, tmp_path):
    path = tmp_path / "repeated-inv.json"
    write_repeating(path, jio.groupoid_to_json(z2()), '"inv": {', '"inv": {"1": "0", ')
    assert main(["homology", "--groupoid", str(path), "--dim", "3"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: repeated key '1'"]


def test_cocycle_repeated_gamma_key_exit_2(capsys, tmp_path, z2_file):
    path = tmp_path / "repeated-gamma.json"
    doc = jio.cocycle_to_json(cocycle_zoo()[1][1])
    write_repeating(path, doc, '"gamma": ', '"gamma": {}, "gamma": ')
    assert main(["torsor", "validate", "--groupoid", z2_file, "--cocycle", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: repeated key 'gamma'"]


def test_arrow_entry_repeated_src_key_exit_2(capsys, tmp_path):
    path = tmp_path / "repeated-src.json"
    write_repeating(path, jio.groupoid_to_json(z2()), '"src": "*"', '"src": "x", "src": "*"')
    assert main(["validate", "--groupoid", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: repeated key 'src'"]


def test_category_comp_repeated_pair_exit_2(capsys, tmp_path):
    cat_doc = {"objects": ["0"], "morphisms": [{"id": "i0", "src": "0", "tgt": "0"}],
               "comp": [["i0", "i0", "i0"], ["i0", "i0", "i0"]], "id": {"0": "i0"}}
    cpath = tmp_path / "cat.json"
    rpath = tmp_path / "cls.json"
    cpath.write_text(json.dumps(cat_doc))
    rpath.write_text(json.dumps({"members": ["i0"]}))
    argv = ["localize", "--cat", str(cpath), "--class", str(rpath), "--from", "0", "--to", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: comp repeats the pair ['i0', 'i0']"]
    cpath.write_text(json.dumps(dict(cat_doc, comp=[["i0", "i0", "i0"]])))
    assert main(argv) == 0


def test_class_pullbacks_repeated_cospan_exit_2(capsys, tmp_path):
    """A cospan listed twice is bad input, even when the later entry is the
    valid one: an earlier entry is never checked once a later one replaces it."""
    cat_doc, cls_doc, _ = load_jobs().subset_poset(2)
    entry = cls_doc["pullbacks"][0]
    cpath, rpath = tmp_path / "cat.json", tmp_path / "cls.json"
    cpath.write_text(json.dumps(cat_doc))
    rpath.write_text(json.dumps(cls_doc))
    argv = ["localize", "--cat", str(cpath), "--class", str(rpath), "--from", "s00", "--to", "s11"]
    assert main(argv) == 0
    capsys.readouterr()
    bad = dict(entry, apex="s00<s00")
    rpath.write_text(json.dumps(dict(cls_doc, pullbacks=[bad] + cls_doc["pullbacks"])))
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: pullbacks repeats the cospan {entry['cospan']!r}"]
    rpath.write_text(json.dumps(dict(cls_doc, pullbacks=[bad] + cls_doc["pullbacks"][1:])))
    assert main(argv) == 2
    assert "pullbacks: undeclared id" in capsys.readouterr().err


def test_parser_built_once():
    from finstack.cli import build_parser
    assert build_parser() is build_parser()


def test_kan_constant_unknown_object_exit_2(capsys, tmp_path):
    docs = kan_product_docs()
    docs["fibers"]["pulls"]["i*"] = {"kind": "constant", "at": "s9"}
    assert_input_error(capsys, kan_argv(tmp_path, docs))


@pytest.mark.parametrize("table", ["objects", "carriers"])
def test_kan_relabel_missing_entry_exit_2(capsys, tmp_path, table):
    docs = kan_relabel_docs()
    del docs["fibers"]["pulls"]["u"][table]["s2"]
    assert_input_error(capsys, kan_argv(tmp_path, docs))


@pytest.mark.parametrize("fiber_set, carrier", [
    (["ma"], [["a", "ma"]]),  # an array of pairs
    (["p"], ["ap"]),          # an array of two-character strings
], ids=["pairs", "strings"])
def test_kan_relabel_carrier_array_exit_2(capsys, tmp_path, fiber_set, carrier):
    """A carrier must be an object, even where an array would read as a table."""
    docs = kan_relabel_docs()
    docs["fibers"]["fibers"]["b0"]["ms1"] = fiber_set
    docs["fibers"]["pulls"]["u"]["carriers"]["s1"] = carrier
    assert_input_error(capsys, kan_argv(tmp_path, docs))


@pytest.mark.parametrize("edit", [
    lambda table: table.pop("N.1"),                  # partial
    lambda table: table.update({"N.9": "K.0"}),      # extra key
    lambda table: table.update({"N.1": "K.7"}),      # outside the target set
    lambda table: table.update({"N.1": ["K.0"]}),    # unhashable image
], ids=["partial", "extra-key", "outside-target", "unhashable"])
def test_kan_lift_map_not_a_function_exit_2(capsys, tmp_path, edit):
    docs = kan_equalizer_docs()
    edit(docs["lift"]["morphisms"]["al"]["map"])
    assert_input_error(capsys, kan_argv(tmp_path, docs))


@pytest.mark.parametrize("value", [5, "K.0K.1", [["K.0"], "K.1"], ["K.0", {"K": 1}]],
                         ids=["number", "string", "list-element", "object-element"])
def test_kan_fiber_set_malformed_exit_2(capsys, tmp_path, value):
    docs = kan_equalizer_docs()
    docs["fibers"]["fibers"]["*"]["K"] = value
    assert_input_error(capsys, kan_argv(tmp_path, docs))


@pytest.mark.parametrize("entry", ["kindness", "identity"])
def test_kan_pull_entry_not_an_object_exit_2(capsys, tmp_path, entry):
    docs = kan_product_docs()
    docs["fibers"]["pulls"]["i*"] = entry
    assert main(kan_argv(tmp_path, docs)) == 2
    assert "error: expected an object with key 'kind', got str" in capsys.readouterr().err


def test_kan_functor_list_id_exit_2(capsys, tmp_path):
    docs = kan_product_docs()
    docs["along"]["F"]["objects"]["e1"] = ["u"]
    assert_input_error(capsys, kan_argv(tmp_path, docs))


def test_morita_functor_list_id_exit_2(capsys, tmp_path):
    incl = point_inclusion(pair2(), 1)
    doc = {"source": jio.groupoid_to_json(incl.source), "target": jio.groupoid_to_json(incl.target),
           "objects": {"pt": ["1"]}, "arrows": {"('pt', 'pt')": "(1, 1)"}}
    path = tmp_path / "functor.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, ["morita-check", "--functor", str(path)])


def test_kan_fiber_set_repeated_element_exit_2(capsys, tmp_path):
    docs = kan_product_docs()
    docs["fibers"]["fibers"]["*"]["s2"] = ["x", "x", "y"]
    assert main(kan_argv(tmp_path, docs)) == 2
    assert "error: fiber set 's2' repeats the element 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [b"\xff\xff{}", b"\x80abc"])
def test_groupoid_file_not_utf8_exit_2(capsys, tmp_path, raw):
    path = tmp_path / "bytes.json"
    path.write_bytes(raw)
    assert_input_error(capsys, ["validate", "--groupoid", str(path)])


def test_groupoid_file_nested_too_deep_exit_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert_input_error(capsys, ["validate", "--groupoid", str(path)])


@settings(max_examples=200, deadline=None)
@given(st.binary())
def test_groupoid_file_of_arbitrary_bytes_never_raises(raw):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(raw)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["validate", "--groupoid", path]) in {0, 1, 2, 3}
    finally:
        os.unlink(path)


@pytest.mark.parametrize("pullback", [
    {"cospan": [["i0"], "i0"], "apex": "0", "proj1": "i0", "proj2": "i0"},
    {"cospan": ["zz", "i0"], "apex": "0", "proj1": "i0", "proj2": "i0"},
    {"cospan": ["i0", "i0"], "apex": "0", "proj1": "zz", "proj2": "i0"},
    {"cospan": ["i0", "i0"], "apex": "0", "proj1": "i0", "proj2": "zz"},
    {"cospan": ["i0", "i0"], "apex": "9", "proj1": "i0", "proj2": "i0"},
])
def test_localize_malformed_pullback_exit_2(capsys, tmp_path, pullback):
    cat_doc = {"objects": ["0"], "morphisms": [{"id": "i0", "src": "0", "tgt": "0"}],
               "comp": [["i0", "i0", "i0"]], "id": {"0": "i0"}}
    cpath = tmp_path / "cat.json"
    rpath = tmp_path / "cls.json"
    cpath.write_text(json.dumps(cat_doc))
    rpath.write_text(json.dumps({"members": ["i0"], "pullbacks": [pullback]}))
    assert_input_error(capsys, ["localize", "--cat", str(cpath), "--class", str(rpath),
                                "--from", "0", "--to", "0"])


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_json_out_unwritable_exit_2(capsys, tmp_path, z2_file, target):
    path = tmp_path / "absent" / "report.json" if target == "missing-dir" else tmp_path
    assert main(["validate", "--groupoid", z2_file, "--json-out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "error:" in err and out == ""


@pytest.mark.parametrize("table, key", [("objects", "e9"), ("morphisms", "ie9")])
def test_kan_lift_key_outside_shape_exit_2(capsys, tmp_path, table, key):
    docs = kan_product_docs()
    docs["lift"][table][key] = "s2" if table == "objects" else identity_entry("s2", ["x", "y"])
    assert_input_error(capsys, kan_argv(tmp_path, docs))


@pytest.mark.parametrize("table, key", [("a", "9"), ("gamma", "0,9"), ("gamma", "9,0")])
def test_cocycle_chart_outside_cover_exit_2(capsys, tmp_path, z2_file, table, key):
    doc = jio.cocycle_to_json(cocycle_zoo()[1][1])
    assert "9" not in doc["cover"] and "0" in doc["cover"]
    doc[table][key] = {}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, ["torsor", "validate", "--groupoid", z2_file, "--cocycle", str(path)])
