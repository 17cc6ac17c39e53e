from __future__ import annotations

import json

import pytest

import finstack as fs
import finstack.jsonio as jio
from finstack.cli import main
from support import cocycle_zoo, gauge_cocycle, pair2, point_inclusion, s3, z2, z3


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


def test_pi1_budget_0_is_inconclusive(capsys, tmp_path, s3_file):
    out_json = tmp_path / "report.json"
    code, out = run_cli(capsys, ["pi1", "--groupoid", s3_file, "--basepoint", "*",
                                 "--budget", "0", "--json-out", str(out_json)])
    assert code == 3
    assert "presented order: untested" in out
    assert "[INCONCLUSIVE] isomorphism: surjective, injectivity untested" in out.splitlines()
    assert "[FAIL]" not in out
    verdicts = json.loads(out_json.read_text())["verdicts"]
    assert {"name": "isomorphism", "passed": None,
            "witness": "surjective, injectivity untested"} in verdicts


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


def test_milnor_compare_requires_b(z2_file):
    assert main(["milnor", "--groupoid", z2_file, "--levels", "2",
                 "--space", "E", "--compare-nerve"]) == 2


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


def kan_files(tmp_path):
    base_doc = {
        "objects": ["*"],
        "morphisms": [{"id": "i", "src": "*", "tgt": "*"}],
        "comp": [["i", "i", "i"]],
        "id": {"*": "i"},
    }
    fibers_doc = {
        "fibers": {"*": {"s1": ["a"], "s2": ["x", "y"], "r2": ["p", "q"], "s4": ["0", "1", "2", "3"]}},
        "pulls": {"i": {"kind": "identity"}},
    }
    d_doc = {
        "objects": ["s", "u", "v"],
        "morphisms": [{"id": "is", "src": "s", "tgt": "s"},
                      {"id": "iu", "src": "u", "tgt": "u"},
                      {"id": "iv", "src": "v", "tgt": "v"},
                      {"id": "mu", "src": "s", "tgt": "u"},
                      {"id": "mv", "src": "s", "tgt": "v"}],
        "comp": [["is", "is", "is"], ["iu", "iu", "iu"], ["iv", "iv", "iv"],
                 ["is", "mu", "mu"], ["mu", "iu", "mu"],
                 ["is", "mv", "mv"], ["mv", "iv", "mv"]],
        "id": {"s": "is", "u": "iu", "v": "iv"},
    }
    e_doc = {
        "objects": ["e1", "e2"],
        "morphisms": [{"id": "ie1", "src": "e1", "tgt": "e1"},
                      {"id": "ie2", "src": "e2", "tgt": "e2"}],
        "comp": [["ie1", "ie1", "ie1"], ["ie2", "ie2", "ie2"]],
        "id": {"e1": "ie1", "e2": "ie2"},
    }
    along_doc = {
        "E": e_doc,
        "D": d_doc,
        "F": {"objects": {"e1": "u", "e2": "v"}, "morphisms": {"ie1": "iu", "ie2": "iv"}},
        "p": {"objects": {"s": "*", "u": "*", "v": "*"},
              "morphisms": {m["id"]: "i" for m in d_doc["morphisms"]}},
    }
    lift_doc = {
        "objects": {"e1": "s2", "e2": "r2"},
        "morphisms": {
            "ie1": {"src": "s2", "tgt": "s2", "map": {"x": "x", "y": "y"}},
            "ie2": {"src": "r2", "tgt": "r2", "map": {"p": "p", "q": "q"}},
        },
    }
    paths = {}
    for name, doc in [("base", base_doc), ("fibers", fibers_doc),
                      ("along", along_doc), ("lift", lift_doc)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def test_kan_cli(capsys, tmp_path):
    paths = kan_files(tmp_path)
    code, out = run_cli(capsys, ["kan", "--base", paths["base"], "--fibers", paths["fibers"],
                                 "--along", paths["along"], "--lift", paths["lift"]])
    assert code == 0
    assert "RF at s: s4" in out
    assert "[PASS] adjunction-bijection" in out


def test_diagram_special_cli(capsys, tmp_path):
    g = z2()
    point = fs.point_groupoid()
    shape_doc = {
        "objects": ["0", "1"],
        "morphisms": [{"id": "i0", "src": "0", "tgt": "0"},
                      {"id": "i1", "src": "1", "tgt": "1"},
                      {"id": "f", "src": "0", "tgt": "1"}],
        "comp": [["i0", "i0", "i0"], ["i1", "i1", "i1"],
                 ["i0", "f", "f"], ["f", "i1", "f"]],
        "id": {"0": "i0", "1": "i1"},
    }
    pt_doc = jio.groupoid_to_json(point)
    g_doc = jio.groupoid_to_json(g)
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
    dpath = tmp_path / "diagram.json"
    cpath = tmp_path / "cover.json"
    dpath.write_text(json.dumps(diagram_doc))
    cpath.write_text(json.dumps(cover_doc))
    code, out = run_cli(capsys, ["diagram-special", "--diagram", str(dpath),
                                 "--cover", str(cpath)])
    assert code == 0
    assert "[PASS] transformation-natural" in out
    assert "pulled node 0: 2 objects" in out


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


def test_dispatch_usage_error(capsys):
    from finstack.cli import dispatch
    from finstack.errors import UsageError
    with pytest.raises(UsageError):
        dispatch(["homology"])
    capsys.readouterr()


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
