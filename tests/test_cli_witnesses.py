"""The witness of a failed law, pinned through ``main()``.

Each case is a malformed document whose comp triples are listed in id order,
and the test pins its exit code and the exact stderr: the law that fails
and the first failing pair or triple.  The ghost-key cases give
``id`` or ``inv`` keys that name no declared object or arrow: such a key is
named after every law holds, and it no longer hides a failing law.  The last
test permutes the comp triples of a valid source category, which must not
move the witness: the scans walk composites in id order, not in the order a
document lists them.
"""

from __future__ import annotations

import json

import finstack as fs
import finstack.jsonio as jio
from finstack.cli import main
from test_cli import category_doc, diagram_special_argv, kan_argv, kan_product_docs


def run(capsys, argv) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def z3_not_functor() -> dict:
    """Z/3 to itself with 1 and 2 sent to 1: F(1.1) = 1 but F(1).F(1) = 2."""
    z3 = jio.groupoid_to_json(fs.cyclic_groupoid(3))
    return {"source": z3, "target": z3, "objects": {"*": "*"},
            "arrows": {"0": "0", "1": "1", "2": "1"}}


MAGMA = {
    # a unital table that is not associative: (b.a).b = a but b.(a.b) = b
    "objects": ["*"],
    "arrows": [{"id": m, "src": "*", "tgt": "*"} for m in ("e", "a", "b")],
    "comp": [["e", "e", "e"], ["e", "a", "a"], ["e", "b", "b"], ["a", "e", "a"], ["b", "e", "b"],
             ["a", "a", "a"], ["a", "b", "a"], ["b", "a", "b"], ["b", "b", "a"]],
    "id": {"*": "e"}, "inv": {"e": "e", "a": "a", "b": "b"}}


def ghost_ids(doc: dict) -> dict:
    """``doc`` with the id keys ghost1 ... ghost5, naming no object, sent to
    the arrows 1 ... 5: once every arrow was an identity's image, the
    generators of Light's test were none."""
    return dict(doc, id=dict(doc["id"], **{f"ghost{k}": str(k) for k in range(1, 6)}))


def z6_magma() -> dict:
    """Z/6 with 1.2 = 4 and 1.3 = 3: units and inverses hold, associativity
    fails, and its 36 composites are at least ``SCAN_BELOW``."""
    doc = jio.groupoid_to_json(fs.cyclic_groupoid(6))
    doc["comp"] = [t[:2] + [{"2": "4", "3": "3"}[t[1]]] if t[0] == "1" and t[1] in "23" else t
                   for t in doc["comp"]]
    return doc


def chain2_doc() -> dict:
    """The category 0 -> 1 -> 2 with arrows a, b and their composite ab."""
    ends = {"i0": ("0", "0"), "i1": ("1", "1"), "i2": ("2", "2"),
            "a": ("0", "1"), "ab": ("0", "2"), "b": ("1", "2")}
    comp = [["a", "b", "ab"], ["a", "i1", "a"], ["ab", "i2", "ab"], ["b", "i2", "b"],
            ["i0", "a", "a"], ["i0", "ab", "ab"], ["i0", "i0", "i0"], ["i1", "b", "b"],
            ["i1", "i1", "i1"], ["i2", "i2", "i2"]]
    return category_doc(["0", "1", "2"], ends, comp, {x: f"i{x}" for x in "012"})


def test_functor_composition_witness(capsys, tmp_path):
    argv = ["morita-check", "--functor", write(tmp_path, "f.json", z3_not_functor())]
    assert run(capsys, argv) == (2, "", "error: axiom functor-composition fails at ('1', '1')\n")


def test_lift_composition_witness(capsys, tmp_path):
    """The lift over 0 -> 1 -> 2 sends a and b to the swap of two points, so
    a then b is the identity, but it sends ab to the swap too."""
    docs = kan_product_docs()
    chain = chain2_doc()
    swap = {"src": "X", "tgt": "X", "map": {"x0": "x1", "x1": "x0"}}
    docs["fibers"]["fibers"]["*"] = {"X": ["x0", "x1"]}
    docs["along"] = {"E": chain, "D": chain,
                     "F": {"objects": {x: x for x in "012"},
                           "morphisms": {m["id"]: m["id"] for m in chain["morphisms"]}},
                     "p": {"objects": dict.fromkeys("012", "*"),
                           "morphisms": {m["id"]: "i*" for m in chain["morphisms"]}}}
    docs["lift"] = {"objects": dict.fromkeys("012", "X"),
                    "morphisms": {f"i{x}": {"src": "X", "tgt": "X", "map": {"x0": "x0", "x1": "x1"}}
                                  for x in "012"} | {"a": swap, "b": swap, "ab": swap}}
    assert run(capsys, kan_argv(tmp_path, docs)) == (
        2, "", "error: axiom lift-composition fails at ('a', 'b')\n")


def test_diagram_composition_witness(capsys, tmp_path):
    """Over 0 -> 1 -> 2 every node is Z/2 and a, b are its identity, but ab
    is the trivial functor."""
    z2 = jio.groupoid_to_json(fs.cyclic_groupoid(2))
    identity = {"objects": {"*": "*"}, "arrows": {"0": "0", "1": "1"}}
    diagram = {"shape": chain2_doc(), "nodes": dict.fromkeys("012", z2),
               "arrows": {m: identity for m in ("i0", "i1", "i2", "a", "b")} |
               {"ab": {"objects": {"*": "*"}, "arrows": {"0": "0", "1": "0"}}}}
    cover = {"domain": z2, "objects": {"*": "*"}, "arrows": {"0": "0", "1": "1"}}
    argv = diagram_special_argv(tmp_path, {"diagram": diagram, "cover": cover})
    assert run(capsys, argv) == (
        2, "", "error: assignment is not functorial at ('composition', 'a', 'b')\n")


def test_associativity_witness(capsys, tmp_path):
    argv = ["validate", "--groupoid", write(tmp_path, "magma.json", MAGMA)]
    assert run(capsys, argv) == (2, "", "error: axiom associativity fails at ('b', 'a', 'b')\n")


def test_ghost_id_keys_do_not_hide_associativity(capsys, tmp_path):
    path = write(tmp_path, "magma.json", ghost_ids(z6_magma()))
    expected = (2, "", "error: axiom associativity fails at ('1', '1', '1')\n")
    assert run(capsys, ["validate", "--groupoid", path]) == expected
    assert run(capsys, ["homology", "--groupoid", path, "--dim", "3", "--degree", "1"]) == expected
    plain = write(tmp_path, "plain.json", z6_magma())
    assert run(capsys, ["validate", "--groupoid", plain]) == expected


def test_ghost_id_key_named_after_the_laws(capsys, tmp_path):
    doc = ghost_ids(jio.groupoid_to_json(fs.cyclic_groupoid(6)))
    argv = ["validate", "--groupoid", write(tmp_path, "z6.json", doc)]
    assert run(capsys, argv) == (2, "", "error: id: undeclared id 'ghost1' (at 'ghost1')\n")


def test_ghost_id_keys_do_not_hide_a_non_functor(capsys, tmp_path):
    """Z/6 to itself, the identity but for 2 sent to 1; its source carries
    ghost id keys and is rejected before any functor check."""
    z6 = jio.groupoid_to_json(fs.cyclic_groupoid(6))
    doc = {"source": z6, "target": z6, "objects": {"*": "*"},
           "arrows": {str(k): str(k if k != 2 else 1) for k in range(6)}}
    argv = ["morita-check", "--functor", write(tmp_path, "f.json", doc)]
    assert run(capsys, argv) == (2, "", "error: axiom functor-composition fails at ('1', '1')\n")
    doc["source"] = ghost_ids(z6)
    argv = ["morita-check", "--functor", write(tmp_path, "ghost.json", doc)]
    assert run(capsys, argv) == (2, "", "error: id: undeclared id 'ghost1' (at 'ghost1')\n")


def test_ghost_inv_key_named_after_the_inverse_laws(capsys, tmp_path):
    """A failing inverse law is still named first, as before the key was checked."""
    doc = jio.groupoid_to_json(fs.cyclic_groupoid(2))
    doc["inv"]["ghost"] = "1"
    argv = ["validate", "--groupoid", write(tmp_path, "z2.json", doc)]
    assert run(capsys, argv) == (2, "", "error: inv: undeclared id 'ghost' (at 'ghost')\n")
    doc["inv"]["1"] = "0"
    assert run(capsys, argv[:2] + [write(tmp_path, "z2-bad.json", doc)]) == (
        2, "", "error: axiom right-inverse fails at '1'\n")


def test_witness_ignores_the_order_of_comp_triples(capsys, tmp_path):
    """Four pairs of Z/3 fail; reversing the source's comp triples leaves the
    first witness, the first failing pair in id order, where it was."""
    doc = z3_not_functor()
    expected = run(capsys, ["morita-check", "--functor", write(tmp_path, "f.json", doc)])
    doc["source"] = dict(doc["source"], comp=doc["source"]["comp"][::-1])
    assert run(capsys, ["morita-check", "--functor", write(tmp_path, "rev.json", doc)]) == expected
