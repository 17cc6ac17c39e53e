"""Unified command-line surface with deterministic, golden-testable reports."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import _lazy, jsonio
from .category import functor as groupoid_functor
from .errors import EnumerationBudgetExceeded, FinstackError, SchemaError, UsageError
from .groupoid import is_weak_equivalence, pi0

# the other modules load on the first call of one of their names, so that a
# launch loads only what its subcommand runs; each name stays an attribute of
# this module, which tests and the benchmark's layer timers replace
pi1_iso_check = _lazy("fundamental", "pi1_iso_check")
pi1_presentation = _lazy("fundamental", "pi1_presentation")
chain_complex = _lazy("homology", "chain_complex")
homology = _lazy("homology", "homology")
induced_map_is_isomorphism = _lazy("homology", "induced_map_is_isomorphism")
adjunction_check = _lazy("kan", "adjunction_check")
diagram_special = _lazy("kan", "diagram_special")
groupoid_diagram = _lazy("kan", "groupoid_diagram")
right_kan = _lazy("kan", "right_kan")
comparison_chain_map = _lazy("milnor", "comparison_chain_map")
milnor_B = _lazy("milnor", "milnor_B")
milnor_E = _lazy("milnor", "milnor_E")
resolution_chains = _lazy("resolution", "resolution_chains")
nerve = _lazy("simplicial", "nerve")
simplicial_identity_violations = _lazy("simplicial", "simplicial_identity_violations")
span_pi0 = _lazy("spans", "span_pi0")
zigzag_check = _lazy("spans", "zigzag_check")
cocycle_to_torsor = _lazy("torsor", "cocycle_to_torsor")
find_cocycle_morphism = _lazy("torsor", "find_cocycle_morphism")
torsor_isomorphic = _lazy("torsor", "torsor_isomorphic")
torsor_to_cocycle = _lazy("torsor", "torsor_to_cocycle")


class RunReport:
    """Deterministic run summary: identical inputs yield byte-identical text.

    A verdict passes (True), fails (False) or is inconclusive (None): a check
    that ran out of budget before it could decide.  ``verdicts`` holds
    (name, passed, witness) triples.
    """

    def __init__(self, command: str, inputs_digest: str, outputs: list | None = None,
                 verdicts: list | None = None):
        self.command, self.inputs_digest = command, inputs_digest
        self.outputs = [] if outputs is None else outputs
        self.verdicts = [] if verdicts is None else verdicts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.command, self.inputs_digest, self.outputs, self.verdicts) == \
            (other.command, other.inputs_digest, other.outputs, other.verdicts)

    def add_output(self, line: str) -> None:
        self.outputs.append(line)

    def add_verdict(self, name: str, passed: bool | None, witness: str = "") -> None:
        self.verdicts.append((name, None if passed is None else bool(passed), witness))

    def all_pass(self) -> bool:
        return all(passed is True for _, passed, _ in self.verdicts)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"inputs: sha256:{self.inputs_digest}"]
        lines.extend(self.outputs)
        for name, passed, witness in self.verdicts:
            mark = {True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}[passed]
            suffix = f": {witness}" if witness and not passed else ""
            lines.append(f"[{mark}] {name}{suffix}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "outputs": list(self.outputs),
            "verdicts": [{"name": n, "passed": p, "witness": w} for n, p, w in self.verdicts],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def exit_code(self) -> int:
        """0 all pass, 1 some verdict failed, 3 none failed but some inconclusive."""
        if any(passed is False for _, passed, _ in self.verdicts):
            return 1
        return 0 if self.all_pass() else 3


def _digest(paths: list) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\x00")
    return h.hexdigest()


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _homology_lines(cx, degrees) -> list:
    return [str(homology(cx, n)) for n in degrees]


def _cmd_validate(args) -> RunReport:
    report = RunReport("validate", _digest([args.groupoid]))
    g = jsonio.groupoid_from_json(jsonio.load_json(args.groupoid))
    report.add_output(f"objects: {len(g.objects)}")
    report.add_output(f"arrows: {len(g.morphisms)}")
    report.add_output(f"components: {len(pi0(g))}")
    report.add_verdict("groupoid-axioms", True)
    return report


def _cmd_nerve(args) -> RunReport:
    report = RunReport("nerve", _digest([args.groupoid]))
    g = jsonio.groupoid_from_json(jsonio.load_json(args.groupoid))
    s = nerve(g, args.dim)
    for n in range(args.dim + 1):
        report.add_output(f"degree {n}: {s.count(n)} simplices, {s.count_nondegenerate(n)} nondegenerate")
    violations = simplicial_identity_violations(s)
    report.add_verdict("simplicial-identities", not violations,
                       str(violations[0]) if violations else "")
    return report


def _cmd_homology(args) -> RunReport:
    report = RunReport("homology", _digest([args.groupoid]))
    g = jsonio.groupoid_from_json(jsonio.load_json(args.groupoid))
    # N(g) is homotopy equivalent to the disjoint union of the B Aut(x), one x
    # per component (Segal 1968); a free ZG-resolution of each gives H_*(B G)
    cx = resolution_chains(g, args.dim)
    degrees = [args.degree] if args.degree is not None else list(range(args.dim))
    for line in _homology_lines(cx, degrees):
        report.add_output(line)
    report.add_verdict("boundary-squared-zero", cx.check_dd_zero())
    return report


def _cmd_pi1(args) -> RunReport:
    report = RunReport("pi1", _digest([args.groupoid]))
    g = jsonio.groupoid_from_json(jsonio.load_json(args.groupoid))
    pres = pi1_presentation(g, args.basepoint)
    rep = pi1_iso_check(g, args.basepoint, pres=pres)
    report.add_output(f"generators: {len(pres.generators)}")
    report.add_output(f"relations: {len(pres.relations)}")
    rank, torsion = pres.abelianization()
    torsion_text = ",".join(str(d) for d in torsion) or "-"
    report.add_output(f"abelianization: rank {rank}, torsion {torsion_text}")
    report.add_output(f"vertex group order: {rep.vertex_group_order}")
    order_text = "untested" if rep.presented_order is None else str(rep.presented_order)
    report.add_output(f"presented order: {order_text}")
    report.add_verdict("relations-map-to-identity", rep.relations_hold)
    report.add_verdict("surjective-onto-vertex-group", rep.surjective)
    report.add_verdict("isomorphism", rep.isomorphic, rep.note if not rep.isomorphic else "")
    return report


def _cmd_milnor(args) -> RunReport:
    report = RunReport("milnor", _digest([args.groupoid]))
    g = jsonio.groupoid_from_json(jsonio.load_json(args.groupoid))
    if args.compare_nerve and args.space != "B":
        raise FinstackError("--compare-nerve needs --space B")
    complex_ = (milnor_E if args.space == "E" else milnor_B)(g, args.levels)
    chains = args.homology is not None or args.compare_nerve
    # one pass over the factor's face columns decides d^2 = 0 and, for homology,
    # certifies the level-collapse matching; a count-only job builds no chains
    dd_zero, unmatched = complex_.certify(matching=chains)
    witness = ""
    if unmatched is not None:  # an uncertified matching decides nothing about homology
        x, m = unmatched
        witness = f"level-collapse matching uncertified: a face of s_{m} of {x!r} breaks an identity"
    # the Morse complex of the matching: the factor's normalized chains, zero above the levels
    cx = chain_complex(complex_) if chains and not witness else None
    for k in range(args.levels + 1):
        report.add_output(f"degree {k}: {complex_.count(k)} simplices")
    if args.homology is not None:
        if witness:
            report.add_verdict(f"homology-degree-{args.homology}", None, witness)
        else:
            report.add_output(str(homology(cx, args.homology)))
    if args.compare_nerve:
        degrees = range(max(args.levels - 1, 0))
        agree = [None] * len(degrees)
        if not witness:
            ncx = chain_complex(nerve(g, args.levels))
            cmap = comparison_chain_map(complex_, ncx)
            # top degree first: the kernel pass over d_n then also serves H_{n-1}
            agree = [induced_map_is_isomorphism(cx, ncx, cmap, n) for n in reversed(degrees)][::-1]
        for n in degrees:
            report.add_verdict(f"homology-agreement-degree-{n}", agree[n], witness)
    report.add_verdict("boundary-squared-zero", dd_zero)
    return report


def _cmd_torsor(args) -> RunReport:
    paths = [args.groupoid, args.cocycle] + ([args.cocycle2] if args.cocycle2 else [])
    report = RunReport(f"torsor {args.mode}", _digest(paths))
    g = jsonio.groupoid_from_json(jsonio.load_json(args.groupoid))
    c = jsonio.cocycle_from_json(jsonio.load_json(args.cocycle), g)
    report.add_output(f"base points: {len(c.cov.points)}")
    report.add_output(f"cover sets: {len(c.cov.indices())}")
    report.add_verdict("cocycle-conditions", True)
    if args.mode == "validate":
        return report
    t = cocycle_to_torsor(c)
    sizes = [len(t.fibers[w]) for w in c.cov.points]
    report.add_output(f"torsor size: {sum(sizes)}")
    report.add_output(f"fiber sizes: {','.join(map(str, sizes)) or '-'}")
    report.add_verdict("torsor-invariants", True)
    if args.mode == "build":
        return report
    if args.mode == "roundtrip":
        c2 = torsor_to_cocycle(t)
        forward = find_cocycle_morphism(c, c2)
        backward = find_cocycle_morphism(c2, c)
        report.add_verdict("roundtrip-morphism-to-input", forward is not None)
        report.add_verdict("roundtrip-morphism-from-input", backward is not None)
        return report
    if args.mode == "compare":
        if not args.cocycle2:
            raise FinstackError("compare needs --cocycle2")
        c2 = jsonio.cocycle_from_json(jsonio.load_json(args.cocycle2), g)
        t2 = cocycle_to_torsor(c2)
        morphism = find_cocycle_morphism(c, c2)
        iso = torsor_isomorphic(t, t2)
        report.add_output(f"morphism-exists: {'yes' if morphism is not None else 'no'}")
        report.add_output(f"torsors-isomorphic: {'yes' if iso else 'no'}")
        report.add_verdict("morphism-iff-isomorphic", (morphism is not None) == iso)
        return report
    raise FinstackError(f"unknown torsor mode {args.mode!r}")


def _cmd_localize(args) -> RunReport:
    report = RunReport("localize", _digest([args.cat, args.cls]))
    cat = jsonio.category_from_json(jsonio.load_json(args.cat))
    rcls = jsonio.morphism_class_from_json(jsonio.load_json(args.cls), cat)
    classes = span_pi0(rcls, args.source, args.target)
    report.add_output(f"hom-set size: {len(cat.hom(args.source, args.target))}")
    report.add_output(f"localized classes: {len(classes)}")
    for rep_span in classes.representatives():
        report.add_output(f"class rep: apex {rep_span.apex}, left {rep_span.left}, right {rep_span.right}")
    report.add_verdict("class-enumeration", True)
    if args.zigzag:
        zz = zigzag_check(rcls, classes)
        report.add_output(f"homotopy classes: {zz.homotopy_class_count}")
        report.add_verdict("zigzag-bijection", zz.bijective)
    return report


def _cmd_kan(args) -> RunReport:
    report = RunReport("kan", _digest([args.base, args.fibers, args.along, args.lift]))
    base = jsonio.category_from_json(jsonio.load_json(args.base))
    ic = jsonio.indexed_category_from_json(jsonio.load_json(args.fibers), base)
    along_doc = jsonio.load_json(args.along)
    for key in ("E", "D", "F", "p"):
        if key not in along_doc:
            raise FinstackError(f"--along document needs key {key!r}")
    e_cat = jsonio.category_from_json(along_doc["E"])
    d_cat = jsonio.category_from_json(along_doc["D"])
    f = jsonio.cat_functor_from_json(along_doc["F"], e_cat, d_cat)
    p = jsonio.cat_functor_from_json(along_doc["p"], d_cat, base)
    q = f.then(p)
    p_lift = jsonio.lift_from_json(jsonio.load_json(args.lift), ic, e_cat, q)
    try:
        rf = right_kan(ic, f, p, p_lift)
        for d in d_cat.objects:
            report.add_output(f"RF at {d}: {rf.lift.objects[d]}")
        rep = adjunction_check(ic, f, p, p_lift, rf.lift, rf)
    except EnumerationBudgetExceeded as exc:
        report.add_verdict("adjunction-bijection", None, str(exc))
        return report
    report.add_output(f"hom sizes: {rep.left_size} vs {rep.right_size}")
    report.add_verdict("adjunction-bijection", rep.bijective, rep.witness)
    return report


def _cmd_diagram_special(args) -> RunReport:
    report = RunReport("diagram-special", _digest([args.diagram, args.cover]))
    doc = jsonio.load_json(args.diagram)
    shape = jsonio.category_from_json(jsonio._require(doc, "shape", dict))
    nodes = {d: jsonio.groupoid_from_json(node)
             for d, node in jsonio._require(doc, "nodes", dict).items()}
    missing = [x for x in shape.objects if x not in nodes]
    if missing:
        raise FinstackError(f"--diagram document lacks nodes for {missing!r}")
    arrows = {}
    for m, entry in jsonio._require(doc, "arrows", dict).items():
        if m not in shape.src:
            raise SchemaError(f"arrows key {m!r} is not a morphism of the shape")
        arrows[m] = groupoid_functor(nodes[shape.src[m]], nodes[shape.tgt[m]],
                                     *jsonio.groupoid_functor_tables(entry))
    diagram = groupoid_diagram(shape, nodes, arrows)
    cover_doc = jsonio.load_json(args.cover)
    domain = jsonio.groupoid_from_json(jsonio._require(cover_doc, "domain", dict))
    star = shape.final_object()
    cover = groupoid_functor(domain, nodes[star], *jsonio.groupoid_functor_tables(cover_doc))
    sd = diagram_special(diagram, cover)
    for d in shape.objects:
        node = sd.pulled.nodes[d]
        report.add_output(f"pulled node {d}: {len(node.objects)} objects, {len(node.morphisms)} arrows")
    naturality = all(
        sd.to_base[shape.tgt[m]].obj_map[sd.pulled.arrows[m].obj_map[o]]
        == diagram.arrows[m].obj_map[sd.to_base[shape.src[m]].obj_map[o]]
        for m in shape.morphisms for o in sd.pulled.nodes[shape.src[m]].objects
    ) and all(
        sd.to_base[shape.tgt[m]].mor_map[sd.pulled.arrows[m].mor_map[a]]
        == diagram.arrows[m].mor_map[sd.to_base[shape.src[m]].mor_map[a]]
        for m in shape.morphisms for a in sd.pulled.nodes[shape.src[m]].morphisms
    )
    report.add_verdict("pulled-diagram-functorial", True)
    report.add_verdict("transformation-natural", naturality)
    return report


def _cmd_morita(args) -> RunReport:
    report = RunReport("morita-check", _digest([args.functor]))
    gf = jsonio.groupoid_functor_from_json(jsonio.load_json(args.functor))
    weak = is_weak_equivalence(gf)
    report.add_verdict("weak-equivalence", weak)
    cx1 = chain_complex(nerve(gf.source, args.dim))
    cx2 = chain_complex(nerve(gf.target, args.dim))
    for n in range(args.dim):
        h1, h2 = homology(cx1, n), homology(cx2, n)
        agree = h1.pair() == h2.pair()
        report.add_output(f"source {h1} | target {h2}")
        report.add_verdict(f"homology-agreement-degree-{n}", agree if weak else True,
                           "" if agree or not weak else "weak equivalence with differing homology")
    return report


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process and shared."""
    parser = argparse.ArgumentParser(prog="finstack",
                                     description="Finite-model engine for groupoid classifying spaces.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out", default=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="validate a groupoid JSON document", parents=[common])
    p.add_argument("--groupoid", required=True)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("nerve", help="build the truncated nerve and count simplices", parents=[common])
    p.add_argument("--groupoid", required=True)
    p.add_argument("--dim", type=nonnegative_int, required=True)
    p.set_defaults(run=_cmd_nerve)

    p = sub.add_parser("homology", help="integral homology of the nerve", parents=[common])
    p.add_argument("--groupoid", required=True)
    p.add_argument("--dim", type=nonnegative_int, required=True)
    p.add_argument("--degree", type=nonnegative_int, default=None)
    p.set_defaults(run=_cmd_homology)

    p = sub.add_parser("pi1", help="edge-path group and isotropy comparison", parents=[common])
    p.add_argument("--groupoid", required=True)
    p.add_argument("--basepoint", required=True)
    p.set_defaults(run=_cmd_pi1)

    p = sub.add_parser("milnor", help="truncated join model and its quotient", parents=[common])
    p.add_argument("--groupoid", required=True)
    p.add_argument("--levels", type=nonnegative_int, required=True)
    p.add_argument("--space", choices=["E", "B"], required=True)
    p.add_argument("--homology", type=nonnegative_int, default=None)
    p.add_argument("--compare-nerve", action="store_true", dest="compare_nerve")
    p.set_defaults(run=_cmd_milnor)

    p = sub.add_parser("torsor", help="descent data operations", parents=[common])
    p.add_argument("mode", choices=["validate", "build", "roundtrip", "compare"])
    p.add_argument("--groupoid", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--cocycle2", default=None)
    p.set_defaults(run=_cmd_torsor)

    p = sub.add_parser("localize", help="span-calculus localized hom-sets", parents=[common])
    p.add_argument("--cat", required=True)
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--zigzag", action="store_true")
    p.set_defaults(run=_cmd_localize)

    p = sub.add_parser("kan", help="relative right Kan extension with adjunction check", parents=[common])
    p.add_argument("--base", required=True)
    p.add_argument("--fibers", required=True)
    p.add_argument("--along", required=True)
    p.add_argument("--lift", required=True)
    p.set_defaults(run=_cmd_kan)

    p = sub.add_parser("diagram-special", help="base extend a cover across a diagram", parents=[common])
    p.add_argument("--diagram", required=True)
    p.add_argument("--cover", required=True)
    p.set_defaults(run=_cmd_diagram_special)

    p = sub.add_parser("morita-check", help="weak equivalence and homology agreement", parents=[common])
    p.add_argument("--functor", required=True)
    p.add_argument("--dim", type=nonnegative_int, default=3)
    p.set_defaults(run=_cmd_morita)

    return parser


def dispatch(argv: list) -> RunReport:
    """Parse and run one subcommand, write its ``--json-out`` file, and return its report.

    Raises :class:`UsageError` with the usage text on malformed command
    lines; input errors propagate as the raising module's exception.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise UsageError(parser.format_usage()) from None
        raise
    report = args.run(args)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return report


def main(argv: list | None = None) -> int:
    try:
        report = dispatch(list(sys.argv[1:] if argv is None else argv))
    except SystemExit:  # --help, after argparse printed it
        return 0
    except UsageError:  # argparse already printed its message
        return 2
    except (FinstackError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(report.to_text())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
