"""The job lists of the four workloads, each job with its expected report.

A job is one CLI call: an argument list whose ``@name`` tokens stand for the
paths of its input documents, the documents themselves (plain JSON built in
``bench/docs.py``), and the exit code and report lines it must produce.
Expected lines are computed here from the structure the documents were built
from, by closed forms and by counting, never by running finstack.  The
string ``{px}`` in arguments and expected lines stands for the prefix a pass
puts in front of every id.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from math import comb

from docs import (
    Groupoid,
    anchor_object,
    arrow_base,
    category_doc,
    cyclic,
    cyclic_action,
    cylinder,
    discrete,
    disjoint_union,
    fiber_sets,
    gauge_cocycle,
    group_groupoid,
    identity_map,
    one_object_base,
    point_into,
    relabel,
    subset_poset,
    symmetric3,
    transitive,
)

P = "{px}"


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple      # "@doc" tokens become paths; "{px}" becomes the pass prefix
    docs: dict       # doc name -> raw document
    code: int        # expected exit code
    lines: tuple     # expected report lines after the command and digest lines

    def copy(self, tag: str) -> "Job":
        """The same job on inputs whose ids all start with ``tag``: the same work
        on different input bytes."""
        return Job(f"{self.name}.{tag}", tuple(t.replace(P, P + tag) for t in self.argv),
                   {name: relabel(doc, tag) for name, doc in self.docs.items()}, self.code,
                   tuple(line.replace(P, P + tag) for line in self.lines))

    def render(self, px: str, paths: dict) -> list:
        return [paths[t[1:]] if t.startswith("@") else t.replace(P, px) for t in self.argv]

    def write_docs(self, px: str, directory) -> dict:
        """Write the relabelled documents; returns doc name -> path."""
        paths = {}
        for doc_name, doc in self.docs.items():
            path = directory / f"{self.name}.{doc_name}.json"
            path.write_text(json.dumps(relabel(doc, px)))
            paths[doc_name] = str(path)
        return paths

    def check(self, px: str, paths: dict, code: int, text: str) -> str:
        """Empty string when the report is the expected one, else the first difference."""
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        digest = hashlib.sha256()
        for token in self.argv:
            if token.startswith("@"):
                with open(paths[token[1:]], "rb") as fh:
                    digest.update(fh.read())
                digest.update(b"\x00")
        command = " ".join(self.argv[:2]) if self.argv[0] == "torsor" else self.argv[0]
        want = [f"command: {command}", f"inputs: sha256:{digest.hexdigest()}"]
        want += [line.replace(P, px) for line in self.lines]
        got = text.split("\n")
        if got[-1] == "":
            got.pop()
        for i, (g, w) in enumerate(itertools.zip_longest(got, want)):
            if g != w:
                return f"line {i}: got {g!r}, expected {w!r}"
        return ""


# --- closed forms ----------------------------------------------------------


def invariant_factors(orders) -> tuple:
    """Invariant factors of a direct sum of cyclic groups, in divisibility order."""
    powers: dict = {}
    for n in orders:
        q = 2
        while n > 1:
            e = 1
            while n % q == 0:
                n //= q
                e *= q
            if e > 1:
                powers.setdefault(q, []).append(e)
            q += 1
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for plist in powers.values():
        for i, e in enumerate(sorted(plist, reverse=True)):
            factors[length - 1 - i] *= e
    return tuple(factors)


def homology_text(n: int, free: int, orders) -> str:
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in invariant_factors(orders))
    return f"H_{n} = {' (+) '.join(parts) if parts else '0'}"


def group_homology(g: Groupoid, n: int) -> str:
    """H_n of the nerve: one copy of H_n(B Aut) per component."""
    if n == 0:
        return homology_text(0, len(g.components), [])
    return homology_text(n, 0, [d for _, grp in g.components for d in grp.homology_torsion(n)])


def nerve_counts(g: Groupoid, n: int) -> tuple[int, int]:
    """Strings of n composable arrows, and those without identities.

    A component with k objects and isotropy of order m has k*m arrows out
    of each object, so k*(km)^n strings of which k*(km-1)^n avoid identities.
    """
    total = sum(len(objs) * (len(objs) * grp.order) ** n for objs, grp in g.components)
    nondeg = sum(len(objs) * (len(objs) * grp.order - 1) ** n for objs, grp in g.components)
    return total, nondeg


def verdict(name: str, passed: bool = True) -> str:
    return f"[{'PASS' if passed else 'FAIL'}] {name}"


# --- nerve-homology ------------------------------------------------------


def _groupoids() -> dict:
    z2, z3, z4, z5 = (group_groupoid(cyclic(m)) for m in (2, 3, 4, 5))
    return {
        "z2": z2, "z3": z3, "z4": z4, "z5": z5,
        "s3": group_groupoid(symmetric3()),
        "pair2": transitive(["x0", "x1"], cyclic(1)),
        "pair3": transitive(["x0", "x1", "x2"], cyclic(1)),
        # Z/4 on Z/4 + Z/2: one free orbit and one orbit with stabilizer Z/2
        "act4": cyclic_action([f"q{i}" for i in range(4)] + ["r0", "r1"], 4,
                              lambda x, k: f"{x[0]}{(int(x[1]) + k) % (4 if x[0] == 'q' else 2)}"),
        # Z/2 acting freely on two orbits
        "free2": cyclic_action(["u0", "u1", "v0", "v1"], 2,
                               lambda x, k: f"{x[0]}{(int(x[1]) + k) % 2}"),
        "z2+z3": disjoint_union(z2, z3),
        "z2+pair2": disjoint_union(z2, transitive(["x0", "x1"], cyclic(1))),
        "z6": group_groupoid(cyclic(6)),
        "pair4": transitive(["x0", "x1", "x2", "x3"], cyclic(1)),
        "z2xpair2": transitive(["x0", "x1"], cyclic(2)),
    }


def validate_job(key: str, g: Groupoid) -> Job:
    arrows = sum(len(objs) ** 2 * grp.order for objs, grp in g.components)
    return Job(f"validate-{key}", ("validate", "--groupoid", "@g"), {"g": g.doc}, 0, (
        f"objects: {len(g.objects)}", f"arrows: {arrows}",
        f"components: {len(g.components)}", verdict("groupoid-axioms")))


def nerve_job(key: str, g: Groupoid, dim: int) -> Job:
    lines = []
    for n in range(dim + 1):
        total, nondeg = nerve_counts(g, n)
        lines.append(f"degree {n}: {total} simplices, {nondeg} nondegenerate")
    lines.append(verdict("simplicial-identities"))
    return Job(f"nerve-{key}-{dim}", ("nerve", "--groupoid", "@g", "--dim", str(dim)),
               {"g": g.doc}, 0, tuple(lines))


def homology_job(key: str, g: Groupoid, dim: int, degree: int | None = None) -> Job:
    argv = ("homology", "--groupoid", "@g", "--dim", str(dim))
    degrees = range(dim) if degree is None else [degree]
    if degree is not None:
        argv += ("--degree", str(degree))
    lines = [group_homology(g, n) for n in degrees] + [verdict("boundary-squared-zero")]
    name = f"homology-{key}-{dim}" + ("" if degree is None else f"-H{degree}")
    return Job(name, argv, {"g": g.doc}, 0, tuple(lines))


def pi1_job(key: str, g: Groupoid, basepoint: str) -> Job:
    """Edge-path presentation over the basepoint's component.

    Generators are the non-identity arrows of the component, k(km-1); the
    relations are the k-1 spanning-tree edges plus one per string of two
    non-identity arrows starting in the component, k(km-1)^2.
    """
    objs, grp = g.components[g.component_of(basepoint)]
    k, m = len(objs), grp.order
    torsion = ",".join(str(d) for d in invariant_factors(grp.abelianization())) or "-"
    return Job(f"pi1-{key}", ("pi1", "--groupoid", "@g", "--basepoint", P + basepoint),
               {"g": g.doc}, 0, (
                   f"generators: {k * (k * m - 1)}",
                   f"relations: {k - 1 + k * (k * m - 1) ** 2}",
                   f"abelianization: rank 0, torsion {torsion}",
                   f"vertex group order: {m}",
                   f"presented order: {m}",
                   verdict("relations-map-to-identity"),
                   verdict("surjective-onto-vertex-group"),
                   verdict("isomorphism")))


def morita_job(key: str, source: Groupoid, target: Groupoid, functor_doc: dict,
               weak: bool, dim: int) -> Job:
    """Weak equivalence is known from the construction; homology from closed forms."""
    lines = [f"source {group_homology(source, n)} | target {group_homology(target, n)}"
             for n in range(dim)]
    lines.append(verdict("weak-equivalence", weak))
    lines += [verdict(f"homology-agreement-degree-{n}") for n in range(dim)]
    return Job(f"morita-{key}-{dim}", ("morita-check", "--functor", "@f", "--dim", str(dim)),
               {"f": functor_doc}, 0 if weak else 1, tuple(lines))


def nerve_homology_jobs() -> list:
    g = _groupoids()
    point = transitive(["pt"], cyclic(1))
    orbits = Groupoid(  # the two orbits of free2 as a discrete groupoid
        {"objects": ["u", "v"], "arrows": [{"id": "1u", "src": "u", "tgt": "u"},
                                            {"id": "1v", "src": "v", "tgt": "v"}],
         "comp": [["1u", "1u", "1u"], ["1v", "1v", "1v"]],
         "id": {"u": "1u", "v": "1v"}, "inv": {"1u": "1u", "1v": "1v"}},
        [(["u"], cyclic(1)), (["v"], cyclic(1))])
    orbits_into_free = {"source": orbits.doc, "target": g["free2"].doc,
                        "objects": {"u": "u0", "v": "v0"},
                        "arrows": {"1u": "u0.0", "1v": "v0.0"}}
    return with_copies([
        validate_job("z2", g["z2"]),
        validate_job("act4", g["act4"]),
        validate_job("z2+pair2", g["z2+pair2"]),
        nerve_job("z2", g["z2"], 3),
        nerve_job("pair2", g["pair2"], 4),
        nerve_job("z3", g["z3"], 4),
        pi1_job("z3", g["z3"], "*"),
        pi1_job("pair3", g["pair3"], "x1"),
        pi1_job("act4", g["act4"], "r0"),
        pi1_job("s3", g["s3"], "*"),
        morita_job("pt-pair2", point, g["pair2"], point_into(g["pair2"], "x1"), True, 3),
        morita_job("orbits-free2", orbits, g["free2"], orbits_into_free, True, 3),
        morita_job("pt-z2", point, g["z2"], point_into(g["z2"], "*"), False, 3),
        homology_job("z2", g["z2"], 4),
        homology_job("z2", g["z2"], 5, 4),
        homology_job("z2", g["z2"], 6, 5),
        homology_job("free2", g["free2"], 4),
        homology_job("z2+z3", g["z2+z3"], 4),
        homology_job("z2+pair2", g["z2+pair2"], 5, 3),
        homology_job("z3", g["z3"], 5),
        homology_job("z2+z3", g["z2+z3"], 5, 4),
        homology_job("z3", g["z3"], 5, 4),
        homology_job("z4", g["z4"], 4),
        homology_job("z2xpair2", g["z2xpair2"], 4, 2),
        homology_job("z3", g["z3"], 6, 4),
        homology_job("pair3", g["pair3"], 5, 3),
        homology_job("s3", g["s3"], 3),
        homology_job("z4", g["z4"], 5, 2),
        homology_job("pair3", g["pair3"], 5, 4),
        homology_job("z4", g["z4"], 5, 3),
        homology_job("s3", g["s3"], 4, 1),
        homology_job("act4", g["act4"], 3),
        homology_job("z6", g["z6"], 4, 2),
        homology_job("s3", g["s3"], 4, 2),
        homology_job("z2xpair2", g["z2xpair2"], 4, 3),
        homology_job("act4", g["act4"], 4, 2),
        homology_job("z2xpair2", g["z2xpair2"], 5, 3),
        homology_job("z5", g["z5"], 4, 3),
        homology_job("z5", g["z5"], 5, 2),
        homology_job("z5", g["z5"], 4),
        homology_job("z4", g["z4"], 5, 4),
        homology_job("pair4", g["pair4"], 5, 2),
        homology_job("pair4", g["pair4"], 4),
        homology_job("z5", g["z5"], 5, 3),
        homology_job("pair4", g["pair4"], 4, 3),
        homology_job("s3", g["s3"], 5, 2),
        homology_job("act4", g["act4"], 4, 3),
        homology_job("s3", g["s3"], 4, 3),
    ], "homology-z4-4", "homology-pair4-4")


# --- model-compare -------------------------------------------------------


def milnor_job(key: str, g: Groupoid, levels: int, space: str, degree: int | None,
               compare: bool = False) -> Job:
    """Counts and homology of the level-truncated join model and its quotient.

    E is the disjoint union over objects x of the join of L+1 copies of the
    arrows out of x, so it has sum_x C(L+1, k+1) |out(x)|^(k+1) k-simplices
    and H_n(E) = 0 for 1 <= n < L.  The diagonal translation is free with
    orbits of size |out(x)|, so B has C(L+1, k+1) |out(x)|^k per object x.
    E being (L-1)-connected, B agrees with the classifying space in degrees
    below L.
    """
    argv = ("milnor", "--groupoid", "@g", "--levels", str(levels), "--space", space)
    lines = []
    for k in range(levels + 1):
        per = [(len(objs), len(objs) * grp.order) for objs, grp in g.components]
        if space == "E":
            count = sum(n * comb(levels + 1, k + 1) * out ** (k + 1) for n, out in per)
        else:
            count = sum(n * comb(levels + 1, k + 1) * out ** k for n, out in per)
        lines.append(f"degree {k}: {count} simplices")
    if degree is not None:
        argv += ("--homology", str(degree))
        if space == "B":
            lines.append(group_homology(g, degree))
        else:
            lines.append(homology_text(degree, len(g.objects) if degree == 0 else 0, []))
    if compare:
        argv += ("--compare-nerve",)
        lines += [verdict(f"homology-agreement-degree-{n}") for n in range(levels - 1)]
    lines.append(verdict("boundary-squared-zero"))
    name = f"milnor-{space}-{key}-{levels}" + ("" if degree is None else f"-H{degree}")
    return Job(name + ("-cmp" if compare else ""), argv, {"g": g.doc}, 0, tuple(lines))


# --- descent -------------------------------------------------------------


def torsor_job(mode: str, key: str, target: Groupoid, c1: dict, c2: dict | None = None) -> Job:
    """Descent data checked against counting.

    The glued torsor has |arrows out of a(w)| elements over each point w.
    A cocycle morphism exists exactly when a(w) and a'(w) lie in one component
    at every point, and then the torsors are isomorphic as well.
    """
    points = sorted(c1["W"], key=repr)
    sizes = [target.out_degree(anchor_object(c1, w)) for w in points]
    lines = [f"base points: {len(points)}", f"cover sets: {len(c1['cover'])}"]
    verdicts = [verdict("cocycle-conditions")]
    docs = {"g": target.doc, "c": c1}
    argv = ("torsor", mode, "--groupoid", "@g", "--cocycle", "@c")
    if mode != "validate":
        lines += [f"torsor size: {sum(sizes)}", f"fiber sizes: {','.join(map(str, sizes)) or '-'}"]
        verdicts.append(verdict("torsor-invariants"))
    if mode == "roundtrip":
        verdicts += [verdict("roundtrip-morphism-to-input"), verdict("roundtrip-morphism-from-input")]
    if mode == "compare":
        docs["c2"] = c2
        argv += ("--cocycle2", "@c2")
        exists = all(target.component_of(anchor_object(c1, w)) == target.component_of(anchor_object(c2, w))
                     for w in points)
        answer = "yes" if exists else "no"
        lines += [f"morphism-exists: {answer}", f"torsors-isomorphic: {answer}"]
        verdicts.append(verdict("morphism-iff-isomorphic"))
    return Job(f"torsor-{mode}-{key}", argv, docs, 0, tuple(lines + verdicts))


def cyclic_gauge(target: Groupoid, charts: dict, coefficients: tuple) -> dict:
    """Gauge cocycle over a one-object target.

    Charts are named by integers and points by w<integer>; with coefficients
    (a, b, c) the gauge on chart i at point w is arrow number a*i + b*w + c*i*w
    (mod the group order) in sorted id order.
    """
    a, b, c = coefficients
    arrows = sorted(target.src)
    anchor = {w: "*" for part in charts.values() for w in part}
    gauge = {(i, w): arrows[(a * int(i) + b * int(w[1:]) + c * int(i) * int(w[1:])) % len(arrows)]
             for i, part in charts.items() for w in part}
    return gauge_cocycle(target, charts, anchor, gauge)


# --- localize-kan --------------------------------------------------------


def localize_job(key: str, cat: dict, cls: dict, source: str, target: str,
                 hom: int, classes: list) -> Job:
    """``classes`` holds one (apex, left, right) representative per localized class."""
    lines = [f"hom-set size: {hom}", f"localized classes: {len(classes)}"]
    lines += [f"class rep: apex {P}{v}, left {P}{r}, right {P}{g}" for v, r, g in classes]
    lines += [f"homotopy classes: {len(classes)}",
              verdict("class-enumeration"), verdict("zigzag-bijection")]
    return Job(f"localize-{key}", ("localize", "--cat", "@cat", "--class", "@cls",
                                   "--from", P + source, "--to", P + target, "--zigzag"),
               {"cat": cat, "cls": cls}, 0, tuple(lines))


def poset_localize_job(n: int, source: str, target: str) -> Job:
    """With R the identities, each morphism x -> y is its own localized class."""
    cat, cls, hom = subset_poset(n)
    reps = [(source, f"{source}<{source}", f"{source}<{target}")] * hom[(source, target)]
    return localize_job(f"poset{n}-{source}-{target}", cat, cls, source, target,
                        hom[(source, target)], reps)


def cylinder_localize_job(sections: int, isolated: int) -> Job:
    """All f_i: X -> Y are homotopic through V, so one class; its least span
    in ``repr`` order of (apex, left, right) is (V, r, g)."""
    cat, cls = cylinder(sections, isolated)
    spans = [("X", "1X", f"f{i}") for i in range(sections)]
    spans += [("V", "r", "g")] + [("V", "r", f"h{i}") for i in range(sections)]
    rep = min(spans, key=lambda s: tuple(repr(x) for x in s))
    return localize_job(f"cylinder{sections}-{isolated}", cat, cls, "X", "Y", sections, [rep])


def _kan_docs(base: dict, fibers: dict, pulls: dict, e_cat: dict, d_cat: dict,
              f_doc: dict, p_doc: dict, lift_doc: dict) -> dict:
    return {"base": base, "fibers": {"fibers": fibers, "pulls": pulls},
            "along": {"E": e_cat, "D": d_cat, "F": f_doc, "p": p_doc}, "lift": lift_doc}


def _first_of_size(sets: dict, size: int) -> str:
    return min((name for name, elems in sets.items() if len(elems) == size), key=repr)


def _kan_job(key: str, docs: dict, rf: dict, hom: int) -> Job:
    lines = [f"RF at {P}{d}: {P}{name}" for d, name in sorted(rf.items(), key=lambda kv: repr(kv[0]))]
    lines += [f"hom sizes: {hom} vs {hom}", verdict("adjunction-bijection")]
    return Job(f"kan-{key}", ("kan", "--base", "@base", "--fibers", "@fibers",
                              "--along", "@along", "--lift", "@lift"), docs, 0, tuple(lines))


def _span_shape() -> dict:
    """D = (u <- s -> v)."""
    morphisms = {"1s": ("s", "s"), "1u": ("u", "u"), "1v": ("v", "v"),
                 "mu": ("s", "u"), "mv": ("s", "v")}
    comp = {(f"1{x}", f"1{x}"): f"1{x}" for x in "suv"}
    comp.update({("1s", "mu"): "mu", ("mu", "1u"): "mu", ("1s", "mv"): "mv", ("mv", "1v"): "mv"})
    return category_doc(["s", "u", "v"], morphisms, comp, {x: f"1{x}" for x in "suv"})


def kan_product_job(a: int, b: int, fillers: dict, over_arrow: bool = False) -> Job:
    """Right Kan extension of P = (A, B) from the discrete E = {e1, e2} to u <- s -> v.

    RF(s) is the product A x B, so the fiber set of size |A||B| first in id
    order.  Over the arrow base b0 -> b1, s lies over b0 and the pullback
    along b0 -> b1 is a relabelling.  Both hom-sets of the adjunction have
    |A|^|A| |B|^|B| elements: a transformation out of RF is fixed by its
    components at u and v, and E is discrete.
    """
    sets = fiber_sets({"A": a, "B": b, "AB": a * b, **fillers})
    e_cat, d_cat = discrete(["e1", "e2"]), _span_shape()
    f_doc = {"objects": {"e1": "u", "e2": "v"}, "morphisms": {"1e1": "1u", "1e2": "1v"}}
    lift_doc = {"objects": {"e1": "A", "e2": "B"},
                "morphisms": {"1e1": {"src": "A", "tgt": "A", "map": identity_map(sets["A"])},
                              "1e2": {"src": "B", "tgt": "B", "map": identity_map(sets["B"])}}}
    if over_arrow:
        low = {f"m{name}": [f"m{x}" for x in elems] for name, elems in sets.items()}
        fibers = {"b0": low, "b1": sets}
        pulls = {"1b0": {"kind": "identity"}, "1b1": {"kind": "identity"},
                 "u": {"kind": "relabel", "objects": {name: f"m{name}" for name in sets},
                       "carriers": {name: {x: f"m{x}" for x in elems} for name, elems in sets.items()}}}
        p_doc = {"objects": {"s": "b0", "u": "b1", "v": "b1"},
                 "morphisms": {"1s": "1b0", "1u": "1b1", "1v": "1b1", "mu": "u", "mv": "u"}}
        docs = _kan_docs(arrow_base(), fibers, pulls, e_cat, d_cat, f_doc, p_doc, lift_doc)
        rf = {"s": _first_of_size(low, a * b), "u": _first_of_size(sets, a), "v": _first_of_size(sets, b)}
    else:
        p_doc = {"objects": {x: "*" for x in "suv"}, "morphisms": {f"1{x}": "1*" for x in "suv"}}
        p_doc["morphisms"].update({"mu": "1*", "mv": "1*"})
        docs = _kan_docs(one_object_base(), {"*": sets}, {"1*": {"kind": "identity"}},
                         e_cat, d_cat, f_doc, p_doc, lift_doc)
        rf = {"s": _first_of_size(sets, a * b), "u": _first_of_size(sets, a), "v": _first_of_size(sets, b)}
    sizes = "-".join(f"{n}{s}" for n, s in fillers.items())
    name = f"{'relabel' if over_arrow else 'product'}{a}x{b}" + (f"+{sizes}" if sizes else "")
    return _kan_job(name, docs, rf, a ** a * b ** b)


def kan_equalizer_job(n: int, k: int, al, be, fillers: dict) -> Job:
    """RF(s) is the equalizer of P(al), P(be): N -> K, where s -> d0 and the
    two composites s -> d0 -> d1 agree.  The hom sizes equal the number of
    pairs (v0: N -> N, v1: K -> K) commuting with both maps, counted here by
    enumeration."""
    sets = fiber_sets({"N": n, "K": k, **fillers})
    equal = [i for i in range(n) if al(i) == be(i)]
    sets["Q"] = [f"Q.{i}" for i in range(len(equal))]
    e_morphisms = {"1e0": ("e0", "e0"), "1e1": ("e1", "e1"), "al": ("e0", "e1"), "be": ("e0", "e1")}
    e_comp = {("1e0", "1e0"): "1e0", ("1e1", "1e1"): "1e1"}
    for m in ("al", "be"):
        e_comp.update({("1e0", m): m, (m, "1e1"): m})
    e_cat = category_doc(["e0", "e1"], e_morphisms, e_comp, {"e0": "1e0", "e1": "1e1"})
    d_morphisms = {"1s": ("s", "s"), "1d0": ("d0", "d0"), "1d1": ("d1", "d1"),
                   "x": ("s", "d0"), "y": ("s", "d1"), "dal": ("d0", "d1"), "dbe": ("d0", "d1")}
    d_comp = {(m, m): m for m in ("1s", "1d0", "1d1")}
    d_comp.update({("1s", "x"): "x", ("x", "1d0"): "x", ("1s", "y"): "y", ("y", "1d1"): "y",
                   ("x", "dal"): "y", ("x", "dbe"): "y"})
    for m in ("dal", "dbe"):
        d_comp.update({("1d0", m): m, (m, "1d1"): m})
    d_cat = category_doc(["s", "d0", "d1"], d_morphisms, d_comp, {"s": "1s", "d0": "1d0", "d1": "1d1"})
    f_doc = {"objects": {"e0": "d0", "e1": "d1"},
             "morphisms": {"1e0": "1d0", "1e1": "1d1", "al": "dal", "be": "dbe"}}
    p_doc = {"objects": {x: "*" for x in ("s", "d0", "d1")},
             "morphisms": {m: "1*" for m in d_morphisms}}
    nmap = lambda fn: {f"N.{i}": f"K.{fn(i)}" for i in range(n)}  # noqa: E731
    lift_doc = {"objects": {"e0": "N", "e1": "K"},
                "morphisms": {"1e0": {"src": "N", "tgt": "N", "map": identity_map(sets["N"])},
                              "1e1": {"src": "K", "tgt": "K", "map": identity_map(sets["K"])},
                              "al": {"src": "N", "tgt": "K", "map": nmap(al)},
                              "be": {"src": "N", "tgt": "K", "map": nmap(be)}}}
    docs = _kan_docs(one_object_base(), {"*": sets}, {"1*": {"kind": "identity"}},
                     e_cat, d_cat, f_doc, p_doc, lift_doc)
    hom = sum(1 for v0 in itertools.product(range(n), repeat=n)
              for v1 in itertools.product(range(k), repeat=k)
              if all(al(v0[i]) == v1[al(i)] and be(v0[i]) == v1[be(i)] for i in range(n)))
    rf = {"s": _first_of_size(sets, len(equal)), "d0": _first_of_size(sets, n),
          "d1": _first_of_size(sets, k)}
    sizes = "-".join(f"{m}{s}" for m, s in fillers.items())
    return _kan_job(f"equalizer{n}x{k}" + (f"+{sizes}" if sizes else ""), docs, rf, hom)


def diagram_special_job(key: str, node0: Groupoid, node1: Groupoid, f_objects: dict,
                        f_arrows: dict, domain: Groupoid, c_objects: dict, c_arrows: dict) -> Job:
    """Base extension of the cover C -> P(n1) along f: P(n0) -> P(n1).

    The pulled node over d is the iso-comma groupoid of P(d) -> P(n1) and
    the cover: one object per (x, y, k: f(x) -> c(y)) and one arrow per
    (a, b, k) with k leaving the images of the sources of a and b.
    """
    def pulled(node: Groupoid, fobj: dict) -> tuple[int, int]:
        objects = arrows = 0
        for x in node.objects:
            for y in domain.objects:
                k = len(node1.hom(fobj[x], c_objects[y]))
                objects += k
                arrows += k * node.out_degree(x) * domain.out_degree(y)
        return objects, arrows

    shape = category_doc(["n0", "n1"], {"1n0": ("n0", "n0"), "1n1": ("n1", "n1"), "f": ("n0", "n1")},
                         {("1n0", "1n0"): "1n0", ("1n1", "1n1"): "1n1",
                          ("1n0", "f"): "f", ("f", "1n1"): "f"}, {"n0": "1n0", "n1": "1n1"})
    ident = {
        "1n0": {"objects": identity_map(node0.objects), "arrows": identity_map(node0.src)},
        "1n1": {"objects": identity_map(node1.objects), "arrows": identity_map(node1.src)},
    }
    diagram = {"shape": shape, "nodes": {"n0": node0.doc, "n1": node1.doc},
               "arrows": {**ident, "f": {"objects": f_objects, "arrows": f_arrows}}}
    cover = {"domain": domain.doc, "objects": c_objects, "arrows": c_arrows}
    lines = []
    for d, node, fobj in (("n0", node0, f_objects), ("n1", node1, identity_map(node1.objects))):
        objects, arrows = pulled(node, fobj)
        lines.append(f"pulled node {P}{d}: {objects} objects, {arrows} arrows")
    lines += [verdict("pulled-diagram-functorial"), verdict("transformation-natural")]
    return Job(f"diagram-special-{key}", ("diagram-special", "--diagram", "@d", "--cover", "@c"),
               {"d": diagram, "c": cover}, 0, tuple(lines))


# --- the workloads -------------------------------------------------------
# Each list runs from its cheapest job to its dearest; costs rise in steps of
# at most about 3x (see bench/README.md for the ladder measured here).  The
# jobs at the 50th and 90th percentile ranks come in three copies with
# different ids, so that p50 and p90 fall on a flat plateau of equal costs.


def with_copies(jobs: list, *anchors: str) -> list:
    out = []
    for job in jobs:
        out.append(job)
        if job.name in anchors:
            out += [job.copy("v1_"), job.copy("v2_")]
    return out


def model_compare_jobs() -> list:
    z2, z3 = group_groupoid(cyclic(2)), group_groupoid(cyclic(3))
    pair2 = transitive(["x0", "x1"], cyclic(1))
    pair3 = transitive(["x0", "x1", "x2"], cyclic(1))
    return with_copies([
        milnor_job("pair2", pair2, 2, "B", 0, True),
        milnor_job("z2", z2, 2, "E", 1),
        milnor_job("z2", z2, 2, "B", None),
        milnor_job("pair3", pair3, 2, "E", 1),
        milnor_job("pair2", pair2, 3, "B", None),
        milnor_job("z2", z2, 3, "E", None),
        milnor_job("pair3", pair3, 2, "B", None, True),
        milnor_job("z3", z3, 2, "B", 0, True),
        milnor_job("z2", z2, 2, "B", 0, True),
        milnor_job("z2", z2, 3, "B", 1, True),
        milnor_job("pair2", pair2, 2, "E", 1),
        milnor_job("z3", z3, 2, "E", 1),
        milnor_job("z2", z2, 3, "E", 2),
        milnor_job("pair2", pair2, 3, "B", 1, True),
        milnor_job("z3", z3, 3, "B", 1, True),
        milnor_job("z2", z2, 4, "B", 2),
        milnor_job("z2", z2, 5, "B", None),
        milnor_job("z3", z3, 4, "B", None),
        milnor_job("pair2", pair2, 3, "E", 2),
        milnor_job("pair2", pair2, 4, "B", 1),
        milnor_job("z3", z3, 4, "B", 1),
        milnor_job("z2", z2, 4, "B", 2, True),
        milnor_job("z2", z2, 4, "E", 3),
        milnor_job("pair3", pair3, 3, "B", None, True),
        milnor_job("pair2", pair2, 5, "B", None),
        milnor_job("pair2", pair2, 4, "B", 2, True),
        milnor_job("z3", z3, 3, "E", 2),
        milnor_job("z2", z2, 6, "B", None),
        milnor_job("z3", z3, 4, "B", 2),
        milnor_job("z2", z2, 5, "B", 3),
        milnor_job("z3", z3, 4, "B", 2, True),
        milnor_job("z2", z2, 5, "B", 3, True),
        milnor_job("pair2", pair2, 5, "B", 2),
        milnor_job("pair2", pair2, 4, "E", 3),
        milnor_job("z2", z2, 6, "E", None),
        milnor_job("z2", z2, 5, "E", 4),
        milnor_job("z3", z3, 5, "E", None),
        milnor_job("pair2", pair2, 5, "B", 3, True),
    ], "milnor-B-pair2-4-H1", "milnor-B-pair2-5-H2")


# Cover shapes over three points (chart "0" covers all of them) and gauge
# coefficients, chosen so that the brute-force morphism search tries from a
# handful to about ten thousand assignments, always under its budget.
_W3 = ["w0", "w1", "w2"]


def descent_jobs() -> list:
    z2, z3, s3 = (group_groupoid(g) for g in (cyclic(2), cyclic(3), symmetric3()))
    pair = transitive(["x0", "x1"], cyclic(1))
    union = disjoint_union(z2, transitive(["pt"], cyclic(1)))
    pair_c = gauge_cocycle(pair, {"0": ["w0", "w1", "w2", "w3"], "1": ["w1", "w3"]},
                           {"w0": "x0", "w1": "x1", "w2": "x0", "w3": "x0"},
                           {("0", "w0"): "x0>x0.0", ("0", "w1"): "x1>x0.0",
                            ("0", "w2"): "x0>x1.0", ("0", "w3"): "x0>x0.0",
                            ("1", "w1"): "x1>x1.0", ("1", "w3"): "x0>x1.0"})
    in_z2 = gauge_cocycle(union, {"0": ["w0"], "1": ["w0"]}, {"w0": "0:*"},
                          {("0", "w0"): "0:*>*.0", ("1", "w0"): "0:*>*.1"})
    at_pt = gauge_cocycle(union, {"0": ["w0"], "1": ["w0"]}, {"w0": "1:pt"},
                          {("0", "w0"): "1:pt>pt.0", ("1", "w0"): "1:pt>pt.0"})

    def rt(key, target, charts, coefficients):
        return torsor_job("roundtrip", key, target, cyclic_gauge(target, charts, coefficients))

    def cmp(key, target, charts, c1, c2):
        return torsor_job("compare", key, target, cyclic_gauge(target, charts, c1), cyclic_gauge(target, charts, c2))

    mix = {"0": _W3, "1": ["w1", "w2"], "2": ["w2"]}
    return with_copies([
        torsor_job("validate", "pair", pair, pair_c),
        torsor_job("validate", "union", union, in_z2),
        torsor_job("validate", "z3", z3, cyclic_gauge(z3, {"0": _W3, "1": ["w1", "w2"]}, (1, 1, 0))),
        torsor_job("validate", "z2-mix", z2, cyclic_gauge(z2, mix, (1, 4, 6))),
        torsor_job("validate", "s3", s3, cyclic_gauge(s3, {"0": ["w0", "w1"], "1": ["w1"]}, (1, 4, 3))),
        torsor_job("build", "pair", pair, pair_c),
        torsor_job("build", "union", union, at_pt),
        torsor_job("build", "z3", z3, cyclic_gauge(z3, {"0": _W3, "1": ["w1", "w2"]}, (1, 1, 0))),
        torsor_job("build", "s3", s3, cyclic_gauge(s3, {"0": ["w0", "w1"], "1": ["w1"]}, (1, 4, 3))),
        torsor_job("roundtrip", "pair", pair, pair_c),
        torsor_job("roundtrip", "union", union, in_z2),
        torsor_job("compare", "union-empty", union, in_z2, at_pt),
        torsor_job("build", "z2-mix", z2, cyclic_gauge(z2, mix, (1, 4, 6))),
        torsor_job("compare", "pair", pair, pair_c, pair_c),
        rt("s3-c", s3, {"0": ["w0", "w1"], "1": ["w1"]}, (1, 4, 3)),
        rt("z2-a", z2, {"0": ["w0", "w1"], "1": ["w1"]}, (2, 4, 3)),
        rt("z3-e", z3, {"0": ["w0", "w1"], "1": ["w1"]}, (2, 3, 2)),
        rt("z2-b", z2, {"0": ["w0", "w1", "w2", "w3"], "1": ["w2", "w3"]}, (0, 1, 5)),
        rt("z3-f", z3, {"0": _W3, "1": ["w1"]}, (5, 4, 3)),
        rt("z2-c", z2, {"0": _W3, "1": ["w1", "w2"]}, (3, 2, 5)),
        rt("z2-l", z2, {"0": ["w0", "w1"], "1": ["w0"], "2": ["w1"]}, (5, 1, 2)),
        rt("z2-d", z2, {"0": ["w0", "w1", "w2", "w3"], "1": ["w2", "w3"]}, (5, 5, 4)),
        rt("z2-m", z2, {"0": ["w0", "w1", "w2", "w3"], "1": ["w2", "w3"]}, (5, 6, 2)),
        rt("s3-a", s3, {"0": _W3, "1": ["w1"]}, (1, 3, 0)),
        rt("s3-b", s3, {"0": ["w0", "w1"], "1": ["w1"]}, (6, 6, 5)),
        rt("z3-b", z3, {"0": _W3, "1": ["w1", "w2"]}, (2, 3, 2)),
        rt("z3-c", z3, {"0": _W3, "1": ["w1", "w2"]}, (4, 6, 4)),
        rt("z3-a", z3, {"0": ["w0", "w1", "w2", "w3"], "1": ["w2", "w3"]}, (2, 4, 1)),
        cmp("z2-e", z2, {"0": _W3, "1": ["w0", "w1"], "2": ["w1"]}, (1, 0, 2), (3, 6, 5)),
        rt("z3-d", z3, {"0": _W3, "1": ["w2"], "2": ["w1"]}, (0, 6, 4)),
        rt("z2-f", z2, mix, (0, 3, 1)),
        rt("z2-g", z2, {"0": _W3, "1": ["w0", "w2"], "2": ["w2"]}, (3, 4, 6)),
        cmp("z2-h", z2, {"0": _W3, "1": _W3, "2": ["w2"]}, (5, 4, 0), (0, 3, 5)),
        cmp("z2-i", z2, {"0": _W3, "1": ["w0", "w1"], "2": ["w1", "w2"]}, (1, 3, 0), (4, 1, 5)),
        cmp("z2-o", z2, {"0": _W3, "1": _W3, "2": ["w2"]}, (5, 2, 1), (0, 6, 1)),
        cmp("z2-n", z2, {"0": _W3, "1": _W3, "2": ["w1"]}, (5, 5, 0), (2, 0, 3)),
        rt("z2-j", z2, {"0": _W3, "1": _W3, "2": ["w0"]}, (2, 2, 1)),
    ], "torsor-roundtrip-z2-b", "torsor-compare-z2-h")


def localize_kan_jobs() -> list:
    zm = {m: group_groupoid(cyclic(m)) for m in (2, 3, 4)}
    point = transitive(["pt"], cyclic(1))

    def special(m: int, points: int, cover_by_group: bool = False) -> Job:
        """f: (pair groupoid on ``points``) x Z/m -> Z/m forgets the pair part."""
        node0 = transitive([f"x{i}" for i in range(points)], cyclic(m))
        f_arrows = {a: "*>*." + a.rsplit(".", 1)[1] for a in node0.src}
        if cover_by_group:
            domain, c_objects, c_arrows = zm[m], {"*": "*"}, identity_map(zm[m].src)
        else:
            domain, c_objects, c_arrows = point, {"pt": "*"}, {"pt>pt.0": "*>*.0"}
        key = f"z{m}-{points}-" + ("z" if cover_by_group else "pt")
        return diagram_special_job(key, node0, zm[m], {x: "*" for x in node0.objects}, f_arrows,
                                   domain, c_objects, c_arrows)

    return with_copies([
        special(2, 1, True),
        special(3, 1),
        cylinder_localize_job(2, 2),
        special(2, 1),
        cylinder_localize_job(4, 2),
        special(4, 1),
        poset_localize_job(2, "s00", "s11"),
        poset_localize_job(2, "s11", "s01"),
        poset_localize_job(2, "s01", "s01"),
        cylinder_localize_job(3, 0),
        special(2, 2),
        poset_localize_job(3, "s001", "s011"),
        poset_localize_job(3, "s011", "s001"),
        special(3, 2),
        kan_product_job(1, 2, {}),
        special(2, 3),
        cylinder_localize_job(8, 2),
        kan_product_job(1, 2, {}, over_arrow=True),
        special(3, 1, True),
        special(4, 2),
        cylinder_localize_job(12, 4),
        special(3, 3),
        kan_product_job(1, 2, {"T": 3}),
        poset_localize_job(4, "s0001", "s1011"),
        special(4, 1, True),
        special(4, 3),
        kan_product_job(1, 3, {}),
        kan_equalizer_job(3, 3, lambda i: i, lambda i: (2 * i) % 3, {}),
        kan_product_job(1, 3, {}, over_arrow=True),
        kan_product_job(1, 3, {"T": 3}),
        kan_equalizer_job(3, 2, lambda i: i % 2, lambda i: (i * i) % 2, {}),
        kan_equalizer_job(3, 2, lambda i: i % 2, lambda i: (i * i) % 2, {"T": 1}),
        kan_equalizer_job(3, 3, lambda i: i, lambda i: (2 * i) % 3, {"T": 3}),
        kan_product_job(1, 3, {"T": 3, "U": 3}),
        kan_product_job(2, 2, {}),
        kan_equalizer_job(4, 2, lambda i: i % 2, lambda i: (i // 2) % 2, {}),
    ], "diagram-special-z3-1-z", "kan-product1x3+T3")



WORKLOADS = {
    "nerve-homology": nerve_homology_jobs,
    "model-compare": model_compare_jobs,
    "descent": descent_jobs,
    "localize-kan": localize_kan_jobs,
}
