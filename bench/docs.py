"""Input documents for the benchmark, built from plain tables.

Nothing here imports finstack: groups are addition tables of Z/m and
composition tables of permutations, groupoids and categories are written out
arrow by arrow, and every document follows the JSON schemas that
``finstack.jsonio`` reads.  Next to each document the builders keep the
structure it was made from (components and their isotropy groups, hom-set
sizes), which is what the expected answers in ``bench/jobs.py`` are computed
from.

``relabel`` puts one prefix in front of every id of a document.  All ids of a
pass share the prefix, so the ``repr`` order of any two ids, or of any two
tuples of ids, is the same before and after; finstack sorts by ``repr``, so
its searches do the same work on every relabelled copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

# Keys that name parts of a schema rather than ids; ``relabel`` leaves them
# alone.  No id made by the builders below is one of these words.
SCHEMA_KEYS = frozenset({
    "objects", "arrows", "comp", "id", "inv", "src", "tgt", "source", "target",
    "W", "cover", "a", "gamma", "morphisms", "members", "pullbacks", "cospan",
    "apex", "proj1", "proj2", "fibers", "pulls", "kind", "at", "carriers",
    "E", "D", "F", "p", "map", "shape", "nodes", "domain",
})


def relabel(doc, prefix: str):
    """Copy of ``doc`` with ``prefix`` in front of every id (keys and values)."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            if key in SCHEMA_KEYS:
                new_key = key
            else:
                new_key = ",".join(prefix + part for part in key.split(","))
            out[new_key] = value if key == "kind" else relabel(value, prefix)
        return out
    if isinstance(doc, list):
        return [relabel(x, prefix) for x in doc]
    if isinstance(doc, str):
        return prefix + doc
    raise TypeError(f"unexpected {type(doc).__name__} in a document")


# --- groups --------------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """A finite group as a multiplication table; ``mult[(g, h)]`` is g then h."""

    kind: str       # "Z" (cyclic) or "S3"
    elements: tuple
    mult: dict
    unit: str

    @property
    def order(self) -> int:
        return len(self.elements)

    def inverse(self, g: str) -> str:
        return next(h for h in self.elements if self.mult[(g, h)] == self.unit)

    def homology_torsion(self, n: int) -> list:
        """Cyclic orders of H_n(BG; Z) for n >= 1, from the closed forms."""
        if self.kind == "Z":
            return [self.order] if n % 2 == 1 and self.order > 1 else []
        # H_n(S3) has period 4 above degree 0: Z/2, 0, Z/6, 0, ...
        return {1: [2], 3: [6]}.get(n % 4, [])

    def abelianization(self) -> list:
        if self.kind == "Z":
            return [self.order] if self.order > 1 else []
        return [2]


def cyclic(m: int) -> Group:
    elements = tuple(str(i) for i in range(m))
    mult = {(str(i), str(j)): str((i + j) % m) for i in range(m) for j in range(m)}
    return Group("Z", elements, mult, "0")


def symmetric3() -> Group:
    perms = list(itertools.permutations(range(3)))
    name = {p: "".join(map(str, p)) for p in perms}
    # p then q: apply p first, as a composite of functions on {0, 1, 2}
    mult = {(name[p], name[q]): name[tuple(q[p[i]] for i in range(3))]
            for p in perms for q in perms}
    return Group("S3", tuple(name[p] for p in perms), mult, "012")


# --- groupoids -----------------------------------------------------------


@dataclass
class Groupoid:
    """A groupoid document with its arrow tables and its component structure.

    ``components`` lists (objects, isotropy group) for each connected
    component; it is known from the construction, not read back.
    """

    doc: dict
    components: list = field(default_factory=list)

    def __post_init__(self):
        self.src = {e["id"]: e["src"] for e in self.doc["arrows"]}
        self.tgt = {e["id"]: e["tgt"] for e in self.doc["arrows"]}
        self.comp = {(a, b): c for a, b, c in self.doc["comp"]}

    @property
    def objects(self) -> list:
        return self.doc["objects"]

    def compose(self, a: str, b: str) -> str:
        return self.comp[(a, b)]

    def inverse(self, a: str) -> str:
        return self.doc["inv"][a]

    def hom(self, x: str, y: str) -> list:
        return [a for a in self.src if self.src[a] == x and self.tgt[a] == y]

    def out_degree(self, x: str) -> int:
        return sum(1 for a in self.src if self.src[a] == x)

    def component_of(self, x: str) -> int:
        return next(i for i, (objs, _) in enumerate(self.components) if x in objs)


def _groupoid_doc(objects, arrows, src, tgt, comp, ident, inv) -> dict:
    return {
        "objects": list(objects),
        "arrows": [{"id": a, "src": src[a], "tgt": tgt[a]} for a in arrows],
        "comp": [[a, b, c] for (a, b), c in comp.items()],
        "id": dict(ident),
        "inv": dict(inv),
    }


def transitive(points, group: Group) -> Groupoid:
    """Pair groupoid on ``points`` times ``group``: connected, isotropy ``group``.

    One point gives the group itself; the trivial group gives the pair groupoid.
    """
    arrows = [(x, y, g) for x in points for y in points for g in group.elements]
    aid = {t: f"{t[0]}>{t[1]}.{t[2]}" for t in arrows}
    comp = {}
    for x, y, g in arrows:
        for y2, z, h in arrows:
            if y == y2:
                comp[(aid[(x, y, g)], aid[(y2, z, h)])] = aid[(x, z, group.mult[(g, h)])]
    doc = _groupoid_doc(
        points, [aid[t] for t in arrows],
        {aid[t]: t[0] for t in arrows}, {aid[t]: t[1] for t in arrows}, comp,
        {x: aid[(x, x, group.unit)] for x in points},
        {aid[(x, y, g)]: aid[(y, x, group.inverse(g))] for x, y, g in arrows},
    )
    return Groupoid(doc, [(list(points), group)])


def group_groupoid(group: Group, obj: str = "*") -> Groupoid:
    return transitive([obj], group)


def cyclic_action(points, m: int, act) -> Groupoid:
    """Action groupoid of Z/m acting on ``points`` by ``act(x, k)``.

    Components are the orbits; each has a cyclic stabilizer of order
    m / |orbit|, found here by walking the orbit.
    """
    group = cyclic(m)
    arrows = [(x, k) for x in points for k in range(m)]
    aid = {t: f"{t[0]}.{t[1]}" for t in arrows}
    comp = {}
    for x, k in arrows:
        y = act(x, k)
        for j in range(m):
            comp[(aid[(x, k)], aid[(y, j)])] = aid[(x, (k + j) % m)]
    doc = _groupoid_doc(
        points, [aid[t] for t in arrows],
        {aid[t]: t[0] for t in arrows}, {aid[t]: act(*t) for t in arrows}, comp,
        {x: aid[(x, 0)] for x in points},
        {aid[(x, k)]: aid[(act(x, k), (-k) % m)] for x, k in arrows},
    )
    components, seen = [], set()
    for x in points:
        if x in seen:
            continue
        orbit = sorted({act(x, k) for k in range(m)})
        seen.update(orbit)
        components.append((orbit, cyclic(m // len(orbit))))
    return Groupoid(doc, components)


def disjoint_union(g1: Groupoid, g2: Groupoid) -> Groupoid:
    d1, d2 = relabel(g1.doc, "0:"), relabel(g2.doc, "1:")
    doc = {key: d1[key] + d2[key] for key in ("objects", "arrows", "comp")}
    doc.update({key: {**d1[key], **d2[key]} for key in ("id", "inv")})
    components = [([f"{t}{x}" for x in objs], grp)
                  for t, g in (("0:", g1), ("1:", g2)) for objs, grp in g.components]
    return Groupoid(doc, components)


def point_into(target: Groupoid, obj: str) -> dict:
    """Functor document from the one-arrow groupoid to ``target``, hitting ``obj``."""
    point = transitive(["pt"], cyclic(1))
    unit = target.doc["id"][obj]
    return {"source": point.doc, "target": target.doc,
            "objects": {"pt": obj}, "arrows": {point.doc["arrows"][0]["id"]: unit}}


# --- descent data --------------------------------------------------------


def gauge_cocycle(target: Groupoid, cover: dict, anchor: dict, gauge: dict) -> dict:
    """Cocycle document from per-chart gauge arrows ``gauge[(i, w)]`` out of anchor(w).

    a_i(w) is the target of the gauge and gamma_ij(w) = inv(gauge_i(w)) then
    gauge_j(w), so both cocycle conditions hold by construction.
    """
    points = sorted({w for part in cover.values() for w in part})
    for (i, w), arrow in gauge.items():
        if target.src[arrow] != anchor[w]:
            raise ValueError(f"gauge {(i, w)} does not leave anchor {anchor[w]}")
    gamma = {}
    for i in cover:
        for j in cover:
            both = sorted(set(cover[i]) & set(cover[j]))
            if both:
                gamma[f"{i},{j}"] = {w: target.compose(target.inverse(gauge[(i, w)]), gauge[(j, w)])
                                     for w in both}
    return {
        "W": points,
        "cover": {i: sorted(part) for i, part in cover.items()},
        "a": {i: {w: target.tgt[gauge[(i, w)]] for w in part} for i, part in cover.items()},
        "gamma": gamma,
    }


def anchor_object(cocycle: dict, w: str) -> str:
    """a(w) read off the first chart containing w (all charts agree up to iso)."""
    return next(table[w] for table in cocycle["a"].values() if w in table)


def search_space(target: Groupoid, c1: dict, c2: dict) -> int:
    """Number of assignments a brute-force cocycle-morphism search may try.

    The product over charts i of c1, k of c2 and points w of U_i and U'_k of
    |hom(a_i(w), a'_k(w))|; zero when one hom-set is empty.
    """
    total = 1
    for i, ai in c1["a"].items():
        for k, ak in c2["a"].items():
            for w in set(ai) & set(ak):
                total *= len(target.hom(ai[w], ak[w]))
    return total


# --- finite categories ---------------------------------------------------


def category_doc(objects, morphisms: dict, comp: dict, ident: dict) -> dict:
    """``morphisms`` maps id -> (src, tgt); ``comp`` maps (f, g) -> f then g."""
    return {
        "objects": list(objects),
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, (s, t) in morphisms.items()],
        "comp": [[f, g, h] for (f, g), h in comp.items()],
        "id": dict(ident),
    }


def subset_poset(n: int) -> tuple[dict, dict, dict]:
    """Subsets of {0..n-1} under inclusion, with the meet as pullback oracle.

    Returns (category document, class document for the identities with the
    full oracle, hom-set sizes).  An object is named by its bit string.
    """
    subsets = ["s" + "".join(bits) for bits in itertools.product("01", repeat=n)]

    def leq(a, b):
        return all(x <= y for x, y in zip(a[1:], b[1:]))

    def meet(a, b):
        return "s" + "".join(min(x, y) for x, y in zip(a[1:], b[1:]))

    morphisms = {f"{a}<{b}": (a, b) for a in subsets for b in subsets if leq(a, b)}
    comp = {(f"{a}<{b}", f"{b}<{c}"): f"{a}<{c}"
            for a, b in morphisms.values() for b2, c in morphisms.values() if b == b2}
    cat = category_doc(subsets, morphisms, comp, {a: f"{a}<{a}" for a in subsets})
    pullbacks = []
    for f, (a, t) in morphisms.items():
        for g, (b, t2) in morphisms.items():
            if t == t2:
                m = meet(a, b)
                pullbacks.append({"cospan": [f, g], "apex": m,
                                  "proj1": f"{m}<{a}", "proj2": f"{m}<{b}"})
    hom = {(a, b): int(leq(a, b)) for a in subsets for b in subsets}
    return cat, {"members": [], "pullbacks": pullbacks}, hom


def cylinder(sections: int, isolated: int) -> tuple[dict, dict]:
    """V covers X by r with ``sections`` sections t_i, and g: V -> Y.

    Then f_i = t_i then g are all homotopic, so X -> Y has ``sections``
    morphisms and one localized class.  ``isolated`` extra objects with only
    identities keep the instance honest about components that play no role.
    The class is generated by r; the oracle holds the identity cospans, whose
    pullbacks exist in any category.
    """
    ts = [f"t{i}" for i in range(sections)]
    es = [f"e{i}" for i in range(sections)]
    fs = [f"f{i}" for i in range(sections)]
    hs = [f"h{i}" for i in range(sections)]
    objects = ["X", "V", "Y"] + [f"Z{i}" for i in range(isolated)]
    ident = {x: f"1{x}" for x in objects}
    morphisms = {ident[x]: (x, x) for x in objects}
    morphisms.update({"r": ("V", "X"), "g": ("V", "Y")})
    morphisms.update({t: ("X", "V") for t in ts})
    morphisms.update({e: ("V", "V") for e in es})
    morphisms.update({f: ("X", "Y") for f in fs})
    morphisms.update({h: ("V", "Y") for h in hs})
    comp = {}
    for m, (s, t) in morphisms.items():
        comp[(ident[s], m)] = m
        comp[(m, ident[t])] = m
    for i in range(sections):
        comp[(ts[i], "r")] = ident["X"]
        comp[("r", ts[i])] = es[i]
        comp[(es[i], "r")] = "r"
        comp[(ts[i], "g")] = fs[i]
        comp[("r", fs[i])] = hs[i]
        comp[(es[i], "g")] = hs[i]
        for j in range(sections):
            comp[(ts[i], es[j])] = ts[j]
            comp[(es[i], es[j])] = es[j]
            comp[(ts[i], hs[j])] = fs[j]
            comp[(es[i], hs[j])] = hs[j]
    cat = category_doc(objects, morphisms, comp, ident)
    oracle = [{"cospan": [ident[x], ident[x]], "apex": x, "proj1": ident[x], "proj2": ident[x]}
              for x in objects]
    return cat, {"members": ["r"], "pullbacks": oracle}


def one_object_base() -> dict:
    return category_doc(["*"], {"1*": ("*", "*")}, {("1*", "1*"): "1*"}, {"*": "1*"})


def arrow_base() -> dict:
    """Base category b0 -> b1 (one non-identity morphism u)."""
    morphisms = {"1b0": ("b0", "b0"), "1b1": ("b1", "b1"), "u": ("b0", "b1")}
    comp = {("1b0", "1b0"): "1b0", ("1b1", "1b1"): "1b1",
            ("1b0", "u"): "u", ("u", "1b1"): "u"}
    return category_doc(["b0", "b1"], morphisms, comp, {"b0": "1b0", "b1": "1b1"})


def discrete(objects) -> dict:
    return category_doc(objects, {f"1{x}": (x, x) for x in objects},
                        {(f"1{x}", f"1{x}"): f"1{x}" for x in objects},
                        {x: f"1{x}" for x in objects})


def fiber_sets(sizes: dict) -> dict:
    """Named finite sets; set ``name`` has elements name.0, name.1, ..."""
    return {name: [f"{name}.{i}" for i in range(n)] for name, n in sizes.items()}


def identity_map(elements) -> dict:
    return {x: x for x in elements}
