"""Exhaustive oracle for pullback functors and strict indexed categories.

Each pullback functor is materialised as a table over every fiber morphism,
all Σ|Y|^|X| functions between the fiber's sets, and checked on every
identity and every composable pair.  ``finstack.kan`` validates the same
functors structurally; the tests compare the two on small fibers.  The
naturality search over lift morphisms is kept in its first form as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from finstack.errors import AxiomViolation, DanglingId
from finstack.kan import FinSetFiber, fib_mor


def all_morphisms(fiber: FinSetFiber) -> tuple:
    return tuple(m for o1 in fiber.names() for o2 in fiber.names()
                 for m in fiber.morphisms_between(o1, o2))


def compose(m1, m2):
    """m1 then m2, re-sorted through ``fib_mor``."""
    d2 = m2.as_dict()
    return fib_mor(m1.src, m2.tgt, {x: d2[y] for x, y in m1.mapping})


@dataclass(frozen=True)
class TablePullback:
    obj_map: dict  # source-fiber object name -> target-fiber object name
    mor_map: dict  # FibMor of the source fiber -> FibMor of the target fiber

    def on_obj(self, name):
        return self.obj_map[name]

    def on_mor(self, m):
        return self.mor_map[m]


def table_pullback(doc: dict, source: FinSetFiber, target: FinSetFiber) -> TablePullback:
    """The table of a fibers-document pullback entry; raises KeyError on
    a missing entry, as the table construction always did."""
    if doc["kind"] == "identity":
        return TablePullback({name: name for name in source.names()},
                             {m: m for m in all_morphisms(source)})
    if doc["kind"] == "constant":
        ident = target.identity(doc["at"])
        return TablePullback({name: doc["at"] for name in source.names()},
                             {m: ident for m in all_morphisms(source)})
    obj_map = doc["objects"]
    carriers = {k: dict(v) for k, v in doc["carriers"].items()}
    mor_map = {}
    for m in all_morphisms(source):
        c_src, c_tgt = carriers[m.src], carriers[m.tgt]
        mor_map[m] = fib_mor(obj_map[m.src], obj_map[m.tgt],
                             {c_src[x]: c_tgt[y] for x, y in m.mapping})
    return TablePullback(dict(obj_map), mor_map)


def validate_table(source: FinSetFiber, target: FinSetFiber, pf: TablePullback) -> None:
    """Totality and functoriality of one pullback table, checked exhaustively."""
    for name in source.names():
        if pf.obj_map.get(name) not in set(target.names()):
            raise DanglingId("pullback obj_map", name, pf.obj_map.get(name))
    for m in all_morphisms(source):
        image = pf.mor_map.get(m)
        if image is None:
            raise DanglingId("pullback mor_map", m)
        if image.src != pf.obj_map[m.src] or image.tgt != pf.obj_map[m.tgt]:
            raise AxiomViolation("pullback-endpoints", m)
    for name in source.names():
        if pf.on_mor(source.identity(name)) != target.identity(pf.obj_map[name]):
            raise AxiomViolation("pullback-identity", name)
    for o1 in source.names():
        for o2 in source.names():
            for m1 in source.morphisms_between(o1, o2):
                for o3 in source.names():
                    for m2 in source.morphisms_between(o2, o3):
                        if pf.on_mor(compose(m1, m2)) != compose(pf.on_mor(m1), pf.on_mor(m2)):
                            raise AxiomViolation("pullback-composition", (m1, m2))


def check_indexed_category(base, fibers: dict, tables: dict) -> None:
    """Every table valid, identity pullbacks strictly the identity, and
    strict composition, compared on every object and every fiber morphism."""
    for m in base.morphisms:
        validate_table(fibers[base.tgt[m]], fibers[base.src[m]], tables[m])
    for b in base.objects:
        pf = tables[base.ident[b]]
        for name in fibers[b].names():
            if pf.on_obj(name) != name:
                raise AxiomViolation("strict-identity-pullback", (b, name))
        for m in all_morphisms(fibers[b]):
            if pf.on_mor(m) != m:
                raise AxiomViolation("strict-identity-pullback", (b, m))
    for f in base.morphisms:
        for g in base.morphisms:
            if base.tgt[f] != base.src[g]:
                continue
            fg = base.comp[(f, g)]
            far = fibers[base.tgt[g]]
            for name in far.names():
                if tables[fg].on_obj(name) != tables[f].on_obj(tables[g].on_obj(name)):
                    raise AxiomViolation("strict-composition", (f, g, name))
            for m in all_morphisms(far):
                if tables[fg].on_mor(m) != tables[f].on_mor(tables[g].on_mor(m)):
                    raise AxiomViolation("strict-composition", (f, g, m))


def lift_morphisms(l1, l2) -> tuple:
    """Every family of fiber morphisms, checked for naturality one by one."""
    ic = l1.ic
    shape = l1.shape
    options = [ic.fiber(l1.anchor.obj_map[d]).morphisms_between(l1.objects[d], l2.objects[d])
               for d in shape.objects]
    found = []
    for combo in itertools.product(*options):
        nu = dict(zip(shape.objects, combo))
        if all(compose(nu[shape.src[m]], l2.morphisms[m])
               == compose(l1.morphisms[m], ic.pull(l1.anchor.mor_map[m]).on_mor(nu[shape.tgt[m]]))
               for m in shape.morphisms):
            found.append(nu)
    return tuple(found)
