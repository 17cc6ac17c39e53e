"""Element-level oracles for pullback functors, lift morphisms and the
universal factorizations of right Kan extensions.

Functions here are their own type, sorted (element, image) pairs, as fiber
morphisms were before they became positional image tuples; ``to_elements``
and ``to_positions`` convert between the two, and ``element_cones`` reads
the cones of a limit, as tuples of elements, off its projections.  Each pullback functor is
materialised as a table over every function, all Σ|Y|^|X| between the
fiber's sets, and checked on every identity and every composable pair.
``finstack.kan`` validates the same functors structurally; the tests compare
the two on small fibers.  The naturality search over lift morphisms and the
scan for each universal factorization of ``right_kan`` are kept in their
first forms as well, and so are the positional enumerations that
``finstack.kan.compatible_families`` replaced: cone sets and fiber hom-sets
as filtered products.  :func:`is_global_limit` is the enumerating globality
check that ``finstack.kan.is_global_limit`` decides from set sizes.
:func:`compatible_families` is that search as it was before its variable
order became one rule: the same order, kept as a score per variable and a
pre-sorted list of fresh ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import finstack.kan as kan
from finstack.category import idkey
from finstack.errors import AxiomViolation, DanglingId, EnumerationBudgetExceeded, NotFComplete
from finstack.kan import FiberDiagram, FibMor, FinSetFiber


@dataclass(frozen=True)
class ElemMor:
    """A function between two named finite sets, as its (element, image) pairs."""

    src: object
    tgt: object
    pairs: tuple  # sorted tuple of (element, image) pairs

    def apply(self, x):
        return dict(self.pairs)[x]


def elem_mor(src, tgt, table: dict) -> ElemMor:
    return ElemMor(src, tgt, tuple(sorted(table.items(), key=lambda kv: idkey(kv[0]))))


def identity(fiber: FinSetFiber, name) -> ElemMor:
    return elem_mor(name, name, {x: x for x in fiber.elems(name)})


def compose(m1: ElemMor, m2: ElemMor) -> ElemMor:
    """m1 then m2."""
    d2 = dict(m2.pairs)
    return elem_mor(m1.src, m2.tgt, {x: d2[y] for x, y in m1.pairs})


def morphisms_between(fiber: FinSetFiber, o1, o2) -> tuple:
    source = fiber.elems(o1)
    if not source:
        return (elem_mor(o1, o2, {}),)
    return tuple(elem_mor(o1, o2, dict(zip(source, images)))
                 for images in itertools.product(fiber.elems(o2), repeat=len(source)))


def positional_morphisms(fiber: FinSetFiber, o1, o2) -> tuple:
    """Every function from set o1 to set o2, as positional FibMors in product order."""
    return tuple(FibMor(o1, o2, images) for images in itertools.product(
        range(len(fiber.elems(o2))), repeat=len(fiber.elems(o1))))


def finset_limit(fiber: FinSetFiber, diagram) -> tuple:
    """Every tuple of positions, one per shape object, that every shape
    morphism respects, in the id order of the tuples of their elements."""
    shape = diagram.shape
    position = {x: i for i, x in enumerate(shape.objects)}
    pools = [fiber.elems(diagram.on_obj[x]) for x in shape.objects]
    arrows = [(position[shape.src[m]], position[shape.tgt[m]], diagram.on_mor[m].images)
              for m in shape.morphisms]
    found = [cone for cone in itertools.product(*(range(len(pool)) for pool in pools))
             if all(images[cone[i]] == cone[j] for i, j, images in arrows)]
    return tuple(sorted(found, key=lambda cone: idkey(
        tuple(pool[k] for pool, k in zip(pools, cone)))))


def element_cones(fiber: FinSetFiber, obj, projections: dict) -> tuple:
    """The cone of each element of the limit object ``obj``, read off its
    ``projections`` (comma object -> FibMor out of ``obj``) as a tuple of
    elements, one per comma object in the projections' order."""
    return tuple(tuple(fiber.elems(pr.tgt)[pr.images[x]] for pr in projections.values())
                 for x in range(len(fiber.elems(obj))))


def is_global_limit(ic, b, diagram, obj) -> bool:
    """Element i of ``obj`` stands for cone i over ``diagram``; along every
    base morphism into b, identities included, the pulled projections must
    send the elements of the pulled ``obj`` one to one onto the cones of the
    pulled diagram, enumerated as a filtered product."""
    cones = finset_limit(ic.fiber(b), diagram)
    projections = [FibMor(obj, diagram.on_obj[x], tuple(cone[k] for cone in cones))
                   for k, x in enumerate(diagram.shape.objects)]
    for f in ic.base.morphisms_into(b):
        pf, fiber = ic.pull(f), ic.fiber(ic.base.src[f])
        pulled = FiberDiagram(shape=diagram.shape,
                              on_obj={x: pf.on_obj(name) for x, name in diagram.on_obj.items()},
                              on_mor={m: pf.on_mor(fm) for m, fm in diagram.on_mor.items()})
        images = [pf.on_mor(projection).images for projection in projections]
        size = len(fiber.elems(pf.on_obj(obj)))
        comparison = {tuple(image[i] for image in images) for i in range(size)}
        if len(comparison) != size or comparison != set(finset_limit(fiber, pulled)):
            return False
    return True


def all_morphisms(fiber: FinSetFiber) -> tuple:
    return tuple(m for o1 in fiber.names() for o2 in fiber.names()
                 for m in morphisms_between(fiber, o1, o2))


def to_elements(fiber: FinSetFiber, m: FibMor) -> ElemMor:
    values = fiber.elems(m.tgt)
    return elem_mor(m.src, m.tgt, {x: values[j] for x, j in zip(fiber.elems(m.src), m.images)})


def to_positions(fiber: FinSetFiber, m: ElemMor) -> FibMor:
    values = fiber.elems(m.tgt)
    return FibMor(m.src, m.tgt, tuple(values.index(y) for _, y in m.pairs))


@dataclass(frozen=True)
class TablePullback:
    obj_map: dict  # source-fiber object name -> target-fiber object name
    mor_map: dict  # ElemMor of the source fiber -> ElemMor of the target fiber

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
        ident = identity(target, doc["at"])
        return TablePullback({name: doc["at"] for name in source.names()},
                             {m: ident for m in all_morphisms(source)})
    obj_map = doc["objects"]
    carriers = {k: dict(v) for k, v in doc["carriers"].items()}
    mor_map = {}
    for m in all_morphisms(source):
        c_src, c_tgt = carriers[m.src], carriers[m.tgt]
        mor_map[m] = elem_mor(obj_map[m.src], obj_map[m.tgt],
                              {c_src[x]: c_tgt[y] for x, y in m.pairs})
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
        if pf.on_mor(identity(source, name)) != identity(target, pf.obj_map[name]):
            raise AxiomViolation("pullback-identity", name)
    for o1 in source.names():
        for o2 in source.names():
            for m1 in morphisms_between(source, o1, o2):
                for o3 in source.names():
                    for m2 in morphisms_between(source, o2, o3):
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
            fg = base.compose(f, g)
            far = fibers[base.tgt[g]]
            for name in far.names():
                if tables[fg].on_obj(name) != tables[f].on_obj(tables[g].on_obj(name)):
                    raise AxiomViolation("strict-composition", (f, g, name))
            for m in all_morphisms(far):
                if tables[fg].on_mor(m) != tables[f].on_mor(tables[g].on_mor(m)):
                    raise AxiomViolation("strict-composition", (f, g, m))


def lift_morphisms(l1, l2) -> tuple:
    """Every family of functions, checked for naturality one by one; the
    families are dicts of element-level functions."""
    ic = l1.ic
    shape = l1.shape
    fibers = {d: ic.fiber(l1.anchor.obj_map[d]) for d in shape.objects}
    options = [morphisms_between(fibers[d], l1.objects[d], l2.objects[d]) for d in shape.objects]
    maps1 = {m: to_elements(fibers[shape.src[m]], l1.morphisms[m]) for m in shape.morphisms}
    maps2 = {m: to_elements(fibers[shape.src[m]], l2.morphisms[m]) for m in shape.morphisms}
    pulled: dict = {}  # (m, nu_b) -> the pullback of nu_b along anchor(m)

    def pull(m, nu_b):
        if (m, nu_b) not in pulled:
            image = ic.pull(l1.anchor.mor_map[m]).on_mor(to_positions(fibers[shape.tgt[m]], nu_b))
            pulled[(m, nu_b)] = to_elements(fibers[shape.src[m]], image)
        return pulled[(m, nu_b)]

    found = []
    for combo in itertools.product(*options):
        nu = dict(zip(shape.objects, combo))
        if all(compose(nu[shape.src[m]], maps2[m]) == compose(maps1[m], pull(m, nu[shape.tgt[m]]))
               for m in shape.morphisms):
            found.append(nu)
    return tuple(found)


def factorizations(ic, p, rf) -> dict:
    """RF's value on each shape morphism m: a -> b, as element-level functions.

    Each element x of RF(a) goes to the one element y of pull(p(m))(RF(b))
    whose pulled projections agree with x's cone, found by scanning every y.
    """
    d_cat = rf.along.target
    objects = rf.lift.objects
    out = {}
    for m in d_cat.morphisms:
        a, b = d_cat.src[m], d_cat.tgt[m]
        fiber = ic.fiber(p.obj_map[a])
        pf = ic.pull(p.mor_map[m])
        target_name = pf.on_obj(objects[b])
        comma_a_index = {obj: i for i, obj in enumerate(rf.projections[a])}
        pulled = {obj: to_elements(fiber, pf.on_mor(projection))
                  for obj, projection in rf.projections[b].items()}
        cones_a = element_cones(fiber, objects[a], rf.projections[a])
        mapping = {}
        for x, cone_x in zip(fiber.elems(objects[a]), cones_a):
            matches = [y for y in fiber.elems(target_name)
                       if all(pulled[(e, beta)].apply(y)
                              == cone_x[comma_a_index[(e, d_cat.compose(m, beta))]]
                              for (e, beta) in rf.projections[b])]
            if len(matches) != 1:
                raise NotFComplete(a, f"universal factorization failed along {m!r}")
            mapping[x] = matches[0]
        out[m] = elem_mor(objects[a], target_name, mapping)
    return out


def _scored_search(sizes, constraints, budget) -> tuple:
    """(families, placement order, search nodes) of the backtracking search,
    its next variable the top-scored one, where a score counts the links to
    placed variables, or, while no score is kept, the next fresh variable by
    (-links, index)."""
    values = [range(size) for size in sizes]
    links = [[] for _ in sizes]  # k -> (other variable, k's table, other's table)
    for i, left, j, right in constraints:
        if j is None or i == j:
            values[i] = [v for v in values[i] if left[v] == (right if j is None else right[v])]
        else:
            links[i].append((j, left, right))
            links[j].append((i, right, left))
    checks, placed, score = [], set(), {}  # score: unplaced variable -> links to placed ones
    fresh = iter(sorted(range(len(sizes)), key=lambda k: (-len(links[k]), k)))
    while len(placed) < len(sizes):
        k = max(score, key=lambda k: (score[k], len(links[k]), -k)) if score else \
            next(k for k in fresh if k not in placed)
        score.pop(k, None)
        mine = [(o, other, own) for o, own, other in links[k] if o in placed]
        index: dict = {}
        for v in values[k] if mine else ():
            index.setdefault(mine[0][2][v], []).append(v)
        checks.append((k, values[k], index, mine))
        placed.add(k)
        for o, _, _ in links[k]:
            if o not in placed:
                score[o] = score.get(o, 0) + 1

    def candidates(p):
        _, out, index, mine = checks[p]
        for n, (o, other, own) in enumerate(mine):
            key = other[assignment[o]]
            out = index.get(key, ()) if n == 0 else [v for v in out if own[v] == key]
        return out

    assignment, found, nodes = [0] * len(sizes), [], 0
    stack = [iter(candidates(0))] if sizes else []
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        leaf = len(stack) == len(sizes)
        nodes += 1 + leaf * len(sizes)
        if nodes > budget:
            raise EnumerationBudgetExceeded(budget, "compatible-family search", "search nodes")
        assignment[checks[len(stack) - 1][0]] = v
        if leaf:
            found.append(tuple(assignment))
        else:
            stack.append(iter(candidates(len(stack))))
    return (sorted(found) if sizes else [()]), [k for k, _, _, _ in checks], nodes


def compatible_families(sizes, constraints) -> list:
    """The families, under ``finstack.kan.SEARCH_BUDGET`` as it is at the call."""
    return _scored_search(sizes, constraints, kan.SEARCH_BUDGET)[0]


def search_profile(sizes, constraints) -> tuple:
    """(families, placement order, search nodes) of the whole search, without a budget."""
    return _scored_search(sizes, constraints, math.inf)
