"""Strict indexed categories with finite-set fibers and relative right Kan extensions.

A fiber over a base object is the category of a few named finite sets with
all functions between them.  A pullback functor along a base morphism is
conjugation by per-object carriers (identity carriers included) or constant
at one object; it computes images on demand, is validated structurally
without enumerating fiber morphisms, and pullbacks compose strictly.  Cone
sets and the natural transformations between lifts are the solutions of
binary constraint networks, all enumerated by :func:`compatible_families`
under a budget.  A limit is *global* when every pullback functor carries it
to a limit again, which set sizes alone decide for the three kinds of
pullback (:func:`is_global_limit`); the right Kan extension of a lift is
assembled pointwise from global limits over comma categories.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .category import CatFunctor, FiniteCategory, comma_category, partition, sorted_ids
from .errors import (
    AxiomViolation,
    DanglingId,
    EnumerationBudgetExceeded,
    NotFComplete,
    NotFunctorial,
    SchemaError,
)
from .groupoid import fiber_product_2_projections
from .jsonio import _require

SEARCH_BUDGET = 100_000  # search nodes per call of compatible_families


class FibMor(NamedTuple):
    """A function between two named finite sets of one fiber.

    ``images[i]`` is the position, in ``tgt``'s elements, of the image of
    ``src``'s i-th element.
    """

    src: object
    tgt: object
    images: tuple


def _positions(table: Mapping, domain, codomain) -> tuple | None:
    """Positions in ``codomain`` of ``table``'s values on ``domain``; None unless
    ``table`` is defined on every element of ``domain`` and lands in ``codomain``."""
    where = {y: j for j, y in enumerate(codomain)}
    try:
        return tuple(where[table[x]] for x in domain)
    except (KeyError, TypeError):  # TypeError: an unhashable value
        return None


def compatible_families(sizes, constraints) -> list:
    """Every v with v[k] in range(sizes[k]), in lexicographic order, such that
    left[v[i]] == right[v[j]] for each constraint (i, left, j, right), and
    left[v[i]] == right when j is None.  Backtracking places next the unplaced
    variable k that maximises (links to placed variables, links, -k), each
    binary constraint between k and another variable being a link, and takes
    k's values from an index of its first link to a placed one.  Raises
    :class:`EnumerationBudgetExceeded` once the values assigned and the
    values copied into families pass :data:`SEARCH_BUDGET`."""
    budget = SEARCH_BUDGET
    values = [range(size) for size in sizes]
    links = [[] for _ in sizes]  # k -> (other variable, k's table, other's table)
    for i, left, j, right in constraints:
        if j is None or i == j:
            values[i] = [v for v in values[i] if left[v] == (right if j is None else right[v])]
        else:
            links[i].append((j, left, right))
            links[j].append((i, right, left))
    # per position: (variable, its values, index for its first link to an
    # earlier variable: value of its table -> values with it, those links)
    checks, placed = [], set()
    for _ in sizes:
        k = max((k for k in range(len(sizes)) if k not in placed),
                key=lambda k: (sum(o in placed for o, _, _ in links[k]), len(links[k]), -k))
        mine = [(o, other, own) for o, own, other in links[k] if o in placed]
        index: dict = {}
        for v in values[k] if mine else ():
            index.setdefault(mine[0][2][v], []).append(v)
        checks.append((k, values[k], index, mine))
        placed.add(k)

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
        nodes += 1 + leaf * len(sizes)  # copying a family out counts too: that bounds memory
        if nodes > budget:
            raise EnumerationBudgetExceeded(budget, "compatible-family search", "search nodes")
        assignment[checks[len(stack) - 1][0]] = v
        if leaf:
            found.append(tuple(assignment))
        else:
            stack.append(iter(candidates(len(stack))))
    return sorted(found) if sizes else [()]


class FinSetFiber(NamedTuple):
    """Named finite sets; the morphisms are all functions between them."""

    sets: dict  # name -> tuple of elements; names and elements in id order

    def names(self) -> tuple:
        return tuple(self.sets)

    def elems(self, name) -> tuple:
        return self.sets[name]

    def identity(self, name) -> FibMor:
        return FibMor(name, name, tuple(range(len(self.sets[name]))))

    def mor(self, src, tgt, table: Mapping) -> FibMor:
        """The function ``table`` from set ``src`` to set ``tgt``, which must be
        defined on exactly the elements of ``src`` and land in ``tgt``."""
        for name in (src, tgt):
            if not _has(self.sets, name):
                raise DanglingId("fiber sets", name)
        images = _positions(table, self.sets[src], self.sets[tgt])
        if images is None or len(table) != len(images):
            raise AxiomViolation("total-function", (src, tgt))
        return FibMor(src, tgt, images)

    def compose(self, m1: FibMor, m2: FibMor) -> FibMor:
        """m1 then m2."""
        return FibMor(m1.src, m2.tgt, tuple(m2.images[j] for j in m1.images))

    def probe_morphisms(self) -> tuple:
        """The identities and the constant maps out of nonempty sets.

        A pullback functor, or a composite of them, is fixed by its objects
        and its images on these (see :func:`indexed_category`).
        """
        out = []
        for o1 in self.names():
            out.append(self.identity(o1))
            if self.sets[o1]:
                for o2 in self.names():
                    out.extend(FibMor(o1, o2, (j,) * len(self.sets[o1]))
                               for j in range(len(self.sets[o2])))
        return tuple(out)


def make_fiber(sets: Mapping) -> FinSetFiber:
    return FinSetFiber(sets={name: sorted_ids(sets[name]) for name in sorted_ids(sets)})


def fiber_from_json(doc: Mapping) -> FinSetFiber:
    if not isinstance(doc, dict):
        raise SchemaError("a fiber must map set names to lists of elements")
    for name, elems in doc.items():
        if not isinstance(elems, list):
            raise SchemaError(f"fiber set {name!r} must be a list")
        if any(isinstance(x, (list, dict)) for x in elems):
            raise SchemaError(f"fiber set {name!r} has an unhashable element")
        seen: set = set()
        for x in elems:
            if x in seen:
                raise SchemaError(f"fiber set {name!r} repeats the element {x!r}")
            seen.add(x)
    return make_fiber(doc)


def _has(collection, value) -> bool:
    """Membership that treats an unhashable value as absent."""
    try:
        return value in collection
    except TypeError:
        return False


class PullbackFunctor(NamedTuple):
    """A functor between fibers, in one of the two forms fibers documents use.

    Without ``constant`` it is conjugation by per-object carriers: a morphism
    m: X -> Y goes to the morphism from obj_map[X] to obj_map[Y] that sends
    carrier_X(x) to carrier_Y(m(x)); ``carriers`` None stands for identity
    carriers.  ``carriers[X]`` holds the positions of carrier_X(x) in
    obj_map[X], and ``sections[X]`` one preimage position for each element
    of obj_map[X].  With ``constant`` (an identity morphism) every morphism
    goes to it.  Images are computed on demand.
    """

    obj_map: dict                 # source-fiber object name -> target-fiber object name
    carriers: dict | None = None  # source-fiber object name -> positions in its image set
    sections: dict | None = None  # source-fiber object name -> positions in its set
    constant: FibMor | None = None

    def on_obj(self, name):
        return self.obj_map[name]

    def on_mor(self, m: FibMor) -> FibMor:
        if self.constant is not None:
            return self.constant
        if self.carriers is None:
            return m
        to_tgt = self.carriers[m.tgt]
        return FibMor(self.obj_map[m.src], self.obj_map[m.tgt],
                      tuple(to_tgt[m.images[i]] for i in self.sections[m.src]))

    def validate(self, source: FinSetFiber, target: FinSetFiber) -> None:
        """Check functoriality from ``source`` to ``target`` without enumerating morphisms.

        This accepts exactly what checking identities and every composable
        pair of morphisms accepts.  Objects must land in ``target``.  The
        identity kind preserves identities when each set equals its image
        set, the constant kind always, and conjugation when every carrier is
        total and onto its image set (checked by :func:`relabel_pullback`).
        Given that, identity and constant functors compose strictly, and so
        does conjugation when every carrier is injective (then a bijection).
        It also does when every image set has at most one element, since
        then each hom-set between images has at most one map.  Otherwise
        some carrier sends x != x' to one element k and some image set has
        elements z != z' with preimages u, u'.  For g sending x to u and x'
        to u', the constant maps at x and at x' followed by g have images
        constant at z and at z'; but both constant maps have the image
        constant at k, and the image of g sends k to a single element.
        """
        for name in source.names():
            image = self.obj_map.get(name)
            if not _has(target.sets, image):
                raise DanglingId("pullback obj_map", name, image)
            if self.carriers is None and self.constant is None and \
                    source.elems(name) != target.elems(image):
                raise AxiomViolation("pullback-identity", name)
        if self.carriers is None or all(
                len(target.elems(self.obj_map[name])) <= 1 for name in source.names()):
            return
        for name in source.names():
            positions = self.carriers[name]
            if len(set(positions)) < len(positions):
                raise AxiomViolation("pullback-composition", name)


def identity_pullback(fiber: FinSetFiber) -> PullbackFunctor:
    return PullbackFunctor(obj_map={name: name for name in fiber.names()})


def constant_pullback(source_fiber: FinSetFiber, target_fiber: FinSetFiber,
                      at) -> PullbackFunctor:
    """Constant functor at one object; breaks limits whenever ``at`` has the
    wrong cardinality for them (e.g. a doubleton never preserves products)."""
    if not _has(target_fiber.sets, at):
        raise DanglingId("pullback constant", "at", at)
    return PullbackFunctor(obj_map={name: at for name in source_fiber.names()},
                           constant=target_fiber.identity(at))


def relabel_pullback(source: FinSetFiber, target: FinSetFiber, obj_map: Mapping,
                     carriers: Mapping) -> PullbackFunctor:
    """Conjugation by the per-object element maps ``carriers[name]``, each of
    which must be total on its set and onto its image set; entries outside
    the set are ignored."""
    positions, sections = {}, {}
    for name in source.names():
        image = obj_map.get(name)
        if not _has(target.sets, image):
            raise DanglingId("pullback obj_map", name, image)
        if name not in carriers:
            raise DanglingId("pullback carriers", name)
        positions[name] = _positions(carriers[name], source.elems(name), target.elems(image))
        if positions[name] is None:
            raise AxiomViolation("pullback-carrier", name)
        preimage = {j: i for i, j in enumerate(positions[name])}
        if len(preimage) != len(target.elems(image)):
            raise AxiomViolation("pullback-identity", name)
        sections[name] = tuple(preimage[j] for j in range(len(preimage)))
    return PullbackFunctor(obj_map=dict(obj_map), carriers=positions, sections=sections)


def _pullback_from_json(doc: Mapping, source: FinSetFiber, target: FinSetFiber) -> PullbackFunctor:
    kind = _require(doc, "kind", str)
    if kind == "identity":
        return identity_pullback(source)
    if kind == "constant":
        return constant_pullback(source, target, _require(doc, "at", str))
    if kind == "relabel":
        objects = _require(doc, "objects", dict)
        carriers = _require(doc, "carriers", dict)
        for name, table in carriers.items():
            if not isinstance(table, dict):
                raise SchemaError(f"carrier {name!r} must map elements to elements")
        return relabel_pullback(source, target, objects, carriers)
    raise SchemaError(f"unknown pullback kind {kind!r}")


class IndexedCategory(NamedTuple):
    """Strict contravariant assignment of finite-set fibers to a finite base."""

    base: FiniteCategory
    fibers: dict  # base object -> FinSetFiber
    pulls: dict   # base morphism -> PullbackFunctor

    def fiber(self, b) -> FinSetFiber:
        return self.fibers[b]

    def pull(self, base_morphism) -> PullbackFunctor:
        return self.pulls[base_morphism]


def indexed_category(base: FiniteCategory, fibers: Mapping, pulls: Mapping) -> IndexedCategory:
    """Validate fibers, pullback functoriality, and strict composition compatibility.

    The strict laws compare objects and the images of each fiber's probe
    morphisms (identities and constant maps).  That is exhaustive: a valid
    pullback functor, and so any composite of them, is a conjugation by
    bijections, a constant functor, or has image sets of at most one
    element.  Two such functors with the same objects that agree on the
    constant maps X -> X agree everywhere: hom-sets between images of at
    most one element have at most one map, a constant functor at a set of
    two or more elements differs from a conjugation on those maps, and
    there they determine each carrier.
    """
    for b in base.objects:
        if b not in fibers:
            raise DanglingId("fibers", b)
    for m in base.morphisms:
        if m not in pulls:
            raise DanglingId("pulls", m)
        pulls[m].validate(fibers[base.tgt[m]], fibers[base.src[m]])
    probes = {b: fibers[b].probe_morphisms() for b in base.objects}
    for b in base.objects:
        pf = pulls[base.ident[b]]
        for name in fibers[b].names():
            if pf.on_obj(name) != name:
                raise AxiomViolation("strict-identity-pullback", (b, name))
        for m in probes[b]:
            if pf.on_mor(m) != m:
                raise AxiomViolation("strict-identity-pullback", (b, m))
    for f, g, fg in base.composites():
        far = base.tgt[g]
        for name in fibers[far].names():
            if pulls[fg].on_obj(name) != pulls[f].on_obj(pulls[g].on_obj(name)):
                raise AxiomViolation("strict-composition", (f, g, name))
        for m in probes[far]:
            if pulls[fg].on_mor(m) != pulls[f].on_mor(pulls[g].on_mor(m)):
                raise AxiomViolation("strict-composition", (f, g, m))
    return IndexedCategory(base=base, fibers=dict(fibers), pulls=dict(pulls))


def indexed_category_from_json(doc: Mapping, base: FiniteCategory) -> IndexedCategory:
    fibers_doc = _require(doc, "fibers", dict)
    fibers = {b: fiber_from_json(d) for b, d in fibers_doc.items()}
    for b in base.objects:
        if b not in fibers:
            raise SchemaError(f"missing fiber for base object {b!r}")
    pulls_doc = _require(doc, "pulls", dict)
    pulls = {}
    for m in base.morphisms:
        if m not in pulls_doc:
            raise SchemaError(f"missing pullback functor for base morphism {m!r}")
        pulls[m] = _pullback_from_json(pulls_doc[m], fibers[base.tgt[m]], fibers[base.src[m]])
    return indexed_category(base, fibers, pulls)


def trivial_indexed_category(base: FiniteCategory, sets: Mapping) -> IndexedCategory:
    """Same fiber over every base object, every pullback the identity."""
    fiber = make_fiber(sets)
    ident = identity_pullback(fiber)
    return indexed_category(
        base,
        {b: fiber for b in base.objects},
        {m: ident for m in base.morphisms},
    )


class Lift(NamedTuple):
    """A strict lift of the anchor functor through the indexed category.

    ``objects[d]`` names an object of the fiber over anchor(d);
    ``morphisms[f]``, for f: a -> b in the shape, is the fiber morphism
    P(a) -> pull(anchor(f))(P(b)) living over anchor(a).
    """

    ic: IndexedCategory
    shape: FiniteCategory
    anchor: CatFunctor
    objects: dict
    morphisms: dict


def lift(ic: IndexedCategory, shape: FiniteCategory, anchor: CatFunctor,
         objects: Mapping, morphisms: Mapping) -> Lift:
    """Validate endpoints and strict functoriality of lift data.

    ``morphisms[f]`` lives in the fiber over anchor(src f); a map given as an
    element table becomes one through that fiber's :meth:`FinSetFiber.mor`.
    """
    if anchor.source != shape or anchor.target != ic.base:
        raise NotFunctorial("anchor must map the shape into the base")
    for d in shape.objects:
        if not _has(ic.fiber(anchor.obj_map[d]).sets, objects.get(d)):
            raise DanglingId("lift objects", d, objects.get(d))
    for f in shape.morphisms:
        a, b = shape.src[f], shape.tgt[f]
        m = morphisms.get(f)
        if m is None:
            raise DanglingId("lift morphisms", f)
        expected_tgt = ic.pull(anchor.mor_map[f]).on_obj(objects[b])
        if m.src != objects[a] or m.tgt != expected_tgt:
            raise AxiomViolation("lift-endpoints", f)
    for d in shape.objects:
        fiber = ic.fiber(anchor.obj_map[d])
        if morphisms[shape.ident[d]] != fiber.identity(objects[d]):
            raise AxiomViolation("lift-identity", d)
    for f, g, fg in shape.composites():
        fiber = ic.fiber(anchor.obj_map[shape.src[f]])
        via = fiber.compose(morphisms[f], ic.pull(anchor.mor_map[f]).on_mor(morphisms[g]))
        if morphisms[fg] != via:
            raise AxiomViolation("lift-composition", (f, g))
    return Lift(ic=ic, shape=shape, anchor=anchor,
                objects=dict(objects), morphisms=dict(morphisms))


def lift_from_json(doc: Mapping, ic: IndexedCategory, shape: FiniteCategory,
                   anchor: CatFunctor) -> Lift:
    """Lift maps become fiber morphisms in the fiber over the anchor of their
    source, which checks that each is a total function between its sets."""
    objects = _require(doc, "objects", dict)
    shape_objects = set(shape.objects)
    for d in objects:
        if d not in shape_objects:
            raise SchemaError(f"objects key {d!r} is not an object of the shape")
    morphisms = {}
    for m, entry in _require(doc, "morphisms", dict).items():
        if m not in shape.src:
            raise SchemaError(f"morphisms key {m!r} is not a morphism of the shape")
        src, tgt = _require(entry, "src", str), _require(entry, "tgt", str)
        table = _require(entry, "map", dict)
        morphisms[m] = ic.fiber(anchor.obj_map[shape.src[m]]).mor(src, tgt, table)
    return lift(ic, shape, anchor, objects, morphisms)


def precompose_lift(f: CatFunctor, p_lift: Lift) -> Lift:
    """Restrict a lift over D to a lift over E along F: E -> D; functorial by
    construction, so it is built without :func:`lift`'s checks."""
    return Lift(ic=p_lift.ic, shape=f.source, anchor=f.then(p_lift.anchor),
                objects={e: p_lift.objects[f.obj_map[e]] for e in f.source.objects},
                morphisms={m: p_lift.morphisms[f.mor_map[m]] for m in f.source.morphisms})


class FiberDiagram(NamedTuple):
    """A functor from a finite shape into one fiber, as explicit tables."""

    shape: FiniteCategory
    on_obj: dict  # shape object -> fiber object name
    on_mor: dict  # shape morphism -> FibMor


def fiber_diagram(fiber: FinSetFiber, shape: FiniteCategory,
                  on_obj: Mapping, on_mor: Mapping) -> FiberDiagram:
    for x in shape.objects:
        if not _has(fiber.sets, on_obj.get(x)):
            raise DanglingId("diagram on_obj", x, on_obj.get(x))
    for m in shape.morphisms:
        fm = on_mor.get(m)
        if fm is None or fm.src != on_obj[shape.src[m]] or fm.tgt != on_obj[shape.tgt[m]]:
            raise AxiomViolation("diagram-endpoints", m)
    for x in shape.objects:
        if on_mor[shape.ident[x]] != fiber.identity(on_obj[x]):
            raise NotFunctorial(("identity", x))
    for m1, m2, m12 in shape.composites():
        if on_mor[m12] != fiber.compose(on_mor[m1], on_mor[m2]):
            raise NotFunctorial(("composition", m1, m2))
    return FiberDiagram(shape=shape, on_obj=dict(on_obj), on_mor=dict(on_mor))


class LimitCone(NamedTuple):
    """All cones over a finite-set diagram, as tuples aligned with shape_objects:
    ``positions`` holds the positions of the elements in their sets, in
    lexicographic (so id) order, and ``cones`` the elements themselves."""

    shape_objects: tuple
    cones: tuple
    positions: tuple


def finset_limit(fiber: FinSetFiber, diagram: FiberDiagram) -> LimitCone:
    """Every cone, as a compatible family with one variable per shape object."""
    shape = diagram.shape
    shape_objects = tuple(shape.objects)
    position = {x: i for i, x in enumerate(shape_objects)}
    pools = [fiber.elems(diagram.on_obj[x]) for x in shape_objects]
    arrows = [(position[shape.src[m]], diagram.on_mor[m].images, position[shape.tgt[m]],
               range(len(pools[position[shape.tgt[m]]]))) for m in shape.morphisms]
    positions = tuple(compatible_families([len(pool) for pool in pools], arrows))
    cones = tuple(tuple(pool[k] for pool, k in zip(pools, cone)) for cone in positions)
    return LimitCone(shape_objects=shape_objects, cones=cones, positions=positions)


def is_global_limit(ic: IndexedCategory, b, diagram: FiberDiagram, obj) -> bool:
    """Whether every pullback out of b carries ``obj``, whose i-th element
    stands for the i-th cone over ``diagram``, to a limit again.

    Identities pull back to identities.  Along any other f a valid pullback
    (:meth:`PullbackFunctor.validate`) is one of three kinds, each decided
    by set sizes (Mac Lane, CWM):

    - constant at S: the limit goes to the diagonal S -> S^k, k the number
      of components of the shape, a bijection iff |S|^k == |S|;
    - a conjugation by bijections matches cones with pulled cones;
    - a conjugation onto sets of at most one element leaves one cone when
      each pulled set is nonempty (or the shape is empty), else none, and
      the image of ``obj`` must have as many elements.  The test is exact
      for bijections too, so it runs whenever the sets are that small.
    """
    shape = diagram.shape
    for f in ic.base.morphisms_into(b):
        if ic.base.is_identity(f):
            continue
        pf, fiber = ic.pull(f), ic.fiber(ic.base.src[f])
        if pf.constant is not None:
            size = len(fiber.elems(pf.constant.src))
            components = partition(shape.objects,
                                   ((shape.src[m], shape.tgt[m]) for m in shape.morphisms))
            if size ** len(components) != size:
                return False
            continue
        sizes = [len(fiber.elems(pf.on_obj(name))) for name in diagram.on_obj.values()]
        image = len(fiber.elems(pf.on_obj(obj)))
        if max(sizes + [image]) <= 1 and image != min(sizes, default=1):
            return False
    return True


class RightKanResult(NamedTuple):
    """The extended lift with its comma diagrams, limit cones and projections."""

    lift: Lift
    along: CatFunctor
    diagrams: dict      # d -> FiberDiagram on the comma (d down F), in the fiber at anchor(d)
    cones: dict         # d -> LimitCone
    projections: dict   # d -> {comma object: FibMor RF(d) -> diagram value}


def _comma_fiber_diagram(ic: IndexedCategory, f: CatFunctor, p: CatFunctor,
                         p_lift: Lift, d) -> FiberDiagram:
    """The diagram alpha |-> pull(p(alpha))(P(e)) on (d down F); functorial by
    construction when P is a lift, so it is built without :func:`fiber_diagram`."""
    comma = comma_category(d, f)
    on_obj = {}
    on_mor = {}
    for (e, alpha) in comma.objects:
        on_obj[(e, alpha)] = ic.pull(p.mor_map[alpha]).on_obj(p_lift.objects[e])
    for (alpha, gamma) in comma.morphisms:
        on_mor[(alpha, gamma)] = ic.pull(p.mor_map[alpha]).on_mor(p_lift.morphisms[gamma])
    return FiberDiagram(shape=comma, on_obj=on_obj, on_mor=on_mor)


def right_kan(ic: IndexedCategory, f: CatFunctor, p: CatFunctor, p_lift: Lift) -> RightKanResult:
    """Pointwise relative right Kan extension of a lift along F: E -> D.

    For each object d the value is a fiber object realizing the cone set of
    the comma-shaped diagram alpha |-> pull(p(alpha))(P(e)); the value on a
    shape morphism is induced by the universal property of the (global)
    limit at its target.  Raises :class:`NotFComplete` when a required limit
    is missing or fails to be global.
    """
    d_cat = f.target
    diagrams: dict = {}
    cones: dict = {}
    objects: dict = {}
    projections: dict = {}

    for d in d_cat.objects:
        diagram = _comma_fiber_diagram(ic, f, p, p_lift, d)
        fiber = ic.fiber(p.obj_map[d])
        cone_set = finset_limit(fiber, diagram)
        size = len(cone_set.cones)
        chosen = next((name for name in fiber.names() if len(fiber.elems(name)) == size), None)
        if chosen is None:
            raise NotFComplete(d, f"no fiber object of size {size}")
        # the i-th element of ``chosen`` stands for the i-th cone
        if not is_global_limit(ic, p.obj_map[d], diagram, chosen):
            raise NotFComplete(d, "fiber limit is not global")
        projs = {obj: FibMor(chosen, diagram.on_obj[obj],
                             tuple(cone[k] for cone in cone_set.positions))
                 for k, obj in enumerate(cone_set.shape_objects)}
        diagrams[d] = diagram
        cones[d] = cone_set
        objects[d] = chosen
        projections[d] = projs

    morphisms: dict = {}
    for m in d_cat.morphisms:
        a, b = d_cat.src[m], d_cat.tgt[m]
        pf = ic.pull(p.mor_map[m])
        target_name = pf.on_obj(objects[b])
        # The limit at b is global, so pf carries it to a limit over p(a), and
        # every cone over a restricts to a cone over that pulled diagram: each
        # element of RF(a) goes to the one element whose pulled cone that is.
        pulled = [pf.on_mor(projections[b][obj]).images for obj in cones[b].shape_objects]
        element_of = {tuple(images[y] for images in pulled): y
                      for y in range(len(ic.fiber(p.obj_map[a]).elems(target_name)))}
        comma_a_index = {obj: i for i, obj in enumerate(cones[a].shape_objects)}
        restrict = [comma_a_index[(e, d_cat.compose(m, beta))]
                    for e, beta in cones[b].shape_objects]
        morphisms[m] = FibMor(objects[a], target_name, tuple(
            element_of[tuple(cone[i] for i in restrict)] for cone in cones[a].positions))

    extended = lift(ic, d_cat, p, objects, morphisms)
    return RightKanResult(lift=extended, along=f, diagrams=diagrams, cones=cones,
                          projections=projections)


def counit(rf: RightKanResult) -> dict:
    """Component at e: project the limit at F(e) onto the (e, id) coordinate."""
    f = rf.along
    d_cat = f.target
    return {e: rf.projections[f.obj_map[e]][(e, d_cat.ident[f.obj_map[e]])]
            for e in f.source.objects}


def lift_morphisms(l1: Lift, l2: Lift) -> tuple:
    """All vertical natural transformations between two lifts of one anchor,
    as compatible families over the elements of l1: nu_d(x) in l2(d) for each
    x in l1(d).  Naturality at m: a -> b is, per x in l1(a), l2(m)(nu_a(x)) ==
    pull(nu_b)(l1(m)(x)), whose right side reads nu_b at one element through
    the pullback's carriers, or is l1(m)(x) itself when the pullback is constant."""
    ic = l1.ic
    shape = l1.shape
    sizes, part = [], {}  # part[d]: the slice of nu_d's variables
    for d in shape.objects:
        fiber = ic.fiber(l1.anchor.obj_map[d])
        part[d] = slice(len(sizes), len(sizes) + len(fiber.elems(l1.objects[d])))
        sizes += [len(fiber.elems(l2.objects[d]))] * len(fiber.elems(l1.objects[d]))
    constraints = []
    for m in shape.morphisms:
        a, b = shape.src[m], shape.tgt[m]
        pf, left = ic.pull(l1.anchor.mor_map[m]), l2.morphisms[m].images
        for i, y in enumerate(l1.morphisms[m].images, part[a].start):
            if pf.constant is not None:
                constraints.append((i, left, None, y))
            elif pf.carriers is None:
                constraints.append((i, left, part[b].start + y, range(sizes[part[b].start])))
            else:
                constraints.append((i, left, part[b].start + pf.sections[l1.objects[b]][y],
                                    pf.carriers[l2.objects[b]]))
    return tuple({d: FibMor(l1.objects[d], l2.objects[d], family[part[d]]) for d in shape.objects}
                 for family in compatible_families(sizes, constraints))


class AdjunctionReport(NamedTuple):
    left_size: int   # morphisms Q => RF(P) over D
    right_size: int  # morphisms F*(Q) => P over E
    bijective: bool
    witness: str


def adjunction_check(ic: IndexedCategory, f: CatFunctor, p: CatFunctor,
                     p_lift: Lift, q_lift: Lift, rf: RightKanResult) -> AdjunctionReport:
    """Verify Hom(Q, RF(P)) matches Hom(F*(Q), P) under whiskering with the counit.

    ``rf`` is ``right_kan(ic, f, p, p_lift)``; ``p`` is not read again.
    """
    eps = counit(rf)
    restricted_q = precompose_lift(f, q_lift)
    left = lift_morphisms(q_lift, rf.lift)
    right = lift_morphisms(restricted_q, p_lift)

    e_objects = f.source.objects
    right_set = {tuple(nu[e] for e in e_objects) for nu in right}
    images = {tuple(ic.fiber(restricted_q.anchor.obj_map[e]).compose(nu[f.obj_map[e]], eps[e])
                    for e in e_objects) for nu in left}

    if len(images) != len(left):
        return AdjunctionReport(len(left), len(right), False, "transport not injective")
    if images != right_set:
        return AdjunctionReport(len(left), len(right), False, "transport not surjective")
    return AdjunctionReport(len(left), len(right), True, "")


class GroupoidDiagram(NamedTuple):
    """A functor from a finite shape category into finite groupoids."""

    shape: FiniteCategory
    nodes: dict   # shape object -> FiniteGroupoid
    arrows: dict  # shape morphism -> CatFunctor


def groupoid_diagram(shape: FiniteCategory, nodes: Mapping, arrows: Mapping) -> GroupoidDiagram:
    for x in shape.objects:
        if x not in nodes:
            raise DanglingId("diagram nodes", x)
    for m in shape.morphisms:
        fm = arrows.get(m)
        if fm is None:
            raise DanglingId("diagram arrows", m)
        if fm.source != nodes[shape.src[m]] or fm.target != nodes[shape.tgt[m]]:
            raise NotFunctorial(("endpoints", m))
    for x in shape.objects:
        gid = arrows[shape.ident[x]]
        g = nodes[x]
        if gid.obj_map != {o: o for o in g.objects} or gid.mor_map != {a: a for a in g.morphisms}:
            raise NotFunctorial(("identity", x))
    for m1, m2, m12 in shape.composites():
        composed = arrows[m1].then(arrows[m2])
        if composed.obj_map != arrows[m12].obj_map or composed.mor_map != arrows[m12].mor_map:
            raise NotFunctorial(("composition", m1, m2))
    return GroupoidDiagram(shape=shape, nodes=dict(nodes), arrows=dict(arrows))


class SpecialDiagram(NamedTuple):
    """Base extension of a cover over the final object across a whole diagram."""

    star: object
    pulled: GroupoidDiagram      # d -> X_d
    to_base: dict                # d -> CatFunctor X_d -> P(d)
    to_cover: dict               # d -> CatFunctor X_d -> X_star


def diagram_special(diagram: GroupoidDiagram, cover: CatFunctor) -> SpecialDiagram:
    """Base extend a cover of the final node along every structure map.

    Each X_d is the iso-comma fiber product of P(d) -> P(star) with the
    cover; shape morphisms act on the first coordinate only, so arrow-level
    properties of P that are stable under base change transfer to the pulled
    diagram.  The pulled functors and diagram are functorial by construction
    when the input diagram is, so they are built without a second check.
    """
    shape = diagram.shape
    star = shape.final_object()
    if cover.target != diagram.nodes[star]:
        raise NotFunctorial("cover must land in the final node")
    to_star = {d: shape.hom(d, star)[0] for d in shape.objects}

    nodes: dict = {}
    to_base: dict = {}
    to_cover: dict = {}
    for d in shape.objects:
        prod, p1, p2 = fiber_product_2_projections(diagram.arrows[to_star[d]], cover)
        nodes[d] = prod
        to_base[d] = p1
        to_cover[d] = p2

    arrows: dict = {}
    for m in shape.morphisms:
        a, b = shape.src[m], shape.tgt[m]
        pf = diagram.arrows[m]
        arrows[m] = CatFunctor(
            nodes[a], nodes[b],
            {(g, h, k): (pf.obj_map[g], h, k) for (g, h, k) in nodes[a].objects},
            {(ar, br, k): (pf.mor_map[ar], br, k) for (ar, br, k) in nodes[a].morphisms},
        )
    pulled = GroupoidDiagram(shape=shape, nodes=nodes, arrows=arrows)
    return SpecialDiagram(star=star, pulled=pulled, to_base=to_base, to_cover=to_cover)
