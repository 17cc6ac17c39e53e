"""Per-layer timing for the traced run, taken from outside finstack's functions.

``Tracer.installed()`` replaces each function the CLI handlers call (the names
``finstack.cli`` imported, the ``finstack.jsonio`` loaders and a few methods)
with a wrapper that times the call and adds to the layer it belongs to.  Only
the outermost wrapped call is timed, so a layer's time never includes another
wrapped layer's time twice.  Counts are read off the arguments and results
after the timer stops.  Layer names are finstack's module names.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
import tracemalloc
from collections import defaultdict


def _simplices(args, result) -> dict:
    return {"simplicial.simplices": sum(result.count(n) for n in range(result.cap + 1))}


def _chains(args, result) -> dict:
    entries = nonzeros = 0
    for mat in result.boundary.values():
        entries += len(mat) * (len(mat[0]) if mat else 0)
        nonzeros += sum(1 for row in mat for x in row if x)
    return {"homology.cells": sum(len(b) for b in result.basis.values()),
            "homology.matrix_entries": entries, "homology.nonzeros": nonzeros}


def _milnor(args, result) -> dict:
    return {"milnor.simplices": sum(result.count(k) for k in range(result.levels + 1))}


def _presentation(args, result) -> dict:
    return {"fundamental.generators": len(result.generators),
            "fundamental.relations": len(result.relations)}


def _search_space(args, result) -> dict:
    """Product of the hom-set sizes the brute-force search ranges over."""
    c, c2 = args[0], args[1]
    g = c.target
    sizes = [len(g.hom(c.a[i][w], c2.a[k][w]))
             for i in c.cov.indices() for k in c2.cov.indices()
             for w in set(c.cov.cover[i]) & set(c2.cov.cover[k])]
    return {"torsor.search_space": math.prod(sizes)}


def _spans(args, result) -> dict:
    return {"spans.spans": sum(len(c) for c in result.classes)}


def _lifts(args, result) -> dict:
    """Candidates: the product of fiber hom-set sizes |Y|^|X| each search ranges over."""
    ic, f, _, p_lift, q_lift, rf = args[:6]

    def size(lift_, d):
        return len(ic.fiber(lift_.anchor.obj_map[d]).elems(lift_.objects[d]))

    left = math.prod(size(rf.lift, d) ** size(q_lift, d) for d in q_lift.shape.objects)
    right = math.prod(size(p_lift, e) ** size(q_lift, f.obj_map[e]) for e in f.source.objects)
    return {"kan.lift_candidates": left + right,
            "kan.lift_morphisms": result.left_size + result.right_size}


def _targets() -> list:
    """(owner, attribute, layer metric, counter) for every call a CLI job makes."""
    import finstack.cli as cli
    import finstack.jsonio as jsonio
    from finstack.category import CatFunctor
    from finstack.fundamental import GroupPresentation
    from finstack.homology import ChainComplex

    validate = "jsonio.validate_s"
    return [
        (jsonio, "load_json", "jsonio.parse_s", lambda a, r: {"jsonio.docs": 1}),
        (jsonio, "groupoid_from_json", validate, None),
        (jsonio, "groupoid_functor_from_json", validate, None),
        (jsonio, "cocycle_from_json", validate, None),
        (jsonio, "category_from_json", validate, None),
        (jsonio, "cat_functor_from_json", validate, None),
        (jsonio, "lift_from_json", validate, None),
        (cli, "groupoid_functor", validate, None),
        (CatFunctor, "then", validate, None),
        (jsonio, "indexed_category_from_json", "jsonio.indexed_s", None),
        (jsonio, "morphism_class_from_json", "spans.class_s", None),
        (cli, "pi0", "groupoid.pi0_s", None),
        (cli, "is_weak_equivalence", "groupoid.weak_equivalence_s", None),
        (cli, "nerve", "simplicial.nerve_s", _simplices),
        (cli, "simplicial_identity_violations", "simplicial.identities_s", None),
        (cli, "chain_complex", "homology.chain_s", _chains),
        (cli, "chain_complex_B", "homology.chain_s", _chains),
        (cli, "chain_complex_E", "homology.chain_s", _chains),
        (cli, "homology", "homology.homology_s", lambda a, r: {"homology.groups": 1}),
        (ChainComplex, "check_dd_zero", "homology.dd_check_s", None),
        (cli, "induced_map_is_isomorphism", "homology.induced_s", None),
        (cli, "pi1_presentation", "fundamental.presentation_s", _presentation),
        (GroupPresentation, "abelianization", "fundamental.presentation_s", None),
        (cli, "pi1_iso_check", "fundamental.iso_check_s", None),
        (cli, "milnor_B", "milnor.build_s", _milnor),
        (cli, "milnor_E", "milnor.build_s", _milnor),
        (cli, "comparison_chain_map", "milnor.compare_s", None),
        (cli, "cocycle_to_torsor", "torsor.glue_s", None),
        (cli, "validate_torsor", "torsor.glue_s", None),
        (cli, "torsor_to_cocycle", "torsor.glue_s", None),
        (cli, "find_cocycle_morphism", "torsor.search_s", _search_space),
        (cli, "torsor_isomorphic", "torsor.iso_s", None),
        (cli, "span_pi0", "spans.pi0_s", _spans),
        (cli, "zigzag_check", "spans.zigzag_s", None),
        (cli, "right_kan", "kan.right_kan_s", None),
        (cli, "adjunction_check", "kan.adjunction_s", _lifts),
        (cli, "groupoid_diagram", "kan.diagram_special_s", None),
        (cli, "diagram_special", "kan.diagram_special_s", None),
    ]


TIME_METRICS = [
    "jsonio.parse_s", "jsonio.validate_s", "jsonio.indexed_s", "groupoid.pi0_s",
    "groupoid.weak_equivalence_s", "simplicial.nerve_s", "simplicial.identities_s",
    "homology.chain_s", "homology.homology_s", "homology.dd_check_s", "homology.induced_s",
    "fundamental.presentation_s", "fundamental.iso_check_s", "milnor.build_s",
    "milnor.compare_s", "torsor.glue_s", "torsor.search_s", "torsor.iso_s",
    "spans.class_s", "spans.pi0_s", "spans.zigzag_s", "kan.right_kan_s",
    "kan.adjunction_s", "kan.diagram_special_s",
]
COUNT_METRICS = [
    "jsonio.docs", "simplicial.simplices", "homology.cells", "homology.matrix_entries",
    "homology.nonzeros", "homology.groups", "fundamental.generators",
    "fundamental.relations", "milnor.simplices", "torsor.search_space", "spans.spans",
    "kan.lift_candidates", "kan.lift_morphisms",
]


class Tracer:
    """Accumulates layer seconds and counts; with ``alloc`` set it instead
    records the tracemalloc peak of each outermost homology-layer call."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.alloc_peak = 0
        self.counting_s = 0.0   # time spent reading counts, outside every layer
        self._depth = 0

    def _wrap(self, fn, metric: str, counter):
        alloc = self.alloc and metric.startswith("homology.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                if alloc:
                    self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if not self.alloc:
                self.seconds[metric] += elapsed
                if counter:
                    start = time.perf_counter()
                    for key, value in counter(args, result).items():
                        self.counts[key] += value
                    self.counting_s += time.perf_counter() - start
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, name, metric, counter in _targets():
                original = vars(owner).get(name)
                if original is None:  # renamed or removed: its layer reads 0
                    continue
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, metric, counter))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
