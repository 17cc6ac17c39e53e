"""Finite-model engine for groupoid classifying spaces and descent data.

Every public name is re-exported from the module that defines it, and that
module is imported only when the name is first read (PEP 562), so ``import
finstack`` and a CLI launch load only the modules they use.
"""

from importlib import import_module

# any first import of finstack.homology binds the submodule to this package's
# ``homology``; importing the function by that name after it keeps the function
from .homology import homology

_HOMES = {
    **dict.fromkeys([
        "CatFunctor", "FiniteCategory", "chain_category", "comma_category", "discrete_category",
        "functor", "identity_functor", "partition", "poset_category", "validate_category",
    ], "category"),
    **dict.fromkeys([
        "FiniteGroupoid", "action_groupoid", "cyclic_groupoid", "disjoint_union", "fiber_product_2",
        "fiber_product_2_projections", "fiber_product_strict", "full_subgroupoid",
        "groupoid_from_group", "is_weak_equivalence", "pair_groupoid", "pi0", "point_groupoid",
        "skeleton", "symmetric_groupoid", "validate_groupoid", "vertex_group",
    ], "groupoid"),
    **dict.fromkeys([
        "ChainComplex", "HomologyGroup", "chain_complex", "homology", "induced_map_is_isomorphism",
    ], "homology"),
    "resolution_chains": "resolution",
    **dict.fromkeys(["TruncatedSimplicialSet", "nerve", "simplicial_circle"], "simplicial"),
    **dict.fromkeys(["GroupPresentation", "Pi1Report", "pi1_iso_check", "pi1_presentation"],
                    "fundamental"),
    **dict.fromkeys([
        "MilnorComplex", "comparison_chain_map", "milnor_B", "milnor_E", "milnor_pairing",
        "milnor_section", "milnor_to_nerve",
    ], "milnor"),
    **dict.fromkeys([
        "Cocycle", "CocycleMorphism", "CoveredSpace", "Torsor", "check_cocycle_morphism",
        "cocycle_to_torsor", "covered_space", "find_cocycle_morphism", "torsor_isomorphic",
        "torsor_to_cocycle", "validate_cocycle",
    ], "torsor"),
    **dict.fromkeys([
        "MorphismClass", "Span", "SpanClasses", "compose_spans", "identities_class",
        "morphism_class", "r_homotopic", "r_homotopy_classes", "span_pi0", "theta_span",
        "zigzag_check",
    ], "spans"),
    **dict.fromkeys([
        "AdjunctionReport", "FiberDiagram", "FinSetFiber", "GroupoidDiagram", "IndexedCategory",
        "Lift", "LimitCone", "RightKanResult", "SpecialDiagram", "adjunction_check",
        "diagram_special", "finset_limit", "groupoid_diagram", "indexed_category",
        "is_global_limit", "lift", "make_fiber", "right_kan", "trivial_indexed_category",
    ], "kan"),
    **dict.fromkeys(["RunReport", "dispatch"], "cli"),
}
__all__ = list(_HOMES)


def __getattr__(name):
    """Import the home module of a re-exported name on first use (PEP 562);
    ``finstack.cli`` among them, so that running it with -m warns nothing."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def _lazy(module: str, name: str):
    """A stand-in for ``name`` of ``finstack.<module>`` that imports that module
    on its first call.  It keeps the target in its own closure, never in the
    namespace it is bound in, so that a patch of that binding stays in place."""
    path, target = f"{__name__}.{module}", None

    def stand_in(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(import_module(path), name)
        return target(*args, **kwargs)

    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in
