"""Finite-model engine for groupoid classifying spaces and descent data."""

from .category import (
    CatFunctor,
    FiniteCategory,
    chain_category,
    comma_category,
    discrete_category,
    functor,
    identity_functor,
    partition,
    poset_category,
    validate_category,
)
from .groupoid import (
    FiniteGroupoid,
    action_groupoid,
    cyclic_groupoid,
    disjoint_union,
    fiber_product_2,
    fiber_product_2_projections,
    fiber_product_strict,
    full_subgroupoid,
    groupoid_from_group,
    is_weak_equivalence,
    pair_groupoid,
    pi0,
    point_groupoid,
    skeleton,
    symmetric_groupoid,
    validate_groupoid,
    vertex_group,
)
from .homology import (
    ChainComplex,
    HomologyGroup,
    chain_complex,
    homology,
    induced_map_is_isomorphism,
)
from .resolution import resolution_chains
from .simplicial import TruncatedSimplicialSet, nerve, simplicial_circle
from .fundamental import GroupPresentation, Pi1Report, pi1_iso_check, pi1_presentation
from .milnor import (
    MilnorComplex,
    comparison_chain_map,
    milnor_B,
    milnor_E,
    milnor_pairing,
    milnor_section,
    milnor_to_nerve,
)
from .torsor import (
    Cocycle,
    CocycleMorphism,
    CoveredSpace,
    Torsor,
    check_cocycle_morphism,
    cocycle_to_torsor,
    covered_space,
    find_cocycle_morphism,
    torsor_isomorphic,
    torsor_to_cocycle,
    validate_cocycle,
)
from .spans import (
    MorphismClass,
    Span,
    SpanClasses,
    compose_spans,
    identities_class,
    morphism_class,
    r_homotopic,
    r_homotopy_classes,
    span_pi0,
    theta_span,
    zigzag_check,
)
from .kan import (
    AdjunctionReport,
    FiberDiagram,
    FinSetFiber,
    GroupoidDiagram,
    IndexedCategory,
    Lift,
    LimitCone,
    RightKanResult,
    SpecialDiagram,
    adjunction_check,
    diagram_special,
    finset_limit,
    groupoid_diagram,
    indexed_category,
    is_global_limit,
    lift,
    make_fiber,
    right_kan,
    trivial_indexed_category,
)


def __getattr__(name):
    """Load ``finstack.cli`` on first use (PEP 562), so that running it with -m warns nothing."""
    if name in ("RunReport", "dispatch"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
