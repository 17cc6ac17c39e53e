"""The package surface: every name ``finstack`` re-exports, loaded on first use,
and the README's library quick start, run as it is written."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import finstack as fs

# every name the package re-exports, by the module that defines it
REEXPORTS = {
    "category": ["CatFunctor", "FiniteCategory", "chain_category", "comma_category",
                 "discrete_category", "functor", "identity_functor", "partition",
                 "poset_category", "validate_category"],
    "groupoid": ["FiniteGroupoid", "action_groupoid", "cyclic_groupoid", "disjoint_union",
                 "fiber_product_2", "fiber_product_2_projections", "fiber_product_strict",
                 "full_subgroupoid", "groupoid_from_group", "is_weak_equivalence",
                 "pair_groupoid", "pi0", "point_groupoid", "skeleton", "symmetric_groupoid",
                 "validate_groupoid", "vertex_group"],
    "homology": ["ChainComplex", "HomologyGroup", "chain_complex", "homology",
                 "induced_map_is_isomorphism"],
    "resolution": ["resolution_chains"],
    "simplicial": ["TruncatedSimplicialSet", "nerve", "simplicial_circle"],
    "fundamental": ["GroupPresentation", "Pi1Report", "pi1_iso_check", "pi1_presentation"],
    "milnor": ["MilnorComplex", "comparison_chain_map", "milnor_B", "milnor_E",
               "milnor_pairing", "milnor_section", "milnor_to_nerve"],
    "torsor": ["Cocycle", "CocycleMorphism", "CoveredSpace", "Torsor", "check_cocycle_morphism",
               "cocycle_to_torsor", "covered_space", "find_cocycle_morphism",
               "torsor_isomorphic", "torsor_to_cocycle", "validate_cocycle"],
    "spans": ["MorphismClass", "Span", "SpanClasses", "compose_spans", "identities_class",
              "morphism_class", "r_homotopic", "r_homotopy_classes", "span_pi0", "theta_span",
              "zigzag_check"],
    "kan": ["AdjunctionReport", "FiberDiagram", "FinSetFiber", "GroupoidDiagram",
            "IndexedCategory", "Lift", "LimitCone", "RightKanResult", "SpecialDiagram",
            "adjunction_check", "diagram_special", "finset_limit", "groupoid_diagram",
            "indexed_category", "is_global_limit", "lift", "make_fiber", "right_kan",
            "trivial_indexed_category"],
    "cli": ["RunReport", "dispatch"],
}


def test_every_reexport_is_its_home_object():
    """Each home module is imported first: the first import of
    ``finstack.homology`` binds the submodule to the package's ``homology``,
    so the package must bind the function after it."""
    for home, names in REEXPORTS.items():
        module = importlib.import_module(f"finstack.{home}")
        assert [n for n in names if getattr(fs, n) is not getattr(module, n)] == [], home


def test_star_import_binds_every_reexport():
    expected = {n for names in REEXPORTS.values() for n in names}
    assert sorted(fs.__all__) == sorted(expected)
    namespace: dict = {}
    exec("from finstack import *", namespace)
    assert set(namespace) - {"__builtins__"} == expected
    assert namespace["homology"] is fs.homology


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fs.no_such_name


ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_prints_its_comments():
    """The README's ``python`` block runs unchanged in a fresh interpreter,
    and each line it prints is the trailing comment of its ``print`` call."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    want = [line.split("#", 1)[1].strip() for line in blocks[0].splitlines() if line.startswith("print(")]
    assert want == ["H_3 = Z/2", "H_10 = 0", "H_1 = Z/2", "2"]
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == want
