"""Every timed benchmark layer still wraps at least one live finstack name,
and every method it wraps is defined in the class that owns it.

``bench/layers.py`` wraps functions by name and skips names that are gone,
so a renamed function would make its layer read 0 without any error.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_layer_has_a_live_target():
    layers = load_layers()
    live = {metric for owner, name, metric, _ in layers._targets() if name in vars(owner)}
    assert [m for m in layers.TIME_METRICS if m not in live] == []


def test_every_wrapped_method_is_defined_in_its_own_class():
    """A method is wrapped through ``vars(owner)``, so one that its class only
    inherits, from a base or a generated record class, would go unwrapped."""
    layers = load_layers()
    methods = [(owner, name) for owner, name, _, _ in layers._targets() if isinstance(owner, type)]
    assert sorted(f"{owner.__name__}.{name}" for owner, name in methods) == \
        ["CatFunctor.then", "ChainComplex.check_dd_zero", "GroupPresentation.abelianization"]
    assert [(owner, name) for owner, name in methods if name not in vars(owner)] == []
