"""The runtime imports nothing outside the standard library and not
``dataclasses``, every annotation in it names something its module can see,
and every name a module imports is used there."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "finstack").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_absolute_imports_are_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_dataclasses(path):
    """The records are NamedTuples and the table classes plain classes:
    ``dataclasses`` costs a CLI launch about 10 ms to import, more to apply."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "dataclasses" not in imported, f"{path.name} imports dataclasses"


def test_cli_import_loads_no_dataclasses():
    """In a fresh interpreter, ``import finstack.cli`` adds no ``dataclasses``
    to ``sys.modules``; a module loaded before the import does not count."""
    code = ("import sys; before = set(sys.modules); import finstack.cli; "
            "print('dataclasses' in set(sys.modules) - before)")
    src = str(SOURCES[0].parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_sources_found():
    assert any(p.name == "category.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_type_hints_resolve(path):
    """``typing.get_type_hints`` resolves every function, class and method defined here."""
    module = importlib.import_module("finstack" if path.stem == "__init__" else f"finstack.{path.stem}")
    owned = [obj for obj in vars(module).values()
             if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__]
    assert owned
    for obj in owned:
        typing.get_type_hints(obj)
        if inspect.isclass(obj):
            for member in vars(obj).values():
                if inspect.isfunction(member):
                    typing.get_type_hints(member)


def _names_read(tree: ast.AST) -> set:
    """Every name the module reads, in code and in annotations, string ones included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                read |= _names_read(ast.parse(annotation.value, mode="eval"))
    return read


MODULES = [p for p in SOURCES if p.name != "__init__.py"]  # __init__ imports to re-export


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    unused = sorted(bound - _names_read(tree))
    assert not unused, f"{path.name} imports {unused} without using them"
