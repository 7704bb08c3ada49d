"""Stdlib-only lint: every module-level import in the package is used, and
so is every private module-level name (``_helper``, ``_TABLE``; dunders
are exempt).

``__init__.py`` is skipped (its imports are re-exports), and so is
``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "couplersim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def unused_private_names(source: str) -> list:
    """Module-level functions, classes and assignments named ``_x`` (not
    dunders) that no expression in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        bound.update({name: node.lineno for name in names
                      if name.startswith("_") and not name.startswith("__")})
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_package_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from dataclasses import dataclass, field\n"
        "x: field = os.sep\n"
    )
    assert unused_imports(source) == [(2, "system"), (3, "dataclass")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def test_checker_flags_unused_private_names():
    source = (
        "__version__ = '1'\n"
        "_TABLE, _SPARE = 1, 2\n"
        "def _helper():\n"
        "    return _TABLE\n"
        "class _Dead:\n"
        "    pass\n"
        "def public():\n"
        "    _local = 3\n"
        "    return _helper() + _local\n"
    )
    assert unused_private_names(source) == [(2, "_SPARE"), (5, "_Dead")]
