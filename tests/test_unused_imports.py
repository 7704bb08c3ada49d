"""Stdlib-only lint: every module-level import in the package and in the
test oracles (``tests/oracles.py``) is used, every import inside a function
is read in that function, and so is every private module-level name
(``_helper``, ``_TABLE``; dunders are exempt).  Every public top-level
function and class of the package, and every public method and property of
its top-level classes, is read by another definition of the package: a name
only tests call is a test oracle and belongs in ``tests/oracles.py``.

``from __future__ import annotations`` is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "couplersim"
MODULES = sorted(PACKAGE.glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def imported_names(statements) -> dict:
    """``{bound name: line}`` of the import statements among ``statements``."""
    bound = {}
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def own_nodes(function):
    """The nodes of ``function``'s body, not those of the functions,
    lambdas and classes defined in it."""
    stack = [function]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                      ast.ClassDef)):
                stack.append(child)
                yield child


def unused_imports(source: str) -> list:
    """``(line, name)`` of every module-level import that nothing in the
    module reads and of every import inside a function that the function,
    nested definitions included, does not read."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(line, name) for name, line in imported_names(tree.body).items()
              if name not in used]
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = {node.id for node in ast.walk(function)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unused += [(line, name) for name, line in
                       imported_names(own_nodes(function)).items() if name not in read]
    return sorted(unused)


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


def unreferenced_public_names(sources) -> dict:
    """Public top-level functions and classes, and public methods and
    properties of top-level classes (as ``Class.name``), that no module of
    ``sources`` reads outside their own definition (a recursive call does
    not count), as ``{name: line}``."""
    defined, read = {}, set()
    for source in sources:
        for node in ast.parse(source).body:
            units, owner = [node], ""
            if isinstance(node, ast.ClassDef):
                units, owner = [*node.decorator_list, *node.bases, *node.body], node.name
                defined[node.name] = node.lineno
            for unit in units:
                name = getattr(unit, "name", None)
                read |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(unit)
                         if isinstance(n, (ast.Name, ast.Attribute))} - {owner, name}
                if isinstance(unit, (ast.FunctionDef, ast.ClassDef)):
                    defined[f"{owner}.{name}" if owner else name] = unit.lineno
    return {name: line for name, line in defined.items()
            if not (own := name.rpartition(".")[2]).startswith("_") and own not in read}


def test_package_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES + [ORACLES], ids=lambda p: p.name)
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


def test_checker_flags_function_imports_the_function_does_not_read():
    source = (
        "import os\n"
        "def uses_module_import():\n"
        "    return os.sep\n"
        "def partly():\n"
        "    from os import path, sep\n"
        "    return path\n"
        "def read_by_a_closure():\n"
        "    import json\n"
        "    return lambda: json.dumps(1)\n"
        "def outer():\n"
        "    if True:\n"
        "        import math\n"
        "    def inner():\n"
        "        import sys\n"
        "        return math.pi\n"
        "    return inner\n"
        "def elsewhere():\n"
        "    import shutil\n"
        "    return 1\n"
        "def reader():\n"
        "    return shutil\n"
    )
    assert unused_imports(source) == [(5, "sep"), (14, "sys"), (18, "shutil")]


@pytest.mark.parametrize("path", MODULES + [ORACLES], ids=lambda p: p.name)
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


def test_no_unreferenced_public_names():
    assert unreferenced_public_names([p.read_text() for p in MODULES]) == {}


def test_checker_flags_dead_public_names():
    source = (
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used()\n"
        "class Oracle:\n"
        "    def read(self):\n"
        "        return self.read() + self.size + Oracle().size\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n"
        "def _private():\n"
        "    pass\n"
    )
    caller = "import m\nm.recursive(2)\n"
    assert unreferenced_public_names([source, caller]) == {"Oracle": 5, "Oracle.read": 6}
    assert unreferenced_public_names([source]) == {
        "recursive": 3, "Oracle": 5, "Oracle.read": 6}


def test_checker_flags_a_mutated_module():
    source = (PACKAGE / "circuit.py").read_text()
    anchor = '        object.__setattr__(self, "g", canon)\n'
    assert source.count(anchor) == 1
    mutated = source.replace(anchor, anchor + (
        "\n    def coupling(self, i, j):\n"
        "        return self.g.get(tuple(sorted((i, j))), 0.0)\n"))
    line = mutated.splitlines().index("    def coupling(self, i, j):") + 1
    others = [p.read_text() for p in MODULES if p.name != "circuit.py"]
    assert unreferenced_public_names([source] + others) == {}
    assert unreferenced_public_names([mutated] + others) == {"CircuitSpec.coupling": line}
