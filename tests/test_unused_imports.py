"""Stdlib-only lint: every module-level import in the package is used, and
so is every private module-level name (``_helper``, ``_TABLE``; dunders
are exempt).  Every public top-level function and class is referenced by
another definition of the package, or is a test oracle listed in
``TEST_ONLY`` with the scenario quantity it checks.

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


def unreferenced_public_names(sources) -> dict:
    """Public top-level functions and classes that no module of ``sources``
    reads outside their own definition (a recursive call does not count),
    as ``{name: line}``."""
    defined, read = {}, set()
    for source in sources:
        for node in ast.parse(source).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined[node.name] = node.lineno
            read |= names
    return {name: line for name, line in defined.items() if name not in read}


def surface_violations(sources, allowed: dict) -> list:
    """Unreferenced public names missing from ``allowed``, and ``allowed``
    entries that are referenced or no longer defined."""
    dead = unreferenced_public_names(sources)
    return sorted([(name, "unreferenced, not allow-listed") for name in dead
                   if name not in allowed]
                  + [(name, "stale allow-list entry") for name in allowed if name not in dead])


#: public names only tests call: each is the oracle of a scenario quantity
TEST_ONLY = {
    "build_hamiltonian": "full non-RWA circuit H: oracle of static_zz_shift and of the "
                         "manifold blocks every driven scenario uses",
    "envelope_value": "pulse envelope A(t): quadrature oracle of envelope_area and the "
                      "drive of the pulsed reset Lindblad test (reset-dynamics)",
    "quasi_energy_gap": "exact Floquet gap: oracle of the floquet-report couplings",
    "find_parametric_resonance": "exact dressed resonance: oracle of the cz-chevron "
                                 "Rabi frequencies and the k = 2 coupling scaling",
    "propagate": "Lindblad ODE oracle of the reset-dynamics and lr-dynamics closed forms",
    "schrodinger_propagate": "ODE oracle of the periodic propagator (cz-chevron) and of "
                             "the closed-form frame dynamics (floquet-report)",
    "calibrate_drive_amplitude": "reproduces the fixture drive amplitudes of "
                                 "floquet-report and the presets",
    "temperature_to_population": "roundtrip oracle of the reset-metrics temperatures",
    "static_zz_shift": "idle ZZ of the cz-chevron excitation manifolds, checked against "
                       "build_hamiltonian",
    "steady_state_leakage": "power-iteration oracle of leakage-rb's a2_closed_forms",
}


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


def test_no_unreferenced_public_names():
    assert surface_violations([p.read_text() for p in MODULES], TEST_ONLY) == []


def test_checker_flags_dead_public_names_and_stale_entries():
    source = (
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used()\n"
        "class Oracle:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
    )
    caller = "import m\nm.recursive(2)\n"
    assert unreferenced_public_names([source, caller]) == {"Oracle": 5}
    assert unreferenced_public_names([source]) == {"recursive": 3, "Oracle": 5}
    allowed = {"Oracle": "oracle", "used": "now referenced", "gone": "deleted"}
    assert surface_violations([source, caller], allowed) == [
        ("gone", "stale allow-list entry"), ("used", "stale allow-list entry")]
    assert surface_violations([source], {}) == [
        ("Oracle", "unreferenced, not allow-listed"),
        ("recursive", "unreferenced, not allow-listed")]
