"""Stdlib-only lint: the coupling convention (sign and bosonic factors of
``g_ij``) lives in ``circuit.py``.  No other module calls ``.coupling(`` or
reads the ``.g`` table of a circuit; reduced models take their couplings
from blocks of the circuit Hamiltonian (``manifold_hamiltonian``).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "couplersim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "circuit.py")


def coupling_reads(source: str) -> list:
    """Line numbers of ``x.coupling(...)`` calls and ``x.g`` reads."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("coupling", "g"))


def test_package_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_circuit_applies_the_coupling_convention(path):
    assert coupling_reads(path.read_text()) == []


def test_checker_flags_a_mutated_module():
    source = (PACKAGE / "floquet.py").read_text()
    n = len(source.splitlines())
    mutated = source + "\nG_AC = -CIRCUIT.coupling('Q1', 'C')\nG_AB = CIRCUIT.g[('Q1', 'R')]\n"
    assert coupling_reads(source) == []
    assert coupling_reads(mutated) == [n + 2, n + 3]
