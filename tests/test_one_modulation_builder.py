"""Stdlib-only lint: the modulated-coupler Hamiltonian H(t) has one builder.

Exactly one nested ``def`` in the package and the test oracles calls
``coupler_frequency`` directly: the ``h_of_t`` closure of
``floquet.modulated_hamiltonian``.
Every time-domain model of the driven coupler (the CZ scan, the Floquet
oracle of ``tests/oracles.py``) takes its H(t) from that builder instead of
sampling ``omega_C(phi(t))`` in a closure of its own.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "couplersim"
MODULES = sorted(PACKAGE.glob("*.py")) + [Path(__file__).resolve().parent / "oracles.py"]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCTIONS, ast.Lambda, ast.ClassDef)


def _calls_coupler_frequency(func) -> bool:
    """Whether the function's own body (nested scopes excluded) calls
    ``coupler_frequency(...)`` or ``x.coupler_frequency(...)``."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "coupler_frequency":
                return True
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return False


def modulation_closures(source: str) -> list:
    """Qualified names of the nested functions that call
    ``coupler_frequency`` directly."""
    found = []

    def visit(node, prefix, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                name = prefix + child.name
                is_function = isinstance(child, _FUNCTIONS)
                if is_function and in_function and _calls_coupler_frequency(child):
                    found.append(name)
                visit(child, name + ".", in_function or is_function)
            else:
                visit(child, prefix, in_function)

    visit(ast.parse(source), "", False)
    return found


def test_package_modules_found():
    assert len(MODULES) >= 8


def test_one_closure_samples_the_modulated_coupler():
    found = [(path.name, name) for path in MODULES
             for name in modulation_closures(path.read_text())]
    assert found == [("floquet.py", "modulated_hamiltonian.h_of_t")]


def test_checker_flags_a_mutated_module():
    source = (PACKAGE / "protocols.py").read_text()
    mutated = source + (
        "\n\ndef _rotating_model(drive, coupler):\n"
        "    def h_of_t(t):\n"
        "        return coupler_frequency(drive.phi_dc + drive.a_d * np.sin(t), coupler)\n"
        "    return h_of_t\n"
        "\n\nclass _Model:\n"
        "    def sample(self, phi):\n"
        "        return circuit.coupler_frequency(phi, self.coupler)\n"
    )
    assert modulation_closures(source) == []
    assert modulation_closures(mutated) == ["_rotating_model.h_of_t"]
