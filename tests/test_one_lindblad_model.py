"""Stdlib-only lint: the qutrit x resonator Lindblad generator has one builder.

Outside ``numerics.py``, which defines it, every call of ``liouvillian`` in
the package and in the test oracles (``tests/oracles.py``) takes its
Hamiltonian and collapse list unpacked from
``dynamics.qutrit_resonator_model``, as in
``liouvillian(*qutrit_resonator_model(rates))``.  A collapse list built by
hand next to the call, or a call through an alias, fails it, so the reset,
leakage-recovery and ``leakage-rb`` models share one basis and one set of
decay channels.  The one exemption is the ODE oracle ``propagate``, which
integrates the dissipator of whatever collapse list it is handed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "couplersim"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "numerics.py") + [ORACLES]
#: module -> the one function of it whose ``liouvillian`` call is exempt
EXEMPT = {"oracles.py": "propagate"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _takes_the_model(call) -> bool:
    """Whether ``call`` has exactly the one argument
    ``*qutrit_resonator_model(...)``."""
    if call.keywords or len(call.args) != 1:
        return False
    arg = call.args[0]
    return (isinstance(arg, ast.Starred) and isinstance(arg.value, ast.Call)
            and _name(arg.value.func) == "qutrit_resonator_model")


def model_calls(source: str) -> int:
    """Number of calls ``liouvillian(*qutrit_resonator_model(...))``."""
    return sum(1 for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Call) and _name(node.func) == "liouvillian"
               and _takes_the_model(node))


def hand_built_generators(source: str, exempt: str | None = None) -> list:
    """Lines that read ``liouvillian`` other than as the callee of
    ``liouvillian(*qutrit_resonator_model(...))``, or import it under
    another name, outside the top-level function named ``exempt``."""
    tree = ast.parse(source)
    allowed = {id(node.func) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _takes_the_model(node)}
    allowed |= {id(node) for func in tree.body
                if isinstance(func, ast.FunctionDef) and func.name == exempt
                for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [node.lineno for alias in node.names
                      if alias.name.split(".")[-1] == "liouvillian" and alias.asname]
        elif (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
              and _name(node) == "liouvillian" and id(node) not in allowed):
            found.append(node.lineno)
    return sorted(found)


def test_package_modules_found():
    assert len(MODULES) >= 7


def test_every_generator_takes_the_one_model():
    sources = {path.name: path.read_text() for path in MODULES}
    found = {name: hand_built_generators(s, EXEMPT.get(name)) for name, s in sources.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # not vacuous: the leakage-rb windows are built this way
    assert model_calls(sources["rbsim.py"]) == 1
    # the exemption covers the one call of propagate
    assert len(hand_built_generators(sources["oracles.py"])) == 1


def test_checker_flags_a_mutated_module():
    source = (PACKAGE / "rbsim.py").read_text()
    assert hand_built_generators(source) == []
    n_lines = source.count("\n")
    mutated = source + (
        # a collapse list built by hand
        "\n\ndef _windows(r):\n"
        "    low_q = np.kron(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), np.eye(2))\n"
        "    return liouvillian(np.zeros((6, 6)), [(low_q, r.gamma1)])\n"
        # the model, extended before the call
        "\n\ndef _extended(r, extra):\n"
        "    h, collapse = qutrit_resonator_model(r)\n"
        "    return numerics.liouvillian(h, collapse + extra)\n"
        # an alias that could be called with anything
        "\n\nfrom .numerics import liouvillian as _generator\n"
        "_LIOUVILLIAN = liouvillian\n"
    )
    assert hand_built_generators(mutated) == [n_lines + k for k in (5, 10, 13, 14)]
