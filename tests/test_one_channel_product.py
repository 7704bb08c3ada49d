"""Stdlib-only lint: the Monte Carlo RB step has one matrix product.

Every ``np.matmul`` and ``@`` of the functions that ``rbsim.monte_carlo_rb``
reaches sits in ``_channel``, which applies a window superoperator to the
states' real rows as one real GEMM per row block.  A product elsewhere in
the step, such as a complex GEMM of the states next to a gate or a channel
applied by hand, would be a second path whose bits the curves depend on and
whose threading on a host that loaded numpy first no row bound watches.
The rate-equation products (``cycle_matrix``, ``periodic_lr_trace``) and
the Clifford table built at import are not part of the step.
"""

import ast
from pathlib import Path

RBSIM = Path(__file__).resolve().parents[1] / "src" / "couplersim" / "rbsim.py"


def _multiplies(func) -> bool:
    """Whether ``func`` (nested functions included) has a ``@`` or ``@=``, or
    reads a name or attribute ``matmul``."""
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            return True
        if isinstance(node, ast.Name) and node.id == "matmul":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "matmul":
            return True
    return False


def products_of_the_step(source: str, entry: str = "monte_carlo_rb") -> list:
    """The top-level functions of ``source`` that ``entry`` reaches through
    the names it reads (calls, ``partial`` arguments) and that multiply
    matrices, in source order."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    reached, stack = set(), [entry]
    while stack:
        name = stack.pop()
        if name in reached:
            continue
        reached.add(name)
        stack.extend(node.id for node in ast.walk(functions[name])
                     if isinstance(node, ast.Name) and node.id in functions)
    return [name for name in functions if name in reached and _multiplies(functions[name])]


def test_one_function_multiplies_in_the_step():
    assert products_of_the_step(RBSIM.read_text()) == ["_channel"]


def test_rate_equation_products_are_outside_the_step():
    # the checker sees them, and the step does not reach them
    source = RBSIM.read_text()
    assert products_of_the_step(source, "periodic_lr_trace") == ["cycle_matrix",
                                                                 "periodic_lr_trace"]


def test_checker_flags_a_mutated_module():
    source = RBSIM.read_text()
    product = '            ctot = np.einsum("rij,rjk->rik", _CLIFFORDS_2[gates], ctot)\n'
    measure = '            _channel(windows["measure"], gate, meas)\n'
    assert source.count(product) == 1 and source.count(measure) == 1
    mutated = source.replace(product, "            ctot = _CLIFFORDS_2[gates] @ ctot\n").replace(
        measure, '            _measure(windows["measure"], gate, meas)\n') + (
        "\n\ndef _measure(sup_t, rows, out):\n"
        "    np.matmul(rows[0], sup_t, out=out[0])\n"
        "    np.matmul(rows[1], sup_t, out=out[1])\n"
    )
    assert products_of_the_step(mutated) == ["_channel", "_randomizations", "_measure"]
