"""Stdlib-only lint: the drive spectrum has one harmonic routine.

Exactly one function of ``floquet.py`` calls ``rfft``, and both spectra
of the modulated coupler frequency, the exact one of
``fourier_decompose`` and the truncated Taylor series of
``derivative_series``, are computed through it.  No function of the
module calls ``math.factorial``: the truncated series is the FFT of its
Taylor polynomial, not a hand-expanded factorial sum.
"""

import ast
from pathlib import Path

FLOQUET = Path(__file__).resolve().parents[1] / "src" / "couplersim" / "floquet.py"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_calls(func) -> set:
    """Names called in the function's own body (lambdas and comprehensions
    included, nested ``def`` and ``class`` excluded): ``name(...)`` and
    ``x.name(...)``."""
    names, stack = set(), list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            callee = node.func
            names.add(callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None))
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def callers(source: str, name: str) -> list:
    """Qualified names of the functions of ``source`` that call ``name``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                qualified = prefix + child.name
                if isinstance(child, _FUNCTIONS) and name in _own_calls(child):
                    found.append(qualified)
                visit(child, qualified + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_one_function_takes_the_fft():
    assert len(callers(FLOQUET.read_text(), "rfft")) == 1


def test_both_spectra_use_the_harmonic_routine():
    source = FLOQUET.read_text()
    [routine] = callers(source, "rfft")
    assert {"fourier_decompose", "derivative_series"} <= set(callers(source, routine))


def test_no_factorial_sums():
    assert callers(FLOQUET.read_text(), "factorial") == []


def test_checker_flags_a_mutated_module():
    source = FLOQUET.read_text()
    series_return = "    return _spectrum(lambda c: np.polyval(taylor[::-1], drive.a_d * c))\n"
    assert source.count(series_return) == 1
    mutated = source.replace(series_return, (
        "    coef = np.fft.rfft(taylor)\n"
        "    return DriveSpectrum(omega_bar_c=float(coef[0].real), d_m=())\n"
    )) + (
        "\n\ndef _omega_bar_sum(taylor, a):\n"
        "    return sum(taylor[2 * n] * a ** (2 * n) / (4 ** n * math.factorial(n) ** 2)\n"
        "               for n in range(5))\n"
    )
    assert callers(mutated, "rfft") == ["_spectrum", "derivative_series"]
    assert "derivative_series" not in callers(mutated, "_spectrum")
    assert callers(mutated, "factorial") == ["_omega_bar_sum"]
