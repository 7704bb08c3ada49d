"""Stdlib-only lint: the periodic propagator has one spectrum layout, and its
powers one reading.

Exactly one function of ``numerics.py`` calls ``eigh``:
``mirrored_spectrum``, which keeps the two mirrored quarter runs of an even
``n_sub`` that ``periodic_propagator`` reads.  A second spectrum function,
such as a full-period one for odd ``n_sub``, would fork the engine into two
layouts that every integrator change has to serve.

Exactly one function of ``numerics.py`` calls ``eig``:
``stroboscopic_modes``, whose eigenpairs give the diagonal of every power
of a one-period propagator, ``diag(U^k) = w @ lambda^k``.  No module of the
package calls ``matrix_power``: a second way to read the powers would be
one more path for every integrator change to serve.
"""

from pathlib import Path

from test_one_harmonic_routine import callers

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "couplersim"
NUMERICS = PACKAGE / "numerics.py"


def test_one_function_diagonalises_the_samples():
    assert callers(NUMERICS.read_text(), "eigh") == ["mirrored_spectrum"]


def test_one_function_reads_the_powers():
    assert callers(NUMERICS.read_text(), "eig") == ["stroboscopic_modes"]


def test_no_module_takes_a_matrix_power():
    modules = sorted(PACKAGE.glob("*.py"))
    assert NUMERICS in modules
    assert {path.name: callers(path.read_text(), "matrix_power") for path in modules} == {
        path.name: [] for path in modules}


def test_checker_flags_a_mutated_module():
    source = NUMERICS.read_text()
    mutated = source + (
        "\n\ndef midpoint_spectrum(h_of_t, period, n_sub):\n"
        "    evals, evecs = np.linalg.eigh(h_of_t((np.arange(n_sub) + 0.5) * (period / n_sub)))\n"
        "    return MidpointSpectrum(evals, evecs[[0, -1]], None, n_sub)\n"
        "\n\ndef stroboscopic_phases(u, n):\n"
        "    evals = np.linalg.eig(u)[0]\n"
        "    return np.diag(np.linalg.matrix_power(u, n)), evals ** n\n"
    )
    assert callers(mutated, "eigh") == ["mirrored_spectrum", "midpoint_spectrum"]
    assert callers(mutated, "eig") == ["stroboscopic_modes", "stroboscopic_phases"]
    assert callers(mutated, "matrix_power") == ["stroboscopic_phases"]
