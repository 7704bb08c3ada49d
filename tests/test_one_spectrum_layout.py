"""Stdlib-only lint: the periodic propagator has one spectrum layout.

Exactly one function of ``numerics.py`` calls ``eigh``:
``mirrored_spectrum``, which keeps the two mirrored quarter runs of an even
``n_sub`` that ``periodic_propagator`` reads.  A second spectrum function,
such as a full-period one for odd ``n_sub``, would fork the engine into two
layouts that every integrator change has to serve.
"""

from pathlib import Path

from test_one_harmonic_routine import callers

NUMERICS = Path(__file__).resolve().parents[1] / "src" / "couplersim" / "numerics.py"


def test_one_function_diagonalises_the_samples():
    assert callers(NUMERICS.read_text(), "eigh") == ["mirrored_spectrum"]


def test_checker_flags_a_mutated_module():
    source = NUMERICS.read_text()
    mutated = source + (
        "\n\ndef midpoint_spectrum(h_of_t, period, n_sub):\n"
        "    evals, evecs = np.linalg.eigh(h_of_t((np.arange(n_sub) + 0.5) * (period / n_sub)))\n"
        "    return MidpointSpectrum(evals, evecs[[0, -1]], None, n_sub)\n"
    )
    assert callers(mutated, "eigh") == ["mirrored_spectrum", "midpoint_spectrum"]
