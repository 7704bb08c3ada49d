import pytest

from couplersim import presets
from oracles import calibrate_drive_amplitude


@pytest.mark.parametrize("kind, coupling, amplitude", [
    ("reset", 2.07e6, presets.A_D_RESET),
    ("lr", 0.91e6, presets.A_D_LR),
    ("readout", 2.12e6, presets.A_D_READOUT),
])
def test_calibration_reproduces_fixture_amplitudes(kind, coupling, amplitude):
    # the fixture amplitudes are the roots of the k = 2 closed-form swap
    # coupling at the quoted effective couplings
    a_d = calibrate_drive_amplitude(presets.table_circuit(), kind, coupling)
    assert a_d == pytest.approx(amplitude, rel=1e-12, abs=0)
