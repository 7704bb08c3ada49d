import pytest

from couplersim import cli, floquet, presets
from oracles import calibrate_drive_amplitude


@pytest.mark.parametrize("kind, coupling", [("reset", 2.07e6), ("lr", 0.91e6),
                                            ("readout", 2.12e6)])
def test_calibration_reproduces_fixture_amplitudes(kind, coupling):
    # the fixture amplitudes are the roots of the k = 2 closed-form swap
    # coupling at the quoted effective couplings
    a_d = calibrate_drive_amplitude(kind, coupling)
    assert a_d == pytest.approx(presets.FIXTURE_DRIVES[kind][1], rel=1e-12, abs=0)


def test_the_four_operations_share_their_kinds():
    # the fixture drives, the transition manifolds and floquet-report's
    # kind choices name the same operations
    kinds = set(presets.FIXTURE_DRIVES)
    assert kinds == set(floquet._TRANSITIONS) == {"reset", "lr", "readout", "cz"}
    assert kinds == set(cli._schema("floquet-report")["kind"].choices)


@pytest.mark.parametrize("kind", sorted(presets.FIXTURE_DRIVES))
def test_fixture_drive_sits_on_its_manifold(kind):
    drive = presets.fixture_drive(kind)
    man = floquet.transition_manifold(presets.table_circuit(), kind)
    assert drive.k == man.k
    assert drive.omega_d == man.bare_drive_frequency
    assert (drive.phi_dc, drive.a_d) == presets.FIXTURE_DRIVES[kind]
