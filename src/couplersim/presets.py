"""Reference-device fixtures.

Device parameters follow the characterisation table of the reference unit
(two fixed-frequency transmons, one lossy readout resonator, one
flux-modulated coupler).  The coupler junction parameters (e_sigma, d, e_c)
are NOT independently measured quantities: they are reverse-fitted to the
quoted tuning band 3.13-5.45 GHz and anharmonicity -161 MHz, and should be
treated as a fixture, not ground truth.  The same applies to the static
flux offsets and the drive amplitudes below, which are calibrated against
the package's own closed forms to reproduce the quoted effective couplings.

The fixture drives of the four operations (the kinds of
``floquet.transition_manifold``) are one table, ``FIXTURE_DRIVES``;
:func:`fixture_drive` puts an entry at its manifold's bare frequency and
harmonic.  Sweep with ``replace(fixture_drive(kind), a_d=a)``.
"""

from __future__ import annotations

import math

from .circuit import CircuitSpec, CouplerSpec, DecayRates, coupler_spec_from_band
from .dynamics import EnvelopeSpec
from .floquet import DriveSpec, transition_manifold

#: static flux offset of the qubit-resonator operations (rad); places the
#: idle coupler near 5.2 GHz, clear of the first-harmonic coupler resonances
PHI_DC = 0.12 * math.pi

#: static flux offset of the CZ operation (rad); the coupler sits near
#: 4.36 GHz there, where the |ee> <-> |fg> parametric coupling is strong
#: (at the qubit-resonator flux point the two virtual paths nearly cancel)
#: and the conditional-phase calibration lands at the quoted gate duration
PHI_DC_CZ = 0.3 * math.pi

#: kind -> (static flux offset, amplitude) (rad) of the fixture drives.  The
#: k = 2 amplitudes reproduce the quoted couplings through the k = 2 closed
#: forms (exact coupler elimination; ``tests/oracles.py`` calibrates them
#: again); the CZ amplitude makes one full oscillation take 339 ns on the
#: dressed resonance of the exact three-state dynamics
FIXTURE_DRIVES = {
    "reset": (PHI_DC, 0.7928930524676335),      # swap coupling 2.07 MHz on |e0> <-> |g1>
    "lr": (PHI_DC, 0.49080991682237063),        # swap coupling 0.91 MHz on |f0> <-> |e1>
    "readout": (PHI_DC, 0.7640194132070083),    # swap coupling 2.12 MHz on |f0> <-> |e1>
    "cz": (PHI_DC_CZ, 0.07937531612644286),     # pi-phase crossing at 339 ns on |ee> <-> |fg>
}

#: flat-top Gaussian reset pulse (150 ns, 10 ns rise/fall sigma)
RESET_PULSE = EnvelopeSpec(total_length=150e-9, sigma_rise=10e-9, sigma_fall=10e-9)


def table_coupler() -> CouplerSpec:
    return coupler_spec_from_band(3.13e9, 5.45e9, -161e6)


def table_circuit() -> CircuitSpec:
    """Reference circuit; the coupler frequency entry is its zero-flux value
    (the drives set the operating point through their static flux
    ``phi_dc``)."""
    return CircuitSpec(
        omega={"Q1": 3.83e9, "Q2": 3.11e9, "C": 5.45e9, "R": 5.85e9},
        alpha={"Q1": -205e6, "Q2": -216e6, "C": -161e6},
        g={
            ("Q1", "Q2"): 15e6,
            ("Q1", "C"): 115e6,
            ("Q1", "R"): 9e6,
            ("Q2", "C"): 110e6,
            ("Q2", "R"): 5e6,
            ("C", "R"): -75e6,
        },
        coupler=table_coupler(),
    )


def table_decay_rates() -> DecayRates:
    return DecayRates(gamma1=6.8e3, gamma_phi=4.4e3, gamma_fe=6.3e3, kappa_r=770e3)


def fixture_drive(kind: str) -> DriveSpec:
    """The fixture drive of ``kind`` (a key of ``FIXTURE_DRIVES``) at the bare
    frequency and harmonic of its transition manifold on :func:`table_circuit`."""
    phi_dc, a_d = FIXTURE_DRIVES[kind]
    man = transition_manifold(table_circuit(), kind)
    return DriveSpec(phi_dc=phi_dc, a_d=a_d, omega_d=man.bare_drive_frequency, k=man.k)
