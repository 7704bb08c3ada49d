import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplersim.circuit import (
    CircuitSpec,
    CouplerSpec,
    DecayRates,
    coupler_frequency,
    coupler_spec_from_band,
    josephson_energy,
)
from couplersim.numerics import TWO_PI
from couplersim.presets import table_circuit, table_decay_rates
from oracles import at_flux, build_hamiltonian

# direct evaluation of the two composed formulas at phi = 0.3 pi with the
# band-fitted coupler (computed independently before the build)
WC_AT_03PI = 4363935300.725365


def spec(e_sigma=24.4e9, d=0.34, e_c=161e6):
    return CouplerSpec(e_sigma=e_sigma, d=d, e_c=e_c)


class TestJosephsonEnergy:
    def test_zero_flux_gives_full_energy(self):
        s = spec()
        assert josephson_energy(0.0, s) == pytest.approx(s.e_sigma, rel=1e-14)

    def test_symmetric_squid_interferes_to_zero(self):
        s = spec(d=0.0)
        assert josephson_energy(math.pi / 2, s) == pytest.approx(0.0, abs=1e-3)

    def test_unit_asymmetry_is_flux_independent(self):
        s = spec(d=1.0)
        for phi in np.linspace(-3, 3, 17):
            assert josephson_energy(phi, s) == pytest.approx(s.e_sigma, rel=1e-12)

    @given(phi=st.floats(-6.0, 6.0), d=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_periodicity_and_evenness(self, phi, d):
        s = spec(d=d)
        ref = josephson_energy(phi, s)
        assert josephson_energy(phi + math.pi, s) == pytest.approx(ref, rel=1e-10, abs=1e-3)
        assert josephson_energy(-phi, s) == pytest.approx(ref, rel=1e-10, abs=1e-3)

    def test_bounds(self):
        s = spec(d=0.3)
        for phi in np.linspace(0, math.pi, 101):
            ej = josephson_energy(phi, s)
            assert s.d * s.e_sigma - 1e-3 <= ej <= s.e_sigma + 1e-3


class TestCouplerFrequency:
    def test_sweet_spot_value(self):
        s = spec()
        expected = math.sqrt(8 * s.e_sigma * s.e_c) - s.e_c
        assert coupler_frequency(0.0, s) == pytest.approx(expected, rel=1e-14)

    def test_band_fit_reproduces_tuning_range(self):
        s = coupler_spec_from_band(3.13e9, 5.45e9, -161e6)
        phis = np.linspace(0, math.pi / 2, 2001)
        freqs = coupler_frequency(phis, s)
        assert freqs.max() == pytest.approx(5.45e9, rel=0.01)
        assert freqs.min() == pytest.approx(3.13e9, rel=0.01)

    def test_direct_evaluation_oracle(self):
        s = coupler_spec_from_band(3.13e9, 5.45e9, -161e6)
        assert coupler_frequency(0.3 * math.pi, s) == pytest.approx(WC_AT_03PI, rel=1e-12)

    def test_monotone_in_josephson_energy(self):
        s = spec()
        phis = np.linspace(0.0, math.pi / 2, 64)
        ej = josephson_energy(phis, s)
        wc = coupler_frequency(phis, s)
        assert np.all(np.diff(wc)[np.diff(ej) < 0] < 0)


#: two levels per element
TRUNCATION_2 = {"Q1": 2, "Q2": 2, "C": 2, "R": 2}


def minimal_circuit(**overrides):
    base = dict(
        omega={"Q1": 4.0e9, "Q2": 3.2e9, "C": 5.0e9, "R": 5.9e9},
        alpha={"Q1": -200e6, "Q2": -210e6, "C": -160e6},
        g={},
        coupler=spec(),
    )
    base.update(overrides)
    return CircuitSpec(**base)


class TestCircuitSpecValidation:
    def test_rejects_positive_anharmonicity(self):
        with pytest.raises(ValueError, match="negative"):
            minimal_circuit(alpha={"Q1": 200e6, "Q2": -210e6, "C": -160e6})

    def test_rejects_resonator_anharmonicity(self):
        with pytest.raises(ValueError, match="harmonic"):
            minimal_circuit(alpha={"Q1": -2e8, "Q2": -2e8, "C": -2e8, "R": -2e8})

    def test_rejects_conflicting_couplings(self):
        with pytest.raises(ValueError, match="conflicting"):
            minimal_circuit(g={("Q1", "R"): 5e6, ("R", "Q1"): 6e6})

    def test_rejects_self_coupling(self):
        with pytest.raises(ValueError, match="self-couplings"):
            minimal_circuit(g={("Q1", "Q1"): 5e6})

    def test_reversed_pair_is_stored_sorted(self):
        c = minimal_circuit(g={("R", "Q1"): 5e6})
        assert c.g == {("Q1", "R"): 5e6}


class TestBuildHamiltonian:
    def test_uncoupled_spectrum_contains_single_element_ladder(self):
        c = minimal_circuit()
        evals = np.linalg.eigvalsh(build_hamiltonian(c, {"Q1": 3, "Q2": 2, "C": 2, "R": 2}))
        evals /= TWO_PI
        w, a = c.omega["Q1"], c.alpha["Q1"]
        for target in (0.0, w, 2 * w + a):
            assert np.min(np.abs(evals - target)) < 1.0  # Hz

    def test_hermitian_for_random_specs(self):
        rng = np.random.default_rng(21)
        elements = ("Q1", "Q2", "C", "R")
        pairs = [(a, b) for i, a in enumerate(elements) for b in elements[i + 1:]]
        for _ in range(100):
            trunc = {el: int(rng.integers(2, 4)) for el in elements}
            c = CircuitSpec(
                omega={el: float(rng.uniform(3e9, 7e9)) for el in elements},
                alpha={el: float(-rng.uniform(1e8, 3e8)) for el in ("Q1", "Q2", "C")},
                g={p: float(rng.uniform(-2e8, 2e8)) for p in pairs},
                coupler=spec(),
            )
            h = build_hamiltonian(c, trunc)
            assert np.linalg.norm(h - h.conj().T) == 0.0

    def test_single_excitation_coupling_sign(self):
        g = 7e6
        c = minimal_circuit(g={("Q1", "R"): g})
        h = build_hamiltonian(c, TRUNCATION_2)
        # order Q1xQ2xCxR with dims (2,2,2,2): |Q1=1> = index 8, |R=1> = index 1
        assert h[8, 1] == pytest.approx(-TWO_PI * g, rel=1e-14)
        assert h[1, 8] == pytest.approx(-TWO_PI * g, rel=1e-14)

    def test_dispersive_shift_matches_perturbation_theory(self):
        # qubit-resonator pair, g << |Delta|: exact diagonalisation vs the
        # second-order dispersive shift 2 chi = 2 g^2 alpha / (Delta (Delta + alpha))
        g = 5e6
        c = CircuitSpec(
            omega={"Q1": 4.0e9, "Q2": 1.0e9, "C": 1.5e9, "R": 4.35e9},
            alpha={"Q1": -250e6, "Q2": -210e6, "C": -160e6},
            g={("Q1", "R"): g},
            coupler=spec(),
        )
        h = build_hamiltonian(c, {"Q1": 3, "Q2": 2, "C": 2, "R": 3})
        evals = np.linalg.eigvalsh(h) / TWO_PI

        w_q, w_r, alpha = c.omega["Q1"], c.omega["R"], c.alpha["Q1"]

        def nearest(value):
            return evals[np.argmin(np.abs(evals - value))]

        e00 = nearest(0.0)
        e10 = nearest(w_q)
        e01 = nearest(w_r)
        e11 = nearest(w_q + w_r)
        two_chi_exact = e11 - e10 - e01 + e00
        delta = w_q - w_r
        two_chi_pt = 2 * g ** 2 * alpha / (delta * (delta + alpha))
        assert two_chi_exact == pytest.approx(two_chi_pt, rel=0.05)


class TestDecayRates:
    def test_gamma_sigma_is_exact_sum(self):
        r = table_decay_rates()
        assert r.gamma_sigma == r.gamma1 + r.gamma_phi

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            DecayRates(gamma1=-1.0, gamma_phi=0.0, gamma_fe=1e3, kappa_r=1e3)


class TestTableFixture:
    def test_signed_coupler_resonator_coupling(self):
        c = table_circuit()
        assert c.g[("C", "R")] == -75e6

    def test_at_flux_updates_coupler_frequency(self):
        c = table_circuit()
        c2 = at_flux(c, 0.3 * math.pi)
        assert c2.omega["C"] == pytest.approx(WC_AT_03PI, rel=1e-12)
        assert c.omega["C"] == 5.45e9
