import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import curve_fit
from scipy.special import jv

from couplersim import floquet, presets
from couplersim.circuit import CouplerSpec, coupler_frequency, coupler_spec_from_band
from couplersim.floquet import (
    DriveSpec,
    DriveSpectrum,
    ValidityWarning,
    chi_shift,
    coupler_block,
    derivative_series,
    effective_coupling,
    fourier_decompose,
    in_coupling_window,
    k2_closed_forms,
    modulated_hamiltonian,
    modulation_spectrum,
    schrieffer_wolff_correction,
    transition_manifold,
)
from couplersim.numerics import TWO_PI, periodic_propagator
from couplersim.protocols import _CZ_DOUBLE, _CZ_SINGLE
from oracles import (dressed_resonance_offset, find_parametric_resonance, frame_matrix,
                     quasi_energy_gap, schrodinger_propagate, swap_coupling)

# projection-integral oracle values for the Fourier coefficients at
# (phi_dc = 0.12 pi, a_d = 0.25) with the band-fitted coupler, frozen from a
# 4096-point evaluation of 2/N sum f(t_j) cos(m(w t_j - pi/2))
ORACLE_D1 = -232642150.42720747
ORACLE_D2 = -38417415.86594534
ORACLE_WBAR = 5235890119.720171

ROOT2 = math.sqrt(2.0)


def with_block_entry(man, i, j, value):
    """``man`` with the symmetric entry (i, j) of its idle block set."""
    h, n_c = man.block
    h = h.copy()
    h[i, j] = h[j, i] = value
    return dataclasses.replace(man, block=(h, n_c))


def closed_forms(circuit, drive, man):
    """:func:`k2_closed_forms` of ``man`` at the spectrum of ``drive``."""
    return k2_closed_forms(man, drive, fourier_decompose(drive, circuit.coupler))


def reset_frame(circuit):
    """The k = 2 closed forms of the reset manifold at the fixture drive."""
    return closed_forms(circuit, presets.fixture_drive("reset"),
                        transition_manifold(circuit, "reset"))


@pytest.fixture(scope="module")
def circuit():
    return presets.table_circuit()


@pytest.fixture(scope="module")
def coupler():
    return presets.table_coupler()


class TestDriveSpec:
    def test_rejects_unsupported_harmonics(self):
        with pytest.raises(ValueError):
            DriveSpec(phi_dc=0.3, a_d=0.1, omega_d=1e9, k=3)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            DriveSpec(phi_dc=0.3, a_d=-0.1, omega_d=1e9)


class TestFourierDecompose:
    def test_zero_amplitude(self, coupler):
        drive = DriveSpec(phi_dc=0.4, a_d=0.0, omega_d=1.01e9)
        spec = fourier_decompose(drive, coupler)
        assert all(abs(d) < 1e-3 for d in spec.d_m)
        assert all(abs(d) < 1e-3 for d in derivative_series(drive, coupler).d_m)
        assert spec.omega_bar_c == pytest.approx(coupler_frequency(0.4, coupler), rel=1e-12)

    def test_sweet_spot_suppresses_odd_harmonics(self, coupler):
        drive = DriveSpec(phi_dc=0.0, a_d=0.05, omega_d=1.01e9)
        spec = fourier_decompose(drive, coupler)
        assert abs(spec.d_m[0]) < 1e-3 * abs(spec.d_m[1])

    def test_fft_matches_projection_oracle(self, coupler):
        drive = DriveSpec(phi_dc=0.12 * math.pi, a_d=0.25, omega_d=1.01e9)
        spec = fourier_decompose(drive, coupler)
        assert spec.d_m[0] == pytest.approx(ORACLE_D1, rel=1e-9)
        assert spec.d_m[1] == pytest.approx(ORACLE_D2, rel=1e-9)
        assert spec.omega_bar_c == pytest.approx(ORACLE_WBAR, rel=1e-12)

    @pytest.mark.parametrize("phi_frac", [0.08, 0.12, 0.2])
    def test_series_agrees_with_fft_small_amplitude(self, coupler, phi_frac):
        for a_d in (0.02, 0.05, 0.1):
            drive = DriveSpec(phi_dc=phi_frac * math.pi, a_d=a_d, omega_d=1.01e9)
            spec, series = fourier_decompose(drive, coupler), derivative_series(drive, coupler)
            scale = 1e-9 * abs(spec.omega_bar_c)
            for fft_val, series_val in zip(spec.d_m[:2], series.d_m[:2]):
                if abs(fft_val) > scale:
                    assert series_val == pytest.approx(fft_val, rel=0.01)
        assert series.omega_bar_c == pytest.approx(spec.omega_bar_c, rel=1e-4)

    def test_series_degrades_gracefully_at_moderate_amplitude(self, coupler):
        drive = DriveSpec(phi_dc=0.12 * math.pi, a_d=0.3, omega_d=1.01e9)
        spec, series = fourier_decompose(drive, coupler), derivative_series(drive, coupler)
        for fft_val, series_val in zip(spec.d_m[:2], series.d_m[:2]):
            assert series_val == pytest.approx(fft_val, rel=0.10)

    def test_symmetric_squid_crossing_reported(self):
        sym = CouplerSpec(e_sigma=24e9, d=0.0, e_c=161e6)
        drive = DriveSpec(phi_dc=0.45 * math.pi, a_d=0.3, omega_d=1.0e9)
        for decompose in (fourier_decompose, derivative_series):
            with pytest.raises(ValueError, match="E_J = 0"):
                decompose(drive, sym)

    @pytest.mark.parametrize("kind", ["reset", "lr", "readout", "cz"])
    def test_series_matches_binomial_expansion(self, coupler, kind, monkeypatch):
        # with the Taylor coefficients c_k of omega_C about phi_dc, the powers
        # of a cos y expand as cos^k y = 2^-k sum_j C(k, j) cos((k - 2j) y):
        # D_m = sum c_k a^k 2^(1-k) C(k, (k-m)/2) over k >= m, k = m mod 2,
        # and omega_bar the m = 0 sum with 2^-k; measured 1.9e-6 Hz (2 ulp
        # of omega_bar) over the floquet-report amplitude grid
        series_taylor, taylor = floquet.taylor_coefficients, []

        def recorded(*args):
            taylor.append(series_taylor(*args))
            return taylor[-1]

        monkeypatch.setattr(floquet, "taylor_coefficients", recorded)
        drive = presets.fixture_drive(kind)
        for a in np.linspace(0.0, drive.a_d, 101):
            series = derivative_series(dataclasses.replace(drive, a_d=float(a)), coupler)
            c = taylor[-1]
            expected = [sum(c[k] * a ** k * 2.0 ** (1 - k) * math.comb(k, (k - m) // 2)
                            for k in range(m, len(c), 2)) for m in range(1, floquet.HARMONICS + 1)]
            omega_bar = sum(c[k] * a ** k * 2.0 ** -k * math.comb(k, k // 2)
                            for k in range(0, len(c), 2))
            assert np.max(np.abs(np.subtract(series.d_m, expected))) < 1e-5
            assert abs(series.omega_bar_c - omega_bar) < 1e-5

    def test_fft_does_not_evaluate_the_series(self, coupler, monkeypatch):
        # most callers read only the FFT coefficients; the flux-derivative
        # series (taylor_coefficients) is derivative_series' alone
        def refuse(*args, **kwargs):
            raise AssertionError("series evaluated")

        monkeypatch.setattr(floquet, "taylor_coefficients", refuse)
        fourier_decompose(DriveSpec(phi_dc=0.12 * math.pi, a_d=0.25, omega_d=1.01e9), coupler)


class TestEffectiveCoupling:
    def test_zero_amplitude_gives_zero(self, coupler):
        drive = DriveSpec(phi_dc=0.4, a_d=0.0, omega_d=1.01e9)
        spec = fourier_decompose(drive, coupler)
        assert effective_coupling(115e6, 75e6, 2, 1.01e9, spec) == 0.0

    def test_quartic_scaling_when_doubling_amplitude(self, coupler):
        wd = 1.01e9
        vals = []
        for a_d in (0.02, 0.04):
            spec = fourier_decompose(DriveSpec(phi_dc=0.12 * math.pi, a_d=a_d, omega_d=wd),
                                     coupler)
            vals.append(effective_coupling(115e6, 75e6, 2, wd, spec))
        assert vals[1] / vals[0] == pytest.approx(4.0, rel=0.02)

    @pytest.mark.parametrize("k", [1, 2])
    def test_power_law_slope(self, coupler, k):
        wd = 1.01e9
        amps = np.geomspace(0.001, 0.01, 7)
        gs = []
        for a_d in amps:
            spec = fourier_decompose(DriveSpec(phi_dc=0.12 * math.pi, a_d=a_d,
                                               omega_d=wd, k=k), coupler)
            gs.append(abs(effective_coupling(115e6, 75e6, k, wd, spec)))
        slope = np.polyfit(np.log(amps), np.log(gs), 1)[0]
        assert slope == pytest.approx(k, abs=0.05)

    def test_symmetric_in_the_two_couplings(self, coupler):
        spec = fourier_decompose(DriveSpec(phi_dc=0.12 * math.pi, a_d=0.2, omega_d=1.01e9),
                                 coupler)
        a = effective_coupling(115e6, -75e6, 2, 1.01e9, spec)
        b = effective_coupling(-75e6, 115e6, 2, 1.01e9, spec)
        assert a == b

    def test_validity_warning_outside_window(self):
        spec = DriveSpectrum(omega_bar_c=5e9, d_m=(2.0e9, 1.5e9))
        with pytest.warns(ValidityWarning):
            effective_coupling(115e6, 75e6, 2, 1.01e9, spec)

    @pytest.mark.parametrize("k", [1, 2])
    def test_window_edge_is_inside(self, k):
        # |D_k| = k omega_D / 2 lies in the window and warns nothing; the
        # next float above it lies outside and warns
        wd = 1.01e9
        for d_k, inside in ((k * wd / 2, True), (np.nextafter(k * wd / 2, np.inf), False)):
            spec = DriveSpectrum(omega_bar_c=5e9, d_m=(-d_k, -d_k))
            assert in_coupling_window(spec, k, wd) is inside
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                effective_coupling(115e6, 75e6, k, wd, spec)
            assert [w.category for w in caught] == ([] if inside else [ValidityWarning])

    def test_refuses_bessel_argument_beyond_tested_range(self):
        # D_2 / (2 omega_D) = 21, past the |x| <= 20 range of the J table
        spec = DriveSpectrum(omega_bar_c=5e9, d_m=(0.0, 2 * 1.01e9 * 21.0))
        with pytest.warns(ValidityWarning), pytest.raises(ValueError, match="Bessel argument"):
            effective_coupling(115e6, 75e6, 2, 1.01e9, spec)

    def test_reset_target_requires_unphysical_harmonic(self, circuit, coupler):
        # the leading-order formula alone cannot reach the 2.07 MHz reset
        # coupling: with |D_2| capped by the physical tuning band the maximum
        # is ~1.1 MHz.  A synthetic spectrum solving the formula needs
        # |D_2| > 2 GHz and sits far outside the validity window.
        man = transition_manifold(circuit, "reset")
        wd = man.bare_drive_frequency
        best = 0.0
        for a_d in np.linspace(0.05, 1.05, 21):
            spec = fourier_decompose(dataclasses.replace(presets.fixture_drive("reset"), a_d=a_d),
                                     coupler)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                best = max(best, abs(effective_coupling(man.g_ac, man.g_bc, 2, wd, spec)))
        assert best < 2.07e6

        x = 1.1491197930377983  # J1(x) solving the 2.07 MHz target
        synth = DriveSpectrum(omega_bar_c=5e9, d_m=(0.0, 2 * wd * x))
        with pytest.warns(ValidityWarning):
            g = effective_coupling(man.g_ac, man.g_bc, 2, wd, synth)
        assert abs(g) == pytest.approx(2.07e6, rel=5e-3)


class TestTransitionManifolds:
    def test_reset_manifold(self, circuit):
        man = transition_manifold(circuit, "reset")
        assert man.transition == pytest.approx(5.85e9 - 3.83e9)
        assert man.bare_drive_frequency == pytest.approx((5.85e9 - 3.83e9) / 2)
        assert man.g_ac == -115e6
        assert man.g_bc == 75e6  # -g_CR with g_CR = -75 MHz
        assert man.g_ab == -9e6

    def test_lr_manifold_has_bosonic_enhancement(self, circuit):
        man = transition_manifold(circuit, "lr")
        assert man.g_ac == pytest.approx(-math.sqrt(2) * 115e6)
        assert man.transition == pytest.approx(5.85e9 - 3.83e9 + 205e6)
        assert man.bare_drive_frequency == pytest.approx(1.1125e9)

    def test_cz_manifold(self, circuit):
        man = transition_manifold(circuit, "cz")
        assert man.k == 1
        assert man.transition == pytest.approx(3.83e9 - 205e6 - 3.11e9)

    def test_unknown_kind(self, circuit):
        with pytest.raises(ValueError):
            transition_manifold(circuit, "swap")

    @pytest.mark.parametrize("kind, expected", [
        ("reset", (3.83e9, 5.85e9, -115e6, 75e6, -9e6, -3.83e9, 2)),
        ("lr", (2 * 3.83e9 - 205e6, 3.83e9 + 5.85e9,
                -ROOT2 * 115e6, 75e6, -ROOT2 * 9e6, -(3.83e9 - 205e6), 2)),
        ("readout", (2 * 3.83e9 - 205e6, 3.83e9 + 5.85e9,
                     -ROOT2 * 115e6, 75e6, -ROOT2 * 9e6, -(3.83e9 - 205e6), 2)),
        ("cz", (3.83e9 + 3.11e9, 2 * 3.83e9 - 205e6,
                -110e6, -ROOT2 * 115e6, -ROOT2 * 15e6, -3.11e9, 1)),
    ])
    def test_golden_fields(self, circuit, kind, expected):
        # every field pinned exactly on the reference circuit: the signed
        # single-excitation element is -g_ij, each doubly occupied transmon
        # level brings a factor sqrt(2)
        man = transition_manifold(circuit, kind)
        names = ("omega_a", "omega_b", "g_ac", "g_bc", "g_ab", "delta_c_offset", "k")
        assert man.kind == kind
        for name, value in zip(names, expected):
            got = getattr(man, name)
            assert type(got) is type(value), name
            assert got == value, name


class TestK2ClosedForms:
    def test_requires_second_harmonic(self, circuit):
        drive = DriveSpec(phi_dc=0.3, a_d=0.05, omega_d=5e8, k=1)
        with pytest.raises(ValueError, match="k = 2"):
            closed_forms(circuit, drive, transition_manifold(circuit, "reset"))

    def test_zero_drive_reduction(self, circuit):
        # at a_d = 0 only J_{0,0} = 1 survives: the frame keeps the bare A-C
        # coupling and every drive-activated coupling vanishes
        man = with_block_entry(transition_manifold(circuit, "reset"), 0, 1, 0.0)
        drive = dataclasses.replace(presets.fixture_drive(man.kind), a_d=0.0)
        frame = closed_forms(circuit, drive, man)
        assert frame.g_tilde_ac == pytest.approx(man.g_ac, rel=1e-12)
        assert frame.g_tilde_ab == 0.0
        assert frame.g_tilde_bc == 0.0

        # cross-check the A branch against dense diagonalisation of the
        # static three-level drive-frame Hamiltonian
        delta_c = frame.delta_tilde_c + frame.omega_tilde_a + frame.omega_tilde_b
        h3 = np.array([
            [0.0, man.g_ab, man.g_ac],
            [man.g_ab, man.transition - 2 * drive.omega_d + 2 * drive.omega_d, man.g_bc],
            [man.g_ac, man.g_bc, delta_c],
        ])
        evals = np.linalg.eigvalsh(h3)
        e_exact = evals[np.argmin(np.abs(evals))]
        e_eff = (frame.delta_tilde_c
                 - math.sqrt(frame.delta_tilde_c ** 2 + 4 * frame.g_tilde_ac ** 2)) / 2
        virtual_scale = man.g_ac ** 2 / delta_c
        assert abs(e_eff - e_exact) < 0.02 * abs(virtual_scale)

    def test_j00_definition(self, circuit, coupler):
        # with g_ab = 0 the frame exposes J_{0,0} through g~_AC / g_AC
        man = with_block_entry(transition_manifold(circuit, "reset"), 0, 1, 0.0)
        drive = dataclasses.replace(presets.fixture_drive(man.kind), a_d=0.3)
        spec = fourier_decompose(drive, coupler)
        frame = k2_closed_forms(man, drive, spec)
        wd = drive.omega_d
        j00 = jv(0, spec.d_m[0] / wd) * jv(0, -spec.d_m[1] / (2 * wd))
        assert frame.g_tilde_ac / man.g_ac == pytest.approx(j00, rel=1e-12)

    def test_closed_forms_and_oracle_share_the_block(self, circuit):
        # zeroing H_AB in the block reaches both: the undriven closed-form
        # shift omega~_A = g_AB^2 / (2 omega_D) vanishes, and the oracle's
        # gap is the A-B splitting (mod omega_D) of the zeroed static block
        man = transition_manifold(circuit, "reset")
        zeroed = with_block_entry(man, 0, 1, 0.0)
        drive = dataclasses.replace(presets.fixture_drive(man.kind), a_d=0.0)
        wd = drive.omega_d
        assert zeroed.g_ab == 0.0 and man.g_ab != 0.0
        assert closed_forms(circuit, drive, zeroed).omega_tilde_a == 0.0
        assert closed_forms(circuit, drive, man).omega_tilde_a == pytest.approx(
            man.g_ab ** 2 / (2 * wd), rel=1e-12)
        gaps = []
        for m in (man, zeroed):
            h, n_c = m.block
            evals, vecs = np.linalg.eigh(h + coupler_frequency(drive.phi_dc, circuit.coupler) * n_c)
            a_like, b_like = (int(np.argmax(np.abs(vecs[i]) ** 2)) for i in (0, 1))
            split = abs((evals[a_like] - evals[b_like] + wd / 2) % wd - wd / 2)
            gaps.append(quasi_energy_gap(m, circuit.coupler, drive))
            assert gaps[-1] == pytest.approx(split, rel=1e-9)
        assert gaps[0] != pytest.approx(gaps[1], rel=1e-3)

    def test_reset_fixture_swap_coupling(self, circuit):
        frame = reset_frame(circuit)
        assert swap_coupling(frame) == pytest.approx(2.07e6, rel=1e-6)

    def test_fixture_effective_model_time_domain_agreement(self, circuit):
        # time-domain propagation of the closed-form drive-frame Hamiltonian
        # vs the extracted swap coupling (sin^2 fit of population transfer)
        frame = reset_frame(circuit)
        g_expect = swap_coupling(frame)
        h_eff = TWO_PI * frame_matrix(frame, dressed_resonance_offset(frame)).astype(complex)
        t = np.linspace(0.0, 1.2 / (2 * g_expect), 500)
        traj = schrodinger_propagate(h_eff, np.array([1, 0, 0], dtype=complex), t,
                                     max_step=1 / (20 * 3e9))
        p_a = np.abs(traj[:, 0]) ** 2

        def model(t, g, c, amp):
            return c + amp * np.cos(TWO_PI * 2 * g * t)

        i_min = int(np.argmin(p_a))
        popt, _ = curve_fit(model, t, p_a, p0=[1 / (4 * t[i_min]), 0.5, 0.5])
        assert abs(popt[0]) == pytest.approx(g_expect, rel=0.05)


class TestSchriefferWolff:
    @staticmethod
    def frame(**kw):
        base = dict(omega_tilde_a=0.0, omega_tilde_b=0.0, delta_tilde_c=1e9,
                    g_tilde_ab=1e6, g_tilde_ac=0.0, g_tilde_bc=0.0)
        base.update(kw)
        from couplersim.floquet import EffectiveFrame
        return EffectiveFrame(**base)

    def test_no_virtual_path(self):
        fr = self.frame(g_tilde_ac=0.0, g_tilde_bc=5e6)
        assert schrieffer_wolff_correction(fr) == fr.g_tilde_ab

    def test_sign_of_virtual_term(self):
        x = 40e6
        fr = self.frame(g_tilde_ab=0.0, g_tilde_ac=x, g_tilde_bc=x, delta_tilde_c=1e9)
        assert schrieffer_wolff_correction(fr) == pytest.approx(-2 * x ** 2 / 1e9, rel=1e-12)

    def test_singular_when_coupler_resonant(self):
        fr = self.frame(delta_tilde_c=0.0)
        with pytest.raises(ValueError, match="singular"):
            schrieffer_wolff_correction(fr)

    def test_marginal_detuning_warns(self):
        fr = self.frame(g_tilde_ac=3e8, g_tilde_bc=1e6, delta_tilde_c=1e9)
        with pytest.warns(ValidityWarning):
            schrieffer_wolff_correction(fr)

    def test_gap_matches_three_level_diagonalisation(self, circuit):
        # The avoided-crossing gap of the drive-frame matrix equals twice the
        # coupler-eliminated coupling with the conventional second-order
        # weight g~_AB - g~_AC g~_CB / Delta~_C (within 2%).  The correction
        # as printed in its source counts the virtual path with twice that
        # weight and overestimates this fixture's gap by ~50%.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            frame = reset_frame(circuit)
        g_standard = frame.g_tilde_ab - frame.g_tilde_ac * frame.g_tilde_bc / frame.delta_tilde_c
        gap = 2.0 * swap_coupling(frame)
        assert gap == pytest.approx(2 * abs(g_standard), rel=0.02)
        g_printed = schrieffer_wolff_correction(frame)
        assert g_printed == pytest.approx(
            frame.g_tilde_ab - 2 * frame.g_tilde_ac * frame.g_tilde_bc / frame.delta_tilde_c,
            rel=1e-12,
        )


class TestChiShift:
    def test_zero_coupling(self):
        assert chi_shift(0.0, 3e6) == 0.0

    def test_avoided_crossing_maximum(self):
        assert abs(chi_shift(2.5e6, 0.0)) == pytest.approx(2.5e6, rel=1e-12)

    def test_operating_point_fixture(self):
        # the readout point: 4.02 MHz lab detuning is 8.04 MHz in the k = 2
        # drive frame, where the quoted 2.12 MHz coupling gives 2 chi = -0.53 MHz
        two_chi = chi_shift(2.12e6, 2 * 4.02e6)
        assert two_chi == pytest.approx(-0.53e6, rel=0.03)
        assert two_chi == pytest.approx(-0.5247e6, rel=1e-3)

    def test_array_call_matches_scalar_calls(self):
        # the chi-map grid: one call per coupling over the whole detuning array
        deltas = np.linspace(-16e6, 16e6, 161)
        for g in (0.0, 0.5e6, 2.07e6, -1.3e6):
            vals = chi_shift(g, deltas)
            scalar = np.array([chi_shift(g, d) for d in deltas.tolist()])
            assert vals.shape == deltas.shape
            assert np.all(np.abs(vals - scalar) <= 1e-11 * np.abs(scalar))
            assert np.all(vals <= 0.0)
            assert chi_shift(g, np.zeros(3)) == pytest.approx(np.full(3, -abs(g)), rel=1e-12)

    def test_symmetric_and_monotone_in_detuning(self):
        g = 1.7e6
        deltas = np.linspace(0.0, 30e6, 200)
        vals = np.array([abs(chi_shift(g, d)) for d in deltas])
        for d in (1e6, 5e6, 12e6):
            assert chi_shift(g, d) == chi_shift(g, -d)
        assert np.all(np.diff(vals) <= 1e-9)
        assert np.all(np.array([chi_shift(g, d) for d in deltas]) <= 0.0)


class TestExactOracle:
    """Stroboscopic one-period propagation of the lab-frame modulated-coupler
    Hamiltonian on a transition manifold; quasi-energy gaps are the exact
    effective couplings."""

    @pytest.mark.parametrize("kind", ["reset", "lr", "cz"])
    def test_gap_converges_in_n_sub(self, circuit, kind):
        # 1024 midpoint steps per period hold the gap to 1e-6 of a 16x finer
        # propagation at the fixture drives (measured 8.9e-7 reset, 3.2e-8
        # lr, 1.9e-7 cz in the lab frame; a drive-frame H(t), whose
        # off-diagonals rotate at k omega_d, missed it at 3.4e-6-4.5e-6)
        drive = presets.fixture_drive(kind)
        man = transition_manifold(circuit, kind)
        coarse = quasi_energy_gap(man, circuit.coupler, drive, n_sub=1024)
        fine = quasi_energy_gap(man, circuit.coupler, drive, n_sub=16384)
        assert coarse == pytest.approx(fine, rel=1e-6)

    def test_gap_scales_quadratically_at_k2(self, circuit):
        man = transition_manifold(circuit, "reset")
        amps = [0.08, 0.16]
        gaps = []
        for a_d in amps:
            drive = dataclasses.replace(presets.fixture_drive(man.kind), a_d=a_d)
            _, gap = find_parametric_resonance(man, circuit.coupler, drive,
                                               span=20e6, n_coarse=21, n_sub=1024)
            gaps.append(gap)
        slope = math.log(gaps[1] / gaps[0]) / math.log(amps[1] / amps[0])
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_truncated_theory_underestimates_exact_coupling(self, circuit):
        # Characterisation, not validation: at this device geometry the
        # coupler detuning is comparable to the drive frequency, and the
        # truncated closed forms miss virtual channels with
        # (Delta_C -+ m omega_D) denominators.  The exact quasi-energy gap
        # runs ~1.5-3x above the closed-form prediction, roughly
        # amplitude-independent.  This pins the measured band as a
        # regression guard.
        man = transition_manifold(circuit, "reset")
        drive = dataclasses.replace(presets.fixture_drive(man.kind), a_d=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            frame = closed_forms(circuit, drive, man)
        _, gap = find_parametric_resonance(man, circuit.coupler, drive,
                                           span=25e6, n_coarse=25, n_sub=1024)
        ratio = gap / (2 * swap_coupling(frame))
        assert 1.3 < ratio < 3.0

    def test_propagator_matches_ode_integration(self, circuit):
        # one-period propagator (piecewise-exact product) against DOP853
        man = transition_manifold(circuit, "reset")
        drive = dataclasses.replace(presets.fixture_drive(man.kind), a_d=0.3)
        h_fn = modulated_hamiltonian(man.block, circuit.coupler, drive)
        period = 1.0 / drive.omega_d
        u = periodic_propagator(modulation_spectrum(man.block, circuit.coupler, drive, 4096),
                                period)
        for col in range(3):
            psi0 = np.zeros(3, dtype=complex)
            psi0[col] = 1.0
            psi = schrodinger_propagate(h_fn, psi0, np.array([0.0, period]),
                                        rtol=1e-12, atol=1e-14,
                                        max_step=period / 100)[-1]
            assert np.linalg.norm(psi - u[:, col]) < 1e-6


class TestModulatedHamiltonian:
    @pytest.mark.parametrize("kind", ["reset", "lr", "cz", "cz-double", "cz-single"])
    def test_array_call_matches_scalar_calls(self, circuit, kind):
        # the three transition manifolds and the two CZ excitation manifolds
        if kind.startswith("cz-"):
            states = _CZ_DOUBLE if kind == "cz-double" else _CZ_SINGLE
            block = coupler_block(circuit, states)
            drive = presets.fixture_drive("cz")
            drive = dataclasses.replace(drive, omega_d=1.01 * drive.omega_d)
        else:
            man = transition_manifold(circuit, kind)
            block = man.block
            drive = dataclasses.replace(presets.fixture_drive(man.kind), a_d=0.3)
        dim = len(block[0])
        h_fn = modulated_hamiltonian(block, circuit.coupler, drive)
        t = np.linspace(0.0, 3.0 / drive.omega_d, 37)
        stack = np.stack([h_fn(float(ti)) for ti in t])
        assert h_fn(0.0).shape == (dim, dim)
        assert h_fn(t).shape == (37, dim, dim)
        assert np.max(np.abs(h_fn(t) - stack)) <= 1e-12 * np.max(np.abs(stack))
        assert np.array_equal(stack, np.conj(np.swapaxes(stack, -1, -2)))
