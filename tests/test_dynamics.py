import math

import numpy as np
import pytest
from scipy.integrate import quad

from couplersim.dynamics import (
    EnvelopeSpec,
    PopulationVector,
    acceptor_population,
    damped_swap_population,
    envelope_area,
    envelope_value,
    lr_lindblad_model,
    lr_swap_time,
    lr_three_level_populations,
    pulsed_swap_population,
    reset_lindblad_model,
    swap_completion_time,
)
from couplersim.numerics import TWO_PI, propagate
from couplersim.presets import RESET_PULSE, table_decay_rates

# adaptive-quadrature value of gamma(150 ns) for the 150 ns / 10 ns-edge
# reset pulse, frozen before the build
GAMMA_150NS = 1.2359481335996124e-07

RATES = table_decay_rates()


class TestEnvelope:
    def test_plateau_is_peak(self):
        assert envelope_value(75e-9, RESET_PULSE) == 1.0

    def test_boundary_values(self):
        assert envelope_value(0.0, RESET_PULSE) == pytest.approx(0.0, abs=1e-12)
        assert envelope_value(150e-9, RESET_PULSE) == pytest.approx(0.0, abs=1e-12)

    def test_outside_pulse_is_zero(self):
        assert envelope_value(-1e-9, RESET_PULSE) == 0.0
        assert envelope_value(151e-9, RESET_PULSE) == 0.0

    def test_symmetric_edges(self):
        env = EnvelopeSpec(total_length=200e-9, sigma_rise=12e-9, sigma_fall=12e-9)
        for t in np.linspace(0, 200e-9, 41):
            assert envelope_value(t, env) == pytest.approx(
                envelope_value(200e-9 - t, env), abs=1e-12)

    def test_area_matches_frozen_quadrature(self):
        assert envelope_area(150e-9, RESET_PULSE) == pytest.approx(GAMMA_150NS, abs=1e-15)

    def test_area_matches_quadrature_at_partial_times(self):
        env = EnvelopeSpec(total_length=310e-9, sigma_rise=25e-9, sigma_fall=40e-9)
        for tau in (20e-9, 80e-9, 250e-9, 305e-9):
            ref, _ = quad(lambda t: envelope_value(t, env), 0, tau,
                          limit=300, epsabs=1e-18)
            assert envelope_area(tau, env) == pytest.approx(ref, abs=1e-16)

    def test_edges_must_fit(self):
        with pytest.raises(ValueError, match="edges"):
            EnvelopeSpec(total_length=40e-9, sigma_rise=10e-9, sigma_fall=10e-9)


class TestDampedSwap:
    def test_decoupled_limit_is_pure_decay(self):
        gamma = 6.8e3
        for t in (0.0, 50e-9, 400e-9, 2e-6):
            expected = math.exp(-TWO_PI * gamma * t)
            assert damped_swap_population(t, 0.0, gamma, 770e3) == pytest.approx(
                expected, rel=1e-12)

    def test_starts_at_one_and_stays_in_range(self):
        t = np.linspace(0, 2e-6, 400)
        p = damped_swap_population(t, 2.07e6, 6.8e3, 770e3)
        assert p[0] == 1.0
        assert np.all((p >= 0) & (p <= 1 + 1e-12))

    def test_underdamped_maxima_bounded_by_decay_envelope(self):
        g, gamma, kappa = 2.07e6, 6.8e3, 770e3
        t = np.linspace(0, 2.5e-6, 8000)
        p = damped_swap_population(t, g, gamma, kappa)
        k_sigma = TWO_PI * (kappa + gamma)
        k_delta = TWO_PI * (kappa - gamma)
        m = math.sqrt((TWO_PI * g) ** 2 - (k_delta / 4) ** 2)
        exact_amp = 1.0 + (k_delta / (4 * m)) ** 2
        env = np.exp(-k_sigma * t / 2)
        idx = np.flatnonzero((p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:])) + 1
        assert len(idx) > 3
        assert np.all(p[idx] <= env[idx] * exact_amp + 1e-12)
        assert np.all(p[idx] <= env[idx] * 1.01)  # the quoted kappa_Sigma/2 envelope

    @pytest.mark.parametrize("g,gamma,kappa", [
        (2.07e6, 6.8e3, 770e3),    # underdamped
        (50e3, 6.8e3, 770e3),      # overdamped
        (190.8e3, 6.8e3, 770e3),   # near critical
    ])
    def test_matches_lindblad_propagation(self, g, gamma, kappa):
        rates = table_decay_rates()
        rates = type(rates)(gamma1={"Q1": gamma}, gamma_phi={"Q1": 0.0},
                            kappa_r=kappa, gamma_fe=rates.gamma_fe)
        h, collapse, rho0 = reset_lindblad_model(g, rates)
        ts = np.linspace(0, 1.0e-6, 11)
        traj = propagate(h, collapse, rho0, ts[-1], t_eval=ts)
        for t, rho in zip(ts, traj):
            assert rho[0, 0].real == pytest.approx(
                damped_swap_population(t, g, gamma, kappa), abs=1e-6)

    def test_branch_continuity(self):
        gamma, kappa = 6.8e3, 770e3
        g_crit = (kappa - gamma) / 4.0
        t = np.linspace(0, 3e-6, 50)
        below = damped_swap_population(t, g_crit * (1 - 1e-7), gamma, kappa)
        above = damped_swap_population(t, g_crit * (1 + 1e-7), gamma, kappa)
        at = damped_swap_population(t, g_crit, gamma, kappa)
        assert np.max(np.abs(below - at)) < 1e-6
        assert np.max(np.abs(above - at)) < 1e-6

    def test_acceptor_population_limits(self):
        # no damping: acceptor oscillates as sin^2(g t)
        g = 1e6
        for t in (0.1e-6, 0.25e-6, 0.4e-6):
            assert acceptor_population(t, g, 0.0, 0.0) == pytest.approx(
                math.sin(TWO_PI * g * t) ** 2, rel=1e-9)

    def test_swap_completion_time(self):
        g, gamma, kappa = 2.07e6, 6.8e3, 770e3
        t_star = swap_completion_time(g, gamma, kappa)
        t = np.linspace(0.5 * t_star, 1.5 * t_star, 20001)
        p = damped_swap_population(t, g, gamma, kappa)
        assert t[np.argmin(p)] == pytest.approx(t_star, rel=1e-3)
        assert swap_completion_time(10e3, gamma, kappa) == math.inf  # overdamped

    def test_envelope_weighted_swap_matches_pulsed_lindblad(self):
        # time substitution t -> gamma(t) against the pulsed Lindblad model
        g, gamma, kappa = 2.07e6, 6.8e3, 770e3
        rates = type(RATES)(gamma1={"Q1": gamma}, gamma_phi={"Q1": 0.0},
                            kappa_r=kappa, gamma_fe=RATES.gamma_fe)
        h, collapse, rho0 = reset_lindblad_model(g, rates, env=RESET_PULSE)
        ts = np.linspace(0, 150e-9, 16)
        traj = propagate(h, collapse, rho0, ts[-1], t_eval=ts)
        closed = np.array([pulsed_swap_population(t, RESET_PULSE, g, gamma, kappa)
                           for t in ts])
        sim = np.array([r[0, 0].real for r in traj])
        assert np.max(np.abs(closed - sim)) < 0.02


class TestLeakageRecoveryDynamics:
    def test_initial_state(self):
        pop = lr_three_level_populations(0.0, 0.91e6, RATES)
        assert (pop.p_g, pop.p_e, pop.p_f) == (0.0, 0.0, 1.0)

    def test_full_swap_time_matches_quoted_value(self):
        t_star = lr_swap_time(0.91e6, RATES)
        assert t_star == pytest.approx(310e-9, rel=0.10)

    def test_populations_against_lindblad(self):
        g = 0.91e6
        h, collapse, rho0, labels = lr_lindblad_model(g, RATES)
        ts = np.linspace(0.0, 0.6e-6, 13)
        traj = propagate(h, collapse, rho0, ts[-1], t_eval=ts)
        for t, rho in zip(ts, traj):
            pop = lr_three_level_populations(t, g, RATES)
            diag = np.real(np.diag(rho))
            p_g = diag[list(labels["g"])].sum()
            p_e = diag[list(labels["e"])].sum()
            p_f = diag[list(labels["f"])].sum()
            assert abs(pop.p_f - p_f) < 0.02
            assert abs(pop.p_e - p_e) < 0.02
            assert abs(pop.p_g - p_g) < 0.02

    def test_ground_population_monotone(self):
        ts = np.linspace(0, 1.5e-6, 200)
        pg = [lr_three_level_populations(t, 0.91e6, RATES).p_g for t in ts]
        assert np.all(np.diff(pg) >= -1e-12)

    def test_qubit_populations_sum_to_one(self):
        for t in np.linspace(0, 1e-6, 23):
            pop = lr_three_level_populations(t, 0.91e6, RATES)
            assert pop.qubit_total == pytest.approx(1.0, abs=1e-12)

    def test_population_vector_validation(self):
        with pytest.raises(ValueError):
            PopulationVector(p_g=0.8, p_e=0.5, p_f=0.2)
        with pytest.raises(ValueError):
            PopulationVector(p_g=-0.2, p_e=0.0, p_f=0.0)
