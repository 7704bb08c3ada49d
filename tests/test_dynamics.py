import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from couplersim.dynamics import (
    LEVELS,
    EnvelopeSpec,
    PopulationVector,
    damped_swap,
    envelope_area,
    lr_swap_time,
    lr_three_level_populations,
    pulsed_swap_population,
    qutrit_resonator_model,
    swap_completion_time,
)
from couplersim.numerics import TWO_PI, liouvillian
from couplersim.presets import RESET_PULSE, table_decay_rates
from couplersim.rbsim import RBScenario
from oracles import envelope_value, propagate

# adaptive-quadrature value of gamma(150 ns) for the 150 ns / 10 ns-edge
# reset pulse, frozen before the build
GAMMA_150NS = 1.2359481335996124e-07

RATES = table_decay_rates()

#: P_f left by one driven leakage-recovery window from |f0> (310 ns at
#: g~ = 0.91 MHz, the qutrit x resonator Lindblad model), measured at the
#: table rates and with dephasing off; the closed form gives 1.18e-3 and
#: leakage-rb's instantaneous swap leaves 1 - f_lr = 1.5e-2
DRIVEN_LR_P_F = 2.92e-3
DRIVEN_LR_P_F_NO_DEPHASING = 1.31e-3


def pure_state(level):
    """|level><level| on the basis of ``qutrit_resonator_model``."""
    rho = np.zeros((len(LEVELS), len(LEVELS)), dtype=complex)
    rho[LEVELS.index(level), LEVELS.index(level)] = 1.0
    return rho


def qubit_population(rho, q):
    """Population of qutrit level ``q`` ("g", "e" or "f"), summed over
    the resonator."""
    return sum(rho[LEVELS.index(q + r), LEVELS.index(q + r)].real for r in "01")


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
            assert damped_swap(t, 0.0, gamma, 770e3)[0] == pytest.approx(
                expected, rel=1e-12)

    def test_starts_at_one_and_stays_in_range(self):
        t = np.linspace(0, 2e-6, 400)
        p, _ = damped_swap(t, 2.07e6, 6.8e3, 770e3)
        assert p[0] == 1.0
        assert np.all((p >= 0) & (p <= 1 + 1e-12))

    def test_underdamped_maxima_bounded_by_decay_envelope(self):
        g, gamma, kappa = 2.07e6, 6.8e3, 770e3
        t = np.linspace(0, 2.5e-6, 8000)
        p, _ = damped_swap(t, g, gamma, kappa)
        k_sigma = TWO_PI * (kappa + gamma)
        k_delta = TWO_PI * (kappa - gamma)
        m = math.sqrt((TWO_PI * g) ** 2 - (k_delta / 4) ** 2)
        exact_amp = 1.0 + (k_delta / (4 * m)) ** 2
        env = np.exp(-k_sigma * t / 2)
        idx = np.flatnonzero((p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:])) + 1
        assert len(idx) > 3
        assert np.all(p[idx] <= env[idx] * exact_amp + 1e-12)
        assert np.all(p[idx] <= env[idx] * 1.01)  # the quoted kappa_Sigma/2 envelope

    #: per coupling, about 3x the measured gap to the Lindblad propagation
    #: (the DOP853 error): 1.6e-11 underdamped, 1.9e-15 overdamped and
    #: 7.6e-13 near critical
    LINDBLAD_BOUND = {2.07e6: 5e-11, 50e3: 6e-15, 190.8e3: 2.5e-12}

    @pytest.mark.parametrize("g,gamma,kappa", [
        (2.07e6, 6.8e3, 770e3),    # underdamped
        (50e3, 6.8e3, 770e3),      # overdamped
        (190.8e3, 6.8e3, 770e3),   # near critical
    ])
    def test_matches_lindblad_propagation(self, g, gamma, kappa):
        rates = table_decay_rates()
        rates = type(rates)(gamma1=gamma, gamma_phi=0.0,
                            kappa_r=kappa, gamma_fe=rates.gamma_fe)
        h, collapse = qutrit_resonator_model(rates, ("e0", "g1", g))
        ts = np.linspace(0, 1.0e-6, 11)
        traj = propagate(h, collapse, pure_state("e0"), ts[-1], t_eval=ts)
        e0 = LEVELS.index("e0")
        donor, _ = damped_swap(ts, g, gamma, kappa)
        for p, rho in zip(donor, traj):
            assert rho[e0, e0].real == pytest.approx(p, abs=self.LINDBLAD_BOUND[g])

    def test_branch_continuity(self):
        gamma, kappa = 6.8e3, 770e3
        g_crit = (kappa - gamma) / 4.0
        t = np.linspace(0, 3e-6, 50)
        below, _ = damped_swap(t, g_crit * (1 - 1e-7), gamma, kappa)
        above, _ = damped_swap(t, g_crit * (1 + 1e-7), gamma, kappa)
        at, _ = damped_swap(t, g_crit, gamma, kappa)
        assert np.max(np.abs(below - at)) < 1e-6
        assert np.max(np.abs(above - at)) < 1e-6

    def test_acceptor_population_limits(self):
        # no damping: acceptor oscillates as sin^2(g t)
        g = 1e6
        for t in (0.1e-6, 0.25e-6, 0.4e-6):
            assert damped_swap(t, g, 0.0, 0.0)[1] == pytest.approx(
                math.sin(TWO_PI * g * t) ** 2, rel=1e-9)

    def test_swap_completion_time(self):
        g, gamma, kappa = 2.07e6, 6.8e3, 770e3
        t_star = swap_completion_time(g, gamma, kappa)
        t = np.linspace(0.5 * t_star, 1.5 * t_star, 20001)
        p, _ = damped_swap(t, g, gamma, kappa)
        assert t[np.argmin(p)] == pytest.approx(t_star, rel=1e-3)
        assert swap_completion_time(10e3, gamma, kappa) == math.inf  # overdamped

    def test_envelope_weighted_swap_matches_pulsed_lindblad(self):
        # time substitution t -> gamma(t) against the pulsed Lindblad model
        g, gamma, kappa = 2.07e6, 6.8e3, 770e3
        rates = type(RATES)(gamma1=gamma, gamma_phi=0.0,
                            kappa_r=kappa, gamma_fe=RATES.gamma_fe)
        h, collapse = qutrit_resonator_model(rates, ("e0", "g1", g))
        ts = np.linspace(0, 150e-9, 16)
        traj = propagate(lambda t: envelope_value(t, RESET_PULSE) * h, collapse,
                         pure_state("e0"), ts[-1], t_eval=ts)
        closed = pulsed_swap_population(ts, RESET_PULSE, g, gamma, kappa)
        e0 = LEVELS.index("e0")
        sim = np.array([r[e0, e0].real for r in traj])
        # about 3x the measured gap of the t -> gamma(t) substitution, 5.05e-4
        assert np.max(np.abs(closed - sim)) < 1.5e-3


#: (g~, Gamma, kappa_R) of the oracle grid, cyclic Hz: the table rates, the
#: three branches around critical damping, no coupling, no damping, and
#: damping up to 1e30 Hz, where cosh(mu t) alone overflows a float
CRITICAL_G = (770e3 - 6.8e3) / 4.0
ORACLE_RATES = [
    (2.07e6, 6.8e3, 770e3),               # underdamped, the reset drive
    (0.91e6, 6.3e3, 770e3),               # underdamped, the LR drive
    (50e3, 6.8e3, 770e3),                 # overdamped
    (CRITICAL_G, 6.8e3, 770e3),           # critical
    (CRITICAL_G * (1 - 1e-7), 6.8e3, 770e3),
    (CRITICAL_G * (1 + 1e-7), 6.8e3, 770e3),
    (0.0, 6.8e3, 770e3),                  # uncoupled
    (0.0, 770e3, 770e3),                  # uncoupled, mu = 0
    (1e6, 0.0, 0.0),                      # undamped
    (0.0, 0.0, 0.0),                      # nothing happens
    (2.07e6, 6.8e3, 7.7e8),
    (2.07e6, 6.8e3, 1e30),
    (2.07e6, 1e30, 770e3),
    (0.91e6, 1e30, 1e30),
]
ORACLE_TIMES = np.concatenate([np.linspace(0.0, 2e-6, 41), [1e-5, 1e-4, 6e-4]])


class TestDampedSwapOracle:
    """``damped_swap`` against the closed form evaluated in 50-digit
    arithmetic as written, e^{-k_S t/2} (cosh(mu t) + k_D/4 sinh(mu t)/mu)^2
    and g^2 e^{-k_S t/2} |sinh(mu t)/mu|^2, whose exponent range has no
    overflow."""

    @pytest.mark.parametrize("g,gamma,kappa", ORACLE_RATES)
    def test_matches_the_exact_closed_form(self, g, gamma, kappa):
        mp = pytest.importorskip("mpmath")
        exact = []
        with mp.workdps(50):
            g_, gam, kap = (2 * mp.pi * mp.mpf(x) for x in (g, gamma, kappa))
            mu = mp.sqrt(mp.mpc(((kap - gam) / 4) ** 2 - g_ ** 2))
            for t in map(mp.mpf, ORACLE_TIMES):
                sinh_over = mp.sinh(mu * t) / mu if mu else t
                envelope = mp.exp(-(kap + gam) * t / 2)
                exact.append((
                    float(envelope * mp.re(mp.cosh(mu * t) + (kap - gam) / 4 * sinh_over) ** 2),
                    float(envelope * g_ ** 2 * abs(sinh_over) ** 2)))
        donor, acceptor = damped_swap(ORACLE_TIMES, g, gamma, kappa)
        np.testing.assert_allclose(donor, [d for d, _ in exact], rtol=0, atol=1e-14)
        np.testing.assert_allclose(acceptor, [a for _, a in exact], rtol=0, atol=1e-14)


class TestLeakageRecoveryDynamics:
    def test_initial_state(self):
        pop = lr_three_level_populations(0.0, 0.91e6, RATES)
        assert (pop.p_g, pop.p_e, pop.p_f) == (0.0, 0.0, 1.0)

    def test_full_swap_time_matches_quoted_value(self):
        t_star = lr_swap_time(0.91e6, RATES)
        assert t_star == pytest.approx(310e-9, rel=0.10)

    def test_populations_against_lindblad(self):
        g = 0.91e6
        h, collapse = qutrit_resonator_model(RATES, ("f0", "e1", g))
        ts = np.linspace(0.0, 0.6e-6, 13)
        traj = propagate(h, collapse, pure_state("f0"), ts[-1], t_eval=ts)
        pop = lr_three_level_populations(ts, g, RATES)
        p_g, p_e, p_f = (np.array([qubit_population(rho, q) for rho in traj]) for q in "gef")
        # about 3x the measured gaps of the closed form, which has no
        # dephasing and no decay of |e1>: 4.03e-3 (P_f), 5.79e-3 (P_e) and
        # 6.19e-3 (P_g)
        assert np.max(np.abs(pop.p_f - p_f)) < 0.012
        assert np.max(np.abs(pop.p_e - p_e)) < 0.017
        assert np.max(np.abs(pop.p_g - p_g)) < 0.018

    def test_driven_lr_window_against_the_other_lr_models(self):
        # one LR window of the driven model, against the damped-swap closed
        # form (lr-dynamics) and the instantaneous swap at the paper's
        # measured f_lr that leakage-rb applies
        g, sc = 0.91e6, RBScenario(l_cl=0.0, rates=RATES)
        no_dephasing = type(RATES)(gamma1=RATES.gamma1,
                                   gamma_phi=0.0,
                                   kappa_r=RATES.kappa_r, gamma_fe=RATES.gamma_fe)

        def driven_p_f(rates):
            liou = liouvillian(*qutrit_resonator_model(rates, ("f0", "e1", g)))
            rho = (expm(liou * sc.tau_lr) @ pure_state("f0").reshape(-1)).reshape(6, 6)
            return qubit_population(rho, "f")

        closed = lr_three_level_populations(sc.tau_lr, g, RATES).p_f
        assert closed == pytest.approx(1.18e-3, rel=1e-2)
        # without dephasing the driven model is the closed form's damped
        # swap, but for the qubit decay of |e1>, which adds Gamma_1 to the
        # acceptor's decay
        p_f = driven_p_f(no_dephasing)
        assert p_f == pytest.approx(DRIVEN_LR_P_F_NO_DEPHASING, rel=1e-2)
        assert p_f == pytest.approx(damped_swap(
            sc.tau_lr, g, RATES.gamma_fe, RATES.kappa_r + RATES.gamma1)[0], rel=1e-9)
        assert 0.0 < p_f - closed < 1.5e-4
        # dephasing at the table rate more than doubles the residual, which
        # stays a fifth of the measured one: 99.7 % against f_lr = 98.5 %
        p_f = driven_p_f(RATES)
        assert p_f == pytest.approx(DRIVEN_LR_P_F, rel=1e-2)
        assert 1.0 - p_f == pytest.approx(0.997, abs=5e-4)
        assert sc.f_lr == 0.985 and 1.0 - sc.f_lr > 5.0 * p_f

    def test_ground_population_monotone(self):
        ts = np.linspace(0, 1.5e-6, 200)
        pg = lr_three_level_populations(ts, 0.91e6, RATES).p_g
        assert np.all(np.diff(pg) >= -1e-12)

    def test_qubit_populations_sum_to_one(self):
        pop = lr_three_level_populations(np.linspace(0, 1e-6, 23), 0.91e6, RATES)
        assert pop.qubit_total == pytest.approx(np.ones(23), abs=1e-12)

    def test_population_vector_validation(self):
        with pytest.raises(ValueError):
            PopulationVector(p_g=0.8, p_e=0.5, p_f=0.2)
        with pytest.raises(ValueError):
            PopulationVector(p_g=-0.2, p_e=0.0, p_f=0.0)

    def test_population_vector_validation_is_elementwise(self):
        ok = np.array([0.0, 0.5])
        PopulationVector(p_g=ok, p_e=ok, p_f=1.0 - 2 * ok)
        with pytest.raises(ValueError, match="p_f"):
            PopulationVector(p_g=ok, p_e=ok, p_f=np.array([1.0, -0.1]))
        with pytest.raises(ValueError, match="unity"):
            PopulationVector(p_g=ok, p_e=ok, p_f=np.array([1.0, 0.5]))
