import dataclasses
import math
import os
import time

import numpy as np
import pytest

from couplersim import presets, rbsim
from couplersim.circuit import DecayRates
from couplersim.numerics import TWO_PI, RngStream

RATES = presets.table_decay_rates()
ZERO_RATES = DecayRates(gamma1={"Q1": 0.0}, gamma_phi={"Q1": 0.0}, kappa_r=0.0, gamma_fe=0.0)
MC_GRID = (0, 1, 2, 5, 10, 40)


def scenario(**kwargs):
    return rbsim.RBScenario(**{"l_cl": 0.02, "rates": RATES, **kwargs})


class TestScenario:
    def test_default_grid(self):
        # the 19 distinct rounded lengths of geomspace(1, 1000, 20), as ints
        assert rbsim.DEFAULT_N_CL_GRID == (1, 2, 3, 4, 6, 9, 13, 18, 26, 38, 55, 78, 113,
                                           162, 234, 336, 483, 695, 1000)
        assert all(type(n) is int for n in rbsim.DEFAULT_N_CL_GRID)

    def test_repeated_lengths_rejected(self):
        with pytest.raises(ValueError, match="n_cl_grid"):
            scenario(n_cl_grid=(1, 2, 2, 4, 8))


class TestRateEquation:
    @pytest.mark.parametrize("l_cl, f_lr", [(0.0, 0.985), (0.02, 0.985), (0.3, 0.4)])
    def test_rate_matrices_conserve_qubit_probability(self, l_cl, f_lr):
        for name, m in rbsim.rate_matrices(scenario(l_cl=l_cl, f_lr=f_lr)).items():
            np.testing.assert_allclose(m[:2].sum(axis=0), [1.0, 1.0, 0.0], atol=1e-15,
                                       err_msg=name)

    @pytest.mark.parametrize("l_cl, f_lr", [(0.005, 0.985), (0.02, 0.985), (0.1, 0.6)])
    def test_closed_forms_match_power_iteration(self, l_cl, f_lr):
        sc = scenario(l_cl=l_cl, f_lr=f_lr)
        forms = rbsim.a2_closed_forms(sc)
        assert forms.a2_leak == pytest.approx(rbsim.steady_state_leakage(sc, False), rel=1e-9)
        assert forms.a2_lr_full == pytest.approx(rbsim.steady_state_leakage(sc, True), rel=1e-9)

    @pytest.mark.parametrize("n_lr", [20, 10, 5, 1])
    def test_periodic_trace_stays_below_shark_fin_bound(self, n_lr):
        sc = scenario(n_lr=n_lr, n_cl_grid=(200,))
        n, p_f = rbsim.periodic_lr_trace(sc)
        assert n[-1] == 200 and p_f[0] == 0.0
        assert p_f.max() <= n_lr * sc.l_cl / 2.0

    def test_periodic_trace_steps_the_cycle_matrices(self):
        sc = scenario(n_lr=3, n_cl_grid=(12,))
        vec = np.array([1.0, 0.0, 0.0])
        expected = [0.0]
        for n in range(1, 13):
            vec = rbsim.cycle_matrix(sc, n % 3 == 0) @ vec
            expected.append(vec[1])
        assert rbsim.periodic_lr_trace(sc)[1].tolist() == expected

    @pytest.mark.parametrize("l_cl", [0.005, 0.02, 0.2])
    def test_no_recovery_transient_matches_stepped_rate_equation(self, l_cl):
        # the closed-form transient against n_lr = 0 stepping on the grid
        sc = scenario(l_cl=l_cl, n_lr=0)
        forms = rbsim.a2_closed_forms(sc)
        _, p_f = rbsim.periodic_lr_trace(sc)
        assert forms.n_cl.tolist() == list(sc.n_cl_grid)
        np.testing.assert_allclose(forms.p_f_of_n, p_f[forms.n_cl], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("l_cl", [0.0, 0.01, 0.03, 0.1])
    def test_recovery_pays_off_above_breakeven(self, l_cl):
        models = rbsim.error_models(scenario(l_cl=l_cl))
        assert 0.01 < models.breakeven_l < 0.03
        assert (models.eps_lr < models.eps_leak) == (l_cl > models.breakeven_l)


class TestDecoherenceWindows:
    @pytest.mark.parametrize("window", ["cl", "leak", "lr"])
    def test_subspace_fidelity_matches_closed_form(self, window):
        # the channels monte_carlo_rb applies every cycle; F_e on the
        # {g0, e0} block (basis index 2 * qutrit + resonator, row-major vec)
        # and F = (d F_e + 1) / (d + 1), Nielsen, Phys. Lett. A 303, 249 (2002)
        sc = scenario()
        sup = rbsim._decoherence_superops(sc)[window]
        f_e = sum(sup[6 * i + j, 6 * i + j] for i in (0, 2) for j in (0, 2)).real / 4
        fid = (2 * f_e + 1) / 3
        tau = getattr(sc, f"tau_{window}")
        g1 = TWO_PI * RATES.gamma1["Q1"]
        g2 = g1 / 2 + TWO_PI * RATES.gamma_phi["Q1"]
        assert fid == pytest.approx((3 + 2 * math.exp(-tau * g2) + math.exp(-tau * g1)) / 6,
                                    rel=0, abs=1e-12)
        if window == "lr":
            # the ~98 % process tomography of the 310 ns recovery pulse
            assert tau == 310e-9 and 0.97 <= fid < 1.0


class TestMonteCarlo:
    def test_golden_physical_noise_curves(self):
        curves = rbsim.monte_carlo_rb(scenario(n_lr=2, n_cl_grid=MC_GRID), RngStream(seed=7),
                                      n_randomizations=3)
        golden = {
            "p_g_mean": [1.0, 0.9620958560944937, 0.9618084718666617, 0.9008764236038619,
                         0.8390936695341633, 0.6104429568553487],
            "p_g_std": [0.0, 0.011733262464513559, 0.013544838267950315, 0.013867960433570112,
                        0.020564540278279784, 0.03041886400878906],
            "p_f_mean": [0.0, 0.016130619588905246, 0.00042608920881565074,
                         0.011338487810470818, 0.0003448409562651679, 0.00029883749258248385],
            "p_f_std": [0.0, 0.005587810537109936, 0.0005868612194531318, 0.001983821185001624,
                        0.00021593276933737544, 0.0001331392696976387],
        }
        assert curves.n_cl.tolist() == list(MC_GRID)
        for name, values in golden.items():
            np.testing.assert_allclose(getattr(curves, name), values, rtol=1e-10, err_msg=name)

    def test_noiseless_without_leakage_stays_in_ground_state(self):
        sc = rbsim.RBScenario(l_cl=0.0, rates=ZERO_RATES, n_lr=2, n_cl_grid=MC_GRID)
        curves = rbsim.monte_carlo_rb(sc, RngStream(seed=1), n_randomizations=3)
        np.testing.assert_allclose(curves.p_g_mean, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(curves.p_f_mean, 0.0, rtol=0, atol=1e-12)

    def test_depolarizing_decay_is_exact(self):
        eps = 0.01
        sc = scenario(l_cl=0.0, n_cl_grid=MC_GRID)
        n = np.asarray(MC_GRID)
        for r_count in (3, 40):  # 40 states span two blocks of rbsim._channel
            curves = rbsim.monte_carlo_rb(sc, RngStream(seed=2), n_randomizations=r_count,
                                          depolarizing_error=eps)
            np.testing.assert_allclose(curves.p_g_mean, 0.5 + 0.5 * (1.0 - 2.0 * eps) ** n,
                                       rtol=0, atol=1e-12, err_msg=f"R = {r_count}")
            np.testing.assert_allclose(curves.p_f_mean, 0.0, rtol=0, atol=1e-12,
                                       err_msg=f"R = {r_count}")

    @pytest.mark.parametrize("r_count", [1, 31, 32, 33, 64, 200])
    def test_channel_blocks_keep_the_bits(self, r_count):
        # the blocked GEMMs against one GEMM over all states, which OpenBLAS
        # threads above about 50 rows
        rng = np.random.default_rng(11)
        sup = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
        rho = rng.normal(size=(r_count, 6, 6)) + 1j * rng.normal(size=(r_count, 6, 6))
        out = rbsim._channel(sup, rho)
        assert out.shape == rho.shape
        assert np.array_equal(out.reshape(r_count, -1), rho.reshape(r_count, -1) @ sup.T)

    def test_curves_independent_of_channel_blocks(self, monkeypatch):
        sc = scenario(n_lr=2, n_cl_grid=MC_GRID)
        runs = []
        # 3 and 13 leave one state over at R = 40, which joins the block before it
        for block in (2, 3, 7, 13, 32, 40):
            monkeypatch.setattr(rbsim, "_CHANNEL_BLOCK", block)
            runs.append(rbsim.monte_carlo_rb(sc, RngStream(seed=5), n_randomizations=40))
        for field in dataclasses.fields(rbsim.RBCurves):
            first = getattr(runs[0], field.name)
            for other in runs[1:]:
                assert np.array_equal(getattr(other, field.name), first), field.name

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second core to spin on")
    def test_monte_carlo_keeps_to_one_core(self):
        # a GEMM over all 96 states would start an OpenBLAS worker that
        # spins through the einsum between calls: cpu/wall 1.8-2.0 against
        # about 1.0 in blocks; contention can only lower the ratio
        sc = scenario(n_cl_grid=(1, 2, 3, 4, 200))
        rbsim.monte_carlo_rb(sc, RngStream(seed=0), n_randomizations=3)  # loads scipy
        cpu0, wall0 = time.process_time(), time.perf_counter()
        rbsim.monte_carlo_rb(sc, RngStream(seed=0), n_randomizations=96)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        assert cpu / wall < 1.5


def joint_curves(n, a0, b0, lambda0, a2, b2, lambda2):
    """Noiseless P_g and P_f of the joint leakage-RB model of ``fit_rb``."""
    n = np.asarray(n, dtype=float)
    return a0 + b0 * lambda0 ** n + b2 * lambda2 ** n, a2 + b2 * lambda2 ** n


class TestFitRB:
    def test_single_exponential_recovers_lambda0(self):
        # baseline and depolarized (mixing 0.02) standard-RB curves
        n = np.unique(np.geomspace(1, 120, 14).astype(int))
        for lam in (0.97, 0.97 * (1 - 0.02)):
            fit = rbsim.fit_rb(n, 0.25 + 0.75 * lam ** n)
            assert fit.converged
            assert fit.lambda0 == pytest.approx(lam, abs=1e-6)
            assert (fit.a2, fit.b2, fit.lambda2) == (0.0, 0.0, 1.0)

    def test_joint_fit_recovers_all_six_parameters(self):
        truth = {"a0": 0.5, "b0": 0.49, "lambda0": 0.99, "a2": 0.01, "b2": -0.01,
                 "lambda2": 0.9}
        n = rbsim.DEFAULT_N_CL_GRID
        fit = rbsim.fit_rb(n, *joint_curves(n, **truth))
        assert fit.converged and not fit.degenerate
        for name, value in truth.items():
            assert getattr(fit, name) == pytest.approx(value, rel=1e-6), name

    def test_equal_decays_are_flagged_degenerate(self):
        n = rbsim.DEFAULT_N_CL_GRID
        p_g, p_f = joint_curves(n, a0=0.5, b0=0.49, lambda0=0.95, a2=0.01, b2=-0.01,
                                lambda2=0.951)
        fit = rbsim.fit_rb(n, p_g, p_f)
        assert fit.degenerate
        assert fit.lambda2 == pytest.approx(0.951, rel=1e-6)  # from the P_f-only refit
