import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import couplersim
from couplersim import presets, rbsim
from couplersim.circuit import DecayRates
from couplersim.dynamics import LEVELS
from couplersim.numerics import TWO_PI, RngStream

RATES = presets.table_decay_rates()
ZERO_RATES = DecayRates(gamma1=0.0, gamma_phi=0.0, gamma_fe=0.0, kappa_r=0.0)
MC_GRID = (0, 1, 2, 5, 10, 40)
SRC = str(Path(couplersim.__file__).resolve().parents[1])


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
        # {g0, e0} block (row-major vec) and F = (d F_e + 1) / (d + 1),
        # Nielsen, Phys. Lett. A 303, 249 (2002)
        sc = scenario()
        sup = rbsim._decoherence_superops(sc)[window]
        block = (LEVELS.index("g0"), LEVELS.index("e0"))
        f_e = sum(sup[6 * i + j, 6 * i + j] for i in block for j in block).real / 4
        fid = (2 * f_e + 1) / 3
        tau = getattr(sc, f"tau_{window}")
        g1 = TWO_PI * RATES.gamma1
        g2 = g1 / 2 + TWO_PI * RATES.gamma_phi
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

    @pytest.mark.parametrize("r_count", [2, 33])
    @pytest.mark.parametrize("kind", ["n_lr 0", "n_lr 2", "depolarizing"])
    def test_curves_keep_their_bits(self, r_count, kind):
        # sha256 of the four statistics arrays as the three-operand einsum
        # conjugations computed them (numpy 2.4.6 and its bundled OpenBLAS on
        # x86-64: the channel GEMMs round as that BLAS does)
        sc = scenario(n_lr=0 if kind == "n_lr 0" else 2, n_cl_grid=MC_GRID)
        curves = rbsim.monte_carlo_rb(sc, RngStream(seed=5), n_randomizations=r_count,
                                      depolarizing_error=0.01 if kind == "depolarizing" else None)
        digest = hashlib.sha256()
        for name in ("p_g_mean", "p_g_std", "p_f_mean", "p_f_std"):
            digest.update(getattr(curves, name).tobytes())
        assert digest.hexdigest() == CURVE_SHA256[kind, r_count]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second core to spin on")
    def test_monte_carlo_keeps_to_one_core(self):
        # a GEMM over all 96 states would start an OpenBLAS worker that spins
        # between the channel calls: cpu/wall 1.8-2.0 against about 1.0 in
        # blocks; contention can only lower the ratio.  A fresh process keeps
        # out the spin of threaded calls made by earlier tests.  scipy's expm,
        # which builds the channels, spins a worker of its own BLAS for over
        # 0.1 s (cpu/wall up to 2.0 over a 0.1 s call), so the channels are
        # built once, before a pause, and handed to the measured call.  The
        # warm-up runs at the measured size: the first threaded GEMM of a
        # process starts the workers, which can take 0.7 s and hide the spin
        ratio = float(run_fresh("""
            sc = scenario(n_cl_grid=(1, 2, 3, 4, 400))
            windows = rbsim._decoherence_superops(sc)
            rbsim._decoherence_superops = lambda _: windows
            rbsim.monte_carlo_rb(sc, RngStream(seed=0), n_randomizations=96)
            time.sleep(0.5)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            rbsim.monte_carlo_rb(sc, RngStream(seed=0), n_randomizations=96)
            print((time.process_time() - cpu0) / (time.perf_counter() - wall0))
        """))
        assert ratio < 1.5

    def test_monte_carlo_allocates_once(self):
        # minor page faults of one R = 200 run after a warm-up run (numpy 2.4,
        # glibc, x86-64): 321 with the einsum conjugations, 585 with the block
        # conjugations, whose ~1.7 MB of buffers fault in once, and 32,600 when
        # every gate allocates its work arrays, which the heap then trims.
        # The bound is about three times the einsum step's count
        faults = int(run_fresh("""
            sc = scenario(n_cl_grid=(1, 2, 5, 20, 200))
            rbsim.monte_carlo_rb(sc, RngStream(seed=0), n_randomizations=2)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rbsim.monte_carlo_rb(sc, RngStream(seed=3), n_randomizations=200)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """))
        assert faults < 1000


def reaped_run(*args, **kwargs):
    """``rbsim.monte_carlo_rb``, then a check that it left no child behind."""
    curves = rbsim.monte_carlo_rb(*args, **kwargs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return curves


def curve_bytes(curves) -> bytes:
    return b"".join(getattr(curves, f.name).tobytes() for f in dataclasses.fields(curves))


class TestForkedChunks:
    """The randomizations of ``monte_carlo_rb`` split into forked children:
    the same bits for any chunk count, and no process left behind."""

    @pytest.mark.parametrize("r_count", [64, 65, 200])
    @pytest.mark.parametrize("kind", ["n_lr 0", "n_lr 2", "depolarizing"])
    def test_curves_independent_of_chunks(self, monkeypatch, r_count, kind):
        sc = scenario(n_lr=0 if kind == "n_lr 0" else 2, n_cl_grid=MC_GRID)
        runs = []
        for k in (1, 2, 3):
            monkeypatch.setattr(rbsim, "_chunk_count", lambda r, k=k: k)
            runs.append(curve_bytes(reaped_run(
                sc, RngStream(seed=5), n_randomizations=r_count,
                depolarizing_error=0.01 if kind == "depolarizing" else None)))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_chunks_hold_two_states_or_more(self):
        # a one-state chunk would send its channel products to gemv, which
        # rounds differently from gemm
        for r_count in range(2, 130):
            for k in range(1, 9):
                chunks = rbsim._chunks(r_count, k)
                assert 1 <= len(chunks) <= k
                assert [i for rows in chunks for i in rows] == list(range(r_count))
                sizes = [len(rows) for rows in chunks]
                assert min(sizes) >= 2 and max(sizes) - min(sizes) <= 1, (r_count, k)

    def test_chunk_count_follows_the_cores_and_the_minimum_chunk(self, monkeypatch):
        monkeypatch.setattr(rbsim, "_usable_cores", lambda: 4)
        minimum = rbsim._MIN_CHUNK
        assert [rbsim._chunk_count(r) for r in (2, 2 * minimum - 1, 2 * minimum, 200)] == [
            1, 1, 2, 4]

    @pytest.mark.parametrize("failure", ["raises", "exits", "short data", "exits after sending"])
    def test_failed_child_is_rerun_in_process(self, monkeypatch, failure):
        sc = scenario(n_lr=2, n_cl_grid=MC_GRID)
        monkeypatch.setattr(rbsim, "_chunk_count", lambda r: 1)
        expected = curve_bytes(reaped_run(sc, RngStream(seed=5), n_randomizations=64))
        parent = os.getpid()
        randomizations = rbsim._randomizations

        def failing(scenario, stream, rows, **kwargs):
            out = randomizations(scenario, stream, rows, **kwargs)
            if os.getpid() == parent or rows.start != 0:
                return out
            if failure == "raises":
                raise RuntimeError("child fails")
            if failure == "exits":
                os._exit(7)
            if failure == "short data":
                return out[:, :-1]
            # wrong rows of the right size, then a non-zero exit status
            exit_ = os._exit
            os._exit = lambda code: exit_(9)
            return out + 1.0

        monkeypatch.setattr(rbsim, "_randomizations", failing)
        monkeypatch.setattr(rbsim, "_chunk_count", lambda r: 3)
        assert curve_bytes(reaped_run(sc, RngStream(seed=5), n_randomizations=64)) == expected

    def test_a_real_error_keeps_its_type(self, monkeypatch):
        def broken(*args, **kwargs):
            raise FloatingPointError("no chunk runs")

        monkeypatch.setattr(rbsim, "_randomizations", broken)
        monkeypatch.setattr(rbsim, "_chunk_count", lambda r: 2)
        with pytest.raises(FloatingPointError, match="no chunk runs"):
            rbsim.monte_carlo_rb(scenario(n_cl_grid=MC_GRID), RngStream(seed=5),
                                 n_randomizations=64)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fork", ["missing", "OSError"])
    def test_runs_in_process_without_fork(self, monkeypatch, fork):
        sc = scenario(n_lr=2, n_cl_grid=MC_GRID)
        monkeypatch.setattr(rbsim, "_chunk_count", lambda r: 1)
        expected = curve_bytes(reaped_run(sc, RngStream(seed=5), n_randomizations=64))
        monkeypatch.setattr(rbsim, "_chunk_count", lambda r: 2)
        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            def refuse():
                raise BlockingIOError("no process left")
            monkeypatch.setattr(os, "fork", refuse)
        assert curve_bytes(reaped_run(sc, RngStream(seed=5), n_randomizations=64)) == expected

    def test_parent_error_kills_the_children(self, monkeypatch):
        # the parent fails while reading the first child's rows; every child,
        # still computing its 1000 cycles, is killed and reaped
        killed = []
        kill = os.kill
        monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid) or kill(pid, sig))

        class Interrupted(Exception):
            pass

        class Stalls(io.BufferedReader):
            def read(self, *args):
                raise Interrupted

        def fake_open(fd, mode):
            return Stalls(io.FileIO(fd, "r")) if mode == "rb" else open(fd, mode)

        monkeypatch.setattr(rbsim, "open", fake_open, raising=False)
        monkeypatch.setattr(rbsim, "_chunk_count", lambda r: 2)
        with pytest.raises(Interrupted):
            rbsim.monte_carlo_rb(scenario(), RngStream(seed=5), n_randomizations=64)
        assert len(killed) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second core to spin on")
    def test_children_keep_to_one_core_each(self):
        # CPU time and minor faults of a run split in two children (summed
        # through RUSAGE_CHILDREN) against the same run in-process, the
        # least of three alternated rounds each, and cpu/wall of the
        # in-process run.  Measured on a 2-vCPU host (numpy 2.4.6, glibc,
        # x86-64): CPU ratio 1.10-1.22, cpu/wall 0.96-0.99, and 2,230-2,310
        # faults for both children, where gates that allocate per call
        # fault 32,600 times in one process.  A BLAS worker spinning
        # between the channel calls doubles the CPU time: one GEMM over all
        # states reads cpu/wall 1.88-1.94 in-process.  The parent itself
        # computes nothing while its children run, so
        # test_monte_carlo_keeps_to_one_core reads only its idle wait
        cpu_ratio, in_process, faults = run_fresh("""
            sc = scenario(n_cl_grid=(1, 2, 5, 20, 200))
            windows = rbsim._decoherence_superops(sc)
            rbsim._decoherence_superops = lambda _: windows
            for k in (1, 2):  # at the measured size, which starts any BLAS workers
                rbsim._chunk_count = lambda r, k=k: k
                rbsim.monte_carlo_rb(sc, RngStream(seed=0), n_randomizations=200)
            time.sleep(0.5)

            def usage(who):
                u = resource.getrusage(who)
                return u.ru_utime + u.ru_stime, u.ru_minflt

            cpu = {1: [], 2: []}
            in_process = []
            faults = []
            for _ in range(3):
                for k, who in ((1, resource.RUSAGE_SELF), (2, resource.RUSAGE_CHILDREN)):
                    rbsim._chunk_count = lambda r, k=k: k
                    cpu0, flt0 = usage(who)
                    wall0 = time.perf_counter()
                    rbsim.monte_carlo_rb(sc, RngStream(seed=3), n_randomizations=200)
                    wall = time.perf_counter() - wall0
                    cpu1, flt1 = usage(who)
                    cpu[k].append(cpu1 - cpu0)
                    if k == 1:
                        in_process.append((cpu1 - cpu0) / wall)
                    else:
                        faults.append(flt1 - flt0)
            print(min(cpu[2]) / min(cpu[1]), min(in_process), min(faults))
        """).split()
        assert float(cpu_ratio) < 1.5
        assert float(in_process) < 1.5
        assert int(faults) < 7000


#: ``test_curves_keep_their_bits``: sha256 over the bytes of p_g_mean,
#: p_g_std, p_f_mean and p_f_std, in that order
CURVE_SHA256 = {
    ("n_lr 0", 2): "1d38b53c4ab6cbc76b1b498c3d7bc021a6eb670c848dd2ec9ce9a734b9f497ed",
    ("n_lr 2", 2): "2fa66459e5dfdc73ccc97b29a7f303f86f84f88d6cab9c93a9071dd9f1feedab",
    ("depolarizing", 2): "2807e6ce4fcd07d58bdd6c6778d615613ce43a005887b0f180da86615432b17b",
    ("n_lr 0", 33): "61cf980def66950b106cd65f494e434898a990ec033a85906996a93dcf0f7037",
    ("n_lr 2", 33): "6f6d2c536af0b64c1ea976dcc032fcad5b0b4eaa886f727a41fd8b107213a298",
    ("depolarizing", 33): "b1f141910ad71b15208bf074cb8214724912399eab0aaa900be426d94af29931",
}

FRESH_PROLOGUE = """
import resource, time
from couplersim import presets, rbsim
from couplersim.numerics import RngStream

def scenario(**kwargs):
    return rbsim.RBScenario(l_cl=0.02, rates=presets.table_decay_rates(), **kwargs)
"""


def run_fresh(body: str) -> str:
    """Run ``body`` in a fresh interpreter with this ``couplersim`` first on
    the path; returns the last line it prints."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FRESH_PROLOGUE + textwrap.dedent(body)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def einsum_conjugate(u, rho):
    """The oracle of ``rbsim._block_conjugation``: U_r rho_r U_r^dag."""
    return np.einsum("rij,rjk,rlk->ril", u, rho, u.conj())


def block_conjugate(rho, v, a, qutrit):
    """``rbsim._block_conjugation`` on a complex batch, as ``monte_carlo_rb``
    calls it: the block ``v`` on levels (a, a + 1) of the qutrit (gates
    kron(u3, I2)) or of the 6 levels."""
    parts = np.empty((2, 6, 6, len(rho)))
    np.copyto(parts, rbsim._parts(rho))
    out = np.empty_like(rho)
    x, y = parts, rbsim._parts(out)
    if qutrit:
        x, y = rbsim._qutrit_view(x), rbsim._qutrit_view(y)
    rbsim._block_conjugation(x, v, a, y, {})()
    return out


def embed_qubit_gates(u2):
    """Qubit gates (R, 2, 2) as 6x6 unitaries kron(u2 (+) 1, I2)."""
    u3 = np.zeros((len(u2), 3, 3), dtype=complex)
    u3[:, :2, :2] = u2
    u3[:, 2, 2] = 1.0
    return np.kron(u3, np.eye(2))


def random_states(rng, r_count):
    """Complex 6x6 batches with exact zeros and -0.0 among their parts."""
    rho = rng.normal(size=(r_count, 6, 6)) + 1j * rng.normal(size=(r_count, 6, 6))
    for part, value in ((rho.real, 0.0), (rho.real, -0.0), (rho.imag, 0.0), (rho.imag, -0.0)):
        part[rng.random(size=part.shape) < 0.15] = value
    return rho


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBlockConjugation:
    """``rbsim._block_conjugation`` against the three-operand ``einsum`` it
    replaced, bit for bit, signed zeros included."""

    R_COUNTS = [1, 2, 33, 200]

    def test_cliffords_are_monomial_and_dense(self):
        zeros = (rbsim._CLIFFORDS_2 == 0).sum(axis=(1, 2))
        assert sorted(set(zeros.tolist())) == [0, 2]

    @pytest.mark.parametrize("r_count", R_COUNTS)
    def test_all_cliffords(self, r_count):
        rng = np.random.default_rng(r_count)
        for start in range(0, 24, r_count):
            gates = (start + np.arange(r_count)) % 24
            rho = random_states(rng, r_count)
            v = rbsim._CLIFFORD_PARTS[..., gates][:, :, :, None, None]
            expected = einsum_conjugate(embed_qubit_gates(rbsim._CLIFFORDS_2[gates]), rho)
            assert same_bits(block_conjugate(rho, v, 0, qutrit=True), expected), gates

    @pytest.mark.parametrize("r_count", R_COUNTS)
    def test_clifford_product_inverses(self, r_count):
        # ctot^dag after up to 40 Cliffords, accumulated as monte_carlo_rb does
        rng = np.random.default_rng(100 + r_count)
        ctot = np.broadcast_to(np.eye(2, dtype=complex), (r_count, 2, 2)).copy()
        for n in range(40):
            ctot = np.einsum("rij,rjk->rik", rbsim._CLIFFORDS_2[rng.integers(0, 24, r_count)],
                             ctot)
            if n % 13 == 0:
                v = np.stack([ctot.real, -ctot.imag]).transpose(0, 3, 2, 1)[:, :, :, None, None]
                rho = random_states(rng, r_count)
                expected = einsum_conjugate(embed_qubit_gates(ctot.conj().transpose(0, 2, 1)), rho)
                assert same_bits(block_conjugate(rho, v, 0, qutrit=True), expected), n

    @pytest.mark.parametrize("r_count", R_COUNTS)
    @pytest.mark.parametrize("l_cl", [0.0, 0.02, 1.0])
    def test_leak(self, r_count, l_cl):
        # kron(u3, I2) with u3 = 1 (+) R(theta): the block on qutrit levels (e, f)
        u = rbsim._leak_unitary(l_cl)
        rho = random_states(np.random.default_rng(r_count), r_count)
        v = u[2::2, 2::2].real.reshape(1, 2, 2, 1, 1, 1)
        expected = einsum_conjugate(np.tile(u, (r_count, 1, 1)), rho)
        assert same_bits(block_conjugate(rho, v, 1, qutrit=True), expected)

    @pytest.mark.parametrize("r_count", R_COUNTS)
    @pytest.mark.parametrize("f_lr", [0.0, 0.985, 1.0])
    def test_recovery(self, r_count, f_lr):
        # the identity except on (e1, f0) = (3, 4)
        u = rbsim._lr_unitary(f_lr)
        rho = random_states(np.random.default_rng(r_count), r_count)
        v = u[3:5, 3:5].real.reshape(1, 2, 2, 1)
        expected = einsum_conjugate(np.tile(u, (r_count, 1, 1)), rho)
        assert same_bits(block_conjugate(rho, v, 3, qutrit=False), expected)


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
