import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from scipy.linalg import expm
from scipy.special import factorial, jv

from couplersim import presets
from couplersim.floquet import (_BESSEL_MAX_ARG, _bessel_j, coupler_block,
                                modulated_hamiltonian, modulation_spectrum)
from couplersim.numerics import (
    RngStream,
    mirrored_spectrum,
    periodic_propagator,
    stroboscopic_modes,
    taylor_coefficients,
)
from couplersim.protocols import _CZ_DOUBLE, _CZ_SINGLE, cz_conditional_phase
from oracles import propagate, sequential_midpoint_propagator

# J1(1.0) from the integral representation (1/pi) int_0^pi cos(t - sin t) dt,
# evaluated with adaptive quadrature before the build
J1_AT_1 = 0.44005058574493344


def bessel_quadrature(n, x):
    val, _ = quad(lambda t: math.cos(n * t - x * math.sin(t)) / math.pi, 0.0, math.pi,
                  limit=200, epsabs=1e-14)
    return val


def bessel_j(n, x):
    """J_n(x) read from the Jacobi-Anger table of ``floquet``."""
    return _bessel_j(x)[n]


class TestBessel:
    def test_identity_cases(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0

    def test_j1_at_one_matches_frozen_quadrature(self):
        assert bessel_j(1, 1.0) == pytest.approx(J1_AT_1, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    @pytest.mark.parametrize("x", [0.3, 2.0, 7.5, 13.0, 20.0])
    def test_against_quadrature(self, n, x):
        assert bessel_j(n, x) == pytest.approx(bessel_quadrature(n, x), abs=1e-12)

    def test_negative_argument_parity(self):
        assert bessel_j(2, -3.7) == pytest.approx(bessel_j(2, 3.7), abs=1e-14)
        assert bessel_j(3, -3.7) == pytest.approx(-bessel_j(3, 3.7), abs=1e-14)

    def test_recurrence_on_grid(self):
        for x in np.linspace(0.1, 20.0, 64):
            for n in range(1, 7):
                lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
                rhs = (2.0 * n / x) * bessel_j(n, x)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(n=st.integers(1, 8), x=st.floats(0.1, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, n, x):
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        assert lhs == pytest.approx((2.0 * n / x) * bessel_j(n, x), abs=1e-10)

    def test_matches_scipy_on_the_admissible_range(self):
        # every order the couplings read (0..2) and up to 8, both signs of
        # n and x, densely over |x| <= _BESSEL_MAX_ARG; measured 8.6e-16
        x = np.linspace(-_BESSEL_MAX_ARG, _BESSEL_MAX_ARG, 4001)
        n = np.arange(-8, 9)
        table = _bessel_j(x)[:, n]
        assert np.max(np.abs(table - jv(n, x[:, None]))) < 1e-14

    @pytest.mark.parametrize("x", [_BESSEL_MAX_ARG * (1 + 1e-12), -25.0, [0.5, 30.0]])
    def test_refuses_arguments_beyond_the_tested_range(self, x):
        with pytest.raises(ValueError, match="Bessel argument"):
            _bessel_j(x)


class TestTaylorCoefficients:
    def test_exponential(self):
        coef = taylor_coefficients(np.exp, 0.0, 8, 0.5)
        assert np.max(np.abs(coef - 1.0 / factorial(np.arange(9)))) < 1e-9

    def test_sine_off_center(self):
        coef = taylor_coefficients(np.sin, 0.3, 7, 0.4)
        s, c = math.sin(0.3), math.cos(0.3)
        exact = np.array([s, c, -s, -c, s, c, -s, -c]) / factorial(np.arange(8))
        assert np.max(np.abs(coef - exact)) < 1e-9


def random_hermitian(rng, dim, scale=1e7):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (m + m.conj().T) / 2.0


def random_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


class TestPropagate:
    def test_unitary_limit_preserves_purity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            h = random_hermitian(rng, dim)
            rho0 = random_density(rng, dim)
            rho = propagate(h, [], rho0, duration=2e-7)
            p0 = np.trace(rho0 @ rho0).real
            p1 = np.trace(rho @ rho).real
            assert abs(p1 - p0) < 1e-9

    def test_pure_decay(self):
        gamma = 50e3  # Hz
        op = np.array([[0, 1], [0, 0]], dtype=complex)
        rho0 = np.array([[1, 0], [0, 0]], dtype=complex)

        # excited state is index 0 here: decay operator |g><e| with g = index 1
        op = np.array([[0, 0], [1, 0]], dtype=complex)
        duration = 3e-6
        rho = propagate(np.zeros((2, 2)), [(op, gamma)], rho0, duration)
        expected = math.exp(-2.0 * math.pi * gamma * duration)
        assert rho[0, 0].real == pytest.approx(expected, abs=1e-6)

        # trajectory (adaptive) path agrees too
        ts = np.linspace(0, duration, 7)
        traj = propagate(np.zeros((2, 2)), [(op, gamma)], rho0, duration, t_eval=ts)
        assert traj[-1][0, 0].real == pytest.approx(expected, abs=1e-6)

    def test_trace_preserved_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            n_ops = int(rng.integers(1, 4))
            collapse = []
            for _ in range(n_ops):
                op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                collapse.append((op / np.linalg.norm(op), float(rng.uniform(1e3, 1e6))))
            rho0 = random_density(rng, dim)
            rho = propagate(h, collapse, rho0, duration=1e-6)
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_rejects_non_hermitian_hamiltonian(self):
        h = np.array([[0, 1], [0, 0]], dtype=complex) * 1e6
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="Hermitian"):
            propagate(h, [], rho0, 1e-7)

    def test_rejects_bad_initial_state(self):
        h = np.zeros((2, 2))
        with pytest.raises(ValueError):
            propagate(h, [], np.array([[0.5, 0], [0, 0.4]]), 1e-7)  # trace != 1
        with pytest.raises(ValueError):
            propagate(h, [], np.array([[1.5, 0], [0, -0.5]]), 1e-7)  # not PSD


@pytest.fixture(scope="module")
def cz_blocks():
    circuit = presets.table_circuit()
    return {"cz-double": coupler_block(circuit, _CZ_DOUBLE),
            "cz-single": coupler_block(circuit, _CZ_SINGLE)}


#: three drive frequencies of a CZ scan around the bare |ee> -> |fg> line
CZ_DRIVES = (500e6, 512.3e6, 519.77e6)


class TestPeriodicPropagator:
    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_constant_hamiltonian_is_exact(self, dim):
        # a constant real symmetric H mirrors within each half period
        rng = np.random.default_rng(dim)
        h = random_hermitian(rng, dim).real
        period = 2e-7
        spectrum = mirrored_spectrum(lambda t: np.broadcast_to(h, (len(t), dim, dim)), period, 64)
        u = periodic_propagator(spectrum, period)
        assert np.max(np.abs(u - expm(-1j * h * period))) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12

    def test_samples_once_at_step_midpoints(self):
        # the first ceil(n_sub / 4) midpoints of each half period
        seen = []

        def h_of_t(t):
            seen.append(np.array(t))
            return np.zeros((len(t), 2, 2))

        mirrored_spectrum(h_of_t, 1.0, 8)
        assert len(seen) == 1
        assert np.allclose(seen[0], [0.0625, 0.1875, 0.5625, 0.6875], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("argument, value", [
        # shorter than the 2 ns period of the ~500 MHz drives
        ("max_duration", 1e-9),
        # offsets that take every drive frequency through zero
        ("omega_d_span", (-1e10, -1e10)),
        ("n_omega", 0),
    ])
    def test_scan_names_a_bad_argument(self, argument, value):
        kwargs = {"omega_d_span": (0.0, 0.0), "n_omega": 1, "max_duration": 0.1e-6,
                  "n_sub": 64, argument: value}
        with pytest.raises(ValueError, match=argument):
            cz_conditional_phase(presets.table_circuit(), presets.fixture_drive("cz"), **kwargs)

    def test_rejects_empty_step_count(self, cz_blocks):
        # the library scan keeps the spectrum's refusal of an empty or odd
        # step count, which the CLI reports as a schema error
        coupler, drive = presets.table_circuit().coupler, presets.fixture_drive("cz")
        with pytest.raises(ValueError, match="n_sub"):
            modulation_spectrum(cz_blocks["cz-double"], coupler, drive, 0)
        for n_sub in (0, 63):
            with pytest.raises(ValueError, match="n_sub"):
                cz_conditional_phase(presets.table_circuit(), drive, omega_d_span=(0.0, 0.0),
                                     n_omega=1, max_duration=0.1e-6, n_sub=n_sub)

    @pytest.mark.parametrize("dim", [3, 6])
    @pytest.mark.parametrize("n_sub", [2048, 1026])
    def test_matches_sequential_product(self, dim, n_sub):
        # a generic H(t) = A + B s + C s^2, s = sin(2 pi t / T), of random
        # real symmetric A, B, C: it mirrors within each half period as the
        # numerics require, without a coupler block (1026 steps: a
        # self-mirrored middle step and odd run lengths in the pairwise tree)
        rng = np.random.default_rng(dim)
        a, b, c = (random_hermitian(rng, dim).real for _ in range(3))
        period = 2e-7

        def h_of_t(t):
            s = np.sin(2 * np.pi * np.asarray(t) / period)[:, None, None]
            return a + b * s + c * s**2

        u = periodic_propagator(mirrored_spectrum(h_of_t, period, n_sub), period)
        ref = sequential_midpoint_propagator(h_of_t, period, n_sub)
        assert np.max(np.abs(u - ref)) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12

    @pytest.mark.parametrize("kind", ["cz-double", "cz-single"])
    @pytest.mark.parametrize("n_sub", [2, 4])
    def test_short_spectra_match_sequential_product(self, cz_blocks, kind, n_sub):
        # runs of one sample and no overlap: each half period is one
        # exponential of its first midpoint sample over T / 2
        coupler = presets.table_circuit().coupler
        for wd in CZ_DRIVES:
            h_of_t = modulated_hamiltonian(cz_blocks[kind], coupler,
                                           replace(presets.fixture_drive("cz"), omega_d=wd))
            spectrum = mirrored_spectrum(h_of_t, 1.0 / wd, n_sub)
            assert spectrum.overlaps.shape == (2, 0, *spectrum.evecs.shape[1:])
            u = periodic_propagator(spectrum, 1.0 / wd)
            ref = sequential_midpoint_propagator(h_of_t, 1.0 / wd, n_sub)
            assert np.max(np.abs(u - ref)) < 1e-12
            first, second = h_of_t(np.array([0.5, 0.5 + n_sub / 2]) / (n_sub * wd))
            halves = expm(-0.5j * second / wd) @ expm(-0.5j * first / wd)
            assert np.max(np.abs(u - halves)) < 1e-12

    @pytest.mark.parametrize("kind", ["cz-double", "cz-single"])
    @pytest.mark.parametrize("n_sub", [2, 4, 6, 2046, 2048])
    def test_modulation_engine_matches_sequential_product(self, cz_blocks, kind, n_sub):
        # two mirrored quarter runs rebuilt as Q^T Q, with a self-mirrored
        # middle step at n_sub / 2 odd (2, 6, 2046); runs of one sample and
        # no overlap (2, 4), and of 512 samples, whose 511 overlaps carry a
        # product to the next round of the pairwise tree (2046, 2048)
        coupler = presets.table_circuit().coupler
        for wd in CZ_DRIVES:
            drive = replace(presets.fixture_drive("cz"), omega_d=wd)
            u = periodic_propagator(modulation_spectrum(cz_blocks[kind], coupler, drive, n_sub),
                                    1.0 / wd)
            ref = sequential_midpoint_propagator(
                modulated_hamiltonian(cz_blocks[kind], coupler, drive), 1.0 / wd, n_sub)
            assert np.max(np.abs(u - ref)) < 1e-12

    @pytest.mark.parametrize("kind", ["cz-double", "cz-single"])
    @pytest.mark.parametrize("n_sub", [2, 4, 6, 64, 2046, 2048])
    def test_modulation_spectrum_diagonalises_the_distinct_samples(
            self, monkeypatch, cz_blocks, kind, n_sub):
        coupler, drive = presets.table_circuit().coupler, presets.fixture_drive("cz")
        eighs = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: eighs.append((math.prod(a.shape[:-2]), a.dtype)) or eigh(a))
        spectrum = modulation_spectrum(cz_blocks[kind], coupler, drive, n_sub)
        run = math.ceil(n_sub / 4)
        assert eighs == [(2 * run, np.float64)]
        # per run: every sample's eigenvalues, one overlap fewer, one basis
        dim = len(cz_blocks[kind][0])
        assert spectrum.evals.shape == (2, run, dim)
        assert spectrum.overlaps.shape == (2, run - 1, dim, dim)
        assert spectrum.evecs.shape == (2, dim, dim)

    def test_mirrored_spectrum_refuses_what_it_cannot_mirror(self):
        def h_of_t(t):
            return np.ones((len(t), 2, 2)) * (1.0 + 1e-3j)

        with pytest.raises(ValueError, match="even"):
            mirrored_spectrum(lambda t: np.zeros((len(t), 2, 2)), 1.0, 37)
        with pytest.raises(ValueError, match="even"):
            mirrored_spectrum(lambda t: np.zeros((len(t), 2, 2)), 1.0, 0)
        with pytest.raises(ValueError, match="real"):
            mirrored_spectrum(h_of_t, 1.0, 4)

    @pytest.mark.parametrize("kind", ["cz-double", "cz-single"])
    def test_spectrum_reused_across_drive_frequencies(self, cz_blocks, kind):
        # the midpoint samples of modulated_hamiltonian depend on omega_d
        # only through round-off, so one spectrum serves every period
        coupler, drive = presets.table_circuit().coupler, presets.fixture_drive("cz")
        spectrum = modulation_spectrum(cz_blocks[kind], coupler, drive, 2048)
        for wd in CZ_DRIVES:
            resampled = modulation_spectrum(cz_blocks[kind], coupler,
                                            replace(drive, omega_d=wd), 2048)
            diff = periodic_propagator(spectrum, 1.0 / wd) - periodic_propagator(resampled, 1.0 / wd)
            assert np.max(np.abs(diff)) < 1e-12

    @pytest.mark.parametrize("kind", ["cz-double", "cz-single"])
    def test_undriven_spectrum_is_the_closed_form(self, cz_blocks, kind):
        # a constant H on the mirrored path, at the step count of
        # test_constant_hamiltonian_is_exact: the round-off of a midpoint
        # product grows with n_sub (1.3e-12 at 2048 steps, 1.9e-12 for the
        # sequential product), so 64 steps hold 1e-12
        coupler = presets.table_circuit().coupler
        drive = replace(presets.fixture_drive("cz"), a_d=0.0)
        spectrum = modulation_spectrum(cz_blocks[kind], coupler, drive, 64)
        h = modulated_hamiltonian(cz_blocks[kind], coupler, drive)(0.0)
        for wd in CZ_DRIVES:
            u = periodic_propagator(spectrum, 1.0 / wd)
            assert np.max(np.abs(u - expm(-1j * h / wd))) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 25, 7500])
    def test_stroboscopic_modes_match_matrix_power(self, n):
        # diag(U^k) = w @ lambda^k for every k < n, read as the scan reads
        # |ee>.  7500 periods are about the longest read of a scan (1.5 us
        # of ~5 GHz periods); there the closed form is 4.5e-12 from
        # matrix_power, whose own powers drift from unitarity by 1.6e-12
        # (the 6.7e-16 defect of expm's u, grown), so the bound is 6e-12;
        # up to 25 periods it is 1.2e-14, held to 1e-13
        rng = np.random.default_rng(3)
        u = expm(-1j * random_hermitian(rng, 4) * 1e-7)
        evals, weights = stroboscopic_modes(u)
        diagonal = (weights @ np.vander(evals, n, increasing=True)).T
        assert diagonal.shape == (n, 4)
        exact = np.array([np.diag(np.linalg.matrix_power(u, k)) for k in range(n)])
        assert np.max(np.abs(diagonal - exact.reshape(n, 4)), initial=0.0) < (
            6e-12 if n > 25 else 1e-13)

    @pytest.mark.parametrize("split", [0.0, 1e-14])
    def test_stroboscopic_modes_of_a_degenerate_unitary(self, split):
        # random 6x6 unitaries with an eigenphase repeated exactly or split
        # by 1e-14: eig returns a non-orthonormal basis of that eigenspace
        # (cond(V) up to 3.7 here), which the weights take through V^-1.
        # Measured over these 300 draws: at most 3.0e-12 from matrix_power
        # at 2000 periods, so the bound is 4e-12
        rng = np.random.default_rng(11)
        skewed = 0
        for _ in range(300):
            z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            theta = rng.uniform(-math.pi, math.pi, 6)
            theta[1] = theta[0] + split
            u = (q * np.exp(1j * theta)) @ q.conj().T
            evals, weights = stroboscopic_modes(u)
            basis = np.linalg.eig(u)[1]
            skewed += np.max(np.abs(basis.conj().T @ basis - np.eye(6))) > 1e-6
            for k in (0, 1, 2, 3, 25, 2000):
                exact = np.diag(np.linalg.matrix_power(u, k))
                assert np.max(np.abs(weights @ evals ** k - exact)) < 4e-12
        assert skewed > 0


class TestCZScanOracle:
    """The fast CZ scan (one spectrum per driven manifold, overlap products,
    diagonal-only powers and the closed-form idle reference) against the
    same scan rebuilt from H resampled per drive frequency, step
    exponentials multiplied one at a time and ``matrix_power``, at an
    ``n_sub`` whose half is even and one whose half is odd (a self-mirrored
    middle step)."""

    MAX_DURATION = 0.8e-6

    @pytest.fixture(scope="class", params=[64, 62])
    def n_sub_scan(self, request):
        return request.param, cz_conditional_phase(
            presets.table_circuit(), presets.fixture_drive("cz"), omega_d_span=(0.0, 6e6),
            n_omega=3, max_duration=self.MAX_DURATION, n_sub=request.param)

    def test_populations_and_phases_match_sequential_scan(self, n_sub_scan, cz_blocks):
        n_sub, scan = n_sub_scan
        coupler = presets.table_circuit().coupler
        assert np.any(scan.valid)
        for i, wd in enumerate(scan.omega_d):
            period = 1.0 / wd
            n_per = int(self.MAX_DURATION / period)
            drives = (replace(presets.fixture_drive("cz"), omega_d=wd),
                      replace(presets.fixture_drive("cz"), omega_d=wd, a_d=0.0))
            m2, m1, m2_0, m1_0 = (
                np.array([np.diag(np.linalg.matrix_power(u, k)) for k in range(n_per)])
                for u in (sequential_midpoint_propagator(
                    modulated_hamiltonian(cz_blocks[kind], coupler, drive), period, n_sub)
                    for drive in drives for kind in ("cz-double", "cz-single")))
            n_cols = scan.p_ee.shape[1]
            assert np.max(np.abs(scan.p_ee[i] - np.abs(m2[:n_cols, 0]) ** 2)) < 1e-10
            if scan.valid[i]:
                n_full = int(round(scan.duration[i] / period))
                zc = (m2[n_full, 0] * np.conj(m1[n_full, 0]) * np.conj(m1[n_full, 1])
                      * np.conj(m2_0[n_full, 0]) * m1_0[n_full, 0] * m1_0[n_full, 1])
                assert abs(np.angle(zc * np.exp(-1j * scan.phase[i]))) < 1e-10


class TestRngStream:
    def test_bit_identical_sequences(self):
        a = RngStream(seed=1234, stream_id=5).generator().standard_normal(64)
        b = RngStream(seed=1234, stream_id=5).generator().standard_normal(64)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(seed=1234, stream_id=0).generator().standard_normal(8)
        b = RngStream(seed=1234, stream_id=1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_children_independent_of_chunking(self):
        s = RngStream(seed=9, stream_id=2)
        direct = [s.child(i).integers(0, 100, 4).tolist() for i in range(6)]
        chunked = []
        for chunk in ([0, 1, 2], [3], [4, 5]):
            for i in chunk:
                chunked.append(s.child(i).integers(0, 100, 4).tolist())
        assert direct == chunked
