"""Test oracles: independent models of scenario quantities that no scenario
runs, so they live with the tests and not in the package.

* ``build_hamiltonian``: full non-RWA circuit H, for the manifold blocks of every driven scenario.
* ``at_flux``, ``static_zz_shift``: idle ZZ of the cz-chevron manifolds at a coupler flux point.
* ``temperature_to_population``: roundtrip of the reset-metrics temperatures.
* ``envelope_value``: pulse envelope, quadrature of the reset-dynamics pulse area.
* ``propagate``: Lindblad ODE of the reset-dynamics and lr-dynamics closed forms.
* ``schrodinger_propagate``: ODE of the cz-chevron propagator and floquet-report frames.
* ``sequential_midpoint_propagator``: one-at-a-time midpoint product of the cz-chevron scan.
* ``quasi_energy_gap``: exact Floquet gap, for the floquet-report couplings.
* ``find_parametric_resonance``: exact dressed resonance, for the cz-chevron Rabi frequencies.
* ``swap_coupling``: exact coupler elimination of a floquet-report k = 2 frame.
* ``calibrate_drive_amplitude``: the fixture drive amplitudes of floquet-report.
* ``steady_state_leakage``: power iteration, for the leakage-rb ``a2_closed_forms``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from couplersim.circuit import (ELEMENTS, CircuitSpec, CouplerSpec, _hamiltonian_hz,
                                coupler_frequency, manifold_hamiltonian)
from couplersim.dynamics import EDGE_SIGMAS, EnvelopeSpec
from couplersim.floquet import (DriveSpec, EffectiveFrame, TransitionManifold, ValidityWarning,
                                effective_coupling, fourier_decompose, k2_closed_forms,
                                modulation_spectrum, transition_manifold)
from couplersim.numerics import TWO_PI, liouvillian, periodic_propagator
from couplersim.presets import fixture_drive, table_circuit
from couplersim.protocols import _CZ_DOUBLE, _CZ_SINGLE, BOLTZMANN_K, PLANCK_H
from couplersim.rbsim import RBScenario, cycle_matrix

#: upper end of the amplitude search of :func:`calibrate_drive_amplitude`
A_MAX = 1.1

#: stopping rule of the steady-state power iteration
_POWER_TOL = 1e-14
_POWER_MAX_ITER = 2_000_000


def build_hamiltonian(spec: CircuitSpec, truncation: dict) -> np.ndarray:
    """The full circuit Hamiltonian (``circuit._hamiltonian_hz``, non-RWA)
    with ``truncation[el]`` levels per element, assembled in Hz and scaled
    to rad/s once."""
    return TWO_PI * _hamiltonian_hz(spec, [truncation[el] for el in ELEMENTS])


def at_flux(circuit: CircuitSpec, phi_ext: float) -> CircuitSpec:
    """Copy of ``circuit`` with the coupler frequency evaluated at the given
    flux."""
    return replace(circuit, omega={**circuit.omega,
                                   "C": float(coupler_frequency(phi_ext, circuit.coupler))})


def static_zz_shift(circuit: CircuitSpec, phi_dc: float) -> float:
    """Idle ZZ interaction (Hz) at a coupler flux point:

        zeta = E_ee - E_eg - E_ge + E_gg

    from dense diagonalisation of the excitation manifolds of the circuit at
    that flux (E_gg = 0: the zero-excitation block is |gg> alone).  Flux
    points with small |zeta| are natural two-qubit-gate operating points.
    """
    biased = at_flux(circuit, phi_dc)
    w = circuit.omega
    ev2 = np.linalg.eigvalsh(manifold_hamiltonian(biased, _CZ_DOUBLE))
    ev1 = np.linalg.eigvalsh(manifold_hamiltonian(biased, _CZ_SINGLE))
    e_ee = ev2[np.argmin(np.abs(ev2 - (w["Q1"] + w["Q2"])))]
    e_eg = ev1[np.argmin(np.abs(ev1 - w["Q1"]))]
    e_ge = ev1[np.argmin(np.abs(ev1 - w["Q2"]))]
    return float(e_ee - e_eg - e_ge)


def temperature_to_population(temperature: float, omega_q: float) -> float:
    """Inverse of ``protocols.population_to_temperature`` (exact
    roundtrip)."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    x = math.exp(-PLANCK_H * omega_q / (BOLTZMANN_K * temperature))
    return x / (1.0 + x)


def _edge(u: np.ndarray, sigma: float) -> np.ndarray:
    """Offset-subtracted Gaussian edge; u is distance from the plateau."""
    cut = math.exp(-(EDGE_SIGMAS ** 2) / 2.0)
    return (np.exp(-(u / sigma) ** 2 / 2.0) - cut) / (1.0 - cut)


def envelope_value(t, env: EnvelopeSpec):
    """Envelope amplitude at time t (0 outside the pulse window)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t >= 0) & (t <= env.total_length)
    plateau = inside & (t >= env.rise_end) & (t <= env.fall_start)
    out[plateau] = 1.0
    if env.sigma_rise > 0:
        rising = inside & (t < env.rise_end)
        out[rising] = _edge(env.rise_end - t[rising], env.sigma_rise)
    if env.sigma_fall > 0:
        falling = inside & (t > env.fall_start)
        out[falling] = _edge(t[falling] - env.fall_start, env.sigma_fall)
    return out if out.ndim else float(out)


def _check_density_matrix(rho: np.ndarray) -> None:
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("initial state must be a square matrix")
    if np.linalg.norm(rho - rho.conj().T) > 1e-9 * max(1.0, np.linalg.norm(rho)):
        raise ValueError("initial state must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-12:
        raise ValueError("initial state must have unit trace")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-9:
        raise ValueError(f"initial state not positive semidefinite (min eig {evals.min():.2e})")


def _max_frequency_hz(h_samples: Sequence[np.ndarray], collapse: Sequence[tuple]) -> float:
    f = 0.0
    for h in h_samples:
        ev = np.linalg.eigvalsh(h)
        f = max(f, float(ev.max() - ev.min()) / TWO_PI)
    for _, rate_hz in collapse:
        f = max(f, abs(rate_hz))
    return f


def propagate(
    hamiltonian: np.ndarray | Callable[[float], np.ndarray],
    collapse_rates: Sequence[tuple[np.ndarray, float]],
    initial_state: np.ndarray,
    duration: float,
    t_eval: np.ndarray | None = None,
) -> np.ndarray:
    """``rho(duration)`` under the Lindblad master equation, or the
    trajectory at the times ``t_eval`` (shape ``(len(t_eval), d, d)``).

    ``hamiltonian`` is a Hermitian matrix in rad/s or a function of time
    returning one; ``collapse_rates`` are ``(operator, rate_hz)`` pairs as
    ``numerics.liouvillian`` takes them; ``initial_state`` is a density
    matrix.  DOP853 integrates the master equation with its step bounded by
    ``min(1/(20 f_max), duration)``, where ``f_max`` is the fastest
    frequency (Hz) among the spectral widths of H at the start, middle and
    end of the window and the collapse rates.
    """
    rho0 = np.asarray(initial_state, dtype=complex)
    _check_density_matrix(rho0)
    d = rho0.shape[0]

    static = not callable(hamiltonian)
    h_fn = (lambda t, _h=np.asarray(hamiltonian, dtype=complex): _h) if static else hamiltonian
    h_probe = [h_fn(0.0)]
    if not static:
        h_probe += [h_fn(duration / 2), h_fn(duration)]
    for h in h_probe:
        if h.shape != (d, d):
            raise ValueError("Hamiltonian dimension does not match state")
        if np.linalg.norm(h - h.conj().T) > 1e-6 * max(1.0, np.linalg.norm(h)):
            raise ValueError("Hamiltonian must be Hermitian")

    dissipator = liouvillian(np.zeros((d, d)), collapse_rates)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        rho = y.reshape(d, d)
        h = h_fn(t)
        return (-1j * (h @ rho - rho @ h)).reshape(-1) + dissipator @ y

    f_max = _max_frequency_hz(h_probe, collapse_rates)
    max_step = min(1.0 / (20.0 * f_max), duration) if f_max > 0 else duration
    sol = solve_ivp(
        rhs, (0.0, duration), rho0.reshape(-1), method="DOP853",
        t_eval=t_eval, rtol=1e-10, atol=1e-12, max_step=max_step,
    )
    if not sol.success:
        raise RuntimeError(f"propagation failed: {sol.message}")
    out = sol.y.T.reshape(-1, d, d)
    traces = np.einsum("tii->t", out).real
    if np.max(np.abs(traces - traces[0])) > 1e-9:
        raise RuntimeError("trace drifted by more than 1e-9 during propagation")
    return out if t_eval is not None else out[-1]


def schrodinger_propagate(
    hamiltonian: np.ndarray | Callable[[float], np.ndarray],
    psi0: np.ndarray,
    t_eval: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_step: float | None = None,
) -> np.ndarray:
    """State-vector evolution (no dissipation); H in rad/s."""
    psi0 = np.asarray(psi0, dtype=complex)
    static = not callable(hamiltonian)
    h_fn = (lambda t, _h=np.asarray(hamiltonian, dtype=complex): _h) if static else hamiltonian

    def rhs(t, y):
        return -1j * (h_fn(t) @ y)

    kwargs = {} if max_step is None else {"max_step": max_step}
    sol = solve_ivp(rhs, (float(t_eval[0]), float(t_eval[-1])), psi0,
                    method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol, **kwargs)
    if not sol.success:
        raise RuntimeError(f"propagation failed: {sol.message}")
    return sol.y.T


def sequential_midpoint_propagator(h_of_t: Callable, period: float, n_sub: int) -> np.ndarray:
    """The midpoint piecewise-exact product over one period with H resampled
    for this period at all ``n_sub`` midpoints, each step exponential formed
    from its own ``eigh`` and multiplied one at a time."""
    dt = period / n_sub
    evals, evecs = np.linalg.eigh(h_of_t((np.arange(n_sub) + 0.5) * dt))
    steps = np.einsum("nij,nj,nkj->nik", evecs, np.exp(-1j * evals * dt), evecs.conj())
    u = np.eye(steps.shape[1], dtype=complex)
    for s in steps:
        u = s @ u
    return u


def _branch_gap(u: np.ndarray, wd: float) -> float:
    """Quasi-energy splitting (Hz) of the two Floquet branches of the
    one-period propagator ``u`` with most weight on states A and B."""
    ev, vec = np.linalg.eig(u)
    eps = -np.angle(ev) * wd / TWO_PI  # Hz, defined mod omega_d

    weights = np.abs(vec[0, :]) ** 2 + np.abs(vec[1, :]) ** 2
    idx = np.argsort(weights)[-2:]
    de = eps[idx[0]] - eps[idx[1]]
    de = (de + wd / 2.0) % wd - wd / 2.0
    return abs(de)


def quasi_energy_gap(
    manifold: TransitionManifold,
    coupler: CouplerSpec,
    drive: DriveSpec,
    n_sub: int = 4096,
) -> float:
    """Quasi-energy splitting (Hz) of the A- and B-like Floquet branches.

    The eigenphases of the lab-frame one-period propagator of
    ``floquet.modulated_hamiltonian`` give the quasi-energies
    (frame-independent modulo ``omega_d``); the avoided-crossing gap equals
    twice the exact effective coupling.
    """
    spectrum = modulation_spectrum(manifold.block, coupler, drive, n_sub)
    return _branch_gap(periodic_propagator(spectrum, 1.0 / drive.omega_d), drive.omega_d)


def find_parametric_resonance(
    manifold: TransitionManifold,
    coupler: CouplerSpec,
    drive: DriveSpec,
    span: float = 30e6,
    n_coarse: int = 25,
    n_sub: int = 2048,
) -> tuple[float, float]:
    """Locate the dressed resonance: the drive frequency minimising the
    quasi-energy gap.  Returns ``(omega_d_star, gap_hz)``.

    The drive amplitude is fixed, so one ``modulation_spectrum`` serves the
    coarse grid and the bounded search."""
    w0 = manifold.bare_drive_frequency
    spectrum = modulation_spectrum(manifold.block, coupler, drive, n_sub)

    def gap(wd: float) -> float:
        return _branch_gap(periodic_propagator(spectrum, 1.0 / wd), wd)

    grid = w0 + np.linspace(-span, span, n_coarse)
    gaps = [gap(w) for w in grid]
    i = int(np.argmin(gaps))
    lo = grid[max(0, i - 1)]
    hi = grid[min(n_coarse - 1, i + 1)]
    res = minimize_scalar(gap, bounds=(lo, hi), method="bounded",
                          options={"xatol": span * 1e-5})
    return float(res.x), float(res.fun)


def frame_matrix(frame: EffectiveFrame, delta_b: float) -> np.ndarray:
    """Effective 3x3 drive-frame Hamiltonian (Hz).

    ``delta_b`` is the bare B-state detuning ``(omega_B - omega_A) -
    k*omega_D`` left after the rotating transformation; zero exactly on
    the bare resonance.
    """
    return np.array([
        [frame.omega_tilde_a, frame.g_tilde_ab, frame.g_tilde_ac],
        [frame.g_tilde_ab, delta_b + frame.omega_tilde_b, frame.g_tilde_bc],
        [frame.g_tilde_ac, frame.g_tilde_bc, frame.delta_tilde_c],
    ])


def _qubit_gap(frame: EffectiveFrame, delta_b: float) -> float:
    evals = np.linalg.eigvalsh(frame_matrix(frame, delta_b))
    low = np.sort(evals[np.argsort(np.abs(evals - frame.omega_tilde_a))[:2]])
    return float(low[1] - low[0])


def dressed_resonance_offset(frame: EffectiveFrame) -> float:
    """B-state detuning ``delta_b`` at which the dressed A and B branches
    anticross (the dressed-resonance condition), searched within ten
    times the largest frame entry plus 20 MHz."""
    scale = max(abs(frame.omega_tilde_a), abs(frame.omega_tilde_b),
                abs(frame.g_tilde_ab), 1e5)
    window = 10.0 * scale + 20e6
    res = minimize_scalar(lambda delta_b: _qubit_gap(frame, delta_b),
                          bounds=(-window, window), method="bounded", options={"xatol": 1e-2})
    return float(res.x)


def swap_coupling(frame: EffectiveFrame) -> float:
    """Exact effective A-B coupling of a frame (Hz): half the minimum
    eigenvalue splitting of the 3x3 drive-frame matrix over the B-state
    detuning (exact coupler elimination).

    The perturbative coupler elimination with the conventional
    second-order weight is ``g~_AB - g~_AC g~_CB / Delta~_C``, which this
    quantity reproduces to O((g/Delta)^2); the correction returned by
    ``floquet.schrieffer_wolff_correction`` counts the virtual path with
    twice that weight, as printed in its source.
    """
    return 0.5 * _qubit_gap(frame, dressed_resonance_offset(frame))


def calibrate_drive_amplitude(kind: str, target_coupling: float) -> float:
    """Fixture calibration: the amplitude of the fixture drive of ``kind``
    (``presets.fixture_drive``: its static flux offset, frequency and
    harmonic) whose closed-form effective coupling magnitude on the
    reference circuit equals ``target_coupling``, searched up to ``A_MAX``.

    Uses the k = 2 closed forms with the exact coupler elimination for the
    second-harmonic operations and the leading-order formula for k = 1,
    so it raises ``ValueError`` where those do (a Bessel argument beyond
    20, reachable only with a low drive frequency or a wide coupler band).
    """
    circuit, fixture = table_circuit(), fixture_drive(kind)
    man = transition_manifold(circuit, kind)

    def coupling(a: float) -> float:
        drive = replace(fixture, a_d=a)
        spec = fourier_decompose(drive, circuit.coupler)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            if man.k == 2:
                return abs(swap_coupling(k2_closed_forms(man, drive, spec)))
            return abs(effective_coupling(man.g_ac, man.g_bc, man.k, drive.omega_d, spec))

    return brentq(lambda a: coupling(a) - target_coupling, 1e-4, A_MAX, xtol=1e-13)


def steady_state_leakage(scenario: RBScenario, with_lr: bool) -> float:
    """Equilibrium P_f by power iteration of the cycle matrix: at most
    ``_POWER_MAX_ITER`` steps, stopping when no entry moves by
    ``_POWER_TOL``.

    A rate-equation value, the incoherent limit of the Monte Carlo model
    (see the ``rbsim`` module docstring)."""
    m = cycle_matrix(scenario, with_lr)
    vec = np.array([1.0, 0.0, 0.0])
    for _ in range(_POWER_MAX_ITER):
        new = m @ vec
        if np.max(np.abs(new - vec)) < _POWER_TOL:
            return float(new[1])
        vec = new
    warnings.warn("power iteration did not converge to tolerance", UserWarning, stacklevel=2)
    return float(vec[1])
