"""Shared numerical kernels.

Conventions used across the package:

* User-facing frequencies, couplings and decay rates are cyclic (Hz, the
  ``omega/2pi`` numbers).  Dynamical formulas convert to angular units
  (``2*pi*f``) internally.
* Hamiltonian matrices handed to :func:`propagate` carry angular entries
  (energy/hbar in rad/s); collapse rates are cyclic Hz and are multiplied
  by ``2*pi`` inside the dissipator.
* Superoperators act on ``vec(rho)`` in row-major order; :func:`liouvillian`
  builds the Lindblad generator in that convention for every caller: the
  ``leakage-rb`` windows exponentiate it, and :func:`propagate` integrates
  its dissipator with DOP853, the package's one master-equation integrator.

The periodic-propagator engine, shared by the Floquet oracle and the CZ
calibration, has two steps.  :func:`midpoint_spectrum` samples a vectorised
``h_of_t`` at the step midpoints of one period, diagonalises the samples in
one batched ``eigh`` and forms the overlaps ``O_k = V_(k+1)^dag V_k`` of
neighbouring eigenbases in one batched product; :func:`periodic_propagator`
turns that spectrum into the one-period propagator for a given period
(midpoint piecewise-exact product).  Per period only the step phases
``D_k = exp(-i E_k dt)`` change: they scale the columns of the overlaps, and
the scaled stack is multiplied pairwise in log depth.  Both callers hand it
the lab-frame H(t) of :func:`couplersim.floquet.modulated_hamiltonian`,
whose midpoint samples do not depend on the drive frequency, so they
diagonalise once per drive amplitude and reuse the spectrum across a scan
of drive frequencies.  :func:`stroboscopic_powers` stacks the powers of the
result; :func:`stroboscopic_diagonal` gives only their diagonals, in a
baby-step giant-step split that never forms the full stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs yield bit-identical sequences.
    Parallel work partitions by ``stream_id`` (or by :meth:`child` keys),
    never by splitting a single generator.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id]))
        )

    def child(self, key: int) -> np.random.Generator:
        """Generator for a sub-task, independent of how work is chunked."""
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id, key]))
        )


def taylor_coefficients(
    func: Callable[[np.ndarray], np.ndarray],
    center: float,
    order: int,
    radius: float,
) -> np.ndarray:
    """Derivatives ``d^k f / dx^k`` at ``center`` for k = 0..order.

    Cauchy-integral evaluation on a circle of given radius in the complex
    plane (trapezoidal rule, exponentially accurate for analytic ``func``).
    ``func`` must accept complex ndarray input and be analytic within the
    circle.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = 1 << max(8, int(math.ceil(math.log2(8 * (order + 1)))))
    theta = TWO_PI * np.arange(n) / n
    z = center + radius * np.exp(1j * theta)
    vals = np.asarray(func(z), dtype=complex)
    coeffs = np.fft.fft(vals) / n
    k = np.arange(order + 1)
    taylor = coeffs[: order + 1] / radius ** k
    return np.real(taylor) * np.array([math.factorial(j) for j in k], dtype=float)


# ---------------------------------------------------------------------------
# open-system propagation
# ---------------------------------------------------------------------------

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


def liouvillian(hamiltonian: np.ndarray, collapse_rates: Sequence[tuple]) -> np.ndarray:
    """Lindblad generator as a ``(d^2, d^2)`` matrix in the row-major vec
    convention, ``vec(rho)[i*d + j] = rho[i, j]``, so that ``U rho U^dag``
    is ``kron(U, U.conj())``.  ``hamiltonian`` in rad/s; ``collapse_rates``
    as in :func:`propagate`."""
    h = np.asarray(hamiltonian, dtype=complex)
    ident = np.eye(h.shape[0])
    liou = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for op, rate in collapse_rates:
        if rate != 0.0:
            c = math.sqrt(TWO_PI * abs(rate)) * np.asarray(op, dtype=complex)
            cc = c.conj().T @ c
            liou += np.kron(c, c.conj()) - 0.5 * (np.kron(cc, ident) + np.kron(ident, cc.T))
    return liou


def propagate(
    hamiltonian: np.ndarray | Callable[[float], np.ndarray],
    collapse_rates: Sequence[tuple[np.ndarray, float]],
    initial_state: np.ndarray,
    duration: float,
    t_eval: np.ndarray | None = None,
) -> np.ndarray:
    """Propagate a density matrix under the Lindblad master equation.

    DOP853 integrates the master equation with its step bounded by
    ``min(1/(20 f_max), duration)``, where ``f_max`` is the fastest
    frequency (Hz) among the spectral widths of H at the start, middle and
    end of the window and the collapse rates.  With
    :func:`couplersim.dynamics.qutrit_resonator_model` it is the ODE oracle
    of the ``reset-dynamics`` and ``lr-dynamics`` closed forms.

    Parameters
    ----------
    hamiltonian : ndarray or callable
        Hermitian matrix in angular units (rad/s), or a function of time
        returning one.
    collapse_rates : sequence of (operator, rate_hz)
        Jump operators with cyclic rates; the dissipator uses
        ``C = sqrt(2*pi*rate) * operator``.
    initial_state : ndarray
        Density matrix (Hermitian, unit trace, positive semidefinite).
    duration : float
        Evolution time in seconds.
    t_eval : ndarray, optional
        If given, return the trajectory ``rho(t)`` at these times
        (shape ``(len(t_eval), d, d)``) instead of the final state.

    Returns
    -------
    ndarray
        ``rho(duration)``, or the trajectory when ``t_eval`` is given.
    """
    from scipy.integrate import solve_ivp

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
    """State-vector evolution (no dissipation); H in rad/s.  Test oracle of
    :func:`periodic_propagator` (``cz-chevron``) and of the closed-form
    drive-frame dynamics (``floquet-report``)."""
    from scipy.integrate import solve_ivp

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


# ---------------------------------------------------------------------------
# periodic propagation
# ---------------------------------------------------------------------------

def midpoint_spectrum(h_of_t: Callable[[np.ndarray], np.ndarray], period: float,
                      n_sub: int):
    """Eigen-decomposition of H at the midpoints of ``n_sub`` equal steps of
    one period, the input of :func:`periodic_propagator`.

    ``h_of_t(times)`` returns the Hamiltonians (rad/s) at an array of times
    as an ``(n, d, d)`` stack; it is sampled once and diagonalised by one
    batched ``eigh``.  Returns ``(E, V, O)``: the eigenvalues ``E`` of shape
    ``(n_sub, d)``, the eigenvectors ``V`` of shape ``(n_sub, d, d)`` and
    the overlaps ``O_k = V_(k+1)^dag V_k`` of neighbouring steps, shape
    ``(n_sub - 1, d, d)``.  If H depends on time only through the phase
    ``t / period`` of a periodic drive, the samples, and so the spectrum,
    do not depend on the period: one spectrum serves every drive frequency
    of a scan.  A constant H needs one sample (and has no overlaps).
    """
    if n_sub < 1:
        raise ValueError(f"n_sub must be a positive integer, got {n_sub}")
    evals, evecs = np.linalg.eigh(h_of_t((np.arange(n_sub) + 0.5) * (period / n_sub)))
    return evals, evecs, np.conj(np.swapaxes(evecs[1:], -1, -2)) @ evecs[:-1]


def periodic_propagator(spectrum, period: float) -> np.ndarray:
    """Propagator over one period (midpoint piecewise-exact product).

    ``spectrum`` is the ``(E, V, O)`` triple of :func:`midpoint_spectrum`;
    step ``k`` lasts ``dt = period / n_sub`` and is exponentiated exactly,
    ``V_k D_k V_k^dag`` with ``D_k = exp(-i E_k dt)``.  Between neighbouring
    steps the eigenbases meet in the overlaps, so

        U = (V_(n-1) D_(n-1)) O_(n-2) D_(n-2) ... O_0 D_0 V_0^dag,

    where each ``O_k D_k`` is a column scaling of a stored overlap.  These
    are multiplied in time order (later steps to the left) by pairwise
    products in ``log2(n_sub)`` batched rounds.  With a one-sample spectrum
    of a constant H this is the closed form ``V exp(-i E T) V^dag``.
    """
    evals, evecs, overlaps = spectrum
    phases = np.exp(-1j * (period / len(evals)) * evals)
    mats = overlaps * phases[:-1, None, :]
    while len(mats) > 1:
        pairs = mats[1::2] @ mats[:len(mats) - 1:2]
        mats = np.concatenate([pairs, mats[-1:]]) if len(mats) % 2 else pairs
    last = evecs[-1] * phases[-1]
    if len(mats):
        last = last @ mats[0]
    return last @ np.conj(evecs[0].T)


def stroboscopic_powers(u: np.ndarray, n: int) -> np.ndarray:
    """Stack of the powers ``U^0 ... U^(n-1)`` of a one-period propagator,
    shape ``(n, d, d)``, built by doubling: with ``U^0 ... U^(m-1)`` in
    place, one batched product by ``U^m`` fills ``U^m ... U^(2m-1)``, so
    about ``log2(n)`` products in all."""
    powers = np.empty((n, *u.shape), dtype=complex)
    powers[:1] = np.eye(u.shape[0])
    u_m, m = u, 1
    while m < n:
        block = min(m, n - m)
        np.matmul(u_m, powers[:block], out=powers[m:m + block])
        u_m, m = u_m @ u_m, 2 * m
    return powers


def stroboscopic_diagonal(u: np.ndarray, n: int) -> np.ndarray:
    """Diagonals of the powers ``U^0 ... U^(n-1)``, shape ``(n, d)``,
    without the full stack of :func:`stroboscopic_powers`.

    With ``m = ceil(sqrt(n))`` and ``k = q m + r``,
    ``diag(U^k)_j = sum_l (U^r)_jl (U^(qm))_lj``: the ``m`` baby steps
    ``U^r`` and the giant steps ``U^(qm)`` come from two doubling stacks of
    about ``sqrt(n)`` matrices, and every diagonal from one batched matmul
    over ``j``.
    """
    if n == 0:
        return np.empty((0, u.shape[0]), dtype=complex)
    m = math.isqrt(n - 1) + 1
    baby = stroboscopic_powers(u, m + 1)
    giant = stroboscopic_powers(baby[m], -(-n // m))
    # [j, q, l] @ [j, l, r] -> [j, q, r], flattened to k = q m + r
    diag = np.transpose(giant, (2, 0, 1)) @ np.transpose(baby[:m], (1, 2, 0))
    return np.transpose(diag, (1, 2, 0)).reshape(-1, u.shape[0])[:n]
