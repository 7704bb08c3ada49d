"""Shared numerical kernels.

Conventions used across the package:

* User-facing frequencies, couplings and decay rates are cyclic (Hz, the
  ``omega/2pi`` numbers).  Dynamical formulas convert to angular units
  (``2*pi*f``) internally.
* Hamiltonian matrices handed to :func:`liouvillian` and the periodic
  propagator carry angular entries (energy/hbar in rad/s); collapse rates
  are cyclic Hz and are multiplied by ``2*pi`` inside the dissipator.
* Superoperators act on ``vec(rho)`` in row-major order; :func:`liouvillian`
  builds the Lindblad generator in that convention, and the ``leakage-rb``
  windows exponentiate it.  The package integrates no master equation in
  time: the Lindblad ODE oracle of the closed forms, ``propagate``, lives
  with the tests (``tests/oracles.py``) and takes its dissipator from here.

The periodic-propagator engine, shared by the CZ calibration and the
Floquet oracle of the tests, has two steps.  :func:`midpoint_spectrum` samples a vectorised
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
    """Taylor coefficients ``f^(k)(center) / k!`` for k = 0..order.

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
    return np.real(coeffs[: order + 1] / radius ** np.arange(order + 1))


# ---------------------------------------------------------------------------
# Lindblad generator
# ---------------------------------------------------------------------------

def liouvillian(hamiltonian: np.ndarray, collapse_rates: Sequence[tuple]) -> np.ndarray:
    """Lindblad generator as a ``(d^2, d^2)`` matrix in the row-major vec
    convention, ``vec(rho)[i*d + j] = rho[i, j]``, so that ``U rho U^dag``
    is ``kron(U, U.conj())``.  ``hamiltonian`` in rad/s; ``collapse_rates``
    is a sequence of ``(operator, rate_hz)``, jump operators with cyclic
    rates, and the dissipator uses ``C = sqrt(2*pi*rate) * operator``."""
    h = np.asarray(hamiltonian, dtype=complex)
    ident = np.eye(h.shape[0])
    liou = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for op, rate in collapse_rates:
        if rate != 0.0:
            c = math.sqrt(TWO_PI * abs(rate)) * np.asarray(op, dtype=complex)
            cc = c.conj().T @ c
            liou += np.kron(c, c.conj()) - 0.5 * (np.kron(cc, ident) + np.kron(ident, cc.T))
    return liou


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
