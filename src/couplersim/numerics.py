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
Floquet oracle of the tests, has two steps and one layout.  It needs an
H(t) that is real symmetric and mirrors within each half period, and an
even ``n_sub``: the midpoint samples of one period then repeat in two
mirror runs, ``k <-> n/2 - 1 - k`` and ``n/2 + k <-> n - 1 - k``.
:func:`mirrored_spectrum` samples only the first ``ceil(n_sub / 4)`` of
each half period, diagonalises them in one batched ``eigh`` and forms the
overlaps ``O_k = V_(k+1)^T V_k`` of neighbouring eigenbases in one
batched product, a :class:`MidpointSpectrum`; :func:`periodic_propagator`
turns it into the one-period propagator for a given period (midpoint
piecewise-exact product).  Per period only the step phases ``D_k = exp(-i
E_k dt)`` change: they scale the columns of the overlaps, the scaled
stack of each quarter run ``Q`` is multiplied pairwise in log depth, and
each half period is ``Q^T Q`` (the steps are complex symmetric, so ``Q^T``
is the reversed run).

Both callers reach the engine through
:func:`couplersim.floquet.modulation_spectrum`, whose samples do not
depend on the drive frequency: one spectrum per drive amplitude serves a
scan.  :func:`stroboscopic_modes` reads the powers of the result from one
``eig``: ``diag(U^k) = w @ lambda^k`` for every period ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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

class MidpointSpectrum(NamedTuple):
    """Eigen-decomposition of H at the mirror-distinct step midpoints of one
    period (:func:`mirrored_spectrum`), the input of
    :func:`periodic_propagator`: two runs, one per half period, of
    ``r = ceil(n_sub / 4)`` samples each.  ``evals`` has shape
    ``(2, r, d)``, the real overlaps ``O_k = V_(k+1)^T V_k`` of neighbouring
    samples ``(2, r - 1, d, d)``, and ``evecs`` holds the real eigenvectors
    of each run's first sample, ``(2, d, d)``.  ``n_sub``, even, is the
    number of steps per period.
    """

    evals: np.ndarray
    evecs: np.ndarray
    overlaps: np.ndarray
    n_sub: int


def mirrored_spectrum(h_of_t: Callable[[np.ndarray], np.ndarray], period: float,
                      n_sub: int) -> MidpointSpectrum:
    """:class:`MidpointSpectrum` of an H that mirrors within each half
    period, at an even ``n_sub``.

    ``h_of_t(times)`` returns the Hamiltonians (rad/s) at an array of times
    as an ``(n, d, d)`` stack.  Preconditions, which the caller guarantees:
    H is real symmetric, and ``H(T/2 - t) = H(t) = H(3T/2 - t)`` for the
    period ``T``.  Then the midpoint samples repeat as ``k <-> n/2 - 1 - k``
    and ``n/2 + k <-> n - 1 - k``, so only the first ``r = ceil(n_sub / 4)``
    of each half period are sampled (one batched real ``eigh`` over the
    ``2 r``), and :func:`periodic_propagator` rebuilds the mirrored rest.
    If H depends on time only through the phase ``t / period`` of a
    periodic drive, the samples, and so the spectrum, do not depend on the
    period: one spectrum serves every drive frequency of a scan.  An odd
    ``n_sub`` and a sample with an imaginary part raise ``ValueError``; the
    mirror itself is not checked.
    """
    if n_sub < 2 or n_sub % 2:
        raise ValueError(f"n_sub must be a positive even integer, got {n_sub}")
    half, run = n_sub // 2, (n_sub + 2) // 4
    k = np.arange(run)
    samples = h_of_t((np.concatenate([k, half + k]) + 0.5) * (period / n_sub))
    if np.any(samples.imag):
        raise ValueError("a mirrored spectrum needs a real symmetric H(t)")
    evals, evecs = np.linalg.eigh(samples.real.reshape(2, run, *samples.shape[1:]))
    overlaps = np.swapaxes(evecs[:, 1:], -1, -2) @ evecs[:, :-1]
    return MidpointSpectrum(evals, evecs[:, 0].copy(), overlaps, n_sub)


def periodic_propagator(spectrum: MidpointSpectrum, period: float) -> np.ndarray:
    """Propagator over one period (midpoint piecewise-exact product).

    Step ``k`` of ``spectrum`` lasts ``dt = period / n_sub`` and is
    exponentiated exactly, ``S_k = V_k D_k V_k^T`` with
    ``D_k = exp(-i E_k dt)``.  Between neighbouring steps the eigenbases
    meet in the overlaps, so the quarter run ``Q`` of each half period is

        S_(r-1) ... S_0 = (V_(r-1) D_(r-1)) O_(r-2) D_(r-2) ... O_0 D_0 V_0^T,

    where each ``O_k D_k`` is a column scaling of a stored overlap.  These
    are multiplied in time order (later steps to the left) by pairwise
    products in ``log2 r`` batched rounds, both runs at once.  The steps
    are complex symmetric (``S_k^T = S_k``, as H is real), so the reversed
    run is ``Q^T`` and a half period is ``P = Q^T Q``.  When ``n_sub / 2``
    is odd, the middle step mirrors onto itself: it is stored once, as
    ``Q``'s last sample, and each of ``Q`` and ``Q^T`` takes it for
    ``dt / 2``.  Then ``U = P_2 P_1``.
    """
    evals, evecs, overlaps, n_sub = spectrum
    steps = np.full(evals.shape[1], period / n_sub)
    if n_sub // 2 % 2:
        steps[-1] /= 2
    phases = np.exp(-1j * steps[:, None] * evals)
    mats = overlaps * phases[:, :-1, None, :]
    while mats.shape[1] > 1:
        n = mats.shape[1]
        pairs = mats[:, 1::2] @ mats[:, :n - 1:2]
        mats = np.concatenate([pairs, mats[:, -1:]], axis=1) if n % 2 else pairs
    quarter = np.swapaxes(evecs, -1, -2)
    if mats.shape[1]:
        quarter = mats[:, 0] @ quarter
    # Q in the eigenbasis of its last sample, V_(r-1)^T Q; that basis
    # cancels in Q^T Q
    quarter = phases[:, -1, :, None] * quarter
    halves = np.swapaxes(quarter, -1, -2) @ quarter
    return halves[1] @ halves[0]


def stroboscopic_modes(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``lambda`` of a one-period propagator and the weights
    ``w_jl = V_jl (V^-1)_lj`` of its eigenvectors ``V``, from one ``eig``,
    so that the diagonal of every power is ``diag(U^k) = w @ lambda^k``
    (Floquet: ``lambda_l = exp(-i eps_l T)``).  The inverse, not ``V^dag``,
    keeps the sum exact when ``eig`` returns a non-orthonormal basis of a
    (near-)degenerate eigenspace."""
    evals, evecs = np.linalg.eig(u)
    return evals, evecs * np.linalg.inv(evecs).T
