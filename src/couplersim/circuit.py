"""Static circuit model: element parameters, flux-tunable coupler frequency
and the truncated system Hamiltonian.

Elements are labelled ``Q1, Q2, C, R``; tensor factors are ordered the same
way everywhere in the package (Q1 x Q2 x C x R).  Flux ``phi_ext`` is the
phase argument entering the junction interference directly (period pi in
E_J); flux in units of Phi_0 maps as ``phi_ext = pi * Phi / Phi_0``.

This module is the one place that knows the coupling convention and the
bosonic matrix elements.  :func:`manifold_hamiltonian` returns a block of
the full (non-RWA) circuit Hamiltonian in Hz between chosen occupation
tuples.  Every reduced model of the package (the driven transition
manifolds, the CZ excitation manifolds) is such a block: restricted to
states of equal total excitation it is number conserving, so
counter-rotating terms drop out by construction.  The full matrix at a
chosen truncation is the test oracle ``build_hamiltonian`` of
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

ELEMENTS = ("Q1", "Q2", "C", "R")


@dataclass(frozen=True)
class CouplerSpec:
    """SQUID-based tunable coupler junction parameters (all energies E/h, Hz).

    ``e_sigma`` is the sum of the two junction Josephson energies, ``d`` their
    asymmetry and ``e_c`` the charging energy.
    """

    e_sigma: float
    d: float
    e_c: float

    def __post_init__(self):
        if self.e_sigma <= 0:
            raise ValueError("e_sigma must be positive")
        if self.e_c <= 0:
            raise ValueError("e_c must be positive")
        if not 0.0 <= self.d <= 1.0:
            raise ValueError("asymmetry d must lie in [0, 1]")


def josephson_energy(phi_ext, spec: CouplerSpec):
    """Effective Josephson energy E_J(phi_ext) in Hz.

    Uses the singularity-free form ``E_sigma * sqrt(cos^2 + d^2 sin^2)``,
    equivalent to ``E_sigma |cos| sqrt(1 + d^2 tan^2)`` but regular at
    phi = pi/2.  Accepts real or complex array input (complex analyticity is
    used by the Fourier-coefficient machinery).
    """
    phi = np.asarray(phi_ext)
    c, s = np.cos(phi), np.sin(phi)
    val = spec.e_sigma * np.sqrt(c * c + (spec.d * s) ** 2)
    return val if val.ndim else val[()]


def coupler_frequency(phi_ext, spec: CouplerSpec):
    """Coupler transition frequency ``sqrt(8 E_J E_C) - E_C`` in Hz.

    The asymptotic transmon expression is used as-is; no charge-dispersion
    corrections.
    """
    ej = josephson_energy(phi_ext, spec)
    return np.sqrt(8.0 * ej * spec.e_c) - spec.e_c


def coupler_spec_from_band(omega_min: float, omega_max: float, alpha_c: float) -> CouplerSpec:
    """Reverse-fit (E_sigma, d, E_C) from the coupler tuning band.

    The junction parameters are not independently known; this fixture pins
    them to the band endpoints ``omega_C(0) = omega_max``,
    ``omega_C(pi/2) = omega_min`` and ``E_C = -alpha_c``.
    """
    if alpha_c >= 0:
        raise ValueError("coupler anharmonicity must be negative")
    e_c = -alpha_c
    e_sigma = (omega_max + e_c) ** 2 / (8.0 * e_c)
    d = (omega_min + e_c) ** 2 / (8.0 * e_c * e_sigma)
    return CouplerSpec(e_sigma=e_sigma, d=d, e_c=e_c)


@dataclass(frozen=True)
class CircuitSpec:
    """Element frequencies, anharmonicities and static couplings.

    ``omega`` has one entry per element (Hz); ``alpha`` covers the
    transmon-like elements Q1, Q2, C (negative, Hz); the resonator is
    harmonic.  ``g`` maps unordered element pairs to coupling strengths (Hz),
    with the paper's signed convention (g_CR < 0 on the reference device).
    """

    omega: dict
    alpha: dict
    g: dict
    coupler: CouplerSpec

    def __post_init__(self):
        for el in ELEMENTS:
            if el not in self.omega:
                raise ValueError(f"missing frequency for element {el}")
        for el in ("Q1", "Q2", "C"):
            if el not in self.alpha:
                raise ValueError(f"missing anharmonicity for {el}")
            if self.alpha[el] >= 0:
                raise ValueError(f"anharmonicity of {el} must be negative")
        if "R" in self.alpha:
            raise ValueError("the resonator is harmonic; alpha['R'] must be absent")
        canon = {}
        for (i, j), val in self.g.items():
            if i == j:
                raise ValueError("self-couplings g_ii are not allowed")
            if i not in ELEMENTS or j not in ELEMENTS:
                raise ValueError(f"unknown element pair ({i}, {j})")
            key = tuple(sorted((i, j)))
            if key in canon and canon[key] != val:
                raise ValueError(f"conflicting values for coupling {key}")
            canon[key] = float(val)
        object.__setattr__(self, "g", canon)


@dataclass(frozen=True)
class DecayRates:
    """Dissipation rates of Q1 and the readout resonator, all cyclic (Hz,
    the Gamma/2pi numbers).

    ``gamma1`` is the qubit e -> g relaxation rate, ``gamma_phi`` its pure
    dephasing rate, ``gamma_fe`` its f -> e relaxation rate and ``kappa_r``
    the resonator linewidth.  Every dissipative operation of the package
    (reset, leakage recovery, readout and the leakage-RB cycle) acts on Q1
    and the resonator; Q2 and the coupler enter only the unitary models
    (the CZ gate and the Floquet couplings), so they carry no rates.
    """

    gamma1: float
    gamma_phi: float
    gamma_fe: float
    kappa_r: float

    def __post_init__(self):
        if min(self.gamma1, self.gamma_phi, self.gamma_fe, self.kappa_r) < 0:
            raise ValueError("rates must be non-negative")

    @property
    def gamma_sigma(self) -> float:
        return self.gamma1 + self.gamma_phi


def destroy(dim: int) -> np.ndarray:
    """Bosonic lowering operator truncated to ``dim`` levels."""
    return np.diag(np.sqrt(np.arange(1, dim)), k=1)


def _lift(op: np.ndarray, index: int, dims: list[int]) -> np.ndarray:
    mats = [np.eye(d) for d in dims]
    mats[index] = op
    return reduce(np.kron, mats)


def _hamiltonian_hz(spec: CircuitSpec, dims) -> np.ndarray:
    """Circuit Hamiltonian (Hz) with ``dims`` levels per element, in the
    order of :data:`ELEMENTS`.

    Kinetic terms ``omega_i n_i``, Kerr terms ``(alpha_i/2) n_i (n_i - 1)``
    (the exact number operator on the diagonal, so ``2 omega + alpha`` is
    exact) and pairwise couplings ``g_ij (a_i^dag - a_i)(a_j^dag - a_j)``
    with the full (non-RWA) coupling operator.  Tensor order is
    Q1 x Q2 x C x R; the single-excitation off-diagonal element of a
    coupled pair is ``-g_ij``.
    """
    ladders = []
    for el, d in zip(ELEMENTS, dims):
        n = np.arange(d, dtype=float)
        ladders.append(spec.omega[el] * n + spec.alpha.get(el, 0.0) / 2.0 * (n * n - n))
    h = np.diag(reduce(np.add.outer, ladders).ravel()).astype(complex)
    q = {el: _lift(destroy(d).T - destroy(d), k, dims)
         for k, (el, d) in enumerate(zip(ELEMENTS, dims))}
    for (i, j), g in spec.g.items():
        h += g * (q[i] @ q[j])
    return h


def manifold_hamiltonian(spec: CircuitSpec, states) -> np.ndarray:
    """Block of the circuit Hamiltonian (Hz) between the given basis states.

    ``states`` is a sequence of occupation tuples ``(n_Q1, n_Q2, n_C, n_R)``;
    entry ``[i, j]`` is ``<states[i]| H / h |states[j]>`` of the circuit
    Hamiltonian, built at the smallest truncation holding the states.
    Choosing states of equal total excitation gives a number-conserving
    (rotating-wave) manifold.
    """
    occupations = tuple(zip(*states))  # one tuple per element
    dims = [max(2, 1 + max(n)) for n in occupations]
    idx = np.ravel_multi_index(occupations, dims)
    return _hamiltonian_hz(spec, dims)[np.ix_(idx, idx)]
