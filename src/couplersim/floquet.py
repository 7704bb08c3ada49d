"""Theory of the parametrically modulated coupler.

Fourier decomposition of the modulated coupler frequency, effective
parametric couplings and shifts (k = 2 closed forms, drive frame), the
Schrieffer-Wolff coupler elimination and the parametric chi shift.

Every time-domain model is one modulated-coupler Hamiltonian: a block of
the circuit Hamiltonian with the coupler frequency following the flux
pulse, ``H(t) = 2 pi (S + omega_C(phi(t)) n_C)`` in the lab frame
(:func:`coupler_block`, :func:`modulated_hamiltonian`).  The CZ
calibration propagates it on the CZ excitation manifolds.  The exact
oracle of the closed forms propagates it on a transition manifold
(stroboscopic one-period propagator, quasi-energies); it runs in no
scenario and lives with the tests, in ``tests/oracles.py``, as does the
exact coupler elimination of an :class:`EffectiveFrame`.

The flux pulse is ``phi_ext(t) = phi_dc + a_d * sin(2*pi*f_d*t)``; the
modulated coupler frequency is expanded as

    omega_C(t) = omega_bar_C + sum_m D_m cos[m (2*pi*f_d*t - pi/2)].

One FFT gives omega_bar_C and the D_m of the exact omega_C
(:func:`fourier_decompose`) or of its order-8 Taylor polynomial about
phi_dc, the truncated flux-derivative series (:func:`derivative_series`).

The couplings need the Bessel functions J_n(x) at x = D_m / (m omega_d).
They come from the Jacobi-Anger identity

    exp(i x sin t) = sum_n J_n(x) exp(i n t),

so one FFT of 64 samples of the left side gives J_0, J_1, ... at once
(:func:`_bessel_j`).  The table is tested against ``scipy.special.jv`` and
a quadrature oracle for |x| <= 20, and refuses larger arguments.  Since
``|D_m| <= (2/pi) (omega_C,max - omega_C,min)``, the reference coupler band
(3.13-5.45 GHz) keeps every floquet-report drive at |x| <= 2.9: the CZ
drive (k = 1, omega_d = 515 MHz) comes closest, at 2.48 for a_d near 0.8.

The leading-order coupling holds for |D_k| <= k omega_D / 2;
:func:`in_coupling_window` decides that window for :func:`effective_coupling`
and the floquet-report scenario.

All frequencies are cyclic (Hz).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import ELEMENTS, CircuitSpec, CouplerSpec, coupler_frequency, manifold_hamiltonian
from .numerics import TWO_PI, mirrored_spectrum, taylor_coefficients


#: samples per drive period of the exact Fourier coefficients
FOURIER_SAMPLES = 4096
#: harmonics D_1 ... D_M of a :class:`DriveSpectrum`
HARMONICS = 4

#: samples of the Jacobi-Anger table of :func:`_bessel_j`, and the largest
#: argument it serves (the range of its oracle tests)
_BESSEL_SAMPLES = 64
_BESSEL_MAX_ARG = 20.0


class ValidityWarning(UserWarning):
    """A result was produced outside its stated validity window."""


@dataclass(frozen=True)
class DriveSpec:
    """Flux-pulse definition: static offset, amplitude (rad), frequency (Hz)
    and the harmonic order ``k`` used to activate the transition."""

    phi_dc: float
    a_d: float
    omega_d: float
    k: int = 2

    def __post_init__(self):
        if self.a_d < 0:
            raise ValueError("drive amplitude must be non-negative")
        if self.omega_d <= 0:
            raise ValueError("drive frequency must be positive")
        if self.k not in (1, 2):
            raise ValueError("harmonic order k must be 1 or 2")


@dataclass(frozen=True)
class DriveSpectrum:
    """Mean coupler frequency ``omega_bar_c`` and Fourier harmonics ``d_m``
    (D_1 ... D_HARMONICS) of omega_C(t), from :func:`fourier_decompose` (FFT of
    one exactly sampled drive period, exact up to sampling) or from
    :func:`derivative_series` (the same FFT of its truncated Taylor
    polynomial in the flux).  The two agree within 1% for a_d <= 0.1 rad.
    """

    omega_bar_c: float
    d_m: tuple

    def coefficient(self, m: int) -> float:
        if not 1 <= m <= len(self.d_m):
            raise ValueError(f"harmonic m={m} not available (D_1 ... D_{len(self.d_m)})")
        return self.d_m[m - 1]


def _singularity_distance(phi_dc: float, d: float) -> float:
    """Distance from phi_dc to the nearest complex singularity of omega_C."""
    y_s = math.asinh(d / math.sqrt(1.0 - d * d)) if d < 1.0 else math.inf
    k_near = round((phi_dc - math.pi / 2) / math.pi)
    dist = math.inf
    for k in (k_near - 1, k_near, k_near + 1):
        x = phi_dc - (math.pi / 2 + k * math.pi)
        dist = min(dist, math.hypot(x, y_s))
    return dist


def _check_expansion(drive: DriveSpec, coupler: CouplerSpec) -> None:
    """Refuse a flux excursion crossing the E_J = 0 point of a symmetric
    (d = 0) SQUID, where omega_C(phi) is not analytic (the |cos| kink)."""
    if coupler.d < 1e-9:
        lo, hi = drive.phi_dc - drive.a_d, drive.phi_dc + drive.a_d
        k_lo = math.ceil((lo - math.pi / 2) / math.pi)
        if math.pi / 2 + k_lo * math.pi <= hi:
            raise ValueError(
                "flux excursion crosses the E_J = 0 region (d = 0 SQUID); "
                "the Fourier expansion is invalid there"
            )


def _spectrum(omega_c_of_cos) -> DriveSpectrum:
    """Mean and harmonics D_1 ... D_HARMONICS of ``omega_c_of_cos(cos y)``
    over one period of y: FFT of ``FOURIER_SAMPLES`` samples."""
    # omega_C(phi_dc + a sin(wt)) is even in y = w t - pi/2
    y = TWO_PI * np.arange(FOURIER_SAMPLES) / FOURIER_SAMPLES
    coef = np.fft.rfft(omega_c_of_cos(np.sin(y + math.pi / 2))) / FOURIER_SAMPLES
    return DriveSpectrum(
        omega_bar_c=float(coef[0].real),
        d_m=tuple(float(2.0 * coef[m].real) for m in range(1, HARMONICS + 1)),
    )


def fourier_decompose(drive: DriveSpec, coupler: CouplerSpec) -> DriveSpectrum:
    """Fourier decomposition of the modulated coupler frequency: FFT of one
    period sampled at ``FOURIER_SAMPLES`` points (numerically exact).

    Raises
    ------
    ValueError
        If the flux excursion crosses the E_J = 0 point of a symmetric
        (d = 0) SQUID, where omega_C(phi) is not analytic.
    """
    _check_expansion(drive, coupler)
    return _spectrum(lambda c: coupler_frequency(drive.phi_dc + drive.a_d * c, coupler))


def derivative_series(drive: DriveSpec, coupler: CouplerSpec) -> DriveSpectrum:
    """:func:`fourier_decompose` of the order ``2 * HARMONICS`` Taylor
    polynomial of omega_C about ``phi_dc`` (the truncated flux-derivative
    series).  It shares the FFT's absolute rounding floor, about 1e-8 Hz,
    which the smallest harmonics reach as ``a_d -> 0`` (D_4 at a_d = 1e-4).
    Raises as :func:`fourier_decompose` at a symmetric-SQUID kink.
    """
    _check_expansion(drive, coupler)
    radius = 0.8 * min(_singularity_distance(drive.phi_dc, coupler.d), 1.2)
    taylor = taylor_coefficients(
        lambda z: coupler_frequency(z, coupler), drive.phi_dc, 2 * HARMONICS, radius
    )
    return _spectrum(lambda c: np.polyval(taylor[::-1], drive.a_d * c))


def _bessel_j(x) -> np.ndarray:
    """Table of Bessel functions J_n(x): one FFT of ``_BESSEL_SAMPLES``
    samples of exp(i x sin t) (Jacobi-Anger, see the module docstring).

    Shape ``x.shape + (_BESSEL_SAMPLES,)``; entry ``n`` holds J_n(x) for
    ``|n| < _BESSEL_SAMPLES / 2`` (a negative ``n`` indexes from the end),
    aliased by J_{n -+ _BESSEL_SAMPLES}(x), which is below round-off for
    ``|n| <= 8`` and ``|x| <= _BESSEL_MAX_ARG``.  Larger arguments raise
    ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > _BESSEL_MAX_ARG):
        raise ValueError(f"Bessel argument beyond |x| <= {_BESSEL_MAX_ARG}: {x}")
    t = TWO_PI * np.arange(_BESSEL_SAMPLES) / _BESSEL_SAMPLES
    return np.fft.fft(np.exp(1j * np.multiply.outer(x, np.sin(t))), axis=-1).real / _BESSEL_SAMPLES


def effective_coupling(
    g_ic: float,
    g_jc: float,
    k: int,
    omega_d: float,
    spectrum: DriveSpectrum,
) -> float:
    """Leading-order parametric coupling (Hz) activated at the k-th harmonic:

        g~ = g_iC * g_jC / (k * omega_D) * J1(D_k / (k * omega_D))

    Signed through the signs of the inputs; the overall (-i)^k phase of the
    drive-frame derivation is absorbed into the basis convention.  Emits a
    :class:`ValidityWarning` outside :func:`in_coupling_window`.

    Raises
    ------
    ValueError
        If ``|D_k / (k * omega_D)| > 20``, beyond the tested range of the
        Bessel table (see the module docstring).
    """
    if k < 1:
        raise ValueError("harmonic order k must be positive")
    d_k = spectrum.coefficient(k)
    if not in_coupling_window(spectrum, k, omega_d):
        warnings.warn(
            f"|D_{k}| = {abs(d_k):.3e} Hz exceeds k*omega_D/2 = {k * omega_d / 2:.3e} Hz; "
            "the leading-order coupling formula is outside its validity window",
            ValidityWarning,
            stacklevel=2,
        )
    return float(g_ic * g_jc / (k * omega_d) * _bessel_j(d_k / (k * omega_d))[1])


def in_coupling_window(spectrum: DriveSpectrum, k: int, omega_d: float) -> bool:
    """Whether ``|D_k| <= k * omega_D / 2``, the small-modulation window of
    the leading-order coupling :func:`effective_coupling`."""
    return bool(abs(spectrum.coefficient(k)) <= k * omega_d / 2.0)


# ---------------------------------------------------------------------------
# the modulated-coupler Hamiltonian
# ---------------------------------------------------------------------------

def coupler_block(circuit: CircuitSpec, states) -> tuple[np.ndarray, np.ndarray]:
    """Idle block ``S`` (Hz) of the circuit on ``states`` (occupation tuples,
    see :func:`couplersim.circuit.manifold_hamiltonian`) with the coupler
    frequency set to zero, and the diagonal matrix ``n_C`` of their coupler
    photon numbers: the block at coupler frequency omega_C is
    ``S + omega_C * n_C``."""
    idle = replace(circuit, omega={**circuit.omega, "C": 0.0})
    n_c = np.diag([float(s[ELEMENTS.index("C")]) for s in states])
    return manifold_hamiltonian(idle, states), n_c


def modulated_hamiltonian(block: tuple, coupler: CouplerSpec, drive: DriveSpec):
    """Callable ``t -> H(t) = 2 pi (S + omega_C(phi(t)) n_C)`` (rad/s), the
    lab-frame Hamiltonian of a :func:`coupler_block` under the flux pulse
    ``phi(t) = phi_dc + a_d sin(2 pi omega_d t)``, with the full modulation
    of the coupler frequency (no Fourier truncation).

    ``t`` may be a scalar, giving one ``(d, d)`` matrix, or an array of
    times, giving the stack ``t.shape + (d, d)``.  H depends on time only
    through the drive phase ``omega_d t``, so the samples at the step
    midpoints ``t_k = (k + 1/2) / (n_sub omega_d)`` of one period are the
    same for every drive frequency (see :func:`modulation_spectrum`).
    """
    h_static, n_c = block

    def h_of_t(t):
        phi = drive.phi_dc + drive.a_d * np.sin(TWO_PI * drive.omega_d * np.asarray(t, dtype=float))
        wc = coupler_frequency(phi, coupler)
        return TWO_PI * (h_static + np.multiply.outer(wc, n_c))

    return h_of_t


# ---------------------------------------------------------------------------
# transition manifolds
# ---------------------------------------------------------------------------

def _block_entry(i: int, j: int) -> property:
    return property(lambda self: float(self.block[0][i, j].real))


@dataclass(frozen=True, eq=False)
class TransitionManifold:
    """Three-state manifold {A, B, coupler-excited} for one driven transition.

    ``block`` is the ``(H, n_C)`` pair of :func:`coupler_block` on the
    states (A, B, C), the input of :func:`modulated_hamiltonian`; the
    closed-form parameters are read from its idle 3x3 block ``H`` (Hz,
    coupler frequency zero), so the closed forms and the time-domain oracle
    always see the same couplings: ``omega_a = H_AA``, ``omega_b = H_BB``,
    ``g_ac = H_AC``, ``g_bc = H_BC``, ``g_ab = H_AB`` (signed, bosonic
    factors included) and ``delta_c_offset = H_CC - H_AA``, which maps the
    mean coupler frequency to the coupler-state detuning from A:
    ``Delta_C = omega_bar_C + delta_c_offset``.  To change a coupling,
    replace ``block``.  Equality is identity (the block holds arrays).
    """

    kind: str
    k: int
    block: tuple = field(repr=False)

    omega_a = _block_entry(0, 0)
    omega_b = _block_entry(1, 1)
    g_ac = _block_entry(0, 2)
    g_bc = _block_entry(1, 2)
    g_ab = _block_entry(0, 1)

    @property
    def delta_c_offset(self) -> float:
        h = self.block[0].real
        return float(h[2, 2] - h[0, 0])

    @property
    def transition(self) -> float:
        """Bare A -> B transition frequency (Hz)."""
        return self.omega_b - self.omega_a

    @property
    def bare_drive_frequency(self) -> float:
        return self.transition / self.k


#: kind -> (harmonic k, occupations of A, B and the coupler-excited state);
#: the qubit-resonator operations drive Q1
_TRANSITIONS = {
    "reset": (2, {"Q1": 1}, {"R": 1}, {"C": 1}),
    "lr": (2, {"Q1": 2}, {"Q1": 1, "R": 1}, {"Q1": 1, "C": 1}),
    "readout": (2, {"Q1": 2}, {"Q1": 1, "R": 1}, {"Q1": 1, "C": 1}),
    "cz": (1, {"Q1": 1, "Q2": 1}, {"Q1": 2}, {"Q1": 1, "C": 1}),
}


def transition_manifold(circuit: CircuitSpec, kind: str) -> TransitionManifold:
    """Manifold for one of the four driven operations.

    ``reset``   |e0> <-> |g1>   (Q1-resonator, k = 2)
    ``lr``      |f0> <-> |e1>   (Q1-resonator, k = 2)
    ``readout`` same transition as ``lr`` driven off-resonantly (k = 2)
    ``cz``      |ee> <-> |fg>   (Q1-Q2, k = 1)
    """
    if kind not in _TRANSITIONS:
        raise ValueError(f"unknown transition kind {kind!r}")
    k, *occupations = _TRANSITIONS[kind]
    states = [tuple(occ.get(el, 0) for el in ELEMENTS) for occ in occupations]
    return TransitionManifold(kind=kind, k=k, block=coupler_block(circuit, states))


# ---------------------------------------------------------------------------
# k = 2 closed forms and Schrieffer-Wolff correction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveFrame:
    """Drive-frame frequencies and couplings (all Hz).

    ``omega_tilde_a`` / ``omega_tilde_b`` are the drive-induced shifts of the
    two driven states, ``delta_tilde_c`` the shifted coupler detuning and the
    ``g_tilde_*`` the effective couplings.
    """

    omega_tilde_a: float
    omega_tilde_b: float
    delta_tilde_c: float
    g_tilde_ab: float
    g_tilde_ac: float
    g_tilde_bc: float


def k2_closed_forms(man: TransitionManifold, drive: DriveSpec,
                    spectrum: DriveSpectrum) -> EffectiveFrame:
    """Closed-form drive-frame parameters for a k = 2 parametric transition
    of ``man``, from the :func:`fourier_decompose` ``spectrum`` of ``drive``.

    Evaluates the second-order truncation of the Floquet expansion in terms
    of ``J_{n,m} = J_n(D1/omega_D) * J_m(-D2/(2*omega_D))``.  Only k = 2 is
    supported; the analytic block is specific to the second harmonic.

    Raises
    ------
    ValueError
        If ``drive.k`` is not 2, or if ``|D1 / omega_D|`` or
        ``|D2 / (2 omega_D)|`` exceeds 20, beyond the tested range of the
        Bessel table (see the module docstring).
    """
    if drive.k != 2:
        raise ValueError("closed forms are k = 2 specific")
    wd = drive.omega_d
    x1 = spectrum.d_m[0] / wd
    x2 = -spectrum.d_m[1] / (2.0 * wd)
    jn = _bessel_j([x1, x2])[:, :3].T  # jn[n] = (J_n(x1), J_n(x2))
    j = np.outer(jn[:, 0], jn[:, 1])

    g_ac, g_bc, g_ab = man.g_ac, man.g_bc, man.g_ab
    delta_c = spectrum.omega_bar_c + man.delta_c_offset

    gt_ac = g_ac * j[0, 0] + g_ab * g_bc / (2 * wd) * (j[0, 2] + j[2, 1])
    wt_a = (1.0 / wd) * (
        g_ab ** 2 / 2.0
        + g_ac ** 2 * (4 * j[1, 0] * j[1, 1] - 2 * (j[0, 1] * j[2, 2] + j[0, 0] * j[2, 1]))
    )
    gt_bc = (
        -g_bc * (j[0, 1] + j[2, 0] + j[2, 2])
        + g_ab * g_ac / (2 * wd) * (-j[0, 1] + j[2, 0] + j[2, 2])
    )
    wt_b = (1.0 / (2 * wd)) * (
        g_bc ** 2 * (
            j[0, 0] ** 2 - j[0, 2] ** 2 - j[2, 1] ** 2
            + 2 * (j[1, 0] ** 2 - j[1, 2] ** 2 - j[0, 1] * j[2, 2])
            + 4 * j[1, 1] * (j[1, 2] - j[1, 0])
        )
        - g_ab ** 2
    )
    gt_ab = (g_ac * g_bc / (2 * wd)) * (
        j[0, 0] * (j[0, 1] - j[2, 0])
        + j[0, 1] * (j[0, 2] + j[2, 1])
        + j[0, 2] * j[2, 2]
        + j[2, 0] * j[2, 1]
        + 2 * j[1, 0] * (j[1, 0] + j[1, 1] - j[1, 2])
        + 2 * j[1, 1] * j[1, 2]
        - 4 * j[1, 1] ** 2
    )
    return EffectiveFrame(
        omega_tilde_a=float(wt_a),
        omega_tilde_b=float(wt_b),
        delta_tilde_c=float(delta_c - wt_a - wt_b),
        g_tilde_ab=float(gt_ab),
        g_tilde_ac=float(gt_ac),
        g_tilde_bc=float(gt_bc),
    )


def schrieffer_wolff_correction(frame: EffectiveFrame) -> float:
    """Coupler-eliminated effective coupling (Hz):

        g~'_AB = g~_AB - 2 * g~_AC * g~_CB / Delta~_C

    Valid when the coupler stays far detuned; a :class:`ValidityWarning` is
    emitted when ``|Delta~_C|`` is less than five times the largest shift or
    coupling.  ``Delta~_C = 0`` is refused.
    """
    if frame.delta_tilde_c == 0.0:
        raise ValueError("Delta~_C = 0: Schrieffer-Wolff elimination is singular")
    scale = max(abs(frame.omega_tilde_a), abs(frame.omega_tilde_b),
                abs(frame.g_tilde_ab), abs(frame.g_tilde_ac), abs(frame.g_tilde_bc))
    if abs(frame.delta_tilde_c) < 5.0 * scale:
        warnings.warn(
            f"|Delta~_C| = {abs(frame.delta_tilde_c):.3e} Hz is below 5x the largest "
            f"frame scale {scale:.3e} Hz; the dispersive elimination is marginal",
            ValidityWarning,
            stacklevel=2,
        )
    return frame.g_tilde_ab - 2.0 * frame.g_tilde_ac * frame.g_tilde_bc / frame.delta_tilde_c


# ---------------------------------------------------------------------------
# parametric chi shift
# ---------------------------------------------------------------------------

def chi_shift(g_tilde_qr, delta_drive):
    """Qubit-state dependent resonator shift (Hz) of the driven avoided
    crossing:

        2*chi = (|Delta| - sqrt(4 |g~_QR|^2 + Delta^2)) / 2

    ``delta_drive`` must already be in the drive frame, which sees k times
    the lab detuning at the k-th harmonic.  The returned value is <= 0 on
    this branch and reaches -|g~_QR| at Delta = 0; arrays broadcast.
    """
    return (np.abs(delta_drive) - np.sqrt(4.0 * g_tilde_qr ** 2 + delta_drive ** 2)) / 2.0


# ---------------------------------------------------------------------------
# stroboscopic propagation of a modulated block
# ---------------------------------------------------------------------------

def modulation_spectrum(block: tuple, coupler: CouplerSpec, drive: DriveSpec, n_sub: int):
    """Midpoint spectrum (:class:`~couplersim.numerics.MidpointSpectrum`) of
    :func:`modulated_hamiltonian` over one drive period, at an even
    ``n_sub`` steps.

    The midpoint samples ``phi_dc + a_d sin(2 pi (k + 1/2) / n_sub)`` do not
    depend on ``drive.omega_d``, so one spectrum gives the one-period
    propagator ``periodic_propagator(spectrum, 1 / omega_d)`` at every drive
    frequency of this amplitude.  They mirror within each half period, as
    ``sin(pi - x) = sin(x)``, and H is real symmetric, since the block's
    couplings are real (complex-typed, zero imaginary parts): the
    :func:`~couplersim.numerics.mirrored_spectrum` diagonalises only the
    ``2 ceil(n_sub / 4)`` distinct samples, and refuses an odd ``n_sub``
    (``ValueError``).
    """
    h_of_t = modulated_hamiltonian(block, coupler, drive)
    return mirrored_spectrum(h_of_t, 1.0 / drive.omega_d, n_sub)
