"""Scenario models for the four coupler operations and their metrics:
reset, leakage-recovery support, parametric readout with Gaussian-mixture
classification (the cli's readout-shots check reads its ``CLASSIFIER_*``
constants too) and CZ calibration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitSpec
from .floquet import DriveSpec, coupler_block, modulated_hamiltonian, modulation_spectrum
from .numerics import TWO_PI, RngStream, periodic_propagator, stroboscopic_modes

STATE_LABELS = ("g", "e", "f")

# Planck and Boltzmann constants (J s, J/K): exact by definition of the SI
# since 2019, so the literals equal scipy.constants.h and .k.
PLANCK_H = 6.62607015e-34
BOLTZMANN_K = 1.380649e-23

#: fewest shots per calibration set the readout classifier accepts
MIN_CALIBRATION_SHOTS = 1000
#: tolerance on the sum of a population vector
POPULATION_SUM_TOL = 1e-9
#: histogram bins per IQ axis of the readout-classifier fits
CLASSIFIER_BINS = 60
#: least singular value of the confusion matrix the readout classifier accepts
CLASSIFIER_FLOOR = 0.05
#: largest argument of exp that stays finite, log(sys.float_info.max)
_EXP_MAX = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# reset metrics and thermal budget
# ---------------------------------------------------------------------------

def reset_metrics(p_id: float, p_pi: float, p_id_r: float, p_pi_r: float) -> dict:
    """Reset efficiency and fidelity from the four measured excited-state
    populations (no pulse / pi-pulse, each without and with reset):

        eta_r = 1 - P_pi^r / P_pi
        F_r   = 1 - (P_Id^r + P_pi^r) / 2
    """
    for name, v in (("p_id", p_id), ("p_pi", p_pi), ("p_id_r", p_id_r), ("p_pi_r", p_pi_r)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} = {v} is not a probability")
    if p_pi == 0.0:
        raise ValueError("p_pi = 0: reset efficiency is undefined")
    return {
        "eta_r": 1.0 - p_pi_r / p_pi,
        "f_r": 1.0 - (p_id_r + p_pi_r) / 2.0,
    }


def population_to_temperature(p_e: float, omega_q: float) -> float:
    """Effective temperature (K) of a two-level Boltzmann distribution with
    excited-state population ``p_e`` at transition frequency ``omega_q`` (Hz)."""
    if not 0.0 < p_e < 0.5:
        raise ValueError("p_e must lie in (0, 0.5) for a positive temperature")
    return PLANCK_H * omega_q / (BOLTZMANN_K * math.log((1.0 - p_e) / p_e))


def bose_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation of a mode at ``omega`` (Hz) and T (K); 0 at
    T <= 0 and where ``h omega / k T`` exceeds :data:`_EXP_MAX`, where
    the occupation underflows."""
    if temperature <= 0:
        return 0.0
    x = PLANCK_H * omega / (BOLTZMANN_K * temperature)
    return 1.0 / math.expm1(x) if x <= _EXP_MAX else 0.0


@dataclass(frozen=True)
class ThermalBudget:
    """Thermal limits on the reset floor.

    ``n_th`` is the resonator thermal occupation (shared bath at the qubit's
    idle temperature), ``n_up`` the rethermalisation during
    reset + measurement, and their sum the floor on the post-reset
    excited-state population.
    """

    n_th: float
    n_up: float
    kappa_01: float

    @property
    def floor(self) -> float:
        return self.n_th + self.n_up


def thermal_budget(
    p_id: float,
    gamma_1: float,
    omega_q: float,
    omega_r: float,
    tau_r: float,
    tau_m: float,
) -> ThermalBudget:
    """Thermal reset budget from the idle population and qubit decay rate.

    The qubit rethermalises at ``kappa_01/2pi ~ P_Id * Gamma_1`` giving
    ``n_up ~ kappa_01 (tau_r + tau_m) / 2`` (angular rate times time); the
    resonator occupation is the Bose factor at its frequency.
    """
    n_th = bose_occupation(omega_r, population_to_temperature(p_id, omega_q))
    kappa_01 = p_id * gamma_1  # cyclic Hz
    n_up = TWO_PI * kappa_01 * (tau_r + tau_m) / 2.0
    return ThermalBudget(n_th=n_th, n_up=n_up, kappa_01=kappa_01)


# ---------------------------------------------------------------------------
# synthetic shots and the Gaussian-mixture classifier
# ---------------------------------------------------------------------------

@dataclass
class ShotSet:
    """Single-shot IQ records with a preparation tag."""

    iq: np.ndarray
    label: str = "unknown"

    def __post_init__(self):
        self.iq = np.asarray(self.iq, dtype=float).reshape(-1, 2)
        if self.iq.shape[0] < 1:
            raise ValueError("a ShotSet needs at least one shot")
        if not np.all(np.isfinite(self.iq)):
            raise ValueError("shots must be finite")


def generate_shots(
    populations,
    centers,
    sigma: float,
    n_shots: int,
    stream: RngStream,
    label: str = "unknown",
    decay: tuple[float, float] | None = None,
) -> ShotSet:
    """Draw IQ shots from a three-component Gaussian mixture.

    ``populations`` are the (g, e, f) preparation probabilities and
    ``centers`` the component means (3, 2).  When ``decay=(gamma_1_hz,
    tau_meas)`` is given, shots prepared in |e> that relax before half the
    measurement window are rendered at the |g> centre (mid-measurement
    label-flip model); at ``gamma_1_hz = 0`` none relax.  Deterministic per
    stream.
    """
    p = np.asarray(populations, dtype=float)
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > POPULATION_SUM_TOL:
        raise ValueError("populations must be a probability vector")
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    centers = np.asarray(centers, dtype=float).reshape(3, 2)
    rng = stream.generator()
    states = rng.choice(3, size=n_shots, p=np.clip(p, 0, None) / np.clip(p, 0, None).sum())
    if decay is not None:
        gamma_1, tau_meas = decay
        excited = states == 1
        n_e = int(np.count_nonzero(excited))
        if n_e and gamma_1 > 0:
            t_decay = rng.exponential(1.0 / (TWO_PI * gamma_1), size=n_e)
            flip = t_decay < tau_meas / 2.0
            idx = np.flatnonzero(excited)[flip]
            states[idx] = 0
    iq = centers[states] + sigma * rng.standard_normal((n_shots, 2))
    return ShotSet(iq=iq, label=label)


def _histogram2d(iq: np.ndarray):
    lo = iq.min(axis=0)
    hi = iq.max(axis=0)
    pad = 0.05 * (hi - lo + 1e-12)
    counts, xe, ye = np.histogram2d(
        iq[:, 0], iq[:, 1], bins=CLASSIFIER_BINS,
        range=[[lo[0] - pad[0], hi[0] + pad[0]], [lo[1] - pad[1], hi[1] + pad[1]]],
    )
    xc = 0.5 * (xe[:-1] + xe[1:])
    yc = 0.5 * (ye[:-1] + ye[1:])
    gx, gy = np.meshgrid(xc, yc, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()]), counts.ravel()


def _nearest(iq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the centre nearest to each IQ shot."""
    d2 = ((iq[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


#: iteration bound of the blob fit; the readout calibration sets converge in
#: 25 or fewer
_BLOB_FIT_MAX_ITER = 200
#: scaled step, relative to the scaled parameters, at which the blob fit
#: stops: it runs to the optimum to rounding, which any converged solver
#: reaches, so the fitted centres do not depend on where a solver gives up
_BLOB_FIT_XTOL = 1e-15


def _fit_blob(histogram: tuple, iq: np.ndarray, sigma: float | None) -> tuple:
    """Centre and width of the 2-D Gaussian ``h exp(-r^2 / 2 sigma^2)``
    fitted to ``histogram``, the ``(xy, counts)`` of :func:`_histogram2d`
    of the shots ``iq``; the width is fitted when ``sigma`` is None,
    starting from the shots' spread, else held.

    Levenberg-Marquardt (Marquardt, SIAM J. Appl. Math. 11, 431 (1963)) with
    the analytic Jacobian, run until the step, scaled by the Jacobian's
    column norms, falls to ``_BLOB_FIT_XTOL`` of the parameters.  A step is
    taken when the cost falls, judged from the residual change formed out of
    the step itself: near the optimum the cost falls by far less than its
    own rounding.  It is numpy only: ``scipy.optimize`` would add about
    0.6 s of import to every ``readout-shots`` process.  A fit that has not
    converged after ``_BLOB_FIT_MAX_ITER`` iterations returns its best point.
    """
    xy, counts = histogram
    x0, y0 = xy[int(np.argmax(counts))]
    fit_width = sigma is None
    p = np.array([counts.max(), x0, y0] + ([np.mean(np.std(iq, axis=0))] if fit_width else []))

    def terms(p):
        s = p[3] if fit_width else sigma
        ux, uy = xy[:, 0] - p[1], xy[:, 1] - p[2]
        r2 = ux ** 2 + uy ** 2
        return s, ux, uy, r2, np.exp(-r2 / (2.0 * s ** 2))

    def residual_and_jacobian(p):
        s, ux, uy, r2, e = terms(p)
        he = p[0] * e / s ** 2
        cols = [e, he * ux, he * uy] + ([he * r2 / s] if fit_width else [])
        return p[0] * e - counts, np.column_stack(cols)

    def residual_change(p, new):
        """r(new) - r(p), formed from the step so that it is exact to
        rounding however small the step."""
        s, ux, uy, r2, e = terms(p)
        s1 = new[3] if fit_width else sigma
        d = new - p
        # the change of the exponent -r^2 / 2 s^2
        dr2 = d[1] * (d[1] - 2.0 * ux) + d[2] * (d[2] - 2.0 * uy)
        da = (r2 * (s1 - s) * (s1 + s) / s ** 2 - dr2) / (2.0 * s1 ** 2)
        return new[0] * e * np.expm1(da) + d[0] * e

    res, jac = residual_and_jacobian(p)
    damping = 1e-3
    for _ in range(_BLOB_FIT_MAX_ITER):
        jtj = jac.T @ jac
        scale = np.sqrt(np.diag(jtj))
        step = np.linalg.solve(jtj + damping * np.diag(scale ** 2), -(jac.T @ res))
        if np.linalg.norm(scale * step) <= _BLOB_FIT_XTOL * np.linalg.norm(scale * p):
            break
        change = residual_change(p, p + step)
        if change @ (2.0 * res + change) < 0.0:  # |r + change|^2 < |r|^2
            p = p + step
            res, jac = residual_and_jacobian(p)
            damping *= 0.1
        else:
            damping *= 10.0
    return (p[1], p[2]), abs(p[3]) if fit_width else sigma


@dataclass(frozen=True, eq=False)
class ReadoutClassifier:
    """Three-state Gaussian readout calibration, the value
    :func:`calibrate_classifier` returns.

    ``centers`` (3, 2) are the g, e and f component means and ``sigma`` their
    shared width; ``heights`` (3, 3) holds the mixture amplitudes fitted on
    each calibration set (row: prepared state).  The assignment
    ``confusion`` matrix (row-stochastic, P(assigned j | prepared i)) comes
    from nearest-centre classification of the calibration sets, and its
    inverse converts measured assignment fractions into state populations.
    Equality is identity (the fields are arrays).
    """

    centers: np.ndarray
    sigma: float
    heights: np.ndarray
    confusion: np.ndarray


def _component_heights(histogram: tuple, centers: np.ndarray, sigma: float) -> np.ndarray:
    """Nonnegative heights of the three Gaussian components (centres and
    width held) that best fit ``histogram``, the ``(xy, counts)`` of
    :func:`_histogram2d`.

    Exact NNLS by enumeration (Lawson & Hanson, *Solving Least Squares
    Problems* (1974), ch. 23): the optimum is the unconstrained least-squares
    solution on its support, so it is the cheapest of zero and of the
    all-positive least-squares solutions on the seven nonempty column subsets.
    It is numpy only: ``scipy.optimize.nnls`` would add about 0.6 s of import
    to every ``readout-shots`` process.
    """
    xy, counts = histogram
    design = np.stack([
        np.exp(-((xy[:, 0] - cx) ** 2 + (xy[:, 1] - cy) ** 2) / (2.0 * sigma ** 2))
        for cx, cy in centers
    ], axis=1)
    best, best_cost = np.zeros(3), counts @ counts
    for cols in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
        sub = np.linalg.lstsq(design[:, cols], counts, rcond=None)[0]
        if np.all(sub > 0):
            heights = np.zeros(3)
            heights[list(cols)] = sub
            res = design @ heights - counts
            if res @ res < best_cost:
                best, best_cost = heights, res @ res
    return best


def calibrate_classifier(shots_g: ShotSet, shots_e: ShotSet,
                         shots_f: ShotSet) -> ReadoutClassifier:
    """Sequential Gaussian calibration on the shots prepared in g, e and f:
    a single 2-D Gaussian fit on the ground-state histogram pins the shared
    width and the g centre; the e and f centres are then fitted at fixed
    width; finally three-component height-only fits on each calibration set
    give the per-state mixture amplitudes."""
    sets = [shots.iq for shots in (shots_g, shots_e, shots_f)]
    for label, iq in zip(STATE_LABELS, sets):
        if iq.shape[0] < MIN_CALIBRATION_SHOTS:
            raise ValueError(f"calibration set '{label}' needs >= {MIN_CALIBRATION_SHOTS} shots")

    hists = [_histogram2d(s) for s in sets]
    centers, sigma = [], None
    for label, hist, iq in zip(STATE_LABELS, hists, sets):
        try:
            center, sigma = _fit_blob(hist, iq, sigma)
        except np.linalg.LinAlgError as exc:
            # a set far wider than its blob (decayed e shots): the Gaussian
            # underflows at the neighbouring bin centres, a zero Jacobian column
            raise ValueError(f"calibration set '{label}': its histogram bins are too "
                             "coarse for its blob, the blob fit is singular") from exc
        centers.append(center)
        sigma = float(sigma)
    centers = np.array(centers)
    heights = np.stack([_component_heights(h, centers, sigma) for h in hists])
    confusion = np.stack([
        np.bincount(_nearest(s, centers), minlength=3) / s.shape[0] for s in sets
    ])
    # the inverse amplifies statistical noise by 1/sigma_min; reject
    # calibrations whose states are effectively indistinguishable
    if np.linalg.svd(confusion, compute_uv=False).min() < CLASSIFIER_FLOOR:
        raise ValueError("confusion matrix is singular: states are indistinguishable")
    return ReadoutClassifier(centers=centers, sigma=sigma, heights=heights, confusion=confusion)


@dataclass(frozen=True)
class PopulationEstimate:
    """Confusion-corrected state populations.

    ``clamp_correction`` is the Euclidean distance moved by the projection
    onto the probability simplex (zero when the inversion was physical).
    """

    populations: np.ndarray
    clamp_correction: float


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (cumsum - 1.0))[0][-1]
    theta = (cumsum[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def estimate_populations(classifier: ReadoutClassifier, shots: ShotSet) -> PopulationEstimate:
    """State populations from nearest-centre assignment fractions and the
    inverse confusion matrix, projected back onto the probability simplex if
    needed."""
    fractions = np.bincount(_nearest(shots.iq, classifier.centers), minlength=3) / len(shots.iq)
    raw = np.linalg.solve(classifier.confusion.T, fractions)
    clamped = _project_simplex(raw)
    return PopulationEstimate(
        populations=clamped,
        clamp_correction=float(np.linalg.norm(clamped - raw)),
    )


def gaussian_overlap_error(distance: float, sigma: float) -> float:
    """Misassignment probability of two equal-width Gaussians separated by
    ``distance``: Q(d / 2 sigma)."""
    return 0.5 * math.erfc(distance / (2.0 * sigma) / math.sqrt(2.0))


@dataclass(frozen=True)
class AssignmentFidelity:
    f_meas: float
    f_overlap: float
    f_decay: float
    f_budget: float


def assignment_fidelity(
    shots_g: ShotSet,
    shots_e: ShotSet,
    classifier: ReadoutClassifier,
    gamma_1: float,
    tau_meas: float,
) -> AssignmentFidelity:
    """Two-state assignment fidelity decomposition.

    ``f_meas`` is the empirical [P(g|g) + P(e|e)]/2 from hard two-state
    discrimination (each shot assigned to the nearer of the g and e
    centres, as in a thresholded one-dimensional histogram);
    ``f_overlap`` the fidelity limit set by the fitted Gaussian overlap;
    ``f_decay = exp(-tau_meas * Gamma_1 / 2)`` (angular rate) the limit from
    relaxation during the measurement; and ``f_budget`` the product
    ``f_overlap * f_decay``.
    """
    p_gg = float(np.mean(_nearest(shots_g.iq, classifier.centers[:2]) == 0))
    p_ee = float(np.mean(_nearest(shots_e.iq, classifier.centers[:2]) == 1))
    f_meas = 0.5 * (p_gg + p_ee)
    dist = float(np.linalg.norm(classifier.centers[1] - classifier.centers[0]))
    f_overlap = 1.0 - gaussian_overlap_error(dist, classifier.sigma)
    f_decay = math.exp(-tau_meas * TWO_PI * gamma_1 / 2.0)
    return AssignmentFidelity(f_meas=f_meas, f_overlap=f_overlap,
                              f_decay=f_decay, f_budget=f_overlap * f_decay)


# ---------------------------------------------------------------------------
# CZ calibration
# ---------------------------------------------------------------------------

@dataclass
class CZPhaseScan:
    """Chevron and conditional-phase scan of the |ee> <-> |fg> drive.

    ``duration`` holds the full-oscillation time per drive frequency
    (NaN where no full oscillation fits in the scan window); ``phase`` the
    virtual-Z-corrected conditional phase after that duration.  The
    operating point is the scanned frequency whose phase is closest to pi.

    ``p_ee[i, k]`` is |ee> after k periods, at k / omega_d[i], each row cut
    to the shortest; ``times`` is k / omega_d[0] (the lowest frequency of an
    ascending span), so a higher frequency's row sits earlier than labelled.
    """

    omega_d: np.ndarray
    duration: np.ndarray
    rabi: np.ndarray
    phase: np.ndarray
    valid: np.ndarray
    times: np.ndarray
    p_ee: np.ndarray
    omega_d_star: float
    tau_cz: float
    phase_star: float


#: CZ excitation manifolds as occupation tuples (n_Q1, n_Q2, n_C, n_R):
#: |ee>, |fg>, |gf>, |eg,c1>, |ge,c1>, |gg,c2> and |eg>, |ge>, |gg,c1>.
#: Keeping the full manifolds matters: the coupler-photon states produce
#: equal virtual shifts in |ee> and the single-excitation states, and
#: truncating them unbalances the conditional-phase combination.
_CZ_DOUBLE = ((1, 1, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 2, 0))
_CZ_SINGLE = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def cz_spectra_size(n_sub: int) -> tuple[int, int]:
    """The midpoint samples each manifold of a scan keeps at an even
    ``n_sub`` steps, ``2 ceil(n_sub / 4)``, and the bytes of the scan's two
    spectra (:func:`~couplersim.floquet.modulation_spectrum`; dimension
    ``d`` = 6 and 3).  Each of a spectrum's two real runs of ``r`` samples
    holds ``r`` float64 eigenvalue rows, ``r - 1`` overlaps and one basis:
    ``8 (d + d^2)`` B a sample, 432 B for the two manifolds.
    """
    samples = 2 * ((n_sub + 2) // 4)
    return samples, samples * sum(8 * (d + d * d) for d in (len(_CZ_DOUBLE), len(_CZ_SINGLE)))


def _drive_grid(h2: np.ndarray, omega_d_span: tuple, n_omega: int) -> np.ndarray:
    """The bare |ee> -> |fg> transition of the double-excitation block
    ``h2`` (driven at k = 1) offset by ``linspace(*omega_d_span, n_omega)``."""
    return (h2[1, 1] - h2[0, 0]).real + np.linspace(omega_d_span[0], omega_d_span[1], n_omega)


def cz_drive_frequencies(circuit: CircuitSpec, omega_d_span: tuple, n_omega: int) -> np.ndarray:
    """Drive frequencies (Hz) that :func:`cz_conditional_phase` scans."""
    return _drive_grid(coupler_block(circuit, _CZ_DOUBLE)[0], omega_d_span, n_omega)


def _idle_diagonal(h0: np.ndarray):
    """``t -> diag(exp(-i H_0 t))`` of a constant Hamiltonian ``h0`` (rad/s),
    in closed form from its eigenpairs: ``sum_l |V_jl|^2 exp(-i E_l t)``."""
    energies, basis = np.linalg.eigh(h0)
    weights = np.abs(basis) ** 2
    return lambda t: weights @ np.exp(-1j * energies * t)


def cz_conditional_phase(
    circuit: CircuitSpec,
    drive: DriveSpec,
    omega_d_span: tuple[float, float] = (-15e6, 15e6),
    n_omega: int = 15,
    max_duration: float = 1.5e-6,
    n_sub: int = 2048,
) -> CZPhaseScan:
    """Chevron and conditional-phase calibration of the parametric CZ gate.

    For each drive frequency the double- and single-excitation manifolds
    (states referenced to |gg>, resonator idle) are propagated through their
    lab-frame :func:`~couplersim.floquet.modulated_hamiltonian`; the
    duration of one full |ee> population oscillation and the conditional
    phase

        phi_c = arg(z_ee * conj(z_eg) * conj(z_ge)) - (undriven baseline)

    after that duration are recorded.  The single-excitation phases play the
    role of the calibrated virtual-Z corrections, and the phase is
    referenced to an undriven evolution of equal duration, i.e. to qubit
    frames that precess at the idle (static-ZZ-inclusive) frequencies.  The
    reported operating point is the scanned frequency whose conditional
    phase is closest to pi.

    The scan propagates only what it reads.  Each driven manifold is
    diagonalised once per scan, as the midpoint samples of H(t) do not
    depend on the drive frequency (:func:`~couplersim.floquet.modulation_spectrum`);
    per drive frequency only the step phases of its one-period propagator
    change.  Every stroboscopic read is the closed form
    ``diag(U^k) = w @ lambda^k`` over the eigenpairs of that propagator
    (:func:`~couplersim.numerics.stroboscopic_modes`): |ee> at every
    period, and the single-excitation phases at ``n_full`` periods, built
    only where a full oscillation fits.  The undriven reference is the same
    sum over one ``eigh`` of H_0 per manifold,
    ``diag(exp(-i H_0 t))_j = sum_l |V_jl|^2 exp(-i E_l t)`` at
    ``t = n_full / omega_d``.  ``n_sub``, the steps per drive period, must
    be even (the spectra's ``ValueError``); ``n_omega`` must be positive,
    every scanned drive frequency positive and ``max_duration`` at least
    one period of the lowest, or ``ValueError`` names the argument.
    """
    if n_omega < 1:
        raise ValueError(f"n_omega must be a positive integer, got {n_omega}")
    blocks = [coupler_block(circuit, states) for states in (_CZ_DOUBLE, _CZ_SINGLE)]
    omega_grid = _drive_grid(blocks[0][0], omega_d_span, n_omega)
    lowest = omega_grid.min()
    if not lowest > 0:
        raise ValueError(f"omega_d_span reaches drive frequency {lowest:.6g} Hz <= 0")
    if not max_duration / (1.0 / lowest) >= 1:  # the loop's period count, at its fewest
        raise ValueError(f"max_duration {max_duration:.6g} s is shorter than one period "
                         f"({1.0 / lowest:.6g} s) of the lowest drive frequency")

    rows = []
    durations = np.full(n_omega, np.nan)
    rabis = np.full(n_omega, np.nan)
    phases = np.full(n_omega, np.nan)

    # (double, single) manifolds: one driven spectrum each per scan, and the
    # idle diagonals of H(0), the undriven block at phi_dc
    spectra = [modulation_spectrum(block, circuit.coupler, drive, n_sub) for block in blocks]
    idle = [_idle_diagonal(modulated_hamiltonian(block, circuit.coupler, drive)(0.0))
            for block in blocks]

    for i, wd in enumerate(omega_grid):
        period = 1.0 / wd
        n_per = int(max_duration / period)
        evals, weights = stroboscopic_modes(periodic_propagator(spectra[0], period))
        z_ee = weights[0] @ np.vander(evals, n_per, increasing=True)
        pop = np.abs(z_ee) ** 2
        rows.append(pop)

        # full-oscillation duration from the dominant slow spectral line
        # (stroboscopic sampling still aliases weak coupler beats, so a
        # plain local-minimum search is too fragile)
        if pop.max() - pop.min() < 0.05:
            continue  # no appreciable transfer at this drive frequency
        q = (pop - pop.mean()) * np.hanning(n_per)
        spec = np.abs(np.fft.rfft(q))
        freqs = np.fft.rfftfreq(n_per, d=period)
        window = (freqs > 0) & (freqs < 60e6)
        if not np.any(window):
            continue
        k_peak = int(np.argmax(np.where(window, spec, 0.0)))
        if 0 < k_peak < len(freqs) - 1:
            y0, y1, y2 = spec[k_peak - 1], spec[k_peak], spec[k_peak + 1]
            denom = y0 - 2 * y1 + y2
            k_peak = k_peak + (0.5 * (y0 - y2) / denom if denom != 0 else 0.0)
        rabi = k_peak * freqs[1]
        if n_per * period * rabi < 1.5:
            continue  # window holds less than 1.5 oscillations
        n_full = int(round(1.0 / (rabi * period)))
        if n_full < 2 or n_full >= n_per:
            continue
        durations[i] = n_full * period
        rabis[i] = rabi
        evals, weights = stroboscopic_modes(periodic_propagator(spectra[1], period))
        z1 = weights @ evals ** n_full
        ref2, ref1 = (diagonal(durations[i]) for diagonal in idle)
        z_ref = ref2[0] * np.conj(ref1[0]) * np.conj(ref1[1])
        zc = z_ee[n_full] * np.conj(z1[0]) * np.conj(z1[1]) * np.conj(z_ref)
        phases[i] = math.atan2(zc.imag, zc.real) % TWO_PI

    valid = ~np.isnan(durations)  # set, with the phase, where a full oscillation fits
    if not np.any(valid):
        raise RuntimeError("no full population oscillation found in the scanned window")

    n_cols = min(len(r) for r in rows)
    p_ee = np.stack([r[:n_cols] for r in rows])

    # operating point: interpolate the pi crossing between adjacent valid
    # scan points on a continuous phase branch; fall back to the nearest
    # point when no bracket exists
    w_star = tau_star = phi_star = None
    for i in range(n_omega - 1):
        if not (valid[i] and valid[i + 1]):
            continue
        dphi = phases[i + 1] - phases[i]
        if abs(dphi) >= math.pi:
            continue  # branch wrap between grid points
        if (phases[i] - math.pi) * (phases[i + 1] - math.pi) <= 0 and dphi != 0:
            f = (math.pi - phases[i]) / dphi
            w_star = omega_grid[i] + f * (omega_grid[i + 1] - omega_grid[i])
            tau_star = durations[i] + f * (durations[i + 1] - durations[i])
            phi_star = math.pi
            break
    if w_star is None:
        i_star = int(np.nanargmin(np.abs(phases - math.pi)))  # NaN where not valid
        w_star = omega_grid[i_star]
        tau_star = durations[i_star]
        phi_star = phases[i_star]

    return CZPhaseScan(
        omega_d=omega_grid,
        duration=durations,
        rabi=rabis,
        phase=phases,
        valid=valid,
        times=np.arange(n_cols) * (1.0 / omega_grid[0]),
        p_ee=p_ee,
        omega_d_star=float(w_star),
        tau_cz=float(tau_star),
        phase_star=float(phi_star),
    )

