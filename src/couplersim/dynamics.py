"""Time-domain models: pulse envelopes, the closed-form damped two-level
swap, three-level leakage-recovery dynamics, and the one Lindblad model of
the qutrit x resonator system behind them, :func:`qutrit_resonator_model`:
without a swap drive it gives the idle windows of ``leakage-rb``, and with
one it is the model the tests integrate as the ODE oracle of the reset and
leakage-recovery closed forms.  That integrator, ``propagate``, and the
pointwise envelope ``envelope_value`` live with the tests
(``tests/oracles.py``): no scenario runs them.

One closed form, :func:`damped_swap`, gives the donor and acceptor
populations of the damped swap, for reset (``reset-dynamics``) and leakage
recovery (``lr-dynamics``) alike, on a whole array of times.  Its damping
is folded into two exponents that both decay, e^{(mu - a) t} and
e^{-2 mu t}, with ``mu - a`` formed without cancellation and without
squaring a rate, so no time or rate overflows.

The models are of Q1 and the readout resonator, whose rates are the four
fields of :class:`~couplersim.circuit.DecayRates`.  Rates and couplings are
cyclic (Hz); formulas convert to angular units internally, consistent with
:mod:`couplersim.numerics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import DecayRates
from .numerics import TWO_PI

EDGE_SIGMAS = 2.5  # each Gaussian edge occupies this many sigma


@dataclass(frozen=True)
class EnvelopeSpec:
    """Flat-top Gaussian pulse envelope.

    Gaussian rise/fall of widths ``sigma_rise`` / ``sigma_fall`` (each edge
    truncated at ``EDGE_SIGMAS`` sigma, offset-subtracted so the envelope is
    exactly 0 at the pulse boundary and 1 on the plateau).
    """

    total_length: float
    sigma_rise: float
    sigma_fall: float

    def __post_init__(self):
        if self.total_length <= 0:
            raise ValueError("total_length must be positive")
        if self.sigma_rise < 0 or self.sigma_fall < 0:
            raise ValueError("edge widths must be non-negative")
        if EDGE_SIGMAS * (self.sigma_rise + self.sigma_fall) > self.total_length:
            raise ValueError("rise and fall edges do not fit inside total_length")

    @property
    def rise_end(self) -> float:
        return EDGE_SIGMAS * self.sigma_rise

    @property
    def fall_start(self) -> float:
        return self.total_length - EDGE_SIGMAS * self.sigma_fall


def _edge_integral(x: float, sigma: float) -> float:
    """Integral of the offset-subtracted edge over the first x seconds of a
    rise (x measured from the pulse boundary, 0 <= x <= EDGE_SIGMAS*sigma)."""
    if sigma == 0:
        return 0.0
    cut = math.exp(-(EDGE_SIGMAS ** 2) / 2.0)
    e = EDGE_SIGMAS * sigma
    gauss = sigma * math.sqrt(math.pi / 2.0) * (
        math.erf(e / (sigma * math.sqrt(2.0))) - math.erf((e - x) / (sigma * math.sqrt(2.0)))
    )
    return (gauss - cut * x) / (1.0 - cut)


def envelope_area(tau: float, env: EnvelopeSpec) -> float:
    """Accumulated pulse area ``gamma(tau) = int_0^tau A(t) dt``.

    Substituting ``gamma(t)`` for ``t`` in the closed-form swap dynamics
    accounts for the finite pulse edges.
    """
    tau = min(max(tau, 0.0), env.total_length)
    area = _edge_integral(min(tau, env.rise_end), env.sigma_rise)
    if tau > env.rise_end:
        area += min(tau, env.fall_start) - env.rise_end
    if tau > env.fall_start:
        full_fall = _edge_integral(EDGE_SIGMAS * env.sigma_fall, env.sigma_fall)
        remaining = _edge_integral(env.total_length - tau, env.sigma_fall)
        area += full_fall - remaining
    return area


# ---------------------------------------------------------------------------
# damped swap (single-excitation manifold, non-Hermitian model)
# ---------------------------------------------------------------------------

def damped_swap(t, g_tilde: float, gamma_1: float, kappa_r: float):
    """Donor and acceptor populations ``(P_d, P_a)`` of the damped two-level
    swap at the times ``t`` (array in, arrays out; rates cyclic Hz).

    With the angular coupling g, donor decay gamma and acceptor decay kappa,
    a = (kappa + gamma)/4, d = (kappa - gamma)/4 and mu = sqrt(d^2 - g^2),
    real if overdamped and imaginary if underdamped, P_d = c_d^2 and
    P_a = c_a^2 with

        c_d = e^{-a t} (cosh(mu t) + d sinh(mu t)/mu),
        c_a = g e^{-a t} sinh(mu t)/mu,

    and sinh(mu t)/mu = t at mu = 0.  The damping is folded into two
    exponents that both decay (Re mu <= a), so no time overflows:

        e^{-a t} cosh(mu t)    = e^{(mu - a) t} (1 + expm1(-2 mu t)/2),
        e^{-a t} sinh(mu t)/mu = -e^{(mu - a) t} expm1(-2 mu t)/(2 mu).

    ``mu - a = -(kappa gamma/4 + g^2)/(mu + a)`` has no cancellation; with
    each term divided by ``mu + a`` first (|g/(mu + a)| <= 1 and
    |kappa/(mu + a)| <= 4) and ``mu = sqrt(|d| - g) sqrt(|d| + g)``, no
    rate is squared, so no rate overflows.  ``expm1`` keeps the sinh
    accurate near critical damping.
    """
    t = np.asarray(t, dtype=float)
    g = TWO_PI * abs(g_tilde)
    kap = TWO_PI * kappa_r
    gam = TWO_PI * gamma_1
    a = (kap + gam) / 4.0
    d = (kap - gam) / 4.0
    mu = np.sqrt(complex(abs(d) - g)) * math.sqrt(abs(d) + g)
    s = mu + a  # zero only if g = gamma = kappa = 0
    mu_minus_a = -(gam / 4.0 * (kap / s) + g * (g / s)) if s else 0.0
    decay = np.exp(mu_minus_a * t)
    e2 = np.expm1(-2.0 * mu * t)
    sinh_over = -e2 / (2.0 * mu) if mu else t
    donor = (decay * (1.0 + e2 / 2.0 + d * sinh_over)).real
    acceptor = (g * decay * sinh_over).real
    return donor * donor, acceptor * acceptor


def swap_completion_time(g_tilde: float, gamma_1: float, kappa_r: float) -> float:
    """Time of the first full swap (first zero of the donor population).

    Damping shifts the extremum away from ``pi/(2 g~)``; the zero of the
    oscillatory bracket is returned.  ``math.inf`` when the system is not
    underdamped (no full swap occurs).
    """
    g = TWO_PI * abs(g_tilde)
    k_delta = TWO_PI * (kappa_r - gamma_1)
    if g <= abs(k_delta) / 4.0 or g == 0.0:
        return math.inf
    m = math.sqrt(g * g - (k_delta / 4.0) ** 2)
    c = k_delta / (4.0 * m)
    theta = math.atan2(1.0, -c)  # first positive root of cos + c sin = 0
    return theta / m


def pulsed_swap_population(t, env: EnvelopeSpec, g_tilde: float,
                           gamma_1: float, kappa_r: float):
    """Damped swap with the envelope-weighted time substitution
    ``t -> gamma(t)`` (accounts for the pulse edges)."""
    area = [envelope_area(ti, env) for ti in np.ravel(t)]
    return damped_swap(area, g_tilde, gamma_1, kappa_r)[0]


# ---------------------------------------------------------------------------
# three-level leakage-recovery dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationVector:
    """Tracked populations, each a number or an array over time.  ``p_r``
    counts the resonator photon and overlaps with ``p_e`` while the
    excitation sits in |e1> (the qubit-state sum ``p_g + p_e + p_f`` is the
    conserved quantity).  The range checks hold elementwise."""

    p_g: float
    p_e: float
    p_f: float
    p_r: float = 0.0

    def __post_init__(self):
        for name in ("p_g", "p_e", "p_f", "p_r"):
            v = np.asarray(getattr(self, name))
            outside = (v < -1e-9) | (v > 1.0 + 1e-9)
            if outside.any():
                raise ValueError(f"{name} = {v[outside].flat[0]} outside [0, 1]")
        if np.any(self.qubit_total > 1.0 + 1e-9):
            raise ValueError("qubit populations exceed unity")

    @property
    def qubit_total(self):
        return self.p_g + self.p_e + self.p_f


def lr_three_level_populations(t, g_tilde: float, rates: DecayRates) -> PopulationVector:
    """Populations during the leakage-recovery drive at the times ``t``,
    starting from |f, 0>.

    The |f0> <-> |e1> swap follows the damped two-level closed form (donor
    decay Gamma_f->e, acceptor decay kappa_R); everything that has left |f>
    is counted as qubit |e> and relaxes to |g> at Gamma_1:

        P_f = damped swap donor population
        P_e = (1 - P_f) * exp(-Gamma_1 t)
        P_g = (1 - P_f) * (1 - exp(-Gamma_1 t))

    This is the probability-conserving reading of the model; the Lindblad
    propagation quantifies the residual approximation error.
    """
    p_f, p_r = damped_swap(t, g_tilde, rates.gamma_fe, rates.kappa_r)
    decay = np.exp(-TWO_PI * rates.gamma1 * np.asarray(t))
    p_e = (1.0 - p_f) * decay
    p_g = (1.0 - p_f) * (1.0 - decay)
    return PopulationVector(p_g=p_g, p_e=p_e, p_f=p_f, p_r=np.minimum(p_r, 1.0))


def lr_swap_time(g_tilde: float, rates: DecayRates) -> float:
    """First full |f0> -> |e1> transfer time (first minimum of P_f)."""
    return swap_completion_time(g_tilde, rates.gamma_fe, rates.kappa_r)


# ---------------------------------------------------------------------------
# qutrit x resonator Lindblad model
# ---------------------------------------------------------------------------

#: basis of the qutrit (g, e, f) x resonator (0, 1 photon) model; level
#: ``"<q><r>"`` has index ``2 q + r``
LEVELS = ("g0", "g1", "e0", "e1", "f0", "f1")


def qutrit_resonator_model(rates: DecayRates, swap: tuple | None = None):
    """Hamiltonian (rad/s) and collapse list of Q1 as a qutrit coupled to
    the lossy readout resonator, on the basis :data:`LEVELS`, for
    :func:`couplersim.numerics.liouvillian` and the ODE oracle ``propagate``
    of ``tests/oracles.py``.

    The collapse operators, in this order: qubit decay e -> g at Gamma_1,
    f -> e at Gamma_fe, dephasing ``sqrt(2) n_q`` at Gamma_phi and photon
    loss at kappa_R, each acting on the other factor as the identity.
    ``swap = (level_a, level_b, g_tilde)`` adds the resonant-frame exchange
    ``H = 2 pi g~ (|a><b| + h.c.)``, the reset (``("e0", "g1", g~)``) or
    leakage-recovery (``("f0", "e1", g~)``) drive; ``None`` gives H = 0,
    the idle windows of ``leakage-rb``.
    """
    h = np.zeros((6, 6), dtype=complex)
    if swap is not None:
        a, b, g_tilde = swap
        i, j = LEVELS.index(a), LEVELS.index(b)
        h[i, j] = h[j, i] = TWO_PI * g_tilde
    resonator = np.eye(2)
    collapse = [
        (np.kron(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex), resonator),
         rates.gamma1),
        (np.kron(np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex), resonator),
         rates.gamma_fe),
        (np.kron(np.diag([0.0, 1.0, 2.0]).astype(complex), resonator) * math.sqrt(2.0),
         rates.gamma_phi),
        (np.kron(np.eye(3), np.array([[0, 1], [0, 0]], dtype=complex)), rates.kappa_r),
    ]
    return h, collapse
