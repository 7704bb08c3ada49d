"""Randomized benchmarking with leakage: rate-equation engine and closed
forms, Monte Carlo qutrit Clifford simulation, leakage-RB curve fitting and
periodic leakage-recovery traces.

Both engines run the per-Clifford cycle
Clifford -> leakage injection -> (every ``n_lr``-th cycle) leakage recovery.
The rate equation steps the population vector (P_subspace, P_f, P_resonator)
with :func:`cycle_matrix`; the qubit probability P_subspace + P_f is
conserved and the resonator column drains at its decay rate.  The Monte
Carlo engine evolves qutrit x resonator density matrices: exact Clifford
unitaries, unitary leakage and recovery, and per-window Lindblad channels
of :func:`dynamics.qutrit_resonator_model` (row-major vec convention).
``n_lr = 0`` is the run without recovery and zero rates the noiseless run.

The rate equation and its closed forms (:func:`steady_state_leakage`,
:func:`a2_closed_forms`, :func:`periodic_lr_trace`) are the incoherent
limit of the Monte Carlo model: they add populations where the Monte Carlo
engine adds amplitudes, so they miss the interference within one cycle
between the coherent e<->f leak rotation and the coherent f0<->e1 recovery
swap.  At the table rates with ``l_cl`` 0.02 and ``n_lr`` 1 the rate
equation settles at P_f = 4.24e-4, while the exact late-time P_f of the
Clifford-twirled cycle is 1.115e-4 (the Monte Carlo mean of ``leakage-rb``
at its defaults, seed 3, reads 1.10-1.17e-4 from 336 Cliffords on);
dephasing after either coherent step brings the exact value to 4.10e-4.

The Monte Carlo step keeps one fixed order of floating-point operations:
that of the batched three-operand ``einsum`` conjugations it was written
with, the window channels and a running 2x2 Clifford product for the
inverse gate.  Each gate (Clifford, leak, recovery, inverse) is the identity
except for a 2x2 block, and :func:`_block_conjugation` applies it in a few
whole-batch ufunc calls that repeat the ``einsum``'s arithmetic bit for bit,
with the state axis last so that every call runs over contiguous rows of
all R states, and with its work buffers allocated once per call of
:func:`monte_carlo_rb`.  The window channels run as one GEMM per block of
32 states (see :func:`_channel`): one GEMM over all states is large enough
for OpenBLAS to start a worker thread, which busy-waits on a second core
between calls; the blocks give the same bits and stay on one core.  The
joint fit of the curves is ill-conditioned when A2 and B2 are barely
identified: changing the curves by 2e-13 relative moves (A0, A2, B2) by up
to 2e-2, so a reordered step changes the fit reported for a given seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .circuit import DecayRates
from .dynamics import LEVELS, qutrit_resonator_model
from .numerics import TWO_PI, RngStream, fit_least_squares, liouvillian

DEFAULT_N_CL_GRID = tuple(sorted({round(x) for x in np.geomspace(1, 1000, 20).tolist()}))
#: relative gap between the two fitted decays below which :func:`fit_rb`
#: calls them degenerate
DEGENERACY_THRESHOLD = 0.01
#: stopping rule of the steady-state power iteration
_POWER_TOL = 1e-14
_POWER_MAX_ITER = 2_000_000


@dataclass(frozen=True)
class RBScenario:
    """Leakage-RB scenario parameters.

    ``l_cl`` is the injected leakage per Clifford, ``f_lr`` the recovery
    success probability and ``n_lr`` the recovery cadence (every N
    Cliffords; 0 disables recovery).  Times are seconds, rates cyclic Hz;
    ``rates`` are those of the benchmarked qubit Q1 and the resonator; the
    rate equation reads only ``gamma_fe`` and ``kappa_r``.

    The default ``f_lr`` is the paper's measured 98.5 %, which both engines
    apply as given (:func:`monte_carlo_rb` as an instantaneous partial
    swap).  The driven |f0> <-> |e1> swap of
    :func:`~couplersim.dynamics.qutrit_resonator_model` over one ``tau_lr``
    at the table rates recovers about 99.7 %; the test
    ``TestLeakageRecoveryDynamics.test_driven_lr_window_against_the_other_lr_models``
    in ``tests/test_dynamics.py`` pins that gap.
    """

    l_cl: float
    rates: DecayRates
    tau_cl: float = 200e-9
    tau_leak: float = 100e-9
    tau_lr: float = 310e-9
    f_lr: float = 0.985
    n_lr: int = 1
    n_cl_grid: tuple = DEFAULT_N_CL_GRID

    def __post_init__(self):
        if not 0.0 <= self.l_cl <= 1.0:
            raise ValueError("l_cl must lie in [0, 1]")
        if not 0.0 <= self.f_lr <= 1.0:
            raise ValueError("f_lr must lie in [0, 1]")
        if min(self.tau_cl, self.tau_leak, self.tau_lr) < 0:
            raise ValueError("durations must be non-negative")
        if self.n_lr < 0:
            raise ValueError("n_lr must be >= 0 (0 disables recovery)")
        if len(set(self.n_cl_grid)) != len(self.n_cl_grid):
            raise ValueError("n_cl_grid lengths must be distinct")

    @property
    def d_q(self) -> float:
        """f-state survival over one Clifford, exp(-tau_cl * Gamma_fe)."""
        return math.exp(-self.tau_cl * TWO_PI * self.rates.gamma_fe)

    @property
    def d_r(self) -> float:
        """Resonator survival over one full cycle."""
        tau = self.tau_cl + self.tau_leak + self.tau_lr
        return math.exp(-tau * TWO_PI * self.rates.kappa_r)


# ---------------------------------------------------------------------------
# rate-equation engine
# ---------------------------------------------------------------------------

def rate_matrices(scenario: RBScenario) -> dict:
    """The four per-cycle transfer matrices on (P_sub, P_f, P_R)."""
    l_cl, f_lr = scenario.l_cl, scenario.f_lr
    m_leak = np.array([
        [1.0 - l_cl / 2.0, l_cl, 0.0],
        [l_cl / 2.0, 1.0 - l_cl, 0.0],
        [0.0, 0.0, 1.0],
    ])
    m_lr = np.array([
        [1.0, f_lr, -f_lr / 2.0],
        [0.0, 1.0 - f_lr, f_lr / 2.0],
        [0.0, f_lr, 1.0 - f_lr / 2.0],
    ])
    m_fe = np.array([
        [1.0, 1.0 - scenario.d_q, 0.0],
        [0.0, scenario.d_q, 0.0],
        [0.0, 0.0, 1.0],
    ])
    m_r = np.diag([1.0, 1.0, scenario.d_r])
    return {"leak": m_leak, "lr": m_lr, "fe": m_fe, "r": m_r}


def cycle_matrix(scenario: RBScenario, with_lr: bool) -> np.ndarray:
    m = rate_matrices(scenario)
    if with_lr:
        return m["r"] @ m["fe"] @ m["lr"] @ m["leak"]
    return m["fe"] @ m["leak"]


def steady_state_leakage(scenario: RBScenario, with_lr: bool) -> float:
    """Equilibrium P_f by power iteration of the cycle matrix (the oracle
    for the closed forms): at most ``_POWER_MAX_ITER`` steps, stopping when
    no entry moves by ``_POWER_TOL``.

    A rate-equation value, the incoherent limit of the Monte Carlo model
    (see the module docstring); test oracle of the ``leakage-rb``
    ``a2_closed_forms``."""
    m = cycle_matrix(scenario, with_lr)
    vec = np.array([1.0, 0.0, 0.0])
    for _ in range(_POWER_MAX_ITER):
        new = m @ vec
        if np.max(np.abs(new - vec)) < _POWER_TOL:
            return float(new[1])
        vec = new
    warnings.warn("power iteration did not converge to tolerance", UserWarning, stacklevel=2)
    return float(vec[1])


@dataclass(frozen=True)
class LeakageSteadyStates:
    """Closed-form equilibrium leakage values and the no-recovery transient."""

    a2_leak: float
    a2_lr_full: float
    a2_lr_simplified: float
    n_cl: np.ndarray
    p_f_of_n: np.ndarray


def a2_closed_forms(scenario: RBScenario) -> LeakageSteadyStates:
    """Equilibrium-leakage closed forms.

    ``a2_leak``: no recovery, f-state relaxation only.  ``a2_lr_full``: with
    recovery, finite fidelity and f-state decay.  ``a2_lr_simplified``: the
    resonator-limited form, i.e. the exact steady state of the simplified
    model (perfect recovery, no f-state decay); its denominator is
    ``4(1 - d_r) + 3 L d_r``.  ``p_f_of_n`` is the no-recovery transient on
    the scenario grid.

    All are rate-equation values, the incoherent limit of the Monte Carlo
    model (see the module docstring).
    """
    l_cl = scenario.l_cl
    d_q, d_r, f_lr = scenario.d_q, scenario.d_r, scenario.f_lr
    e_fe = 1.0 / d_q if d_q else math.inf  # d_q = 0: no f survives a Clifford

    denom_leak = 3.0 * l_cl + 2.0 * (e_fe - 1.0)
    a2_leak = l_cl / denom_leak if denom_leak > 0 else (1.0 / 3.0 if l_cl > 0 else 0.0)

    block = 2.0 - 2.0 * f_lr + d_r * (3.0 * f_lr - 2.0)
    denom_full = 4.0 + 2.0 * d_r * (f_lr - 2.0) + (3.0 * l_cl - 2.0) * d_q * block
    a2_lr_full = l_cl * d_q * block / denom_full

    a2_lr_simplified = l_cl * d_r / (4.0 * (1.0 - d_r) + 3.0 * l_cl * d_r)

    n = np.asarray(scenario.n_cl_grid, dtype=float)
    base = d_q * (1.0 - 1.5 * l_cl)
    if denom_leak > 0:
        p_f = l_cl * (1.0 - base ** n) / denom_leak
    else:
        p_f = np.full_like(n, 0.0)
    return LeakageSteadyStates(
        a2_leak=float(a2_leak),
        a2_lr_full=float(a2_lr_full),
        a2_lr_simplified=float(a2_lr_simplified),
        n_cl=n.astype(int),
        p_f_of_n=p_f,
    )


@dataclass(frozen=True)
class ErrorModels:
    eps_ref: float
    eps_leak: float
    eps_lr: float
    breakeven_l: float


def error_models(scenario: RBScenario) -> ErrorModels:
    """Average-gate-error models (decoherence plus leakage terms):

        eps_ref  = Gamma_S tau_Cl / 3
        eps_leak = Gamma_S (tau_Cl + tau_leak) / 3 + L/2
        eps_LR   = Gamma_S (tau_Cl + tau_leak + tau_LR) / 3 + L/6

    and the break-even injected leakage ``L* = tau_LR * Gamma_S`` above
    which recovery lowers the total error.  Gamma_S is angular internally.
    """
    gs = TWO_PI * scenario.rates.gamma_sigma
    l_cl = scenario.l_cl
    return ErrorModels(
        eps_ref=gs * scenario.tau_cl / 3.0,
        eps_leak=gs * (scenario.tau_cl + scenario.tau_leak) / 3.0 + l_cl / 2.0,
        eps_lr=gs * (scenario.tau_cl + scenario.tau_leak + scenario.tau_lr) / 3.0 + l_cl / 6.0,
        breakeven_l=gs * scenario.tau_lr,
    )


def periodic_lr_trace(scenario: RBScenario) -> tuple[np.ndarray, np.ndarray]:
    """P_f(n_Cl) when recovery runs only every ``scenario.n_lr`` Cliffords.

    Stepwise rate equation (the incoherent limit, see the module
    docstring); produces the shark-fin trace whose maxima stay below
    ``n_lr * l_cl / 2``.  ``n_lr = 0`` gives the no-recovery
    transient.
    """
    n_max = int(max(scenario.n_cl_grid))
    cycle = [cycle_matrix(scenario, False), cycle_matrix(scenario, True)]
    vec = np.array([1.0, 0.0, 0.0])
    p_f = np.empty(n_max + 1)
    p_f[0] = 0.0
    for n in range(1, n_max + 1):
        vec = cycle[scenario.n_lr > 0 and n % scenario.n_lr == 0] @ vec
        p_f[n] = vec[1]
    return np.arange(n_max + 1), p_f


# ---------------------------------------------------------------------------
# qutrit Clifford Monte Carlo
# ---------------------------------------------------------------------------

def _canonical_phase(u: np.ndarray) -> np.ndarray:
    flat = u.reshape(-1)
    k = np.argmax(np.abs(flat) > 1e-9)
    return u * (np.abs(flat[k]) / flat[k])


def single_qubit_cliffords() -> np.ndarray:
    """The 24 single-qubit Clifford unitaries (phase-canonical 2x2)."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    seen = {}
    frontier = [np.eye(2, dtype=complex)]
    while frontier:
        new = []
        for u in frontier:
            cu = _canonical_phase(u)
            key = (np.round(cu, 9) + (0.0 + 0.0j)).tobytes()  # clear negative zeros
            if key in seen:
                continue
            seen[key] = cu
            new.extend([cu @ h, cu @ s])
        frontier = new
    table = np.stack(list(seen.values()))
    if table.shape[0] != 24:
        raise RuntimeError(f"Clifford closure produced {table.shape[0]} elements")
    return table


_CLIFFORDS_2 = single_qubit_cliffords()
#: the Clifford table as (re/im, row, column, gate), gathered per cycle into
#: the block of :func:`_block_conjugation`
_CLIFFORD_PARTS = np.ascontiguousarray(
    np.stack([_CLIFFORDS_2.real, _CLIFFORDS_2.imag]).transpose(0, 2, 3, 1))


def _leak_unitary(l_cl: float) -> np.ndarray:
    """Weak |e> <-> |f> rotation injecting leakage l_cl from |e>."""
    c, s = math.sqrt(1.0 - l_cl), math.sqrt(l_cl)
    u3 = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=complex)
    return np.kron(u3, np.eye(2, dtype=complex))


def _lr_unitary(f_lr: float) -> np.ndarray:
    """Partial |f0> <-> |e1> swap with transfer probability f_lr."""
    u = np.eye(6, dtype=complex)
    c, s = math.sqrt(1.0 - f_lr), math.sqrt(f_lr)
    f0, e1 = LEVELS.index("f0"), LEVELS.index("e1")
    u[f0, f0] = c
    u[e1, e1] = c
    u[f0, e1] = -s
    u[e1, f0] = s
    return u


def _decoherence_superops(scenario: RBScenario) -> dict:
    """Lindblad channels of the Clifford, leak and LR windows (row-major
    vec); ``TestDecoherenceWindows`` in ``tests/test_rbsim.py`` pins the
    {g0, e0} fidelity of each to its closed form (LR window: 0.9928)."""
    from scipy.linalg import expm

    liou = liouvillian(*qutrit_resonator_model(scenario.rates))
    return {"cl": expm(liou * scenario.tau_cl),
            "leak": expm(liou * scenario.tau_leak),
            "lr": expm(liou * scenario.tau_lr)}


def _depolarizing_superop(p_error: float) -> np.ndarray:
    """Qubit-subspace depolarizing channel with average gate error p_error.

    Kraus mixture of the embedded Paulis with mixing probability
    ``p' = 2 * p_error`` (``p' = p * d/(d-1)``, d = 2), so the RB decay
    parameter is exactly ``lambda_0 = 1 - 2 * p_error``.
    """
    p_mix = 2.0 * p_error
    paulis = [
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
        np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 1]], dtype=complex),
        np.array([[1, 0, 0], [0, -1, 0], [0, 0, 1]], dtype=complex),
    ]
    ident6 = np.eye(6, dtype=complex)
    sup = (1.0 - 0.75 * p_mix) * np.kron(ident6, ident6.conj())
    for p in paulis:
        u = np.kron(p, np.eye(2, dtype=complex))
        sup = sup + 0.25 * p_mix * np.kron(u, u.conj())
    return sup


@dataclass
class RBCurves:
    """Per-length Monte Carlo survival and leakage statistics."""

    n_cl: np.ndarray
    p_g_mean: np.ndarray
    p_g_std: np.ndarray
    p_f_mean: np.ndarray
    p_f_std: np.ndarray


def _block_conjugation(x, v, a: int, out, work: dict):
    """Plan of ``out = U x U^dag`` for a batch of states, where U is the
    identity except for the 2x2 block ``v`` on levels ``(a, a + 1)``.

    ``x`` and ``out`` hold the real and imaginary parts on their first axis,
    then the two level axes, then batch axes; the last axis is the state
    index R, so each ufunc call runs over contiguous R-long rows and its
    fixed cost is shared by R states.  ``v`` has shape ``(c, 2, 2, *b)``:
    ``c`` = 2 parts (re, im), or 1 for a real block, and ``b`` broadcasts
    against the batch axes.  ``x`` is overwritten; ``out`` may be any view of
    its shape (the caller passes the parts of a complex array).  The
    intermediate products live in ``work``, a dict of arrays keyed by name and
    shape that the plans of one batch share, so running a plan allocates
    nothing.

    The result is bitwise that of ``np.einsum("rij,rjk,rlk->ril", U, x,
    U.conj())`` (``TestBlockConjugation`` in ``tests/test_rbsim.py``), whose
    arithmetic the plan keeps: each term is the textbook complex product
    ``(u_ij x_jk) conj(u_lk)`` in separate real operations (numpy's complex
    ``*`` ufunc uses FMA and rounds differently), summed j-major, k-minor
    from +0.  Terms with a zero factor of U outside the block, and the zero
    imaginary parts of a real block, are dropped, which is exact: a sum that
    starts at +0 is never -0, so adding a signed zero changes no bit; the last
    step adds +0 to every entry, as that sum does.
    """
    n = x.shape[1]
    blk = slice(a, a + 2)
    rest = [s for s in (slice(0, a), slice(a + 2, n)) if s.stop > s.start]
    calls = []

    def buf(name, shape):
        key = (name, shape)
        if key not in work:
            work[key] = np.empty(shape)
        return work[key]

    def product(v_u, w, dst, conj_v):
        # dst = v_u * w, or w * conj(v_u) with conj_v, in real products:
        # m[c, d] is part c of the block entries times part d of w
        if len(v) == 1:
            calls.append(partial(np.multiply, v_u[0], w, dst))
            return
        m = buf("m", (2,) + dst.shape)
        calls.append(partial(np.multiply, v_u[:, None], w, m))
        re, im = (np.add, np.subtract) if conj_v else (np.subtract, np.add)
        calls.append(partial(re, m[0, 0], m[1, 1], dst[0]))
        calls.append(partial(im, m[0, 1], m[1, 0], dst[1]))

    # P[i, j, k] = v_ij x_jk for i, j in the block
    xb = x[:, None, blk]
    p = buf("p", (2, 2) + xb.shape[2:])
    product(v[:, :, :, None], xb, p, False)
    # Q[i, l, k] = x_ik conj(v_lk) for rows i outside the block
    qs = []
    for s in rest:
        xc = x[:, s, None, blk]
        q = buf(f"q{s.start}", xc.shape[:2] + (2,) + xc.shape[3:])
        product(v[:, None], xc, q, True)
        qs.append((s, q))
    # T[i, l, j, k] = P_ijk conj(v_lk) for i, j, l, k in the block, so that
    # (j, k) is one axis; a reduction along an outer axis adds its slices in
    # order, j-major and k-minor as the einsum does
    pb = p[:, :, None, :, blk]
    t = buf("t", pb.shape[:2] + (2,) + pb.shape[3:])
    product(v[:, None, :, None], pb, t, True)
    # rows in the block, every column (the block's own columns are then
    # overwritten by the sum of T), and rows outside it, columns in it
    calls.append(partial(np.add, p[:, :, 0], p[:, :, 1], x[:, blk]))
    for s, q in qs:
        calls.append(partial(np.add, q[:, :, :, 0], q[:, :, :, 1], x[:, s, blk]))
    calls.append(partial(np.add.reduce, t.reshape(t.shape[:3] + (4,) + t.shape[5:]), 3,
                         None, x[:, blk, blk]))
    calls.append(partial(np.add, x, 0.0, out))

    def run():
        for call in calls:
            call()
    return run


def _parts(rho: np.ndarray) -> np.ndarray:
    """The (re/im, row, column, state) view of a batch of 6x6 states."""
    return rho.view(np.float64).reshape(len(rho), 6, 6, 2).transpose(3, 1, 2, 0)


def _qutrit_view(parts: np.ndarray) -> np.ndarray:
    """``parts`` as (re/im, q, q', r, r', state) for operators kron(u3, I2)."""
    return parts.reshape(2, 3, 2, 3, 2, -1).transpose(0, 1, 3, 2, 4, 5)


#: states per GEMM in :func:`_channel`, at least 2: 32 rows stay well under
#: the ~50 rows (measured on a 2-vCPU host) from which the bundled OpenBLAS
#: threads a ``(M, 36) @ (36, 36)`` GEMM, whose worker would otherwise spin
#: through the block conjugations between calls
_CHANNEL_BLOCK = 32


def _channel(sup: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """A superoperator (row-major vec) applied to a batch of states.

    One ``(B, 36) @ (36, 36)`` GEMM per block of B = ``_CHANNEL_BLOCK``
    states; the last block takes what is left, and a single state left over
    joins the block before it, because numpy sends a one-row product to
    gemv, whose round-off differs from gemm's.  One GEMM over all R states
    crosses OpenBLAS's threading threshold (between 50 and 56 rows) and
    hands half of the rows to a worker thread, which then busy-waits through
    the block conjugations between calls and pins a second core for the
    whole run.  The blocked product is bitwise equal to that
    single GEMM (``TestMonteCarlo::test_channel_blocks_keep_the_bits``).
    """
    flat = rho.reshape(len(rho), -1)
    out = np.empty_like(flat)
    sup_t = sup.T
    starts = list(range(0, len(flat), _CHANNEL_BLOCK))
    if len(starts) > 1 and len(flat) - starts[-1] == 1:
        starts.pop()
    for s, e in zip(starts, starts[1:] + [len(flat)]):
        np.matmul(flat[s:e], sup_t, out=out[s:e])
    return out.reshape(rho.shape)


def monte_carlo_rb(
    scenario: RBScenario,
    stream: RngStream,
    n_randomizations: int = 50,
    depolarizing_error: float | None = None,
) -> RBCurves:
    """Monte Carlo leakage RB on a qutrit coupled to a two-level resonator.

    Every cycle applies a random Clifford (an exact unitary on the
    computational subspace), the Clifford-window channel, leakage injection
    (a weak |e> <-> |f> rotation), the leak-window channel, on every
    ``scenario.n_lr``-th cycle the recovery (a partial |f0> <-> |e1> swap),
    and the LR-window channel.  The recovery is instantaneous, at the
    measured ``scenario.f_lr`` (98.5 % by default), not the driven swap of
    the same window, which would recover about 99.7 % (see
    :class:`RBScenario`).  With ``depolarizing_error=None`` the window
    channels are the Lindblad channels of
    :func:`~couplersim.dynamics.qutrit_resonator_model` at
    ``scenario.rates`` without a drive; otherwise the
    Clifford window is a depolarizing channel of that average gate error
    and the other windows are noiseless (without leakage this is the exact
    oracle ``P_g = 1/2 + 1/2 (1 - 2 eps)^n``).  ``n_lr = 0`` disables
    recovery and zero rates make every window noiseless.  Each measurement
    applies the inverse of the running Clifford product and then, with
    physical noise, the Clifford-window channel.  Deterministic per stream,
    independent of chunking: each randomization draws its gates from
    ``stream.child(index)``, and the curves are bitwise the same for any
    block size (2 or more) of :func:`_channel`
    (``TestMonteCarlo::test_curves_independent_of_channel_blocks``).

    The gates are applied by :func:`_block_conjugation`, bitwise equal to the
    three-operand ``einsum`` it replaced, so the curves keep their bits
    (``TestMonteCarlo::test_curves_keep_their_bits``).  Before each gate the
    state is copied from the channel's (R, 6, 6) complex layout to real and
    imaginary parts with the state axis last; the gate writes its result
    back into the channel's input.  Those buffers and the gates' work arrays
    (about 8.6 kB per state) are allocated once per call: allocating them
    per gate took about 55 times the minor page faults over 200 cycles of
    200 states, because the heap is trimmed each time the temporaries are
    freed (``test_monte_carlo_allocates_once``).
    """
    n_grid = np.asarray(scenario.n_cl_grid, dtype=int)
    n_max = int(n_grid.max())
    r_count = n_randomizations

    if depolarizing_error is None:
        windows = _decoherence_superops(scenario)
        measure_window = windows["cl"]
    else:
        noiseless = np.eye(36)
        windows = {"cl": _depolarizing_superop(depolarizing_error),
                   "leak": noiseless, "lr": noiseless}
        measure_window = noiseless
    gate_idx = np.stack([
        stream.child(r).integers(0, 24, size=n_max) for r in range(r_count)
    ])

    # the state, split and with the state axis last, is the input of every
    # block conjugation; each writes the input of the next channel
    parts = np.empty((2, 6, 6, r_count))
    rho_in = np.empty((r_count, 6, 6), dtype=complex)
    qutrit, qutrit_in = _qutrit_view(parts), _qutrit_view(_parts(rho_in))
    v_cl = np.empty((2, 2, 2, r_count))
    v_inv = np.empty((2, 2, 2, r_count))
    g0, g1, e1, f0, f1 = map(LEVELS.index, ("g0", "g1", "e1", "f0", "f1"))
    # the leak is kron(u3, I2) with u3 = 1 (+) R(theta); recovery acts on
    # the neighbouring levels (e1, f0)
    v_leak = _leak_unitary(scenario.l_cl)[2::2, 2::2].real.reshape(1, 2, 2, 1, 1, 1)
    v_lr = _lr_unitary(scenario.f_lr)[e1:f0 + 1, e1:f0 + 1].real.reshape(1, 2, 2, 1)
    work = {}
    clifford = _block_conjugation(qutrit, v_cl[:, :, :, None, None], 0, qutrit_in, work)
    leak = _block_conjugation(qutrit, v_leak, 1, qutrit_in, work)
    recovery = _block_conjugation(parts, v_lr, e1, _parts(rho_in), work)
    inverse = _block_conjugation(qutrit, v_inv[:, :, :, None, None], 0, qutrit_in, work)

    rho = np.zeros((r_count, 6, 6), dtype=complex)
    rho[:, g0, g0] = 1.0
    ctot = np.broadcast_to(np.eye(2, dtype=complex), (r_count, 2, 2)).copy()
    col = {int(n): j for j, n in enumerate(n_grid)}
    p_g = np.empty((r_count, len(n_grid)))
    p_f = np.empty((r_count, len(n_grid)))
    for n in range(n_max + 1):
        if n > 0:
            gates = gate_idx[:, n - 1]
            np.take(_CLIFFORD_PARTS, gates, axis=3, out=v_cl)
            np.copyto(parts, _parts(rho))
            clifford()
            rho = _channel(windows["cl"], rho_in)
            ctot = np.einsum("rij,rjk->rik", _CLIFFORDS_2[gates], ctot)
            np.copyto(parts, _parts(rho))
            leak()
            rho = _channel(windows["leak"], rho_in)
            if scenario.n_lr > 0 and n % scenario.n_lr == 0:
                np.copyto(parts, _parts(rho))
                recovery()
                rho = rho_in
            rho = _channel(windows["lr"], rho)
        if n in col:
            # the inverse gate ctot^dag
            np.copyto(v_inv[0], ctot.real.transpose(2, 1, 0))
            np.negative(ctot.imag.transpose(2, 1, 0), out=v_inv[1])
            np.copyto(parts, _parts(rho))
            inverse()
            rho_m = _channel(measure_window, rho_in)
            p_g[:, col[n]] = (rho_m[:, g0, g0] + rho_m[:, g1, g1]).real
            p_f[:, col[n]] = (rho_m[:, f0, f0] + rho_m[:, f1, f1]).real

    return RBCurves(
        n_cl=n_grid,
        p_g_mean=p_g.mean(axis=0),
        p_g_std=p_g.std(axis=0, ddof=1),
        p_f_mean=p_f.mean(axis=0),
        p_f_std=p_f.std(axis=0, ddof=1),
    )


# ---------------------------------------------------------------------------
# leakage-RB fitting
# ---------------------------------------------------------------------------

@dataclass
class RBFitResult:
    """Joint leakage-RB fit of P_g and P_f sharing (B2, lambda2):

        P_g = A0 + B0 lambda0^n + B2 lambda2^n
        P_f = A2 + B2 lambda2^n

    ``epsilon = (1 - lambda0 + L2)/2`` with ``L2 = (1 - A2)(1 - lambda2)``.
    """

    a0: float
    b0: float
    lambda0: float
    a2: float
    b2: float
    lambda2: float
    converged: bool
    degenerate: bool = False

    @property
    def l2(self) -> float:
        return (1.0 - self.a2) * (1.0 - self.lambda2)

    @property
    def epsilon(self) -> float:
        return (1.0 - self.lambda0 + self.l2) / 2.0


def _rb_initial_guess(n, p_g, p_f):
    tail = max(2, len(n) // 5)
    a2 = float(np.mean(p_f[-tail:]))
    b2 = float(p_f[0] - a2)
    lam2 = 0.9
    if abs(b2) > 1e-12:
        mid = float(p_f[len(n) // 2] - a2)
        if mid / b2 > 0:
            lam2 = float(np.clip((mid / b2) ** (1.0 / max(n[len(n) // 2] - n[0], 1)), 0.2, 0.999))
    a0 = float(np.mean(p_g[-tail:]))
    b0 = float(p_g[0] - a0)
    lam0 = 0.99
    mid = float(p_g[len(n) // 2] - a0)
    if abs(b0) > 1e-12 and mid / b0 > 0:
        lam0 = float(np.clip((mid / b0) ** (1.0 / max(n[len(n) // 2] - n[0], 1)), 0.2, 0.99999))
    return [a0, b0, lam0, a2, b2, lam2]


def fit_rb(n_cl: np.ndarray, p_g: np.ndarray, p_f: np.ndarray | None = None) -> RBFitResult:
    """Fit leakage-RB curves; joint in (B2, lambda2) when P_f is given.

    When the two decays come out within ``DEGENERACY_THRESHOLD`` (relative)
    of each other the leakage amplitude is poorly identified: the fit is
    redone with the single-exponential model for P_g, a separate one for
    P_f, and the degeneracy flag is set.
    """
    n = np.asarray(n_cl, dtype=float)
    p_g = np.asarray(p_g, dtype=float)
    if len(n) < 5:
        raise ValueError("need at least 5 sequence lengths")

    if p_f is None:
        def model_g(x, a0, b0, lam0):
            return a0 + b0 * lam0 ** x

        fit = fit_least_squares(model_g, n, p_g, [p_g[-1], p_g[0] - p_g[-1], 0.99],
                                bounds=([-1, -2, 1e-6], [2, 2, 1.0]))
        return RBFitResult(a0=fit.params[0], b0=fit.params[1], lambda0=fit.params[2],
                           a2=0.0, b2=0.0, lambda2=1.0, converged=fit.converged)

    p_f = np.asarray(p_f, dtype=float)
    m = len(n)
    x_joint = np.concatenate([n, n])
    y_joint = np.concatenate([p_g, p_f])

    # curve tag rides along as a second x column so the model can split
    x2 = np.column_stack([x_joint, np.concatenate([np.zeros(m), np.ones(m)])])

    def model(x, a0, b0, lam0, a2, b2, lam2):
        nn, tag = x[:, 0], x[:, 1]
        g = a0 + b0 * lam0 ** nn + b2 * lam2 ** nn
        f = a2 + b2 * lam2 ** nn
        return np.where(tag < 0.5, g, f)

    p0 = _rb_initial_guess(n, p_g, p_f)
    lo = [-1.0, -2.0, 1e-6, -1.0, -2.0, 1e-6]
    hi = [2.0, 2.0, 1.0, 2.0, 2.0, 1.0]
    fit = fit_least_squares(model, x2, y_joint, p0, bounds=(lo, hi))
    a0, b0, lam0, a2, b2, lam2 = fit.params

    degenerate = abs(lam0 - lam2) < DEGENERACY_THRESHOLD * max(lam0, lam2)
    if degenerate:
        g_only = fit_rb(n_cl, p_g)

        def model_f(x, a2_, b2_, lam2_):
            return a2_ + b2_ * lam2_ ** x

        f_fit = fit_least_squares(model_f, n, p_f, [p_f[-1], p_f[0] - p_f[-1], 0.9],
                                  bounds=([-1, -2, 1e-6], [2, 2, 1.0]))
        return RBFitResult(a0=g_only.a0, b0=g_only.b0, lambda0=g_only.lambda0,
                           a2=f_fit.params[0], b2=f_fit.params[1], lambda2=f_fit.params[2],
                           converged=g_only.converged and f_fit.converged, degenerate=True)

    return RBFitResult(a0=a0, b0=b0, lambda0=lam0, a2=a2, b2=b2, lambda2=lam2,
                       converged=fit.converged)
