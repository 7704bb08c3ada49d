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

The rate equation and its closed forms (:func:`a2_closed_forms`,
:func:`periodic_lr_trace`) are the incoherent limit of the Monte Carlo
model: they add populations where the Monte Carlo engine adds amplitudes,
so they miss the interference within one cycle between the coherent e<->f
leak rotation and the coherent f0<->e1 recovery swap.  At the table rates
with ``l_cl`` 0.02 and ``n_lr`` 1 the rate equation settles at
P_f = 4.24e-4, while the exact late-time P_f of the Clifford-twirled cycle
is 1.115e-4 (the Monte Carlo mean of ``leakage-rb`` at its defaults, seed
3, reads 1.10-1.17e-4 from 336 Cliffords on); dephasing after either
coherent step brings the exact value to 4.10e-4.

The Monte Carlo step keeps one fixed order of floating-point operations:
that of the batched three-operand ``einsum`` conjugations and complex
window channels it was written with, and a running 2x2 Clifford product
for the inverse gate.  A chunk holds its states in one real layout, rows
(re/im, state, 36) of the row-major vec.  Each gate is the identity except
for a 2x2 block, which :func:`_block_conjugation` applies in whole-batch
ufunc calls on views of the rows that repeat the ``einsum``'s arithmetic
bit for bit.  Each window channel is one real ``(2R, 36) @ (36, 36)`` GEMM
of the rows (:func:`_channel`): the physical windows have zero imaginary
parts, and the real product gives the complex one's bits under the
SkylakeX, Haswell and Prescott kernels of the bundled OpenBLAS, the ones
checked, in blocks of ``_CHANNEL_BLOCK`` rows that run on one thread.  The
joint fit of the curves is ill-conditioned when A2 and B2 are barely
identified: changing the curves by 2e-13 relative moves (A0, A2, B2) by up
to 2e-2, so a reordered step changes the fit reported for a given seed.

The randomizations run on every usable core, in forked children, without
reordering any of that arithmetic.  No operation of the step mixes two
randomizations, and each draws its Cliffords from its own child stream of
the :class:`~couplersim.numerics.RngStream` (whose rule is that parallel
work partitions by child keys).  So :func:`monte_carlo_rb` cuts them into
contiguous chunks of at least ``_MIN_CHUNK`` (20, from a measured
break-even table), runs one ``os.fork`` child per chunk when there are two
or more, and puts the rows back in order before the statistics: the
curves, the fit and the ``leakage-rb`` files are bitwise those of a single
process.  A chunk whose child cannot start or fails runs again in-process.
Threads would not help: numpy holds the GIL through the small ufunc calls
of each gate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .circuit import DecayRates
from .dynamics import LEVELS, qutrit_resonator_model
from .numerics import TWO_PI, RngStream, liouvillian

DEFAULT_N_CL_GRID = tuple(sorted({round(x) for x in np.geomspace(1, 1000, 20).tolist()}))
#: relative gap between the two fitted decays below which :func:`fit_rb`
#: calls them degenerate
DEGENERACY_THRESHOLD = 0.01


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


@dataclass(frozen=True)
class LeakageSteadyStates:
    """Closed-form equilibrium leakage values."""

    a2_leak: float
    a2_lr_full: float
    a2_lr_simplified: float


def a2_closed_forms(scenario: RBScenario) -> LeakageSteadyStates:
    """Equilibrium-leakage closed forms.

    ``a2_leak``: no recovery, f-state relaxation only.  ``a2_lr_full``: with
    recovery, finite fidelity and f-state decay.  ``a2_lr_simplified``: the
    resonator-limited form, i.e. the exact steady state of the simplified
    model (perfect recovery, no f-state decay); its denominator is
    ``4(1 - d_r) + 3 L d_r``.  The no-recovery transient is
    :func:`periodic_lr_trace` at ``n_lr = 0``.

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
    return LeakageSteadyStates(
        a2_leak=float(a2_leak),
        a2_lr_full=float(a2_lr_full),
        a2_lr_simplified=float(a2_lr_simplified),
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


def periodic_lr_trace(scenario: RBScenario, n_max: int) -> np.ndarray:
    """P_f(n_Cl), n_Cl = 0 ... ``n_max``, with recovery every ``scenario.n_lr`` Cliffords.

    Stepwise rate equation (the incoherent limit, see the module
    docstring); produces the shark-fin trace whose maxima stay below
    ``n_lr * l_cl / 2``.  ``n_lr = 0`` gives the no-recovery
    transient.
    """
    cycle = [cycle_matrix(scenario, False), cycle_matrix(scenario, True)]
    vec = np.array([1.0, 0.0, 0.0])
    p_f = np.empty(n_max + 1)
    p_f[0] = 0.0
    for n in range(1, n_max + 1):
        vec = cycle[scenario.n_lr > 0 and n % scenario.n_lr == 0] @ vec
        p_f[n] = vec[1]
    return p_f


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
    index R, so each ufunc call runs over all R states.  ``v`` has shape
    ``(c, 2, 2, *b)``: ``c`` = 2 parts (re, im), or 1 for a real block, and
    ``b`` broadcasts against the batch axes.  ``x`` is overwritten; ``out``
    may be any view of its shape: :func:`monte_carlo_rb` passes views
    (:func:`_views`) of the rows its channels multiply, so no state is copied
    between a gate and a channel.  The intermediate products live in
    ``work``, a dict of arrays keyed by name and shape that the plans of one
    batch share, so running a plan allocates nothing.

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


def _views(rows: np.ndarray) -> tuple:
    """The (re/im, row, column, state) view of states held as rows (re/im,
    state, 36), and their (re/im, q, q', r, r', state) view for kron(u3, I2)."""
    r_count = rows.shape[1]
    return (rows.reshape(2, r_count, 6, 6).transpose(0, 2, 3, 1),
            rows.reshape(2, r_count, 3, 2, 3, 2).transpose(0, 2, 4, 3, 5, 1))


#: rows per GEMM in :func:`_channel`, even (a one-row product would go to
#: gemv, which rounds otherwise): the bundled OpenBLAS runs the real GEMM on
#: one thread up to 404 rows under Haswell and Prescott and 771 under
#: SkylakeX, and threads it from 405 and 772 (cpu/wall of repeated calls,
#: fresh process that loaded numpy first: 1.00 against 1.95-1.99), whose
#: worker would spin through the gates between calls.  A CLI process runs
#: OpenBLAS on one thread (see :mod:`couplersim`); a host program that
#: imported numpy first, such as a test runner, keeps its workers
_CHANNEL_BLOCK = 400


def _channel(sup_t: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """``out`` = the superoperator applied to the states in ``rows``, both
    ``(re/im, state, 36)``; ``sup_t`` is its transpose (row-major vec).

    A real ``sup_t`` (every physical window) is one real GEMM of the
    ``(2R, 36)`` rows per ``_CHANNEL_BLOCK`` rows.  For the three windows it
    gives the complex GEMM's bits under SkylakeX, Haswell and Prescott at
    every R tried from 2 to 450 (``TestMonteCarlo::test_real_channel_keeps_the_complex_bits``)
    if ``sup_t`` is C-contiguous: numpy's transposed view sends up to 33 rows
    to SkylakeX's small-matrix kernel, which rounds otherwise.  Sandybridge
    differs in the last bit at some odd R, and R = 1 misses the gemv that
    numpy sends one complex row to.
    A complex ``sup_t`` (the depolarizing oracle's embedded Y) is one complex
    GEMM on a copy of the states; its real form of four products loses the
    bits under Haswell.
    """
    if np.iscomplexobj(sup_t):
        states = np.empty(rows.shape[1:], dtype=complex)
        states.real, states.imag = rows
        product = states @ sup_t
        out[0], out[1] = product.real, product.imag
        return
    src, dst = rows.reshape(-1, 36), out.reshape(-1, 36)
    for s in range(0, len(src), _CHANNEL_BLOCK):
        np.matmul(src[s:s + _CHANNEL_BLOCK], sup_t, out=dst[s:s + _CHANNEL_BLOCK])


#: fewest randomizations per forked child of :func:`monte_carlo_rb`.  Two
#: children against one process, wall time at the default grid over two
#: rounds of five alternated runs on a 2-vCPU host: ratio 1.06-1.48 at
#: R 24, 0.94-1.18 at R 32, 0.77-0.84 at R 40, 0.94-0.96 at R 50, 0.51-0.55
#: at R 200.  A chunk pays for its child from about 20 randomizations: each
#: gate costs the same number of ufunc calls at any chunk size
_MIN_CHUNK = 20


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_count(r_count: int) -> int:
    """Chunks, one forked child each, for ``r_count`` randomizations; 1 runs
    them in-process."""
    return max(1, min(_usable_cores(), r_count // _MIN_CHUNK))


def _chunks(r_count: int, k: int) -> list[range]:
    """``range(r_count)`` as at most ``k`` contiguous chunks whose sizes
    differ by at most one, none of them smaller than 2 states: a one-state
    chunk would send a complex channel to gemv (see :func:`_channel`)."""
    k = max(1, min(k, r_count // 2))
    ends = [r_count * i // k for i in range(k + 1)]
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def _randomizations(scenario: RBScenario, stream: RngStream, rows: range,
                    windows: dict) -> np.ndarray:
    """P_g and P_f of the randomizations ``rows`` on the scenario grid, as
    one (2, len(rows), len(n_cl_grid)) array; randomization r draws its
    Cliffords from ``stream.child(r)``.  The step of :func:`monte_carlo_rb`,
    with its own buffers."""
    n_grid = np.asarray(scenario.n_cl_grid, dtype=int)
    n_max = int(n_grid.max())
    r_count = len(rows)
    gate_idx = np.empty((r_count, n_max), dtype=np.uint8)  # one byte a draw, indices 0..23
    for row, r in zip(gate_idx, rows):
        row[:] = stream.child(r).integers(0, 24, size=n_max)

    # each gate reads (and overwrites) `state` and writes `gate`, which each
    # channel reads back into `state`; a measurement works on a copy, `meas`
    state, gate, meas = np.zeros((3, 2, r_count, 36))
    (levels, qutrit), (levels_out, qutrit_out), (_, qutrit_meas) = map(_views, (state, gate, meas))
    v_cl, v_inv = np.empty((2, 2, 2, 2, r_count))
    g0, g1, e1, f0, f1 = map(LEVELS.index, ("g0", "g1", "e1", "f0", "f1"))
    # the leak is kron(u3, I2) with u3 = 1 (+) R(theta); recovery acts on
    # the neighbouring levels (e1, f0)
    v_leak = _leak_unitary(scenario.l_cl)[2::2, 2::2].real.reshape(1, 2, 2, 1, 1, 1)
    v_lr = _lr_unitary(scenario.f_lr)[e1:f0 + 1, e1:f0 + 1].real.reshape(1, 2, 2, 1)
    work = {}
    clifford = _block_conjugation(qutrit, v_cl[:, :, :, None, None], 0, qutrit_out, work)
    leak = _block_conjugation(qutrit, v_leak, 1, qutrit_out, work)
    recovery = _block_conjugation(levels, v_lr, e1, levels_out, work)
    inverse = _block_conjugation(qutrit_meas, v_inv[:, :, :, None, None], 0, qutrit_out, work)

    state[0, :, 7 * g0] = 1.0
    ctot = np.broadcast_to(np.eye(2, dtype=complex), (r_count, 2, 2)).copy()
    col = {int(n): j for j, n in enumerate(n_grid)}
    out = np.empty((2, r_count, len(n_grid)))
    p_g, p_f = out
    for n in range(n_max + 1):
        if n > 0:
            gates = gate_idx[:, n - 1]
            np.take(_CLIFFORD_PARTS, gates, axis=3, out=v_cl)
            clifford()
            _channel(windows["cl"], gate, state)
            ctot = np.einsum("rij,rjk->rik", _CLIFFORDS_2[gates], ctot)
            leak()
            _channel(windows["leak"], gate, state)
            if scenario.n_lr > 0 and n % scenario.n_lr == 0:
                recovery()
            else:
                np.copyto(gate, state)
            _channel(windows["lr"], gate, state)
        if n in col:
            # the inverse gate ctot^dag
            np.copyto(v_inv[0], ctot.real.transpose(2, 1, 0))
            np.negative(ctot.imag.transpose(2, 1, 0), out=v_inv[1])
            np.copyto(meas, state)
            inverse()
            _channel(windows["measure"], gate, meas)
            np.add(meas[0, :, 7 * g0], meas[0, :, 7 * g1], out=p_g[:, col[n]])
            np.add(meas[0, :, 7 * f0], meas[0, :, 7 * f1], out=p_f[:, col[n]])
    return out


def _child(run, rows: range, read_fd: int, write_fd: int) -> None:
    """A forked child: sends the bytes of ``run(rows)`` down its pipe and
    leaves through ``os._exit`` only, 0 when all was sent and 1 on any
    error, so that no code of the parent's stack runs on in it."""
    code = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pipe.write(run(rows).tobytes())
        code = 0
    finally:
        os._exit(code)


def _in_children(run, chunks: list[range], n_cols: int) -> list[np.ndarray]:
    """``run(rows)``, a (2, len(rows), n_cols) float array, for every chunk,
    each in a forked child that sends it over an ``os.pipe``; the results in
    chunk order.

    A chunk whose child could not start (no ``os.fork``, or ``OSError``),
    exited non-zero or sent short data is rerun in-process after every child
    is reaped, so a real error is raised here with its own type.  Every
    child is reaped before this returns or raises, killed first when the
    parent leaves on an exception."""
    results = [None] * len(chunks)
    children = {}  # chunk index -> (pid, read end of its pipe)
    try:
        for i, rows in enumerate(chunks):
            fds = ()
            try:
                fds = read_fd, write_fd = os.pipe()
                pid = os.fork()
            except (AttributeError, OSError):
                for fd in fds:
                    os.close(fd)
                continue
            if pid == 0:
                _child(run, rows, read_fd, write_fd)
            os.close(write_fd)
            children[i] = pid, open(read_fd, "rb")
        for i in list(children):
            pid, pipe = children[i]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[i]
            if status == 0 and len(data) == 2 * len(chunks[i]) * n_cols * 8:
                results[i] = np.frombuffer(data).reshape(2, len(chunks[i]), n_cols)
    finally:
        for pid, pipe in children.values():
            import signal  # only when the parent leaves on an exception

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    return [run(rows) if result is None else result for rows, result in zip(chunks, results)]


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
    :func:`~couplersim.dynamics.qutrit_resonator_model` at ``scenario.rates``
    without a drive; otherwise the Clifford window is a depolarizing channel
    of that average gate error and the other windows are noiseless (without
    leakage this is the exact oracle ``P_g = 1/2 + 1/2 (1 - 2 eps)^n``).  ``n_lr = 0`` disables
    recovery and zero rates make every window noiseless.  Each measurement
    applies the inverse of the running Clifford product and then, with
    physical noise, the Clifford-window channel.

    Deterministic per stream, independent of chunking: randomization r
    draws its gates from ``stream.child(r)``, as the :class:`RngStream`
    rule for parallel work asks (partition by child keys), and no operation
    mixes two randomizations.  The window channels are built once, here.
    The randomizations then run as :func:`_chunk_count` contiguous chunks
    (:func:`_chunks`): one chunk in-process, two or more as one ``os.fork``
    child each, which computes its rows of P_g and P_f in buffers of its own
    and sends them over a pipe.  The chunk count is the number of usable
    cores, but no chunk holds fewer than ``_MIN_CHUNK`` = 20 randomizations,
    the break-even of a measured table (two children against one process:
    wall-time ratio 1.06-1.48 at R 24, 0.77-0.84 at R 40, 0.51-0.55 at
    R 200).  This process computes nothing meanwhile: taking a chunk itself
    was no faster at R 200 on 2 vCPUs (medians 0.47-0.57 s either way) and
    faulted about 1,100 pages here against 330.  It puts the (R, n) rows
    back in order before the mean and standard deviation, so the curves are
    bitwise the same for any chunk count, as they are for any even block
    size of :func:`_channel`
    (``TestForkedChunks::test_curves_independent_of_chunks``,
    ``TestMonteCarlo::test_curves_independent_of_channel_blocks``).
    Without ``os.fork``, when it raises ``OSError``, or when a child exits
    non-zero or sends short data, that chunk runs again in-process, so a
    real error is raised here with its own type.  Every child is reaped
    before this returns or raises, and killed first when this process
    fails.  A CLI process forks with no BLAS worker thread, since
    importing :mod:`couplersim` before numpy runs OpenBLAS on one thread.
    A host program that loaded numpy first still has the workers: there
    Python 3.12 and later warn (``DeprecationWarning``) on ``os.fork`` in a
    process that has other threads, and the children call BLAS only on
    blocks below its threading threshold.  In a traced run, the spans of the
    children's calls are not recorded.

    The gates (:func:`_block_conjugation`) and channels (:func:`_channel`)
    are bitwise equal to the ``einsum`` conjugations and complex GEMMs they
    replaced (``TestMonteCarlo::test_curves_keep_their_bits``).  A chunk
    holds its states as real rows (re/im, state, 36) in three buffers: the
    state, the gate output each channel multiplies back into it, and a copy
    to measure.  Each channel is one real GEMM per ``_CHANNEL_BLOCK`` = 400
    rows, which OpenBLAS runs on one thread under SkylakeX, Haswell and
    Prescott (it threads from 772, 405 and 405 rows).  The buffers and the
    gates' work arrays (about 10.8 kB a state at the default grid, Clifford
    draws included) are allocated once per chunk: per gate they took about
    55 times the minor page faults over 200 cycles of 200 states, because
    the heap is trimmed each time the temporaries are freed
    (``TestMonteCarlo::test_monte_carlo_allocates_once`` for this process,
    ``TestForkedChunks::test_children_keep_to_one_core_each`` for the
    children).
    """
    n_grid = np.asarray(scenario.n_cl_grid, dtype=int)
    if depolarizing_error is None:
        windows = _decoherence_superops(scenario)
        windows["measure"] = windows["cl"]
    else:
        noiseless = np.eye(36)
        windows = {"cl": _depolarizing_superop(depolarizing_error),
                   "leak": noiseless, "lr": noiseless, "measure": noiseless}
    # _channel's operands: C-contiguous transposes, real where they can be
    windows = {key: np.ascontiguousarray((sup if sup.imag.any() else sup.real).T)
               for key, sup in windows.items()}
    run = partial(_randomizations, scenario, stream, windows=windows)
    chunks = _chunks(n_randomizations, _chunk_count(n_randomizations))
    if len(chunks) == 1:
        p_g, p_f = run(chunks[0])
    else:
        p_g, p_f = np.concatenate(_in_children(run, chunks, len(n_grid)), axis=1)

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
class RBFit:
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


#: bounds of one decay's (A, B, lambda)
_LOWER, _UPPER = [-1.0, -2.0, 1e-6], [2.0, 2.0, 1.0]


def _least_squares(residuals, p0, lower, upper):
    """scipy's bounded trust-region fit at full precision; returns the end
    point and whether the solver stopped on one of its tolerances."""
    from scipy.optimize import least_squares

    res = least_squares(residuals, np.asarray(p0, dtype=float), bounds=(lower, upper),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return res.x, bool(res.success) and res.status in (1, 2, 3, 4)


def _decay_fit(n, y, lam):
    """``A + B lambda^n`` fitted to one curve, starting at its last point,
    its span and ``lam``."""
    return _least_squares(lambda p: p[0] + p[1] * p[2] ** n - y,
                          [y[-1], y[0] - y[-1], lam], _LOWER, _UPPER)


def fit_rb(n_cl: np.ndarray, p_g: np.ndarray, p_f: np.ndarray) -> RBFit:
    """Fit the leakage-RB curves P_g and P_f jointly in (B2, lambda2).

    The lengths are sorted once on entry, so the fit does not depend on the
    order of the grid: the initial guess reads the first, middle and last
    lengths, and the joint residual runs P_g then P_f at each length, in
    ascending length.  When the two decays come out within
    ``DEGENERACY_THRESHOLD`` (relative) of each other the leakage amplitude
    is poorly identified: the fit is redone with the single-exponential
    model for P_g, a separate one for P_f, and the degeneracy flag is set.
    Non-convergence is flagged on the result (best point still returned),
    never raised.

    The solver stays scipy's bounded trust-region ``least_squares``: the
    fit is ill-posed on long leakage plateaus, where another optimizer lands
    at another end point (a 2e-13 change in the RB curves moves it by up to
    2.4e-2), so the RB outputs are pinned to this solver's
    (``TestFitRB::test_fit_keeps_its_bits``).
    """
    # one row per curve; ragged curves raise here
    curves = np.array([n_cl, p_g, p_f], dtype=float)
    if curves.shape[1] < 5:
        raise ValueError("need at least 5 sequence lengths")
    if not np.isfinite(curves).all():
        raise ValueError("lengths and curves must be finite")
    n, p_g, p_f = curves[:, np.argsort(curves[0])]
    data = np.column_stack([p_g, p_f]).ravel()

    def residuals(p):
        a0, b0, lam0, a2, b2, lam2 = p
        leak = b2 * lam2 ** n
        return np.column_stack([a0 + b0 * lam0 ** n + leak, a2 + leak]).ravel() - data

    (a0, b0, lam0, a2, b2, lam2), converged = _least_squares(
        residuals, _rb_initial_guess(n, p_g, p_f), _LOWER * 2, _UPPER * 2)
    degenerate = bool(abs(lam0 - lam2) < DEGENERACY_THRESHOLD * max(lam0, lam2))
    if degenerate:
        (a0, b0, lam0), g_converged = _decay_fit(n, p_g, 0.99)
        (a2, b2, lam2), f_converged = _decay_fit(n, p_f, 0.9)
        converged = g_converged and f_converged
    return RBFit(a0=a0, b0=b0, lambda0=lam0, a2=a2, b2=b2, lambda2=lam2,
                 converged=converged, degenerate=degenerate)
