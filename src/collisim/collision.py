"""Collision dynamics: per-step unitaries, reduced evolution, CP checks.

Both bath families run on one Kraus kernel, E(M) = Tr_a[U (M (x) F F^dag) U^dag]
= sum_x K_x M K_x^dag, formed by ``_kraus`` and applied by ``_collide``: a product
bath hands over its stack of factors F, one row shared by every step or one per
step, and a single-photon bath moves the four blocks of its one-excitation sector
with F = I_2 (Baragiola et al., PRA 86, 013811 (2012)).
``_kraus_steps`` builds the blocks a chunk of steps at a time, with one batched
product per chunk of unitaries, so a run's per-step loop only applies them.
Step-indexed inputs are raw read-only arrays, each checked once where it is
built; a run keeps its states the same way, checked once at the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np
import scipy.linalg

from . import bath as bath_mod
from . import qcore
from .bath import BathSpec
from .errors import PropagationError, ValidationError
from .qcore import DensityMatrix, Operator

# Looser PSD tolerance while propagating: absorbs round-off accumulated over
# long runs; anything beyond it is treated as a numeric failure, not noise.
RUN_PSD_TOL = -1e-7

CHOI_MAX_SYSTEM_DIM = 16


@dataclass(frozen=True, eq=False)
class CollisionSpec:
    """Everything needed to run one collision stream.

    The coupling strength is given either directly (``g``) or through a
    target decay rate (``gamma``), in which case g = sqrt(gamma/dt) and the
    emergent rate g^2 dt reproduces gamma exactly.  ``h_sys_table``, an
    (N, d, d) array of Hermitian matrices kept read-only, optionally
    overrides the system Hamiltonian per step (row k - 1 at step k), which
    is how externally driven systems are expressed.
    """

    h_sys: Operator
    coupling: Operator
    dt: float
    n_steps: int
    d_anc: int
    g: float | None = None
    gamma: float | None = None
    h_sys_table: np.ndarray | None = None

    def __post_init__(self):
        if not self.dt > 0:  # written so that NaN fails too, here and below
            raise ValidationError("dt must be positive")
        if self.n_steps < 0:
            raise ValidationError("n_steps must be >= 0")
        if self.d_anc < 2:
            raise ValidationError("ancilla dimension must be >= 2")
        if (self.g is None) == (self.gamma is None):
            raise ValidationError("exactly one of g or gamma must be set")
        if self.gamma is not None and not self.gamma > 0:
            raise ValidationError("gamma must be positive")
        if self.g is not None and not math.isfinite(self.g):
            raise ValidationError("g must be finite")
        if self.h_sys.dims != self.coupling.dims:
            raise ValidationError("h_sys and coupling act on different spaces")
        if self.h_sys_table is not None:
            table = qcore.checked_stack(self.h_sys_table, (self.h_sys.side,) * 2, "h_sys_table",
                                        qcore.first_non_hermitian)
            if len(table) < self.n_steps:
                raise ValidationError("h_sys_table shorter than n_steps")
            object.__setattr__(self, "h_sys_table", table)

    @property
    def d_sys(self) -> int:
        return self.h_sys.side

    @property
    def coupling_strength(self) -> float:
        """g, computed as sqrt(gamma/dt) in rate mode."""
        if self.g is not None:
            return self.g
        return math.sqrt(self.gamma / self.dt)

    @property
    def rate(self) -> float:
        """Emergent dissipator rate g^2 dt; exactly gamma in rate mode."""
        if self.gamma is not None:
            return self.gamma
        return self.g * self.g * self.dt


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Reduced states, one read-only (T, d, d) array, and expectations on a time grid."""

    times: np.ndarray
    states: np.ndarray
    observables: dict[str, np.ndarray]

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex).view()  # read-only view, no copy
        states.setflags(write=False)
        if states.ndim != 3 or states.shape[1] != states.shape[2] or len(states) != len(times):
            raise ValidationError(f"states of shape {states.shape} are not one (d, d) per time")
        if not np.all(np.diff(times) > 0):
            raise ValidationError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.states)


def interaction_operator(spec: CollisionSpec) -> Operator:
    """Dimensionless exchange coupling b (x) adag + bdag (x) a on S (x) ancilla."""
    a = qcore.annihilator(spec.d_anc)
    return qcore.tensor(spec.coupling, a.dag()) + qcore.tensor(spec.coupling.dag(), a)


def _unitaries(spec: CollisionSpec, steps: Sequence[int]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (c, U) for the next c of the 1-based collisions in ``steps``, in order: U the (c, D, D)
    stack of U_k = exp(-i (H_S (x) I + g v) dt) from one batched expm of qcore.STACK_CHUNK_BYTES
    at most, or a static spec's one U as (1, D, D), formed once and yielded for every chunk."""
    table, rows = spec.h_sys_table, np.asarray(steps, dtype=int) - 1
    off = [] if table is None else rows[(rows < 0) | (rows >= len(table))]
    if len(off):
        raise ValidationError(f"step {off[0] + 1} outside 1..{len(table)} of h_sys_table")
    side = spec.d_sys * spec.d_anc
    batch = max(1, qcore.STACK_CHUNK_BYTES // (16 * side * side))
    coupling = spec.coupling_strength * interaction_operator(spec).data
    us = None
    for lo in range(0, len(rows), batch):
        if us is None or table is not None:
            hs = spec.h_sys.data[None] if table is None else table[rows[lo:lo + batch]]
            h = np.einsum("nij,ab->niajb", hs, np.eye(spec.d_anc))
            gens = h.reshape(-1, side, side) + coupling  # H (x) I + g v
            us = scipy.linalg.expm(-1j * spec.dt * gens)
        yield len(rows[lo:lo + batch]), us


def _kraus(u: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus blocks of E(M) = Tr_a[U (M (x) F F^dag) U^dag] = sum_x K_x M K_x^dag,
    K_x = sum_b <a|U|b> F_br for x = (r, a), as the pair [..., i, (j, x)] = (K_x)_ij and
    [..., j, (x, i)] = (K_x^dag)_ji, each of shape (..., d, d r d_a), for U of shape (..., D, D)
    and F of shape (..., d_a, r), stacks broadcast against each other: one batched product."""
    d_a = f.shape[-2]
    d = u.shape[-1] // d_a
    k = u.reshape(u.shape[:-2] + (-1, d_a)) @ f
    k = k.reshape(k.shape[:-2] + (d, d_a, d, -1))
    *lead, i, a, j, r = range(k.ndim)
    shape = k.shape[:-4] + (d, -1)
    return (k.transpose(*lead, i, j, r, a).reshape(shape),  # [..., i, (j, r, a)]
            k.transpose(*lead, j, r, a, i).conj().reshape(shape))  # [..., j, (r, a, i)]


def _kraus_steps(spec: CollisionSpec, n: int, fs) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the Kraus pair of each collision 1..n, in order: U_k against F_k = fs[k - 1], a
    (d_a, r) factor or a ket per row, where a one-row ``fs`` serves every step.  The pairs of a
    chunk of ``_unitaries`` come from one ``_kraus`` call, and a static U against a one-row
    ``fs`` is one pair, formed once.  O(d_a r d^3) per step."""
    pair = u_prev = None
    lo = 0
    for count, us in _unitaries(spec, range(1, n + 1)):
        if us is not u_prev or len(fs) > 1:
            f = np.asarray(fs[lo:lo + count] if len(fs) > 1 else fs)
            pair = _kraus(us, f.reshape(len(f), spec.d_anc, -1))
        u_prev, lo = us, lo + count
        ks, ks_dag = pair  # one pair per step, or one for all of them
        yield from (zip(ks, ks_dag) if len(ks) == count
                    else itertools.repeat((ks[0], ks_dag[0]), count))


def _collide(k: np.ndarray, k_dag: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_x K_x m K_x^dag for m of shape (..., q, q), as two matrix products, with k = [i, (j, x)]
    of shape (p, q n) and k_dag = [j, (x, i)] of shape (q, n p)."""
    return k @ (m.reshape(-1, len(k_dag)) @ k_dag).reshape(m.shape[:-2] + (-1, len(k)))


def collision_unitary(spec: CollisionSpec, step: int = 1) -> Operator:
    """U = exp(-i (H_S (x) I + g v) dt) for the collision at `step` (1-based)."""
    return Operator(next(_unitaries(spec, [step]))[1][0], spec.h_sys.dims + (spec.d_anc,))


def collide_once(rho: DensityMatrix, eta: DensityMatrix, u: Operator) -> DensityMatrix:
    """Reduced state after one collision: Tr_anc{ U (rho (x) eta) U^dag }."""
    if u.dims != rho.dims + eta.dims:
        raise ValidationError(
            f"unitary dims {u.dims} do not match system {rho.dims} + ancilla {eta.dims}"
        )
    k, k_dag = _kraus(u.data, bath_mod._factor(eta.data))
    return DensityMatrix(Operator(_collide(k, k_dag, rho.data), rho.dims))


def _checked_trajectory(dt: float, states: np.ndarray,
                        observables: Mapping[str, Operator] | None) -> Trajectory:
    """Trajectory on the grid k dt; PropagationError names the first non-state (RUN_PSD_TOL)."""
    bad = qcore.first_invalid_state(states, RUN_PSD_TOL)
    if bad is not None:
        step, reason = bad
        raise PropagationError(f"state invariant breached at step {step}: {reason}", step=step)
    obs = {name: np.einsum("ij,tji->t", op.data, states) for name, op in (observables or {}).items()}
    return Trajectory(np.arange(len(states)) * dt, states, obs)


def _check_bath(spec: CollisionSpec, bath: BathSpec, kind: str | None = None,
                rho0: DensityMatrix | None = None) -> None:
    """ValidationError unless ``bath`` (of ``kind``) and ``rho0`` (where given) fit ``spec``."""
    if kind not in (None, bath.kind):
        raise ValidationError(f"run needs a {kind} bath, got a {bath.kind} one")
    if bath.d != spec.d_anc:
        raise ValidationError(f"bath ancilla dimension {bath.d} != spec d_anc {spec.d_anc}")
    if bath.n_steps < spec.n_steps or (bath.kind == bath_mod.CORRELATED_PURE
                                       and bath.n_steps != spec.n_steps):
        raise ValidationError(f"bath covers {bath.n_steps} steps, spec wants {spec.n_steps}")
    if rho0 is not None and rho0.dims != spec.h_sys.dims:
        raise ValidationError("initial state on wrong space")


def run_product(spec: CollisionSpec, bath: BathSpec, rho0: DensityMatrix,
                observables: Mapping[str, Operator] | None = None) -> Trajectory:
    """Iterated collisions against a product bath, reading its factor rows."""
    _check_bath(spec, bath, bath_mod.PRODUCT, rho0)

    n, d = spec.n_steps, rho0.side
    states = np.empty((n + 1, d, d), dtype=complex)
    states[0] = rho0.data
    for k, (kraus, kraus_dag) in enumerate(_kraus_steps(spec, n, bath.etas)):  # _collide, in place
        np.matmul(kraus, (states[k] @ kraus_dag).reshape(-1, d), out=states[k + 1])
    return _checked_trajectory(spec.dt, states, observables)


def _run_correlated_raw(spec: CollisionSpec, n: int, phi: np.ndarray,
                        m0: np.ndarray) -> np.ndarray:
    """System marginals, shape (..., n + 1, d_S, d_S), of m0 (one matrix or a stack) before and
    after each of the collisions 1..n of ``spec`` against the one-photon bath
    sum_k phi_k |1_k>: linear in m0, unchecked.

    After n collisions the joint state is A (x) |v><v| + B (x) |P_n><v| + B' (x) |v><P_n|
    + C (x) |P_n><P_n|, with |v> the vacuum and |P_n> = sum_{k>n} phi_k |1_k> unnormalised; its
    marginal is A + w_n C, w_n = <P_n|P_n>, and B' is not B^dag when m0 is not Hermitian.  As
    |P_n> = p |1_{n+1}> + |0_{n+1}>|P_{n+1}>, p = phi_{n+1}, each block X meets the next ancilla
    as Y_X = sum_rs Y_X[r, s] (x) |r><s| on S (x) ancilla (Y_A = [[A, p* B'], [p B, |p|^2 C]],
    Y_B = [[B, p* C], [0, 0]], Y_B' = [[B', 0], [p C, 0]], Y_C = [[C, 0], [0, 0]]) and leaves as
    Tr_a[U Y_X U^dag]: one ``_collide`` per step, with F = I_2, for all blocks and all m0."""
    d = m0.shape[-1]
    tail = np.append(np.cumsum(np.abs(phi[::-1]) ** 2)[::-1], 0.0).tolist()  # w_n
    x = np.array([np.zeros_like(m0)] * 3 + [m0], dtype=complex)  # A, B, B', C
    y = np.zeros(x.shape[:-1] + (2, d, 2), dtype=complex)  # Y[r, s]_ij at [..., i, r, j, s]
    marginals = [m0]
    for (k, k_dag), p, w in zip(_kraus_steps(spec, n, np.eye(2)[None]), phi.tolist(), tail[1:]):
        y[..., 0, :, 0] = x  # Y_X[0, 0] = X
        y[:2, ..., 0, :, 1] = p.conjugate() * x[2:]  # Y_A[0, 1] = p* B', Y_B[0, 1] = p* C
        y[::2, ..., 1, :, 0] = p * x[1::2]  # Y_A[1, 0] = p B, Y_B'[1, 0] = p C
        y[0, ..., 1, :, 1] = abs(p) ** 2 * x[3]  # Y_A[1, 1] = |p|^2 C
        x = _collide(k, k_dag.reshape(2 * d, -1), y.reshape(x.shape[:-2] + (2 * d, 2 * d)))
        marginals.append(x[0] + w * x[3])
    return np.stack(marginals, axis=-3)


def run_correlated(spec: CollisionSpec, bath: BathSpec, rho0: DensityMatrix,
                   observables: Mapping[str, Operator] | None = None) -> Trajectory:
    """Collision stream against a single-photon bath (memory-carrying), in its
    one-excitation sector: O(d_S^3) per step, whatever the number of ancillas."""
    _check_bath(spec, bath, bath_mod.CORRELATED_PURE, rho0)

    states = _run_correlated_raw(spec, spec.n_steps, bath.phi, rho0.data)
    return _checked_trajectory(spec.dt, states, observables)


# ---------------------------------------------------------------------------
# complete-positivity checks
# ---------------------------------------------------------------------------

def choi_of_collision(spec: CollisionSpec, eta: DensityMatrix) -> Operator:
    """Choi matrix of the single-collision map against ancilla state eta.

    C = sum_ij E[|i><j|] (x) |i><j|; the map is completely positive iff C
    is PSD, and trace-preserving iff the partial trace over the first
    (output) factor is the identity.  It is the step-1 map of the one-row bath of eta.
    """
    return step_map_choi(replace(spec, n_steps=1), bath_mod.product_bath(eta, 1), 1)


def _choi_from_superoperator(m: np.ndarray, d: int) -> np.ndarray:
    # column k = i*d+j of m is vec(E[|i><j|]); reshuffle to sum_ij E[|i><j|] (x) |i><j|
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def step_map_superoperator(spec: CollisionSpec, bath: BathSpec, step: int) -> np.ndarray:
    """The map rho_{step-1} -> rho_{step} as a row-major superoperator.

    For a product bath this is the collision map of that step itself, the
    row-major d^2 x d^2 matrix sum_x K_x (x) conj(K_x) read off the Kraus blocks
    of the bath's factor, as vec(K m K^dag) = (K (x) conj(K)) vec(m).  For
    a correlated bath it is reconstructed by tomography: the d_S^2 matrix
    units are propagated through collisions 1..step in one pass, and the
    earlier map is divided out; the result is one convention for "the"
    step map and need not be completely positive.
    """
    if not 1 <= step <= spec.n_steps:
        raise ValidationError(f"step {step} outside 1..{spec.n_steps}")
    d_s = spec.d_sys
    if d_s > CHOI_MAX_SYSTEM_DIM:
        raise ValidationError(f"system dimension {d_s} too large for a step map")
    _check_bath(spec, bath)
    if bath.kind == bath_mod.PRODUCT:
        k, _ = _kraus(next(_unitaries(spec, [step]))[1][0], bath.factor(step))
        blocks = k.reshape(d_s, d_s, -1)  # [i, j, x]
        return np.einsum("ijx,klx->ikjl", blocks, blocks.conj()).reshape(d_s * d_s, -1)
    units = np.eye(d_s * d_s, dtype=complex).reshape(-1, d_s, d_s)
    runs = _run_correlated_raw(spec, step, bath.phi, units)[:, -2:]
    # row k of runs[:, j] is matrix unit k after step - 1 + j collisions; after = L before
    before, after = (runs[:, j].reshape(d_s * d_s, -1) for j in (0, 1))
    return np.linalg.solve(before, after).T


def step_map_choi(spec: CollisionSpec, bath: BathSpec, step: int) -> Operator:
    d_s = spec.d_sys
    m = step_map_superoperator(spec, bath, step)
    return Operator(_choi_from_superoperator(m, d_s), (d_s, d_s))
