"""Collision dynamics: per-step unitaries, reduced evolution, CP checks.

Two propagation paths are provided.  Against a product bath each collision
is a fixed map E_n(rho) = Tr_a[U_n (rho (x) eta_n) U_n^dag], formed only by
``_operator_sums``.  Correlated baths evolve the joint density matrix of
the system and all not-yet-collided ancillas; the ancilla just collided
with is traced out exactly.  A run keeps its states as one read-only
(T, d, d) array, checked once at the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.linalg

from . import bath as bath_mod
from . import qcore
from .bath import BathSpec
from .errors import PropagationError, ResourceCapError, ValidationError
from .qcore import DensityMatrix, Operator

# Looser PSD tolerance while propagating: absorbs round-off accumulated over
# long runs; anything beyond it is treated as a numeric failure, not noise.
RUN_PSD_TOL = -1e-7

# Dense correlated-bath evolution holds a (d_S * 2^N)-dimensional density
# matrix; 8192 keeps the largest intermediate near 1 GiB.
DEFAULT_JOINT_DIM_CAP = 8192

CHOI_MAX_SYSTEM_DIM = 16


@dataclass(frozen=True, eq=False)
class CollisionSpec:
    """Everything needed to run one collision stream.

    The coupling strength is given either directly (``g``) or through a
    target decay rate (``gamma``), in which case g = sqrt(gamma/dt) and the
    emergent rate g^2 dt reproduces gamma exactly.  ``h_sys_table``
    optionally overrides the system Hamiltonian per step (1-based), which
    is how externally driven systems are expressed.
    """

    h_sys: Operator
    coupling: Operator
    dt: float
    n_steps: int
    d_anc: int
    g: float | None = None
    gamma: float | None = None
    h_sys_table: tuple[Operator, ...] | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.n_steps < 0:
            raise ValidationError("n_steps must be >= 0")
        if self.d_anc < 2:
            raise ValidationError("ancilla dimension must be >= 2")
        if (self.g is None) == (self.gamma is None):
            raise ValidationError("exactly one of g or gamma must be set")
        if self.gamma is not None and self.gamma <= 0:
            raise ValidationError("gamma must be positive")
        if self.h_sys.dims != self.coupling.dims:
            raise ValidationError("h_sys and coupling act on different spaces")
        if self.h_sys_table is not None:
            if len(self.h_sys_table) < self.n_steps:
                raise ValidationError("h_sys_table shorter than n_steps")
            for h in self.h_sys_table:
                if h.dims != self.h_sys.dims:
                    raise ValidationError("h_sys_table entry on wrong space")

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
        if np.any(np.diff(times) <= 0):
            raise ValidationError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.states)


def interaction_operator(spec: CollisionSpec) -> Operator:
    """Dimensionless exchange coupling b (x) adag + bdag (x) a on S (x) ancilla."""
    a = qcore.annihilator(spec.d_anc)
    return qcore.tensor(spec.coupling, a.dag()) + qcore.tensor(spec.coupling.dag(), a)


def _unitaries(spec: CollisionSpec, steps: Sequence[int]) -> Iterator[np.ndarray]:
    """Yield U_k = exp(-i (H_S (x) I + g v) dt) for the 1-based collisions k in ``steps``: a
    static spec's one U each time, else per-step ones in batches of qcore.STACK_CHUNK_BYTES."""
    table = spec.h_sys_table
    hs = (spec.h_sys,) if table is None else [table[k - 1] for k in steps]
    side = spec.d_sys * spec.d_anc
    batch = max(1, qcore.STACK_CHUNK_BYTES // (16 * side * side))
    for lo in range(0, len(hs), batch):
        h = np.stack([entry.data for entry in hs[lo:lo + batch]])
        h = np.einsum("nij,ab->niajb", h, np.eye(spec.d_anc)).reshape(-1, side, side)  # H (x) I
        gens = h + spec.coupling_strength * interaction_operator(spec).data
        for u in scipy.linalg.expm(-1j * spec.dt * gens):
            yield from itertools.repeat(u, len(steps) if table is None else 1)


def _operator_sums(us: Iterable[np.ndarray], etas: Iterable[np.ndarray]):
    """Collision maps E_k(rho) = Tr_a[U_k (rho (x) eta_k) U_k^dag] = sum_x W_x rho V_x,
    one (W, V) pair per (U_k, eta_k), each of shape (d_a^2, d, d): for x = (c, a),
    V_x = <a|U_k|c>^dag and W_x = sum_b <a|U_k|b> eta_bc.  A step costs O(d_a^2 d^3);
    a part is rebuilt only when U_k or eta_k is another object than at the step before."""
    u_prev = eta_prev = None
    for u, eta in zip(us, etas):
        d_a, d = len(eta), len(u) // len(eta)
        if u is not u_prev:
            blocks = u.reshape(d, d_a, d, d_a).transpose(3, 1, 0, 2)  # [b, a] = <a|U|b>
            v = np.ascontiguousarray(blocks.transpose(0, 1, 3, 2).conj()).reshape(-1, d, d)
            by_b = np.ascontiguousarray(blocks).reshape(d_a, -1)
        if u is not u_prev or eta is not eta_prev:
            w = (eta.T @ by_b).reshape(-1, d, d)
        u_prev, eta_prev = u, eta
        yield w, v


def _collide(w: np.ndarray, v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_x W_x m V_x, as two matrix products."""
    d = m.shape[0]
    wm = (w.reshape(-1, d) @ m).reshape(-1, d, d)
    return wm.transpose(1, 0, 2).reshape(d, -1) @ v.reshape(-1, d)


def _map_superoperator(spec: CollisionSpec, step: int, eta: np.ndarray) -> np.ndarray:
    """Row-major d^2 x d^2 matrix of collision `step` against ancilla state eta,
    from vec(W m V) = (W (x) V^T) vec(m)."""
    w, v = next(_operator_sums(_unitaries(spec, [step]), [eta]))
    return np.einsum("xij,xlk->ikjl", w, v).reshape(w.shape[-1] ** 2, -1)


def collision_unitary(spec: CollisionSpec, step: int = 1) -> Operator:
    """U = exp(-i (H_S (x) I + g v) dt) for the collision at `step` (1-based)."""
    return Operator(next(_unitaries(spec, [step])), spec.h_sys.dims + (spec.d_anc,))


def collide_once(rho: DensityMatrix, eta: DensityMatrix, u: Operator) -> DensityMatrix:
    """Reduced state after one collision: Tr_anc{ U (rho (x) eta) U^dag }."""
    if u.dims != rho.dims + eta.dims:
        raise ValidationError(
            f"unitary dims {u.dims} do not match system {rho.dims} + ancilla {eta.dims}"
        )
    w, v = next(_operator_sums([u.data], [eta.data]))
    return DensityMatrix(Operator(_collide(w, v, rho.data), rho.dims))


def _checked_trajectory(dt: float, states: np.ndarray,
                        observables: Mapping[str, Operator] | None) -> Trajectory:
    """Trajectory on the grid k dt; PropagationError names the first non-state (RUN_PSD_TOL)."""
    bad = qcore.first_invalid_state(states, RUN_PSD_TOL)
    if bad is not None:
        step, reason = bad
        raise PropagationError(f"state invariant breached at step {step}: {reason}", step=step)
    obs = {name: np.einsum("ij,tji->t", op.data, states) for name, op in (observables or {}).items()}
    return Trajectory(np.arange(len(states)) * dt, states, obs)


def run_product(spec: CollisionSpec, bath: BathSpec, rho0: DensityMatrix,
                observables: Mapping[str, Operator] | None = None) -> Trajectory:
    """Iterated collisions against a product (possibly step-dependent) bath."""
    if not bath.is_product():
        raise ValidationError("run_product requires a product bath")
    if bath.n_steps < spec.n_steps:
        raise ValidationError(f"bath covers {bath.n_steps} steps, spec wants {spec.n_steps}")
    if bath.d != spec.d_anc:
        raise ValidationError(f"bath ancilla dimension {bath.d} != spec d_anc {spec.d_anc}")
    if rho0.dims != spec.h_sys.dims:
        raise ValidationError("initial state on wrong space")

    n, d = spec.n_steps, rho0.side
    etas = (bath.ancilla_state(k).data for k in range(1, n + 1))
    states = np.empty((n + 1, d, d), dtype=complex)
    states[0] = rho0.data
    for k, (w, v) in enumerate(_operator_sums(_unitaries(spec, range(1, n + 1)), etas)):
        states[k + 1] = _collide(w, v, states[k])
    return _checked_trajectory(spec.dt, states, observables)


def _apply_pair_unitary(joint: np.ndarray, u: np.ndarray, d_pair: int) -> np.ndarray:
    """Apply u acting on the leading d_pair block of a joint density matrix."""
    rest = joint.shape[0] // d_pair
    t = joint.reshape(d_pair, rest, d_pair, rest)
    t1 = np.tensordot(u, t, axes=(1, 0))            # [a, j, d, k]
    del t
    t2 = np.tensordot(t1, u.conj(), axes=(2, 1))    # [a, j, k, c]
    del t1
    out = np.ascontiguousarray(np.moveaxis(t2, 3, 2))
    return out.reshape(d_pair * rest, d_pair * rest)


def _trace_leading_ancilla(joint: np.ndarray, d_s: int, d_anc: int) -> np.ndarray:
    rest = joint.shape[0] // (d_s * d_anc)
    t = joint.reshape(d_s, d_anc, rest, d_s, d_anc, rest)
    out = np.trace(t, axis1=1, axis2=4)
    return out.reshape(d_s * rest, d_s * rest)


def check_joint_dim(d_sys: int, d_anc: int, n_steps: int,
                    cap: int = DEFAULT_JOINT_DIM_CAP) -> int:
    """Dimension d_sys * d_anc^n_steps of the dense correlated joint state.

    Raises ResourceCapError above ``cap``.  Allocates nothing, so callers
    run it before building anything of that size.
    """
    # d_anc >= 2: from cap.bit_length() steps on the cap is surely exceeded,
    # and the (possibly astronomically large) dimension is not formed
    joint_dim = d_sys * d_anc**n_steps if n_steps < cap.bit_length() else None
    if joint_dim is None or joint_dim > cap:
        raise ResourceCapError(
            f"joint dimension {d_sys} * {d_anc}^{n_steps} exceeds cap {cap} "
            f"(dense evolution needs 16 * dim^2 bytes per matrix)",
            required_dim=joint_dim,
            cap=cap,
        )
    return joint_dim


def _run_correlated_raw(us: Iterable[np.ndarray], bath: BathSpec, m0: np.ndarray) -> np.ndarray:
    """System marginals, shape (n + 1, d_S, d_S), before and after each of the n collisions
    with unitaries ``us``: joint evolution with per-step trace-out, linear in m0, unchecked."""
    d_s, d_a = m0.shape[0], bath.d
    psi = bath.joint.amplitudes
    joint = np.kron(m0, np.outer(psi, psi.conj()))
    marginals = [m0]
    for step, u in enumerate(us, start=1):
        joint = _trace_leading_ancilla(_apply_pair_unitary(joint, u, d_s * d_a), d_s, d_a)
        marginals.append(qcore.ptrace_matrix(joint, (d_s,) + (d_a,) * (bath.n_steps - step), keep=(0,)))
    return np.stack(marginals)


def run_correlated(spec: CollisionSpec, bath: BathSpec, rho0: DensityMatrix,
                   observables: Mapping[str, Operator] | None = None,
                   max_joint_dim: int = DEFAULT_JOINT_DIM_CAP) -> Trajectory:
    """Collision stream against a correlated pure bath (memory-carrying)."""
    if bath.kind != bath_mod.CORRELATED_PURE:
        raise ValidationError("run_correlated requires a correlated pure bath")
    if bath.d != spec.d_anc:
        raise ValidationError(f"bath ancilla dimension {bath.d} != spec d_anc {spec.d_anc}")
    if bath.n_steps != spec.n_steps:
        raise ValidationError("correlated bath must cover exactly the spec's steps")
    if rho0.dims != spec.h_sys.dims:
        raise ValidationError("initial state on wrong space")
    check_joint_dim(rho0.side, bath.d, bath.n_steps, max_joint_dim)

    states = _run_correlated_raw(_unitaries(spec, range(1, spec.n_steps + 1)), bath, rho0.data)
    return _checked_trajectory(spec.dt, states, observables)


# ---------------------------------------------------------------------------
# complete-positivity checks
# ---------------------------------------------------------------------------

def choi_of_collision(spec: CollisionSpec, eta: DensityMatrix) -> Operator:
    """Choi matrix of the single-collision map against ancilla state eta.

    C = sum_ij E[|i><j|] (x) |i><j|; the map is completely positive iff C
    is PSD, and trace-preserving iff the partial trace over the first
    (output) factor is the identity.
    """
    d_s = spec.d_sys
    if d_s > CHOI_MAX_SYSTEM_DIM:
        raise ValidationError(f"system dimension {d_s} too large for Choi check")
    if eta.side != spec.d_anc:
        raise ValidationError(f"ancilla state of side {eta.side} != spec d_anc {spec.d_anc}")
    return Operator(_choi_from_superoperator(_map_superoperator(spec, 1, eta.data), d_s), (d_s, d_s))


def _choi_from_superoperator(m: np.ndarray, d: int) -> np.ndarray:
    # column k = i*d+j of m is vec(E[|i><j|]); reshuffle to sum_ij E[|i><j|] (x) |i><j|
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def step_map_superoperator(spec: CollisionSpec, bath: BathSpec, step: int) -> np.ndarray:
    """The map rho_{step-1} -> rho_{step} as a row-major superoperator.

    For a product bath this is the collision map of that step itself.  For
    a correlated bath it is reconstructed by tomography: the d_S^2 matrix
    units are propagated jointly through collisions 1..step, and the
    earlier map is divided out; the result is one convention for "the"
    step map and need not be completely positive.
    """
    if not 1 <= step <= spec.n_steps:
        raise ValidationError(f"step {step} outside 1..{spec.n_steps}")
    d_s = spec.d_sys
    if d_s > CHOI_MAX_SYSTEM_DIM:
        raise ValidationError(f"system dimension {d_s} too large for tomography")
    if bath.is_product():
        return _map_superoperator(spec, step, bath.ancilla_state(step).data)
    us = list(_unitaries(spec, range(1, step + 1)))
    units = np.eye(d_s * d_s, dtype=complex).reshape(-1, d_s, d_s)
    runs = np.stack([_run_correlated_raw(us, bath, e)[-2:] for e in units])
    # row k of runs[:, j] is matrix unit k after step - 1 + j collisions; after = L before
    before, after = (runs[:, j].reshape(d_s * d_s, -1) for j in (0, 1))
    return np.linalg.solve(before, after).T


def step_map_choi(spec: CollisionSpec, bath: BathSpec, step: int) -> Operator:
    d_s = spec.d_sys
    m = step_map_superoperator(spec, bath, step)
    return Operator(_choi_from_superoperator(m, d_s), (d_s, d_s))
