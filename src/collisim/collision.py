"""Collision dynamics: per-step unitaries, reduced evolution, CP checks.

Two propagation paths are provided.  Product baths evolve the reduced
system state one collision at a time (each ancilla is met fresh and traced
out immediately).  Correlated baths evolve the joint density matrix of the
system and all not-yet-collided ancillas; the ancilla just collided with is
traced out exactly, since nothing interacts with it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

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

    def h_for_step(self, step: int) -> Operator:
        if self.h_sys_table is not None:
            return self.h_sys_table[step - 1]
        return self.h_sys


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded reduced states and expectation values on a strict time grid."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    observables: dict[str, np.ndarray]

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if len(self.states) != times.shape[0]:
            raise ValidationError("times and states lengths differ")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.states)


def interaction_operator(spec: CollisionSpec) -> Operator:
    """Dimensionless exchange coupling b (x) adag + bdag (x) a on S (x) ancilla."""
    a = qcore.annihilator(spec.d_anc)
    return qcore.tensor(spec.coupling, a.dag()) + qcore.tensor(spec.coupling.dag(), a)


def collision_unitary(spec: CollisionSpec, step: int = 1) -> Operator:
    """U = exp(-i (H_S (x) I + g v) dt) for the collision at `step` (1-based)."""
    h = spec.h_for_step(step)
    gen = qcore.tensor(h, qcore.identity(spec.d_anc)) + spec.coupling_strength * interaction_operator(spec)
    return qcore.expm(gen, -1j * spec.dt)


def _collide_matrix(m: np.ndarray, eta: np.ndarray, u: np.ndarray,
                    s_dims: tuple[int, ...], a_dims: tuple[int, ...]) -> np.ndarray:
    """One collision applied to a raw system matrix (not necessarily a state)."""
    joint = u @ np.kron(m, eta) @ u.conj().T
    return qcore.ptrace_matrix(joint, s_dims + a_dims, keep=range(len(s_dims)))


def collide_once(rho: DensityMatrix, eta: DensityMatrix, u: Operator) -> DensityMatrix:
    """Reduced state after one collision: Tr_anc{ U (rho (x) eta) U^dag }."""
    if u.dims != rho.dims + eta.dims:
        raise ValidationError(
            f"unitary dims {u.dims} do not match system {rho.dims} + ancilla {eta.dims}"
        )
    out = _collide_matrix(rho.data, eta.data, u.data, rho.dims, eta.dims)
    return DensityMatrix(Operator(out, rho.dims))


def _as_state(m: np.ndarray, dims: tuple[int, ...], step: int) -> DensityMatrix:
    try:
        return DensityMatrix(Operator(m, dims), psd_tol=RUN_PSD_TOL)
    except ValidationError as exc:
        raise PropagationError(f"state invariant breached at step {step}: {exc}", step=step) from exc


def _observable_series(observables: Mapping[str, Operator] | None,
                       states: Sequence[DensityMatrix]) -> dict[str, np.ndarray]:
    if not observables:
        return {}
    return {
        name: np.array([np.trace(op.data @ s.data) for s in states], dtype=complex)
        for name, op in observables.items()
    }


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

    u_static = None if spec.h_sys_table is not None else collision_unitary(spec)
    states = [rho0]
    rho = rho0
    for step in range(1, spec.n_steps + 1):
        u = u_static if u_static is not None else collision_unitary(spec, step)
        eta = bath.ancilla_state(step)
        out = _collide_matrix(rho.data, eta.data, u.data, rho.dims, eta.dims)
        rho = _as_state(out, rho.dims, step)
        states.append(rho)
    times = np.arange(spec.n_steps + 1) * spec.dt
    return Trajectory(times, tuple(states), _observable_series(observables, states))


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


def _run_correlated_raw(spec: CollisionSpec, bath: BathSpec, m0: np.ndarray,
                        n_steps: int) -> list[np.ndarray]:
    """Joint evolution with per-step trace-out; linear in m0, no state checks.

    Returns the system-block marginal after 0..n_steps collisions.
    """
    d_s = spec.d_sys
    psi = bath.joint.amplitudes
    joint = np.kron(m0, np.outer(psi, psi.conj()))
    u_static = None if spec.h_sys_table is not None else collision_unitary(spec)
    marginals = [m0.copy()]
    remaining = bath.n_steps
    for step in range(1, n_steps + 1):
        u = u_static if u_static is not None else collision_unitary(spec, step)
        joint = _apply_pair_unitary(joint, u.data, d_s * spec.d_anc)
        joint = _trace_leading_ancilla(joint, d_s, spec.d_anc)
        remaining -= 1
        if remaining:
            marginals.append(
                qcore.ptrace_matrix(joint, (d_s,) + (spec.d_anc,) * remaining, keep=(0,))
            )
        else:
            marginals.append(joint)
    return marginals


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

    marginals = _run_correlated_raw(spec, bath, np.array(rho0.data), spec.n_steps)
    states = [rho0]
    for step, m in enumerate(marginals[1:], start=1):
        states.append(_as_state(m, rho0.dims, step))
    times = np.arange(spec.n_steps + 1) * spec.dt
    return Trajectory(times, tuple(states), _observable_series(observables, states))


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
    u = collision_unitary(spec)
    s_dims = spec.h_sys.dims
    cols = np.empty((d_s * d_s, d_s * d_s), dtype=complex)
    for k in range(d_s * d_s):
        e = np.zeros((d_s, d_s), dtype=complex)
        e[k // d_s, k % d_s] = 1.0
        cols[:, k] = _collide_matrix(e, eta.data, u.data, s_dims, eta.dims).reshape(-1)
    return Operator(_choi_from_superoperator(cols, d_s), (d_s, d_s))


def _choi_from_superoperator(m: np.ndarray, d: int) -> np.ndarray:
    # column k = i*d+j of m is vec(E[|i><j|]); reshuffle to sum_ij E[|i><j|] (x) |i><j|
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def step_map_superoperator(spec: CollisionSpec, bath: BathSpec, step: int) -> np.ndarray:
    """Tomographic reconstruction of the map rho_{step-1} -> rho_{step}.

    The d_S^2 matrix units are propagated jointly through collisions
    1..step, and the earlier map is divided out.  For product baths this
    reproduces the single-collision map; for correlated baths the result
    is one convention for "the" step map and need not be completely
    positive.
    """
    if not 1 <= step <= spec.n_steps:
        raise ValidationError(f"step {step} outside 1..{spec.n_steps}")
    d_s = spec.d_sys
    if d_s > CHOI_MAX_SYSTEM_DIM:
        raise ValidationError(f"system dimension {d_s} too large for tomography")
    before = np.empty((d_s * d_s, d_s * d_s), dtype=complex)
    after = np.empty_like(before)
    s_dims = spec.h_sys.dims
    for k in range(d_s * d_s):
        e = np.zeros((d_s, d_s), dtype=complex)
        e[k // d_s, k % d_s] = 1.0
        if bath.is_product():
            seq = [e]
            m = e
            u_static = None if spec.h_sys_table is not None else collision_unitary(spec)
            for s in range(1, step + 1):
                u = u_static if u_static is not None else collision_unitary(spec, s)
                eta = bath.ancilla_state(s)
                m = _collide_matrix(m, eta.data, u.data, s_dims, eta.dims)
                seq.append(m)
        else:
            seq = _run_correlated_raw(spec, bath, e, step)
        before[:, k] = seq[step - 1].reshape(-1)
        after[:, k] = seq[step].reshape(-1)
    # after = L @ before, column by column
    return np.linalg.solve(before.T, after.T).T


def step_map_choi(spec: CollisionSpec, bath: BathSpec, step: int) -> Operator:
    d_s = spec.d_sys
    m = step_map_superoperator(spec, bath, step)
    return Operator(_choi_from_superoperator(m, d_s), (d_s, d_s))
