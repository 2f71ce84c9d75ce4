"""Emergent continuous-time generators and the reference ME integrator.

The generator extracted from a collision specification consists of the
bath-induced Hamiltonian shift (the ancilla average of the interaction)
and jump operators built from interaction matrix elements in the ancilla
eigenbasis, each carrying the emergent rate g^2 dt.  Exact propagation
with the Liouvillian exponential (dense, or as a Taylor series of its
action on larger systems) provides the independent continuous-time
dynamics that the discrete collision runs are checked against.  Its
trajectory, like a collision run's, is one (T, d, d) array checked once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.linalg

from . import qcore
from .collision import CollisionSpec, Trajectory, _checked_trajectory, interaction_operator
from .errors import ValidationError
from .qcore import DensityMatrix, Operator

# Ancilla eigenvalue below which a branch contributes no jump operator;
# avoids 0 * inf noise from degenerate or rank-deficient ancilla states.
P_FLOOR = 1e-12

# Jump operators that vanish identically are dropped from the generator.
ZERO_JUMP_TOL = 1e-14

# Up to this system dimension the ME steps by dense d^2 x d^2 propagators, one
# batched expm per PROPAGATOR_BATCH_BYTES of them: there an exponential costs
# less than a Taylor-series step (~100 against ~150 us at d = 5; ~190 at 6).
DENSE_MAX_DIM = 5
PROPAGATOR_BATCH_BYTES = 2 * 2**20

JumpList = tuple[tuple[Operator, float], ...]


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Effective Hamiltonian plus (jump operator, rate) pairs.

    A step-dependent generator additionally carries a per-step table of
    (h_eff, jumps) entries, piecewise constant over intervals of length
    ``step_duration``; the static fields then hold the first entry.
    """

    h_eff: Operator
    jumps: JumpList
    step_table: tuple[tuple[Operator, JumpList], ...] | None = None
    step_duration: float | None = None

    def __post_init__(self):
        entries = [(self.h_eff, self.jumps)]
        if self.step_table is not None:
            if not self.step_table or self.step_duration is None or self.step_duration <= 0:
                raise ValidationError("step_table must be non-empty and step_duration positive")
            entries.extend(self.step_table)
        for h, jumps in entries:
            if not h.is_hermitian():
                raise ValidationError("effective Hamiltonian is not Hermitian")
            for op, rate in jumps:
                if rate < 0:
                    raise ValidationError(f"negative jump rate {rate}")
                if op.dims != h.dims:
                    raise ValidationError("jump operator on wrong space")

    def term_for_time(self, t: float) -> tuple[Operator, JumpList]:
        """Generator in force at time t (piecewise constant over the table)."""
        if self.step_table is None:
            return self.h_eff, self.jumps
        idx = min(int(t / self.step_duration), len(self.step_table) - 1)
        return self.step_table[idx]


def _fix_eigenvector_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = np.array(vecs)
    for k in range(out.shape[1]):
        idx = int(np.argmax(np.abs(out[:, k])))
        pivot = out[idx, k]
        if abs(pivot) > 0:
            out[:, k] *= np.conj(pivot) / abs(pivot)
    return out


def _split_dims(v: Operator, eta: DensityMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n_anc = len(eta.dims)
    if len(v.dims) <= n_anc or v.dims[-n_anc:] != eta.dims:
        raise ValidationError(
            f"interaction dims {v.dims} do not end with ancilla dims {eta.dims}"
        )
    return v.dims[:-n_anc], eta.dims


def effective_hamiltonian(v_int: Operator, eta: DensityMatrix) -> Operator:
    """Bath-induced Hamiltonian shift: ancilla average Tr_anc{V (I (x) eta)}."""
    s_dims, _ = _split_dims(v_int, eta)
    weighted = v_int.data @ np.kron(np.eye(math.prod(s_dims)), eta.data)
    h = qcore.ptrace_matrix(weighted, v_int.dims, keep=range(len(s_dims)))
    return Operator(h, s_dims)


def jump_operators(v_dimensionless: Operator, eta: DensityMatrix,
                   gamma: float) -> list[tuple[Operator, float]]:
    """Jump operators sqrt(p_j) <i|v|j> over the ancilla eigenbasis of eta.

    Branches with eigenvalue at or below P_FLOOR are skipped; identically
    vanishing operators are dropped.  Every emitted jump carries the rate
    ``gamma``.  Eigenvector phases are fixed deterministically, so for
    non-degenerate eta the result is reproducible; within degenerate
    blocks only the dissipator as a whole is basis-independent.
    """
    s_dims, a_dims = _split_dims(v_dimensionless, eta)
    d_s, d_a = math.prod(s_dims), math.prod(a_dims)
    p, vecs = np.linalg.eigh(eta.data)
    vecs = _fix_eigenvector_phases(vecs)
    v4 = v_dimensionless.data.reshape(d_s, d_a, d_s, d_a)
    jumps: list[tuple[Operator, float]] = []
    for j in range(d_a):
        if p[j] <= P_FLOOR:
            continue
        for i in range(d_a):
            mat = math.sqrt(p[j]) * np.einsum(
                "a,satb,b->st", vecs[:, i].conj(), v4, vecs[:, j]
            )
            if float(np.max(np.abs(mat))) < ZERO_JUMP_TOL:
                continue
            jumps.append((Operator(mat, s_dims), gamma))
    return jumps


def generator_from_collision(spec: CollisionSpec, eta: DensityMatrix) -> LindbladGenerator:
    """Emergent generator of the collision map against ancilla state eta."""
    v = interaction_operator(spec)
    g = spec.coupling_strength
    h_prime = effective_hamiltonian(g * v, eta)
    h_eff = spec.h_sys + h_prime
    # The generator drops the O(dt^{3/2}) cross term between H_S dt and the
    # coupling g v dt = sqrt(gamma dt) v; against the kept dissipative term
    # gamma dt it weighs w0 sqrt(dt / gamma), which is free of time units.
    w0 = float(np.max(np.abs(np.linalg.eigvalsh(spec.h_sys.data))))
    if w0 * math.sqrt(spec.dt) > 0.1 * math.sqrt(spec.rate):
        warnings.warn(
            f"system frequency scale {w0:.3g} is not small against the "
            f"coupling (g = {g:.3g}); the extracted generator may be inaccurate",
            stacklevel=2,
        )
    jumps = jump_operators(v, eta, spec.rate)
    return LindbladGenerator(h_eff=h_eff, jumps=tuple(jumps))


def _compile_term(h: Operator, jumps: JumpList):
    """(G, G^dag, [(l, l^dag)]) with the rates folded into l = sqrt(rate) L_j and
    G = -i h - (1/2) sum l^dag l, so that L(X) = G X + X G^dag + sum l X l^dag."""
    compiled = [(math.sqrt(r) * op.data, math.sqrt(r) * op.data.conj().T) for op, r in jumps]
    g = -1j * h.data - 0.5 * sum(l_dag @ l for l, l_dag in compiled)
    return g, g.conj().T, compiled


def _rhs(g: np.ndarray, g_dag: np.ndarray, compiled_jumps, m: np.ndarray) -> np.ndarray:
    out = g @ m + m @ g_dag
    for l, l_dag in compiled_jumps:
        out += l @ m @ l_dag
    return out


def apply_generator(gen: LindbladGenerator, rho: DensityMatrix,
                    t: float | None = None) -> Operator:
    """Right-hand side -i[h,rho] + dissipator; traceless and Hermitian.

    For step-dependent generators, ``t`` selects the table entry in force
    (defaults to the static entry).
    """
    h, jumps = gen.term_for_time(t) if t is not None else (gen.h_eff, gen.jumps)
    if h.dims != rho.dims:
        raise ValidationError("generator and state act on different spaces")
    return Operator(_rhs(*_compile_term(h, jumps), rho.data), rho.dims)


def _liouvillian(g: np.ndarray, g_dag: np.ndarray, compiled_jumps) -> np.ndarray:
    """Superoperator of ``_rhs`` on row-major vec: vec(A X B) = (A (x) B^T) vec(X)."""
    eye = np.eye(g.shape[0])
    out = np.kron(g, eye) + np.kron(eye, g_dag.T)
    for l, l_dag in compiled_jumps:
        out += np.kron(l, l_dag.T)
    return out


def _expm_series(step: float, g: np.ndarray, g_dag: np.ndarray, compiled_jumps,
                 m: np.ndarray) -> np.ndarray:
    """exp(step L) m by Taylor series, summed to round-off.

    In the Frobenius norm ||L|| <= 2 ||G||_2 + sum ||l||_2^2, each spectral
    norm bounded by sqrt(||a||_1 ||a||_inf).  In pieces of step ||L|| <= 1
    every term is at most 1/j of the one before, so the tail left after a
    term is smaller than that term; a sum stops at a term below round-off.
    """
    norm = lambda a: math.sqrt(np.abs(a).sum(axis=0).max() * np.abs(a).sum(axis=1).max())
    bound = 2 * norm(g) + sum(norm(l) ** 2 for l, _ in compiled_jumps)
    pieces = max(1, math.ceil(step * bound))
    for _ in range(pieces):
        term, m, j = m, m.copy(), 0
        stop = (np.finfo(float).eps / 2) ** 2 * np.vdot(m, m).real
        while np.vdot(term, term).real > stop:
            j += 1
            term = _rhs(g, g_dag, compiled_jumps, term)
            term *= step / pieces / j
            m += term
    return m


def integrate_me(gen: LindbladGenerator, rho0: DensityMatrix, t_final: float,
                 n_substeps: int,
                 observables: Mapping[str, Operator] | None = None) -> Trajectory:
    """Exact propagation of the master equation on a uniform grid.

    A step-dependent generator is sampled at the midpoint of every
    substep and held constant over it, so rho_{k+1} = exp(h L_k) rho_k is
    exact.  Up to DENSE_MAX_DIM the table entries in use are exponentiated
    as d^2 x d^2 Liouvillians, batched; above it exp(h L_k) rho_k is summed
    as a Taylor series to round-off, O(d^3) work per term and O(d^2)
    memory.  States are re-symmetrized as they are stored, then checked
    once; a PSD breach beyond the run tolerance aborts.
    """
    if n_substeps < 1:
        raise ValidationError("n_substeps must be >= 1")
    if t_final <= 0:
        raise ValidationError("t_final must be positive")
    if gen.h_eff.dims != rho0.dims:
        raise ValidationError("generator and state act on different spaces")

    h = t_final / n_substeps
    terms = gen.step_table or ((gen.h_eff, gen.jumps),)
    t_mid = (np.arange(n_substeps) + 0.5) * h
    idx = np.minimum((t_mid / (gen.step_duration or t_final)).astype(int), len(terms) - 1)
    used, idx = np.unique(idx, return_inverse=True)
    d = rho0.side
    batch = max(1, PROPAGATOR_BATCH_BYTES // (16 * d**4))

    states = np.empty((n_substeps + 1, d, d), dtype=complex)
    states[0] = rho = rho0.data
    props, lo = (), 0
    for k in range(n_substeps):
        if d > DENSE_MAX_DIM:
            rho = _expm_series(h, *_compile_term(*terms[used[idx[k]]]), rho)
        else:
            # idx never decreases, so each batch is built once, when first needed
            if idx[k] >= lo + len(props):
                lo = idx[k]
                props = scipy.linalg.expm(h * np.stack(
                    [_liouvillian(*_compile_term(*terms[i])) for i in used[lo:lo + batch]]
                ))
            rho = (props[idx[k] - lo] @ rho.reshape(-1)).reshape(d, d)
        rho = states[k + 1] = 0.5 * (rho + rho.conj().T)
    return _checked_trajectory(h, states, observables)
