"""Emergent continuous-time generators and the reference ME integrator.

The generator extracted from a collision specification reads the Kraus
factor F of the ancilla state (eta = F F^dag, ``bath._factor``) that the
collision map itself applies: its jump operators are the blocks
J_x = sum_b <a|v|b> F_br of the interaction, formed by ``collision._kraus``
and so written in the ancilla's number basis, each carrying the emergent
rate g^2 dt, and its bath-induced Hamiltonian shift is the ancilla average
sum_x conj(F_ar) J_x = Tr_a[v (I (x) eta)].  Exact propagation with the
Liouvillian exponential (dense, or as a Taylor series of its action on
larger systems) provides the independent continuous-time dynamics that the
discrete collision runs are checked against.  A step-dependent generator
holds its Hamiltonians as one (L, d, d) table and its trajectory as one
(T, d, d) array, each checked once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.linalg

from . import bath as bath_mod
from . import qcore
from .collision import CollisionSpec, Trajectory, _checked_trajectory, _kraus, interaction_operator
from .errors import ValidationError
from .qcore import DensityMatrix, Operator

# Jump operators that vanish identically are dropped from the generator.
ZERO_JUMP_TOL = 1e-14

# Up to this system dimension the ME steps by dense d^2 x d^2 propagators, one
# batched expm per qcore.STACK_CHUNK_BYTES of them: there an exponential costs
# less than a Taylor-series step (~100 against ~150 us at d = 5; ~190 at 6).
DENSE_MAX_DIM = 5

JumpList = tuple[tuple[Operator, float], ...]


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Effective Hamiltonian plus (jump operator, rate) pairs.

    A step-dependent generator also carries ``h_table``, a read-only
    (L, d, d) stack of Hamiltonians: row k holds over [k, k + 1)
    ``step_duration``, the last row from then on, with the same jumps.
    """

    h_eff: Operator
    jumps: JumpList
    h_table: np.ndarray | None = None
    step_duration: float | None = None

    def __post_init__(self):
        if not self.h_eff.is_hermitian():
            raise ValidationError("effective Hamiltonian is not Hermitian")
        for op, rate in self.jumps:
            if not rate >= 0:  # written so that NaN fails too, here and below
                raise ValidationError(f"jump rate must be >= 0, got {rate}")
            if op.dims != self.h_eff.dims:
                raise ValidationError("jump operator on wrong space")
        if self.step_duration is not None or self.h_table is not None:
            if not (self.step_duration or 0) > 0:  # None (with a table), NaN and <= 0 all fail
                raise ValidationError(f"step_duration must be positive, got {self.step_duration}")
        if self.h_table is not None:
            table = qcore.checked_stack(self.h_table, (self.h_eff.side,) * 2, "h_table",
                                        qcore.first_non_hermitian)
            object.__setattr__(self, "h_table", table)

    def term_for_time(self, t: float) -> tuple[Operator, JumpList]:
        """Generator in force at time t >= 0 (piecewise constant over the table)."""
        if not t >= 0:
            raise ValidationError(f"generator time must be >= 0, got {t}")
        if self.h_table is None:
            return self.h_eff, self.jumps
        row = min(int(t / self.step_duration), len(self.h_table) - 1)
        return Operator(self.h_table[row], self.h_eff.dims), self.jumps


def _blocks(v: Operator, eta: DensityMatrix) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(system dims, F, J) for eta = F F^dag as ``bath._factor`` factors it for the collision map,
    with J the (r d_a, d_S, d_S) stack of J_x = sum_b <a|v|b> F_br, x = (r, a): the Kraus blocks
    ``collision._kraus`` forms, with v in the place of U."""
    n_anc = len(eta.dims)
    if len(v.dims) <= n_anc or v.dims[-n_anc:] != eta.dims:
        raise ValidationError(
            f"interaction dims {v.dims} do not end with ancilla dims {eta.dims}"
        )
    s_dims = v.dims[:-n_anc]
    d_s = math.prod(s_dims)
    f = bath_mod._factor(eta.data)
    k, _ = _kraus(v.data, f)
    return s_dims, f, k.reshape(d_s, d_s, -1).transpose(2, 0, 1)


def _shift(f: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_x conj(F_ar) J_x = Tr_a[v (I (x) F F^dag)]."""
    return np.tensordot(f.T.conj().reshape(-1), blocks, 1)


def _jumps(s_dims: tuple[int, ...], blocks: np.ndarray,
           gamma: float) -> list[tuple[Operator, float]]:
    """The blocks that do not vanish identically, each at rate gamma."""
    nonzero = np.abs(blocks).max(axis=(1, 2)) >= ZERO_JUMP_TOL
    return [(Operator(j, s_dims), gamma) for j in blocks[nonzero]]


def effective_hamiltonian(v_int: Operator, eta: DensityMatrix) -> Operator:
    """Bath-induced Hamiltonian shift: the ancilla average Tr_anc{V (I (x) eta)}, read as
    sum_x conj(F_ar) J_x off the blocks of V against the map's factor F of eta."""
    s_dims, f, blocks = _blocks(v_int, eta)
    return Operator(_shift(f, blocks), s_dims)


def jump_operators(v_dimensionless: Operator, eta: DensityMatrix,
                   gamma: float) -> list[tuple[Operator, float]]:
    """Jump operators J_x = sum_b <a|v|b> F_br, x = (r, a), each at rate ``gamma``.

    F is the Kraus factor of eta that the collision map applies
    (``bath._factor``: one column per eigenvalue above round-off), and the
    jumps are written in the ancilla's number basis a; blocks that vanish
    identically are dropped.  The dissipator as a whole does not depend on
    the basis the jumps are written in.
    """
    s_dims, _, blocks = _blocks(v_dimensionless, eta)
    return _jumps(s_dims, blocks, gamma)


def generator_from_collision(spec: CollisionSpec, eta: DensityMatrix) -> LindbladGenerator:
    """Emergent generator of the collision map against ancilla state eta, factored once."""
    s_dims, f, blocks = _blocks(interaction_operator(spec), eta)
    g = spec.coupling_strength
    h_eff = spec.h_sys + Operator(g * _shift(f, blocks), s_dims)
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
    return LindbladGenerator(h_eff=h_eff, jumps=tuple(_jumps(s_dims, blocks, spec.rate)))


def _compile_jumps(jumps: JumpList):
    """([(l, l^dag)], (1/2) sum l^dag l) with the rates folded into l = sqrt(rate) L_j, so
    that L(X) = G X + X G^dag + sum l X l^dag with G = -i h - (1/2) sum l^dag l for any h."""
    compiled = [(math.sqrt(r) * op.data, math.sqrt(r) * op.data.conj().T) for op, r in jumps]
    return compiled, 0.5 * sum(l_dag @ l for l, l_dag in compiled)


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
    compiled, damping = _compile_jumps(jumps)
    g = -1j * h.data - damping
    return Operator(_rhs(g, g.conj().T, compiled, rho.data), rho.dims)


def _liouvillian(gs: np.ndarray, compiled_jumps) -> np.ndarray:
    """Superoperators of ``_rhs`` for a (n, d, d) stack of G, on row-major vec:
    vec(A X B) = (A (x) B^T) vec(X), with X G^dag giving I (x) conj(G)."""
    n, d, _ = gs.shape
    eye = np.eye(d)
    out = np.einsum("nij,kl->nikjl", gs, eye) + np.einsum("ij,nkl->nikjl", eye, gs.conj())
    out = out.reshape(n, d * d, d * d)
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
    if not t_final > 0:
        raise ValidationError("t_final must be positive")
    if gen.h_eff.dims != rho0.dims:
        raise ValidationError("generator and state act on different spaces")

    h = t_final / n_substeps
    compiled, damping = _compile_jumps(gen.jumps)
    hs = gen.h_eff.data[None] if gen.h_table is None else gen.h_table
    t_mid = (np.arange(n_substeps) + 0.5) * h
    idx = np.minimum((t_mid / (gen.step_duration or t_final)).astype(int), len(hs) - 1)
    used, idx = np.unique(idx, return_inverse=True)
    d = rho0.side
    batch = max(1, qcore.STACK_CHUNK_BYTES // (16 * d**4))

    states = np.empty((n_substeps + 1, d, d), dtype=complex)
    states[0] = rho = rho0.data
    props, lo = (), 0
    for k in range(n_substeps):
        if d > DENSE_MAX_DIM:
            g = -1j * hs[used[idx[k]]] - damping
            rho = _expm_series(h, g, g.conj().T, compiled, rho)
        else:
            # idx never decreases, so each batch is built once, when first needed
            if idx[k] >= lo + len(props):
                lo = idx[k]
                gs = -1j * hs[used[lo:lo + batch]] - damping
                props = scipy.linalg.expm(h * _liouvillian(gs, compiled))
            rho = (props[idx[k] - lo] @ rho.reshape(-1)).reshape(d, d)
        rho = states[k + 1] = 0.5 * (rho + rho.conj().T)
    return _checked_trajectory(h, states, observables)
