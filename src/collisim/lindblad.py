"""Emergent continuous-time generators and the reference ME integrator.

The generator extracted from a collision specification reads the Kraus
factor F of the ancilla state (eta = F F^dag, ``bath._factor``) that the
collision map itself applies: its jump operators are the blocks
J_x = sum_b <a|v|b> F_br of the interaction, formed by ``collision._kraus``
and so written in the ancilla's number basis, each carrying the emergent
rate g^2 dt, and its bath-induced Hamiltonian shift is the ancilla average
sum_x conj(F_ar) J_x = Tr_a[v (I (x) eta)].  Every generator is a table of
rows, each one Hamiltonian and its jumps; a static one is one row.  The
exponential of each row's Liouvillian gives the continuous-time dynamics
that the discrete collision runs are checked against: up to
``qcore.DENSE_MAX_DIM`` as d^2 x d^2 maps that ``qcore.propagate`` runs as it
runs the collision maps (one propagator raised by doubling, or a scan), above
it as a Taylor series of its action.  The trajectory is one (T, d, d) array,
checked raw and stored Hermitian by ``collision._checked_trajectory``.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping

import numpy as np

from . import bath as bath_mod
from . import qcore
from .collision import (CollisionSpec, Trajectory, _check_observables, _checked_trajectory, _kraus,
                        interaction_operator)
from .errors import ValidationError
from .qcore import DensityMatrix, Operator

# Jump operators that vanish identically are dropped from the generator.
ZERO_JUMP_TOL = 1e-14

class LindbladGenerator:
    """L rows, each one Hamiltonian and its jumps: ``hs`` (L, d, d) and ``ls`` (L or 1, J, d, d),
    sqrt(rate) folded into each jump.  Row k holds over [k, k + 1) ``step_duration`` and the
    last row from then on; a static generator is one row, with no step_duration.

    It is built from ``h_eff``, row 0, or a Hermitian (L, d, d) ``h_table`` that starts with it,
    and (operator, rate) ``jumps``, each operator an ``Operator`` or, per row, an (L, d, d)
    stack.  ``jumps`` keeps the pairs as given; ``h_eff`` reads row 0.
    """

    def __init__(self, h_eff: Operator | None = None, jumps=(), h_table=None,
                 step_duration: float | None = None):
        if h_eff is not None and not isinstance(h_eff, Operator):
            raise ValidationError("h_eff must be an Operator")
        try:
            jumps = tuple((op, rate) for op, rate in jumps)
        except (TypeError, ValueError):
            raise ValidationError("jumps must be (operator, rate) pairs") from None
        ops = [op for op in (h_eff, *(op for op, _ in jumps)) if isinstance(op, Operator)]
        if not ops or h_eff is None and h_table is None:
            raise ValidationError("a generator needs h_eff, or h_table and a jump Operator")
        if not ((step_duration or 0) > 0 if h_table is not None else step_duration is None):
            raise ValidationError(  # None with a table, NaN and <= 0 all fail
                f"step_duration must be positive, with an h_table, got {step_duration}")
        dims, shape = ops[0].dims, ops[0].data.shape
        what, table = ("h_eff", h_eff.data[None]) if h_table is None else ("h_table", h_table)
        hs = qcore.checked_stack(table, shape, what, qcore.first_non_hermitian)
        if h_eff is not None and not np.array_equal(h_eff.data, hs[0]):
            raise ValidationError("h_table does not start with h_eff")
        rows = []
        for op, rate in jumps:
            if not 0 <= rate < math.inf:  # written so that NaN fails too, here and below
                raise ValidationError(f"jump rate must be >= 0 and finite, got {rate}")
            if isinstance(op, Operator) and op.dims != dims:
                raise ValidationError("jump operator on wrong space")
            op = op.data[None] if isinstance(op, Operator) else qcore.checked_stack(
                op, shape, "jump", lambda stack: None)
            if len(op) not in (1, len(hs)):
                raise ValidationError(f"a jump stack needs one row per table row, got {len(op)}")
            rows.append(math.sqrt(rate) * op)
        ls = np.stack(np.broadcast_arrays(*rows), 1) if rows else np.zeros((1, 0, *shape), complex)
        ls.setflags(write=False)
        self.hs, self.ls, self.step_duration = hs, ls, step_duration
        self.dims, self.jumps = dims, jumps

    @property
    def h_eff(self) -> Operator:
        return Operator(self.hs[0], self.dims)

    def _rows(self, times: np.ndarray) -> np.ndarray:
        """The row in force at each time >= 0, clamped to the last row before the int cast."""
        with np.errstate(over="ignore"):  # a time far past the table: inf, then the last row
            return np.minimum(times / (self.step_duration or math.inf), len(self.hs) - 1).astype(int)


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
    return s_dims, f, _kraus(v.data, f).reshape(d_s, d_s, -1).transpose(2, 0, 1)


def _shift(f: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_x conj(F_ar) J_x = Tr_a[v (I (x) F F^dag)]."""
    return np.tensordot(f.T.conj().reshape(-1), blocks, 1)


def _jumps(s_dims: tuple[int, ...], blocks: np.ndarray,
           gamma: float) -> list[tuple[Operator, float]]:
    """The blocks that do not vanish identically, each at rate gamma."""
    if not 0 <= gamma < math.inf:  # written so that NaN fails too
        raise ValidationError(f"jump rate must be >= 0 and finite, got {gamma}")
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


def _damping(ls: np.ndarray) -> np.ndarray:
    """(1/2) sum_j l_j^dag l_j of a (..., J, d, d) jump stack, by one batched matmul."""
    return 0.5 * (ls.conj().swapaxes(-1, -2) @ ls).sum(axis=-3)


def _compiled(gen: LindbladGenerator, row: int):
    """(G, G^dag, [(l, l^dag)]) of one row, so that L(X) = G X + X G^dag + sum l X l^dag with
    G = -i h - (1/2) sum l^dag l."""
    ls = gen.ls[min(row, len(gen.ls) - 1)]
    g = -1j * gen.hs[row] - _damping(ls)
    return g, g.conj().T, [(l, l.conj().T) for l in ls]


def _rhs(g: np.ndarray, g_dag: np.ndarray, compiled_jumps, m: np.ndarray) -> np.ndarray:
    out = g @ m + m @ g_dag
    for l, l_dag in compiled_jumps:
        out += l @ m @ l_dag
    return out


def apply_generator(gen: LindbladGenerator, rho: DensityMatrix,
                    t: float | None = None) -> Operator:
    """Right-hand side -i[h,rho] + dissipator of the row in force at time ``t``, row 0 when t is
    None; traceless and Hermitian."""
    if t is not None and not 0 <= t < math.inf:  # written so that NaN fails too
        raise ValidationError(f"generator time must be >= 0 and finite, got {t}")
    if gen.dims != rho.dims:
        raise ValidationError("generator and state act on different spaces")
    g, g_dag, compiled = _compiled(gen, 0 if t is None else gen._rows(np.array([t]))[0])
    return Operator(_rhs(g, g_dag, compiled, rho.data), rho.dims)


def _liouvillian(gs: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Superoperators of ``_rhs`` for a (n, d, d) stack of G and its (n or 1, J, d, d) jumps, on
    row-major vec: vec(A X B) = (A (x) B^T) vec(X), with X G^dag giving I (x) conj(G) and the
    jumps sum_j l_j (x) conj(l_j), one einsum."""
    n, d, _ = gs.shape
    eye = np.eye(d)
    out = np.einsum("nij,kl->nikjl", gs, eye) + np.einsum("ij,nkl->nikjl", eye, gs.conj())
    out += np.einsum("njik,njlm->nilkm", ls, ls.conj())
    return out.reshape(n, d * d, d * d)


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

    Each substep holds the row in force at its midpoint, so rho_{k+1} = exp(h L_k) rho_k is
    exact.  Up to ``qcore.DENSE_MAX_DIM`` the rows in use are exponentiated as d^2 x d^2
    Liouvillians, batched a chunk of substeps at a time (a static generator is one propagator,
    raised by doubling), and each chunk is handed to one ``qcore.propagate`` call as it is
    formed, which carries the state from chunk to chunk; above it exp(h L_k) rho_k is summed as
    a Taylor series to round-off, O(d^3) work per term and O(d^2) memory, a row's jumps
    compiled only when the row changes.  The raw states are checked once, then stored as
    (rho + rho^dag) / 2 (``collision._checked_trajectory``); a breach of Hermiticity, trace or
    PSD beyond the run tolerances aborts.
    """
    n_substeps = qcore.as_int(n_substeps, "n_substeps")
    if n_substeps < 1:
        raise ValidationError("n_substeps must be >= 1")
    if not 0 < t_final < math.inf:
        raise ValidationError("t_final must be positive and finite")
    if gen.dims != rho0.dims:
        raise ValidationError("generator and state act on different spaces")
    _check_observables(observables, rho0.dims)

    h = t_final / n_substeps
    rows = gen._rows((np.arange(n_substeps) + 0.5) * h)
    d = rho0.side
    if d > qcore.DENSE_MAX_DIM:
        states = np.empty((n_substeps + 1, d, d), dtype=complex)
        states[0] = rho = rho0.data
        last = None
        for k, row in enumerate(rows.tolist()):
            if row != last:
                last, (g, g_dag, compiled) = row, _compiled(gen, row)
            rho = states[k + 1] = _expm_series(h, g, g_dag, compiled, rho)
        return _checked_trajectory(h, states, observables)

    # rows never decrease: a chunk of substeps exponentiates the rows it uses, and a static
    # generator is one propagator for all substeps
    chunk = n_substeps if rows[0] == rows[-1] else qcore.chunk_rows(d**4)

    def chunks():
        for lo in range(0, n_substeps, chunk):
            used, inv = np.unique(rows[lo:lo + chunk], return_inverse=True)
            ls = gen.ls if len(gen.ls) == 1 else gen.ls[used]
            props = qcore.expm_stack(h * _liouvillian(-1j * gen.hs[used] - _damping(ls), ls))
            yield len(inv), props if len(used) == 1 else props[inv]

    states = qcore.propagate(chunks(), rho0.data.reshape(-1), n_substeps)
    return _checked_trajectory(h, states.reshape(-1, d, d), observables)
