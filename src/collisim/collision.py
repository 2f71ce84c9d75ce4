"""Collision dynamics: per-step unitaries, reduced evolution, CP checks.

Every bath is a source on chi levels with a stack of per-step factors F (``bath``), and ``_run``
runs them all: a product run on source (x) S on one Kraus kernel, E(M) = Tr_a[U (M (x) F F^dag)
U^dag] = sum_x K_x M K_x^dag, held only as the blocks K = [i, (j, x)] that ``_kraus`` forms.
``_kraus_chunks`` builds them a chunk of steps at a time, one batched product per chunk of
unitaries, and a map shared by every step once for all steps.  Small runs whose steps share one
map, or of side 2, go through ``qcore.propagate``, which raises a shared map by doubling and
scans a map per step; otherwise ``_kraus_loop``, the one routine that applies a Kraus map, does
it step by step.  Step-indexed inputs are raw read-only arrays, each checked once where it is
built.  ``_checked_trajectory`` is the one place that stores a run's states, of this module and
of the master equation alike: it checks them raw, once, then stores each as (rho + rho^dag) / 2,
exactly Hermitian.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

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
        for name in ("n_steps", "d_anc"):
            object.__setattr__(self, name, qcore.as_int(getattr(self, name), name))
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


def _interaction(spec: CollisionSpec) -> np.ndarray:
    """The matrix b (x) adag + bdag (x) a on S (x) ancilla, from raw matrices; each Kronecker
    product is one broadcast multiply, the operation of np.kron without its overhead."""
    b = spec.coupling.data
    a = np.diag(np.sqrt(np.arange(1, spec.d_anc, dtype=float)), k=1).astype(complex)
    side = len(b) * spec.d_anc
    kron = lambda x, y: (x[:, None, :, None] * y[None, :, None, :]).reshape(side, side)
    return kron(b, a.conj().T) + kron(b.conj().T, a)


def interaction_operator(spec: CollisionSpec) -> Operator:
    """Dimensionless exchange coupling b (x) adag + bdag (x) a on S (x) ancilla."""
    return Operator(_interaction(spec), spec.h_sys.dims + (spec.d_anc,))


def _unitaries(spec: CollisionSpec, steps: Sequence[int],
               row: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (c, U) for the next c collisions of ``steps`` (in 1..n_steps) in order: U the (c, D, D)
    stack of U_k = exp(-i (H_S (x) I + g v) dt) from one ``qcore.expm_stack`` call, c steps of
    qcore.STACK_CHUNK_BYTES at most of U_k or of the caller's ``row`` entries a step, whichever is
    larger, or a static spec's one U as (1, D, D), formed once and yielded for every chunk."""
    table, rows = spec.h_sys_table, np.asarray(steps, dtype=int) - 1
    side = spec.d_sys * spec.d_anc
    batch = qcore.chunk_rows(max(side * side, row))
    with np.errstate(invalid="ignore"):  # g = inf, where gamma / dt overflows: NaN, not a warning
        coupling = spec.coupling_strength * _interaction(spec)
    us = None
    for lo in range(0, len(rows), batch):
        if us is None or table is not None:
            hs = spec.h_sys.data[None] if table is None else table[rows[lo:lo + batch]]
            h = np.einsum("nij,ab->niajb", hs, np.eye(spec.d_anc))
            gens = h.reshape(-1, side, side) + coupling  # H (x) I + g v
            us = qcore.expm_stack(-1j * spec.dt * gens)
        yield len(rows[lo:lo + batch]), us


def _kraus(u: np.ndarray, f: np.ndarray, chi: int = 1) -> np.ndarray:
    """The Kraus blocks of E(M) = Tr_a[U (M (x) F F^dag) U^dag] = sum_x K_x M K_x^dag,
    K_x = sum_b <a|U|b> F_br for x = (r, a), as the stack [..., i, (j, x)] = (K_x)_ij of shape
    (..., d, d r d_a), for U of shape (..., D, D) and F of shape (..., d_a, r), stacks broadcast
    against each other: one batched product.  This is the one form of a collision map.  On a
    chi-level source, r = (s, t, r'): blocks [..., (s, i), (t, j, r', a)] on source (x) S."""
    d_a = f.shape[-2]
    d = u.shape[-1] // d_a
    k = u.reshape(u.shape[:-2] + (-1, d_a)) @ f
    k = k.reshape(k.shape[:-2] + (d, d_a, d, chi, chi, -1))
    *lead, i, a, j, s, t, r = range(k.ndim)
    return k.transpose(*lead, s, i, t, j, r, a).reshape(k.shape[:-6] + (chi * d, -1))


def _kraus_chunks(spec: CollisionSpec, n: int, fs,
                  chi: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (c, K) for the next c of the collisions 1..n, in order: the Kraus blocks of U_k against
    F_k = fs[k - 1], a (d_a, r) factor or a ket per row, on a ``chi``-level source, where a one-row
    ``fs`` serves every step.  A chunk of ``_unitaries``, sized by K and K^dag where they outgrow
    U_k, gives its blocks by one ``_kraus`` call, one row per step; a map shared by every step (a
    one-row ``fs`` and no ``h_sys_table``) is one row, formed once and yielded once as the chunk of
    all n steps."""
    row = 2 * spec.d_sys ** 2 * np.size(fs[0])  # the entries of a step's K and K^dag
    chunks = (_unitaries(spec, range(1, n + 1), row) if len(fs) > 1 or spec.h_sys_table is not None
              else [(n, next(_unitaries(spec, [1]))[1])])  # one map for every step
    lo = 0
    for count, us in chunks:
        f = np.asarray(fs if len(fs) == 1 else fs[lo:lo + count])
        lo += count
        yield count, _kraus(us, f.reshape(len(f), spec.d_anc, -1), chi)


def _kraus_loop(ks: np.ndarray, m0: np.ndarray, n: int) -> np.ndarray:
    """The (n + 1,) + m0.shape states of m0, a matrix or a stack, before and after each of n
    collisions; the one routine that applies a Kraus map.  Of blocks K = [i, (j, x)] with one row
    a step or one row shared by the n steps, it forms the adjoint blocks K^dag = [j, (x, i)]
    once; each step is then sum_x K_x m K_x^dag, two products."""
    states = np.empty((n + 1,) + m0.shape, dtype=complex)
    states[0] = m0
    shape = m0.shape[:-2] + (-1, m0.shape[-1])
    d = ks.shape[-2]
    ks_dag = ks.reshape(len(ks), d, d, -1).transpose(0, 2, 3, 1).conj().reshape(len(ks), d, -1)
    pairs = zip(ks, ks_dag) if len(ks) == n else itertools.repeat((ks[0], ks_dag[0]), n)
    for k, (kraus, kraus_dag) in enumerate(pairs):
        np.matmul(kraus, (states[k] @ kraus_dag).reshape(shape), out=states[k + 1])
    return states


def _superoperator(k: np.ndarray) -> np.ndarray:
    """sum_x K_x (x) conj(K_x), the row-major d^2 x d^2 superoperator of M -> sum_x K_x M K_x^dag
    (vec(K M K^dag) = (K (x) conj(K)) vec(M)), for each row of an (M, d, d X) stack of ``_kraus``
    blocks k = [i, (j, x)], by one batched product.  A one-row stack, which may be a map shared by
    every step, is summed in extended precision and rounded once, as a shared map repeats its
    rounding error at every step; a map per step is applied once, and summed in plain precision."""
    d = k.shape[-2]
    precision = np.clongdouble if len(k) == 1 else complex
    b = k.reshape(len(k), d * d, -1).astype(precision, copy=False)  # [(i, j), x]
    s = (b @ b.conj().swapaxes(1, 2)).astype(complex, copy=False)  # [(i, j), (k, l)]
    return s.reshape(-1, d, d, d, d).swapaxes(2, 3).reshape(-1, d * d, d * d)


def collision_unitary(spec: CollisionSpec, step: int = 1) -> Operator:
    """U = exp(-i (H_S (x) I + g v) dt) for the collision at `step` (1-based)."""
    step = qcore.as_step(step, spec.n_steps)
    return Operator(next(_unitaries(spec, [step]))[1][0], spec.h_sys.dims + (spec.d_anc,))


def collide_once(rho: DensityMatrix, eta: DensityMatrix, u: Operator) -> DensityMatrix:
    """Reduced state after one collision: Tr_anc{ U (rho (x) eta) U^dag }."""
    if u.dims != rho.dims + eta.dims:
        raise ValidationError(
            f"unitary dims {u.dims} do not match system {rho.dims} + ancilla {eta.dims}"
        )
    k = _kraus(u.data, bath_mod._factor(eta.data))
    return DensityMatrix(Operator(_kraus_loop(k[None], rho.data, 1)[1], rho.dims))


def _check_observables(observables: Mapping[str, Operator] | None, dims: tuple[int, ...]) -> None:
    """ValidationError unless every observable is an ``Operator`` on ``dims``, before a run."""
    for name, op in (observables or {}).items():
        if not isinstance(op, Operator) or op.dims != dims:
            raise ValidationError(f"observable {name!r} is not an operator on dims {dims}")


def _checked_trajectory(dt: float, states: np.ndarray,
                        observables: Mapping[str, Operator] | None) -> Trajectory:
    """Trajectory on the grid k dt of a run's raw (T, d, d) states, which it takes over: they are
    checked as they came (PropagationError names the first non-state, RUN_PSD_TOL), then stored
    as (rho + rho^dag) / 2 in place, so every stored state is exactly Hermitian and its
    populations exactly real.  A qubit stack is stored entry by entry, each by the generic
    expression's own elementwise operation, so bit for bit: each diagonal entry becomes its real
    part, rho_01 becomes (rho_01 + conj rho_10) / 2 and rho_10 the conjugate expression; larger
    stacks a chunk at a time.  Each observable O is one (T, d^2) @ vec(O^T) product, Tr(O rho)."""
    bad = qcore.first_invalid_state(states, RUN_PSD_TOL)
    if bad is not None:
        step, reason = bad
        raise PropagationError(f"state invariant breached at step {step}: {reason}", step=step)
    d = states.shape[-1]
    if d == 2:
        upper, lower = states[:, 0, 1], states[:, 1, 0]
        upper[:], lower[:] = 0.5 * (upper + lower.conj()), 0.5 * (lower + upper.conj())
        states.imag[:, (0, 1), (0, 1)] = 0.0  # 0.5 (x + conj x) of a finite x
    else:
        chunk = qcore.chunk_rows(d * d)
        for lo in range(0, len(states), chunk):
            part = states[lo:lo + chunk]
            part[:] = 0.5 * (part + part.conj().swapaxes(1, 2))
    rows = states.reshape(len(states), d * d)
    obs = {name: rows @ op.data.T.reshape(-1) for name, op in (observables or {}).items()}
    return Trajectory(np.arange(len(states)) * dt, states, obs)


def _check_bath(spec: CollisionSpec, bath: BathSpec, rho0: DensityMatrix | None = None) -> None:
    """ValidationError unless ``bath`` and ``rho0`` (where given) fit ``spec``."""
    if bath.d != spec.d_anc:
        raise ValidationError(f"bath ancilla dimension {bath.d} != spec d_anc {spec.d_anc}")
    if bath.n_steps < spec.n_steps:
        raise ValidationError(f"bath covers {bath.n_steps} steps, spec wants {spec.n_steps}")
    if rho0 is not None and rho0.dims != spec.h_sys.dims:
        raise ValidationError("initial state on wrong space")


def _run(spec: CollisionSpec, bath: BathSpec, m0: np.ndarray, n: int) -> np.ndarray:
    """(..., n + 1, d, d) system states of m0, one matrix or a stack, before and after each
    collision 1..n of ``spec`` against ``bath``: linear in m0, unchecked; the one run routine.

    A product run on source (x) S from sigma_0 (x) m0, sigma_0 = ``bath.source`` on chi levels,
    of the blocks that ``_kraus`` forms there, traced over the source; at chi = 1 the trace is a
    view, as a sum of one term would turn -0.0 into +0.0.  Up to ``qcore.DENSE_MAX_DIM`` of the
    joint side chi d, where every step shares one map (one factor row, no ``h_sys_table``) or
    chi d = 2, one ``qcore.propagate`` call takes the superoperators of the chunks of
    ``_kraus_chunks`` for each start.  Otherwise ``_kraus_loop`` applies each chunk's blocks to
    the whole stack, which at chi d = 3..5 beats a superoperator per step; each chunk runs from the
    last joint state of the one before and is traced as it ends, so no run holds two chunks' maps
    or joint states."""
    chi, d, lead = len(bath.source), m0.shape[-1], m0.shape[:-2]
    side = chi * d
    # sigma_0 (x) m0 by np.kron's products, so its zero blocks keep 0 * m0's signs
    joint = m0 if chi == 1 else (bath.source[:, None, :, None] * m0[..., None, :, None, :]).reshape(
        lead + (side, side))

    def trace(states):  # Tr_source of (..., side, side) states
        traced = states[..., :d, :d]
        for s in range(d, side, d):
            traced = traced + states[..., s:s + d, s:s + d]
        return traced

    if side <= qcore.DENSE_MAX_DIM and (side == 2 or len(bath.etas) == 1
                                        and spec.h_sys_table is None):
        runs = [qcore.propagate(((c, _superoperator(ks))
                                 for c, ks in _kraus_chunks(spec, n, bath.etas, chi)), x, n)
                for x in joint.reshape(-1, side * side)]
        return trace((np.stack(runs) if lead else runs[0]).reshape(lead + (n + 1, side, side)))
    out = np.empty(lead + (n + 1, d, d), dtype=complex)
    out[..., 0, :, :] = trace(joint)
    lo = 0
    for c, ks in _kraus_chunks(spec, n, bath.etas, chi):
        states = np.moveaxis(_kraus_loop(ks, joint, c), 0, -3)
        out[..., lo + 1:lo + c + 1, :, :] = trace(states[..., 1:, :, :])
        joint, lo = states[..., -1, :, :].copy(), lo + c
        del ks, states  # so that two chunks' blocks and states are never held at once
    return out


def run_product(spec: CollisionSpec, bath: BathSpec, rho0: DensityMatrix,
                observables: Mapping[str, Operator] | None = None) -> Trajectory:
    """Iterated collisions of rho0 against any bath, product or correlated (``_run``)."""
    _check_bath(spec, bath, rho0)
    _check_observables(observables, rho0.dims)
    return _checked_trajectory(spec.dt, _run(spec, bath, rho0.data, spec.n_steps), observables)


run_correlated = run_product  # a public name of its own, which bench/tracer.py times as a layer


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

    For a bath of a one-level source (a product bath) this is the collision
    map of that step itself, the row-major d^2 x d^2 matrix sum_x K_x (x) conj(K_x)
    read off the Kraus blocks of the bath's factor, as vec(K m K^dag) =
    (K (x) conj(K)) vec(m).  For a larger source (a correlated bath) it is
    reconstructed by tomography: the d_S^2 matrix units are propagated through
    collisions 1..step in one ``_run``, and the earlier map is divided out; the
    result is one convention for "the" step map and need not be completely positive.
    """
    step = qcore.as_step(step, spec.n_steps)
    d_s = spec.d_sys
    if d_s > CHOI_MAX_SYSTEM_DIM:
        raise ValidationError(f"system dimension {d_s} too large for a step map")
    _check_bath(spec, bath)
    if len(bath.source) == 1:
        return _superoperator(_kraus(next(_unitaries(spec, [step]))[1], bath.factor(step)))[0]
    units = np.eye(d_s * d_s, dtype=complex).reshape(-1, d_s, d_s)
    runs = _run(spec, bath, units, step)[:, -2:]
    # row k of runs[:, j] is matrix unit k after step - 1 + j collisions; after = L before
    before, after = (runs[:, j].reshape(d_s * d_s, -1) for j in (0, 1))
    return np.linalg.solve(before, after).T


def step_map_choi(spec: CollisionSpec, bath: BathSpec, step: int) -> Operator:
    d_s = spec.d_sys
    m = step_map_superoperator(spec, bath, step)
    return Operator(_choi_from_superoperator(m, d_s), (d_s, d_s))
