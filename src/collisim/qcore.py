"""Dense complex linear algebra for finite-dimensional quantum objects.

Everything here is a pure function of immutable values: operators and states
carry read-only numpy arrays plus an ordered list of subsystem dimensions, so
they can be shared freely across concurrent workers.  ``first_invalid_state``,
``first_non_hermitian`` and ``first_non_unit`` define a state, a Hamiltonian and a ket, stackwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import ValidationError

# Structural tolerances for the state types.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9
NORM_TOL = 1e-10

# Work on stacks of matrices (checks, distances, unitaries) is batched in pieces of this many bytes.
STACK_CHUNK_BYTES = 2 * 2**20


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix over an ordered list of subsystem dimensions.

    ``dims`` records the tensor factorization of the space the matrix acts
    on; its product must equal the matrix side.  Used uniformly for
    Hamiltonians, unitaries, coupling/jump operators and ladder operators.
    """

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValidationError("dims must be a non-empty list of dimensions >= 1")
        data = _freeze(self.data)
        side = math.prod(dims)
        if data.ndim != 2 or data.shape != (side, side):
            raise ValidationError(
                f"matrix of shape {data.shape} incompatible with dims {dims}"
            )
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", dims)

    @property
    def side(self) -> int:
        return self.data.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.data.conj().T, self.dims)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return first_non_hermitian(self.data[None], tol) is None

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.data + other.data, self.dims)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.data - other.data, self.dims)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.data * scalar, self.dims)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.data @ other.data, self.dims)

    def _check_same_space(self, other: "Operator") -> None:
        if self.dims != other.dims:
            raise ValidationError(
                f"operators act on different spaces: {self.dims} vs {other.dims}"
            )


def first_non_hermitian(stack: np.ndarray, tol: float = HERMITICITY_TOL) -> tuple[int, str] | None:
    """(index, reason) of the first matrix of a (T, d, d) stack that deviates from Hermitian
    by more than tol, or is not finite; None if none does."""
    dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(~(dev <= tol))  # NaN compares False, so it counts as a deviation
    return (int(bad[0]), f"not Hermitian: deviation {dev[bad[0]]:.3e}") if bad.size else None


def first_invalid_state(stack: np.ndarray, psd_tol: float = PSD_TOL) -> tuple[int, str] | None:
    """(index, reason) of the first matrix of a (T, d, d) stack that is not finite,
    Hermitian, of unit trace and with min eigenvalue >= psd_tol; None if all are."""
    step = max(1, STACK_CHUNK_BYTES // (16 * stack.shape[-1] ** 2))
    for lo in range(0, len(stack), step):
        part = stack[lo:lo + step]
        finite = np.isfinite(part).all(axis=(1, 2))
        part = np.where(finite[:, None, None], part, 0.0)  # eigvalsh needs finite input
        herm = np.abs(part - part.conj().swapaxes(1, 2)).max(axis=(1, 2))
        trace = np.trace(part, axis1=1, axis2=2)
        min_eig = np.linalg.eigvalsh(part)[:, 0]
        bad = ~finite | (herm > HERMITICITY_TOL) | (abs(trace - 1.0) > TRACE_TOL) | (min_eig < psd_tol)
        if bad.any():
            k = int(np.argmax(bad))
            return lo + k, "non-finite entries" if not finite[k] else (
                f"not a density matrix: Hermiticity deviation {herm[k]:.3e}, trace "
                f"{trace[k]:.12g}, min eigenvalue {min_eig[k]:.3e} (floor {psd_tol})")
    return None


def first_non_unit(stack: np.ndarray, tol: float = NORM_TOL) -> tuple[int, str] | None:
    """(index, reason) of the first ket of a (T, d) stack whose squared norm is not 1 within tol."""
    norm_sq = np.einsum("ti,ti->t", stack, stack.conj()).real
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= tol))  # NaN compares False, so it counts
    return (int(bad[0]), f"squared norm {norm_sq[bad[0]]:.12g}, not 1") if bad.size else None


def checked_stack(data, row_shape: tuple[int, ...], what: str, first_bad) -> np.ndarray:
    """Step-indexed input as a read-only C-ordered complex (N >= 1, *row_shape) stack, copied only
    if needed; ValidationError names ``what`` and the first step (1-based) ``first_bad`` rejects."""
    stack = np.asarray(data)
    if stack.shape[1:] != row_shape or not len(stack):
        raise ValidationError(f"{what} of shape {stack.shape} is not N x {row_shape}")
    stack = np.ascontiguousarray(stack, dtype=complex).view()
    stack.setflags(write=False)
    bad = first_bad(stack)
    if bad is not None:
        raise ValidationError(f"{what} at step {bad[0] + 1}: {bad[1]}")
    return stack


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator, validated on construction."""

    op: Operator

    def __post_init__(self):
        bad = first_invalid_state(self.op.data[None])
        if bad is not None:
            raise ValidationError(bad[1])

    @property
    def data(self) -> np.ndarray:
        return self.op.data

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims

    @property
    def side(self) -> int:
        return self.op.side


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over subsystem dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValidationError("dims must be a non-empty list of dimensions >= 1")
        amps = _freeze(np.asarray(self.amplitudes).reshape(-1))
        if amps.shape[0] != math.prod(dims):
            raise ValidationError(
                f"amplitude vector of length {amps.shape[0]} incompatible with dims {dims}"
            )
        bad = first_non_unit(amps[None])
        if bad is not None:
            raise ValidationError(bad[1])
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def density_matrix(self) -> DensityMatrix:
        return DensityMatrix(Operator(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def identity(*dims: int) -> Operator:
    return Operator(np.eye(math.prod(dims), dtype=complex), tuple(dims))


def fock(d: int, k: int) -> PureState:
    """Number state |k> in a d-dimensional truncation."""
    if not 0 <= k < d:
        raise ValidationError(f"Fock index {k} outside truncation {d}")
    amps = np.zeros(d, dtype=complex)
    amps[k] = 1.0
    return PureState(amps, (d,))


def fock_dm(d: int, k: int) -> DensityMatrix:
    return fock(d, k).density_matrix()


def annihilator(d: int) -> Operator:
    """Truncated bosonic lowering operator: a|k> = sqrt(k)|k-1>, a|0> = 0."""
    if d < 2:
        raise ValidationError(f"truncation dimension must be >= 2, got {d}")
    return Operator(np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1), (d,))


def displacement(xi: complex, d: int) -> Operator:
    """Unitary displacement exp(xi a^dag - conj(xi) a) at truncation d."""
    a = annihilator(d)
    return expm(xi * a.dag() - np.conj(xi) * a, 1.0)


def truncation_fidelity(xi: complex, d: int) -> float:
    """Weight of an ideal coherent state of amplitude xi lost above level d-1.

    |1 - <psi|psi>_truncated| with the exact Poisson photon-number weights;
    small values certify that displacement(xi, d) is a faithful coherent
    state preparation.
    """
    n_mean = abs(xi) ** 2
    kept = sum(n_mean**k / math.factorial(k) for k in range(d))
    return abs(1.0 - math.exp(-n_mean) * kept)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; dims concatenate."""
    return Operator(np.kron(a.data, b.data), a.dims + b.dims)


def ptrace_matrix(data: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a raw square matrix over the subsystems not in keep."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"keep indices {keep} invalid for {n} subsystems")
    t = data.reshape(dims + dims)
    row = list(range(n))
    col = [i if i not in keep else n + i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    return np.einsum(t, row + col, out).reshape(
        math.prod(dims[i] for i in keep), -1
    )


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on the subsystems listed in keep (original order)."""
    data = ptrace_matrix(rho.data, rho.dims, keep)
    kept_dims = tuple(rho.dims[i] for i in sorted(set(int(k) for k in keep)))
    return DensityMatrix(Operator(data, kept_dims))


def expm(a: Operator, scale: complex) -> Operator:
    """Matrix exponential exp(scale * a) (scaling-and-squaring Pade kernel)."""
    if scale == 0:
        return identity(*a.dims)
    return Operator(scipy.linalg.expm(scale * a.data), a.dims)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2)||a - b||_1 via the eigenvalues of the Hermitian difference."""
    return float(trace_distances(a.data[None], b.data[None])[0])


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise trace distances of two (T, d, d) stacks, by batched eigvalsh."""
    step = max(1, STACK_CHUNK_BYTES // (16 * a.shape[-1] ** 2))
    diffs = (a[lo:lo + step] - b[lo:lo + step] for lo in range(0, len(a), step))
    return np.concatenate([0.5 * np.abs(np.linalg.eigvalsh(m)).sum(axis=1) for m in diffs])
