"""Dense complex linear algebra for finite-dimensional quantum objects, on numpy alone.

Everything here is a pure function of immutable values: operators and states
carry read-only numpy arrays plus an ordered list of subsystem dimensions, so
they can be shared freely across concurrent workers.  ``first_invalid_state``,
``first_non_hermitian`` and ``first_non_unit`` define a state, a Hamiltonian and a ket, stackwise.
The state check, ``eigvalsh_stack`` and ``trace_distances`` take a qubit stack's spectrum in
closed form from one helper, ``_qubit_spectrum``, and every other size by one batched
``eigvalsh``.
``expm_stack`` forms every matrix exponential of the package (collision unitaries, dense
master-equation propagators) a whole stack at a time, by one Pade evaluation for every order,
and ``propagate`` runs every linear recursion x_k = T_k x_{k-1} of small maps (product collision
runs, the dense master equation), up to ``DENSE_MAX_DIM`` levels, from a stream of chunks that
its caller forms one at a time: a map shared by a chunk's steps raised by doubling, a map per
step by a blocked prefix scan, the last state carried into the next chunk.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

# Structural tolerances for the state types.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9
NORM_TOL = 1e-10

# Work on stacks of matrices (checks, distances, unitaries and the maps formed from them) is
# batched in pieces of this many bytes.
STACK_CHUNK_BYTES = 2 * 2**20

# Scaling-and-squaring Pade exponential (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)):
# (theta_m, coefficients b_j = (2m - j)! / (j! (m - j)!), j = 0..m) for m = 3, 5, 7, 9, 13; the
# [m/m] approximant is accurate to double precision for ||A||_1 <= theta_m.
_PADE = tuple((theta, tuple(float(math.perm(2 * m - j, m) // math.factorial(j))
                            for j in range(m + 1)))
              for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
                               (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
                               (13, 5.371920351148152e0)))


def as_int(value, what: str) -> int:
    """``value``, a count, a dimension or a step, as an int: a Python or numpy integer passes, and
    a bool or any other value (1.5, and 2.0 too) is a ValidationError, never truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def as_step(step, n_steps: int) -> int:
    """``step`` as an int (as_int) in 1..n_steps, else a ValidationError."""
    step = as_int(step, "step")
    if not 1 <= step <= n_steps:
        raise ValidationError(f"step {step} outside 1..{n_steps}")
    return step


def chunk_rows(entries: int) -> int:
    """How many rows of ``entries`` complex entries make a piece of STACK_CHUNK_BYTES, at least
    one."""
    return max(1, STACK_CHUNK_BYTES // (16 * entries))


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
        dims = tuple(as_int(d, "dimension") for d in self.dims)
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

    def is_hermitian(self) -> bool:
        return first_non_hermitian(self.data[None]) is None

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


def first_non_hermitian(stack: np.ndarray) -> tuple[int, str] | None:
    """(index, reason) of the first matrix of a (T, d, d) stack that deviates from Hermitian
    by more than HERMITICITY_TOL, or is not finite; None if none does.  A finite entry near the
    largest double may overflow the deviation to inf, which fails too, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(~(dev <= HERMITICITY_TOL))  # NaN compares False: it counts as deviating
    return (int(bad[0]), f"not Hermitian: deviation {dev[bad[0]]:.3e}") if bad.size else None


def first_invalid_state(stack: np.ndarray, psd_tol: float = PSD_TOL) -> tuple[int, str] | None:
    """(index, reason) of the first matrix of a (T, d, d) complex stack that is not finite,
    Hermitian, of unit trace and with min eigenvalue >= psd_tol; None if all are.  A chunk is
    tested finite by one contiguous reduction over the float view of its rows; only a chunk
    with a non-finite entry forms a per-row mask and is copied with those rows zeroed.  A
    qubit's min eigenvalue is m - r of ``_qubit_spectrum``, its Hermiticity deviation
    max(2 |Im rho_ii|, |rho_01 - conj rho_10|) and its trace rho_00 + rho_11, each bit for bit
    the generic one, so the reasons do not depend on the path; every other size takes a batched
    eigvalsh.  Finite entries near the largest double may overflow a measure to inf, which
    fails too, without a warning."""
    step = chunk_rows(stack.shape[-1] ** 2)
    for lo in range(0, len(stack), step):
        part = stack[lo:lo + step]
        finite = np.isfinite(part.reshape(len(part), -1).view(float))
        if finite.all():
            finite = np.ones(len(part), dtype=bool)
        else:
            finite = finite.all(axis=1)
            part = np.where(finite[:, None, None], part, 0.0)  # eigvalsh needs finite input
        with np.errstate(over="ignore", invalid="ignore"):
            if stack.shape[-1] == 2:
                a, e = part[:, 0, 0], part[:, 1, 1]
                herm = np.maximum(2.0 * np.maximum(abs(a.imag), abs(e.imag)),
                                  abs(part[:, 0, 1] - part[:, 1, 0].conj()))
                trace = a + e + 0.0  # np.trace's sum starts at +0: -0 + -0 is +0
                m, r = _qubit_spectrum(a.real, e.real, part[:, 1, 0])
                min_eig = m - r
            else:
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


def _qubit_spectrum(p: np.ndarray, q: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, r) of the Hermitian 2 x 2 matrices with real diagonal (p, q) and lower off-diagonal
    entry b, whose eigenvalues are m -+ r: m and delta the half-sum and half-difference of the
    diagonal, halved before adding so that no finite input overflows, and r = hypot(delta, |b|).
    """
    a, c = 0.5 * p, 0.5 * q
    return a + c, np.hypot(a - c, np.abs(b))


def eigvalsh_stack(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, as a (T, d) array, of the Hermitian matrices of a (T, d, d) stack,
    read from the lower triangle as ``np.linalg.eigvalsh`` reads it.

    At d = 2 they are (m - r, m + r) of ``_qubit_spectrum``, one LAPACK call fewer per matrix.
    Every other size takes one batched ``np.linalg.eigvalsh``.
    """
    if stack.shape[-1] != 2:
        return np.linalg.eigvalsh(stack)
    m, r = _qubit_spectrum(stack[:, 0, 0].real, stack[:, 1, 1].real, stack[:, 1, 0])
    return np.stack([m - r, m + r], axis=1)


def first_non_unit(stack: np.ndarray, tol: float = NORM_TOL) -> tuple[int, str] | None:
    """(index, reason) of the first ket of a (T, d) stack whose squared norm is not 1 within tol."""
    norm_sq = np.einsum("ti,ti->t", stack, stack.conj()).real
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= tol))  # NaN compares False, so it counts
    return (int(bad[0]), f"squared norm {norm_sq[bad[0]]:.12g}, not 1") if bad.size else None


def checked_stack(data, row_shape: tuple, what: str, first_bad) -> np.ndarray:
    """Step-indexed input as a read-only C-ordered complex (N >= 1, *row_shape) stack, copied only
    if needed; a trailing None in ``row_shape`` stands for one more axis of any length, or none.
    ValidationError names ``what`` for ragged rows, a wrong shape or entries that are not numbers,
    and else the first step (1-based) ``first_bad`` rejects."""
    try:
        stack = np.asarray(data)
    except ValueError:  # ragged rows
        raise ValidationError(f"{what} is not a stack of equal-shaped rows") from None
    if row_shape[-1:] == (None,):
        row_shape = row_shape[:-1] + stack.shape[len(row_shape):len(row_shape) + 1]
    if stack.shape[1:] != row_shape or not len(stack):
        raise ValidationError(f"{what} of shape {stack.shape} is not N x {row_shape}")
    try:
        stack = np.ascontiguousarray(stack, dtype=complex).view()
    except (TypeError, ValueError):  # entries that are not numbers
        raise ValidationError(f"{what} has entries that are not numbers") from None
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
        dims = tuple(as_int(d, "dimension") for d in self.dims)
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
    dims = tuple(as_int(d, "dimension") for d in dims)
    return Operator(np.eye(math.prod(dims), dtype=complex), dims)


def fock(d: int, k: int) -> PureState:
    """Number state |k> in a d-dimensional truncation."""
    d, k = as_int(d, "truncation dimension"), as_int(k, "Fock index")
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

    The Poisson tail sum_{k >= d} w_k, w_k = e^-n n^k / k! with n = |xi|^2; small values
    certify that displacement(xi, d) is a faithful coherent state preparation.  The weights
    are summed from level d away from the mode, where they fall: the tail itself when d > n,
    else the head k < d, whose complement is the tail.  Each sum starts from its first weight,
    exp(k ln n - lgamma(k + 1) - n), and stops once a weight is below round-off of the sum.
    """
    d = as_int(d, "truncation dimension")
    if d < 1:
        raise ValidationError(f"truncation dimension must be >= 1, got {d}")
    n = abs(xi) ** 2
    if n == 0:
        return 0.0
    up = d > n
    k = d if up else d - 1
    w, total = math.exp(k * math.log(n) - math.lgamma(k + 1) - n), 0.0
    while w > total * 2**-53:
        total += w
        k, w = (k + 1, w * n / (k + 1)) if up else (k - 1, w * k / n)
    return total if up else 1.0 - total


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; dims concatenate."""
    return Operator(np.kron(a.data, b.data), a.dims + b.dims)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on the subsystems listed in keep (original order)."""
    dims, n = rho.dims, len(rho.dims)
    keep = sorted(set(as_int(k, "keep index") for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"keep indices {keep} invalid for {n} subsystems")
    col = [i if i not in keep else n + i for i in range(n)]
    out = keep + [n + i for i in keep]
    data = np.einsum(rho.data.reshape(dims + dims), list(range(n)) + col, out)
    kept_dims = tuple(dims[i] for i in keep)
    return DensityMatrix(Operator(data.reshape(math.prod(kept_dims), -1), kept_dims))


def expm(a: Operator, scale: complex) -> Operator:
    """Matrix exponential exp(scale * a), by ``expm_stack``."""
    return Operator(expm_stack(scale * a.data), a.dims)


def expm_stack(a: np.ndarray) -> np.ndarray:
    """exp(A) of every matrix of an (..., D, D) stack, by scaling and squaring (Higham 2005).

    The smallest Pade order m in {3, 5, 7, 9, 13} whose theta_m bounds the largest 1-norm in the
    stack serves the whole stack, each order by one evaluation, (V - U)^-1 (V + U) from the even
    powers of A; past theta_13 each matrix is scaled by its own 2^-s_i to within it and squared
    s_i times.  A zero matrix gives the identity exactly.  Non-finite input, or squarings that
    overflow, give non-finite output, which the callers' state checks reject.
    """
    a = np.asarray(a, dtype=complex)
    shape, eye = a.shape, np.eye(a.shape[-1])
    a = a.reshape((-1,) + shape[-2:])
    norms = np.abs(a).sum(axis=1).max(axis=1, initial=0.0)  # 1-norm: largest column sum
    top = norms.max(initial=0.0)
    theta, b = next((pade for pade in _PADE if top <= pade[0]), _PADE[-1])
    s = np.zeros(len(a), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        if not top <= theta:  # past theta_13, or not finite
            s = np.ceil(np.log2(np.maximum(norms, theta) / theta))
            s = np.where(np.isfinite(s), s, 0).astype(int)
            a = a * np.exp2(-s)[:, None, None]
        a2 = a @ a
        powers = [eye, a2]
        while len(powers) < len(b) // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(c * p for c, p in zip(b[1::2], powers))
        v = sum(c * p for c, p in zip(b[0::2], powers))
        x = np.linalg.solve(v - u, v + u)
        for k in range(s.max(initial=0)):
            sq = s > k
            x[sq] = x[sq] @ x[sq]
    return x.reshape(shape)


# Up to this system dimension ``propagate`` takes d^2 x d^2 maps: the ME's dense propagators, and
# the superoperators of a product collision run whose steps share one map, or of any run at d = 2.
# Otherwise the ME sums a Taylor series per substep and a product run applies its Kraus maps.  Per
# step, dense against the other, at d = 2 / 3 / 4 / 5 (ranges of medians over three rounds of
# 2,000-step runs, one BLAS thread, 2-vCPU x86-64 VM): the ME with a static generator, its one
# propagator raised by doubling, 0.25-0.43 / 1.5-2.7 / 2.7-4.1 / 3.9-6.3 against 65-109 us, and a
# product run with one map for all steps (a coherent ket, d_a = 6) 0.30-0.47 / 1.6-2.7 / 2.7-4.1 /
# 4.0-6.5 against 4.7-14 us; at d = 6 (4,000 steps) 4.9-8.3 against 74-120 and 4.8-7.7 against
# 8.9-14 us.  With one Hamiltonian per substep the scanned ME took 5-8 / 14-22 / 39-55 / 91-129 /
# 198-243 against 85-132 / 86-139 / 91-163 / 102-165 / 99-174 us at d = 2 / 3 / 4 / 5 / 6.  With
# one map per step (coherent kets, d_a = 6), summed in plain precision, the scan took 1.9-2.8 /
# 3.4-5.4 / 6.9-8.8 / 12.5-18.3 against 6.1-8.4 / 7.0-9.5 / 7.0-10.9 / 11.0-12.8 us at d = 2 / 3 /
# 4 / 5 (six rounds); only d = 2 scans such maps, though d = 3 would now gain.
DENSE_MAX_DIM = 5


def propagate(chunks, x0: np.ndarray, n: int) -> np.ndarray:
    """x0 and x_k = T_k ... T_1 x0 for k = 1..n, as an (n + 1, D) array of x0's dtype, for the
    (c, maps) pairs of ``chunks`` in turn, which cover the n steps: maps an (M, D, D) stack with
    M = c (row i at the chunk's step i + 1) or M = 1 (its one row at each of its c steps).  Each
    chunk starts from the last state of the one before, so the producer alone sizes the chunks.

    One row T is raised by doubling, x_{m+i} = T^m x_i: each pass fills states m..2m - 1 from
    states 0..m - 1 by one (m x D)(D x D) product, then squares T^m.  The powers are formed in
    extended precision and rounded to the output's precision once a pass, so c steps take
    ceil(log2(c + 1)) passes, and each state at most that many roundings.
    A chunk of c rows is a blocked prefix scan (Blelloch 1990): in blocks of b ~ sqrt(c), the
    prefix products P_j = T_j ... T_1 of every block in b - 1 batched products, one state
    carried from block to block, and each block's states P_j y in one batched product written
    into the output, a partial last block through a padded one.  Products or powers that
    overflow give non-finite output, which the callers' state checks reject.
    """
    dim = len(x0)
    out = np.empty((n + 1, dim), dtype=x0.dtype)
    out[0], lo = x0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for steps, maps in chunks:
            x, lo = out[lo:lo + steps + 1], lo + steps  # the chunk's start and its states
            if len(maps) == 1:
                power, m = maps[0].astype(np.promote_types(maps.dtype, np.longdouble)), 1  # T^m
                while m <= steps:
                    rows = min(m, steps + 1 - m)
                    np.matmul(x[:rows], power.astype(out.dtype).T, out=x[m:m + rows])
                    m *= 2
                    if m <= steps:
                        power = power @ power
                continue
            b = math.isqrt(steps - 1) + 1  # ceil(sqrt(steps))
            blocks = -(-steps // b)
            p = np.empty((b * blocks, dim, dim), dtype=out.dtype)
            p[:] = np.eye(dim)  # the last block's unused rows, whose products are dropped
            p[:steps] = maps
            p = p.reshape(-1, b, dim, dim)
            for j in range(1, b):
                np.matmul(p[:, j], p[:, j - 1], out=p[:, j])
            y = np.empty((blocks, dim, 1), dtype=out.dtype)
            y[0, :, 0] = x[0]
            for i in range(1, blocks):
                np.matmul(p[i - 1, -1], y[i - 1], out=y[i])
            full = steps // b
            np.matmul(p[:full], y[:full, None], out=x[1:1 + full * b].reshape(full, b, dim, 1))
            if full < blocks:
                x[1 + full * b:] = (p[full] @ y[full])[:steps - full * b, :, 0]
            del p  # so that two chunks' products are never held at once
    return out


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2)||a - b||_1 via the eigenvalues of the Hermitian difference."""
    return float(trace_distances(a.data[None], b.data[None])[0])


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise trace distances of two (T, d, d) stacks of one shape, (1/2) sum |lambda| over the
    spectrum of each difference.  At d = 2 that is (|m - r| + |m + r|) / 2 of the
    ``_qubit_spectrum`` of the difference's diagonal and lower entries, formed without the full
    difference or a (T, 2) spectrum, bit for bit ``eigvalsh_stack``'s route; every other size
    takes a batched eigvalsh.  Two empty stacks give an empty array."""
    if a.shape != b.shape:
        raise ValidationError(f"trace distances of stacks of shapes {a.shape} and {b.shape}")
    out = np.empty(len(a))
    step = chunk_rows(a.shape[-1] ** 2)
    for lo in range(0, len(a), step):
        x, y = a[lo:lo + step], b[lo:lo + step]
        if a.shape[-1] == 2:
            m, r = _qubit_spectrum(x[:, 0, 0].real - y[:, 0, 0].real,
                                   x[:, 1, 1].real - y[:, 1, 1].real, x[:, 1, 0] - y[:, 1, 0])
            out[lo:lo + step] = 0.5 * (abs(m - r) + abs(m + r))
        else:
            out[lo:lo + step] = 0.5 * np.abs(np.linalg.eigvalsh(x - y)).sum(axis=1)
    return out
