import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from collisim import (
    DensityMatrix,
    Operator,
    PureState,
    ValidationError,
    annihilator,
    displacement,
    expm,
    fock,
    fock_dm,
    identity,
    partial_trace,
    tensor,
    trace_distance,
    truncation_fidelity,
)
from collisim import CollisionSpec, LindbladGenerator, qcore
from collisim.bath import PRODUCT, BathSpec
from collisim.qcore import first_invalid_state

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_operator(rng, d, dims=None):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(m, dims or (d,))


def random_density(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho), (d,)))


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_operator_rejects_dim_mismatch():
    with pytest.raises(ValidationError):
        Operator(np.eye(3), (2,))
    with pytest.raises(ValidationError):
        Operator(np.eye(4), ())
    with pytest.raises(ValidationError):
        Operator(np.ones((2, 3)), (2,))


def test_operator_data_is_immutable():
    op = identity(2)
    with pytest.raises(ValueError):
        op.data[0, 0] = 5.0


def test_density_matrix_rejects_bad_states():
    with pytest.raises(ValidationError):  # trace 0.9
        DensityMatrix(Operator(np.diag([0.7, 0.2]).astype(complex), (2,)))
    with pytest.raises(ValidationError):  # not Hermitian
        DensityMatrix(Operator(np.array([[1.0, 0.1], [0.0, 0.0]]), (2,)))
    with pytest.raises(ValidationError):  # negative eigenvalue
        DensityMatrix(Operator(np.diag([1.5, -0.5]).astype(complex), (2,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)])
def test_density_matrix_rejects_non_finite_entries(bad):
    # every comparison with NaN is False, so finiteness must be checked explicitly
    with pytest.raises(ValidationError, match="non-finite"):
        DensityMatrix(Operator(np.array([[bad, 0.0], [0.0, 1.0]]), (2,)))
    with pytest.raises(ValidationError, match="non-finite"):
        DensityMatrix(Operator(np.full((2, 2), bad, dtype=complex), (2,)))
    with pytest.raises(ValidationError, match="non-finite"):  # eigvalsh would not converge
        DensityMatrix(Operator(np.full((3, 3), bad, dtype=complex), (3,)))


@pytest.mark.parametrize("chunk_bytes", [None, 3 * 64])
def test_stack_check_reports_the_first_failing_matrix(monkeypatch, chunk_bytes):
    # with 3 * 64 bytes a chunk holds three 2 x 2 states, so indices cross chunks
    if chunk_bytes is not None:
        monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", chunk_bytes)
    good = fock_dm(2, 0).data
    stack = np.stack([good] * 12)
    assert first_invalid_state(stack) is None
    stack[10] = np.nan
    assert first_invalid_state(stack) == (10, "non-finite entries")
    stack[7] = np.diag([1.5, -0.5])
    index, reason = first_invalid_state(stack)
    assert index == 7 and "min eigenvalue -5.000e-01" in reason
    # a looser eigenvalue floor admits what the default rejects
    stack[7] = np.diag([1.0 + 1e-8, -1e-8])
    assert first_invalid_state(stack[:8])[0] == 7
    assert first_invalid_state(stack[:8], psd_tol=-1e-7) is None
    stack[4] = np.diag([0.7, 0.2])
    assert first_invalid_state(stack)[0] == 4
    rng = np.random.default_rng(5)
    a, b = (np.stack([random_density(rng, 2).data for _ in range(8)]) for _ in range(2))
    pairwise = [trace_distance(DensityMatrix(Operator(x, (2,))), DensityMatrix(Operator(y, (2,))))
                for x, y in zip(a, b)]
    assert np.array_equal(qcore.trace_distances(a, b), pairwise)


def generic_first_invalid_state(stack, psd_tol=qcore.PSD_TOL):
    # the check at every d, on the whole stack at once: Hermiticity deviation and trace of the
    # matrices themselves, spectra from eigvalsh_stack
    finite = np.isfinite(stack).all(axis=(1, 2))
    part = np.where(finite[:, None, None], stack, 0.0)
    herm = np.abs(part - part.conj().swapaxes(1, 2)).max(axis=(1, 2))
    trace = np.trace(part, axis1=1, axis2=2)
    min_eig = qcore.eigvalsh_stack(part)[:, 0]
    bad = np.flatnonzero(~finite | (herm > qcore.HERMITICITY_TOL)
                         | (abs(trace - 1.0) > qcore.TRACE_TOL) | (min_eig < psd_tol))
    if not bad.size:
        return None
    k = bad[0]
    return int(k), "non-finite entries" if not finite[k] else (
        f"not a density matrix: Hermiticity deviation {herm[k]:.3e}, trace "
        f"{trace[k]:.12g}, min eigenvalue {min_eig[k]:.3e} (floor {psd_tol})")


@pytest.mark.parametrize("chunk_bytes", [None, 3 * 64])
def test_qubit_state_check_matches_the_generic_one(monkeypatch, chunk_bytes):
    # the closed-form qubit deviation and trace give the (index, reason) of the generic check on
    # imaginary diagonals, asymmetric off-diagonals, signed zeros and non-finite rows, also rows
    # whose one non-finite entry is the imaginary part of an off-diagonal one; at 3 * 64 bytes,
    # with faults on both sides of the edges of three-state chunks
    if chunk_bytes is not None:
        monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(17)
    good = np.stack([random_density(rng, 2).data for _ in range(12)])

    def off_diagonal_imaginary(m):
        m = m.copy()
        m.imag[tuple(rng.permutation(2))] = rng.choice([np.nan, np.inf, -np.inf])
        return m

    faults = [
        lambda m: m + np.diag(1j * rng.choice([1e-11, 3e-10, -0.2], 2)),
        lambda m: m + np.diag([1j * rng.choice([-1e-9, 4e-10]), 0.0]),
        lambda m: m + np.array([[0, rng.choice([1e-11, 2e-10, 0.3j])], [0, 0]]),
        lambda m: m + np.array([[0, 0], [rng.choice([-2e-10j, 5e-11]), 0]]),
        lambda m: m + np.diag([rng.choice([1e-11, 2e-10, -0.5]), 0.0]),
        lambda m: np.diag([complex(-0.0, -0.0), complex(-0.0, rng.choice([0.0, -0.0]))]),
        lambda m: np.where(rng.random((2, 2)) < 0.5, rng.choice([np.nan, np.inf, -np.inf]), m),
        lambda m: m * complex(rng.choice([1.0, 1e-300]), 0) + np.diag([0, 1e-13j]),
        off_diagonal_imaginary,
    ]
    seen = set()
    for trial in range(200):
        stack = good.copy()
        for row in rng.choice(12, rng.integers(1, 4), replace=False):
            stack[row] = faults[rng.integers(len(faults))](stack[row])
        expected = generic_first_invalid_state(stack)
        assert first_invalid_state(stack) == expected
        for row in stack:
            assert first_invalid_state(row[None]) == generic_first_invalid_state(row[None])
        seen.add(None if expected is None else expected[0] % 3)
    assert seen == {None, 0, 1, 2}  # first failures at each place in a chunk, and none


@pytest.mark.parametrize("chunk_bytes", [None, 3 * 64])
def test_qubit_trace_distances_are_the_spectrum_route_bit_for_bit(monkeypatch, chunk_bytes):
    # the closed form from the difference's entries gives the bits of (1/2) sum |lambda| over
    # eigvalsh_stack of the difference, on states, raw non-Hermitian stacks, signed zeros and
    # extreme scales; at 3 * 64 bytes the 40 rows cross the edges of three-row chunks
    if chunk_bytes is not None:
        monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(23)
    states = [np.stack([random_density(rng, 2).data for _ in range(40)]) for _ in range(2)]
    raw = [rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
           for _ in range(2)]
    zeros = [rng.choice([0.0, -0.0], (40, 2, 2)) + 1j * rng.choice([0.0, -0.0], (40, 2, 2))
             for _ in range(2)]
    for a, b in [states, raw, zeros, (raw[0] * 1e-300, raw[1] * 1e-300),
                 (raw[0] * 1e-310, raw[1] * 1e-310), (raw[0] * 1e150, raw[1] * -1e150),
                 (states[0], zeros[0])]:
        expected = 0.5 * np.abs(qcore.eigvalsh_stack(a - b)).sum(axis=1)
        got = qcore.trace_distances(a, b)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def random_hermitian_stack(rng, n, d, scale):
    # entries of modulus <= scale / sqrt(2), so every eigenvalue stays finite up to scale 1e308
    m = rng.uniform(-0.5, 0.5, (n, d, d)) + 1j * rng.uniform(-0.5, 0.5, (n, d, d))
    return (m + m.conj().swapaxes(1, 2)) * (0.5 * scale)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e307, 1e308])
def test_qubit_spectra_match_lapack(scale):
    stack = random_hermitian_stack(np.random.default_rng(13), 500, 2, scale)
    assert np.isfinite(stack).all()
    expected = np.linalg.eigvalsh(stack)
    got = qcore.eigvalsh_stack(stack)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.all(np.diff(got, axis=1) >= 0)
    assert np.all(np.abs(got - expected) <= 2e-15 * np.abs(expected).max(axis=1, keepdims=True))


def test_qubit_spectra_of_degenerate_pure_and_one_sided_input():
    rng = np.random.default_rng(7)
    # multiples of I: the closed form is exact
    for c in (0.0, 1.0, -2.5, 1e-300, 1e308, -1e308):
        assert np.array_equal(qcore.eigvalsh_stack(np.eye(2)[None] * c), [[c, c]])
    # rank-1 pure states: spectrum {0, 1}
    psi = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    pure = np.einsum("ti,tj->tij", psi, psi.conj())
    assert np.abs(qcore.eigvalsh_stack(pure) - [0.0, 1.0]).max() < 1e-15
    assert np.abs(qcore.eigvalsh_stack(pure) - np.linalg.eigvalsh(pure)).max() < 2e-15
    # like eigvalsh, only the lower triangle and the real diagonal are read
    herm = random_hermitian_stack(rng, 200, 2, 1.0)
    junk = herm.copy()
    junk[:, 0, 1] = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    junk[:, [0, 1], [0, 1]] += 1j * rng.standard_normal((200, 2))
    assert np.array_equal(qcore.eigvalsh_stack(junk), qcore.eigvalsh_stack(herm))
    assert np.abs(qcore.eigvalsh_stack(junk) - np.linalg.eigvalsh(junk)).max() < 2e-15
    # every other size is LAPACK's own batched call, bit for bit
    for d in (1, 3, 4):
        stack = random_hermitian_stack(rng, 20, d, 1.0)
        assert np.array_equal(qcore.eigvalsh_stack(stack), np.linalg.eigvalsh(stack))


def test_qubit_checks_and_distances_make_no_lapack_call(monkeypatch):
    class Called(Exception):
        pass

    def boom(*args, **kwargs):
        raise Called

    rng = np.random.default_rng(3)
    a, b = (np.stack([random_density(rng, 2).data for _ in range(6)]) for _ in range(2))
    three = np.stack([random_density(rng, 3).data for _ in range(4)])
    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    assert first_invalid_state(a) is None
    assert first_invalid_state(a - np.eye(2))[0] == 0
    assert np.all(qcore.trace_distances(a, b) > 0)
    with pytest.raises(Called):
        first_invalid_state(three)
    with pytest.raises(Called):
        qcore.trace_distances(three, three)


def test_trace_distances_reject_stacks_of_different_shapes():
    rng = np.random.default_rng(4)
    a = np.stack([random_density(rng, 2).data for _ in range(3)])
    with pytest.raises(ValidationError, match="shapes"):
        qcore.trace_distances(a, a[:1])
    with pytest.raises(ValidationError, match="shapes"):
        qcore.trace_distances(a[:1], a)
    with pytest.raises(ValidationError, match="shapes"):
        qcore.trace_distances(a, np.zeros((3, 3, 3)))


@pytest.mark.parametrize("d", [2, 3])
def test_trace_distances_of_empty_stacks_are_empty(d):
    out = qcore.trace_distances(np.empty((0, d, d), complex), np.empty((0, d, d), complex))
    assert out.shape == (0,) and out.dtype == float


def test_pure_state_requires_normalization():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]), (2,))
    psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2), (2,))
    rho = psi.density_matrix()
    assert np.allclose(rho.data, 0.5 * np.ones((2, 2)))


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_identities():
    out = tensor(identity(2), identity(2))
    assert out.dims == (2, 2)
    assert np.array_equal(out.data, np.eye(4))

    sz_i = tensor(Operator(SZ, (2,)), identity(2))
    assert np.array_equal(sz_i.data, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))


def test_tensor_mixed_product_identity():
    # (a (x) b)(c (x) d) == (ac) (x) (bd), checked by direct multiplication
    rng = np.random.default_rng(7)
    a, b, c, d = (random_operator(rng, 2) for _ in range(4))
    lhs = tensor(a, b) @ tensor(c, d)
    rhs = tensor(a @ c, b @ d)
    assert np.max(np.abs(lhs.data - rhs.data)) < 1e-12


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 3)
    eta = random_density(rng, 2)
    joint = DensityMatrix(Operator(np.kron(rho.data, eta.data), (3, 2)))
    reduced = partial_trace(joint, keep=[0])
    assert np.max(np.abs(reduced.data - rho.data)) < 1e-12


def test_partial_trace_bell_state():
    bell = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2)).density_matrix()
    for keep in ([0], [1]):
        reduced = partial_trace(bell, keep=keep)
        assert np.max(np.abs(reduced.data - 0.5 * np.eye(2))) < 1e-12


def test_partial_trace_iterated_equals_one_shot():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    rho = m @ m.conj().T
    joint = DensityMatrix(Operator(rho / np.trace(rho), (2, 3, 2)))
    one_shot = partial_trace(joint, keep=[0])
    step1 = partial_trace(joint, keep=[0, 1])
    iterated = partial_trace(step1, keep=[0])
    assert np.max(np.abs(one_shot.data - iterated.data)) < 1e-13
    assert abs(np.trace(one_shot.data) - 1.0) < 1e-12


def test_partial_trace_all_subsystems_is_identity_map():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    joint = DensityMatrix(Operator(rho / np.trace(rho), (2, 2)))
    assert np.array_equal(partial_trace(joint, keep=[0, 1]).data, joint.data)


def test_partial_trace_rejects_invalid_index():
    bell = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2)).density_matrix()
    with pytest.raises(ValidationError):
        partial_trace(bell, keep=[2])


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------

def test_expm_zero_exponent():
    rng = np.random.default_rng(21)
    a = random_operator(rng, 5)
    assert np.array_equal(expm(a, 0).data, np.eye(5))


def test_expm_pauli_identity():
    # exp(-i theta sx) = cos(theta) I - i sin(theta) sx at theta = pi/2
    out = expm(Operator(SX, (2,)), -1j * math.pi / 2)
    assert np.max(np.abs(out.data - (-1j) * SX)) < 1e-12


def test_expm_hermitian_generates_unitary_spectrum():
    rng = np.random.default_rng(22)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = Operator(m + m.conj().T, (6,))
    u = expm(h, -1j * 0.37)
    moduli = np.abs(np.linalg.eigvals(u.data))
    assert np.max(np.abs(moduli - 1.0)) < 1e-10


@pytest.mark.parametrize("side", [2, 8, 64])
def test_expm_unitarity_roundtrip(side):
    rng = np.random.default_rng(side)
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    h = Operator(m + m.conj().T, (side,))
    prod = expm(h, -1j * 0.9) @ expm(h, 1j * 0.9)
    assert np.max(np.abs(prod.data - np.eye(side))) < 1e-9


def random_liouvillian(rng, d):
    # -i[H, .] + L . L^dag - {L^dag L, .}/2 on row-major vec: non-normal, stable spectrum
    h, l = (random_operator(rng, d).data for _ in range(2))
    h, l_l, eye = h + h.conj().T, l.conj().T @ l, np.eye(d)
    return (-1j * (np.kron(h, eye) - np.kron(eye, h.T)) + np.kron(l, l.conj())
            - 0.5 * (np.kron(l_l, eye) + np.kron(eye, l_l.T)))


def with_norm(a, norm):
    return a * (norm / np.abs(a).sum(axis=0).max())


THETA_13 = qcore._PADE[-1][0]
# 1-norms just under each Pade order's theta_m (order 13 unscaled), then squared 3 and 6 times
ORACLE_NORMS = [0.9 * theta for theta, _ in qcore._PADE] + [8 * THETA_13, 50 * THETA_13]


def test_pade_coefficients_are_highams():
    # Higham's (2005) published b_j for m = 3, and b_0 for m = 13
    orders = {len(b) - 1: b for _, b in qcore._PADE}
    assert sorted(orders) == [3, 5, 7, 9, 13]
    assert orders[3] == (120.0, 60.0, 12.0, 1.0)
    assert orders[13][0] == 64764752532480000.0 and orders[13][-1] == 1.0


@pytest.mark.parametrize("norm", ORACLE_NORMS)
@pytest.mark.parametrize("kind", ["hermitian", "liouvillian"])
def test_expm_stack_matches_scipy(kind, norm):
    rng = np.random.default_rng(round(norm * 1000))
    if kind == "hermitian":  # -i H, as a collision unitary's generator
        stack = [-1j * (m + m.conj().T) for m in (random_operator(rng, 6).data for _ in range(3))]
    else:
        stack = [random_liouvillian(rng, d) for d in (2, 2, 2)]
    stack = np.array([with_norm(a, norm) for a in stack])
    got = qcore.expm_stack(stack)
    for a, x in zip(stack, got):
        want = scipy.linalg.expm(a)
        assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()


def test_expm_stack_scales_each_matrix_by_its_own_norm():
    # every norm here takes order 13; scaling all by the largest would change the others' bits
    rng = np.random.default_rng(23)
    norms = [1.2 * qcore._PADE[3][0], 0.9 * THETA_13, 8 * THETA_13, 300.0]
    stack = np.array([with_norm(random_liouvillian(rng, 2), n) for n in norms]).reshape(2, 2, 4, 4)
    got = qcore.expm_stack(stack)
    assert got.shape == (2, 2, 4, 4)
    for a, x in zip(stack.reshape(-1, 4, 4), got.reshape(-1, 4, 4)):
        assert np.array_equal(x, qcore.expm_stack(a[None])[0])
        want = scipy.linalg.expm(a)
        assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()


def test_expm_stack_of_no_matrices():
    assert qcore.expm_stack(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3, 3)


def test_expm_stack_overflow_is_non_finite_without_a_warning():
    # 330 squarings of a rounded unitary overflow: the callers' state checks reject the
    # non-finite result, and no numpy warning escapes on the way
    assert not np.isfinite(qcore.expm_stack(-1j * 1e100 * SX[None])).any()


# ---------------------------------------------------------------------------
# blocked prefix scan
# ---------------------------------------------------------------------------

def random_contractions(rng, n, dim, dtype=complex):
    """n random maps of spectral norm 0.99: the states neither blow up nor vanish."""
    m = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    m = m.astype(dtype)
    return 0.99 * m / np.linalg.norm(m.astype(complex), 2, axis=(1, 2))[:, None, None]


def chunks_of(size, maps, n):
    """n steps of an (M, D, D) stack, M = n or M = 1, as ``qcore.propagate`` chunks of size steps,
    the last one shorter; a one-row stack serves each chunk's steps."""
    return [(min(size, n - lo), maps if len(maps) == 1 else maps[lo:lo + size])
            for lo in range(0, n, size)]


def propagate_by_loop(maps, x0, n):
    states = [x0]
    for k in range(n):
        states.append(maps[k if len(maps) > 1 else 0] @ states[-1])
    return np.stack(states)


# steps around whole blocks of b = 3, 4 and 5: b^2 - 1, b^2 and b^2 + 1
SCAN_STEPS = [0, 1, 2, 3, 8, 9, 10, 15, 16, 17, 24, 25, 26]


@pytest.mark.parametrize("n", SCAN_STEPS)
@pytest.mark.parametrize("one_map", [False, True])
def test_propagate_matches_a_per_step_loop(n, one_map):
    rng = np.random.default_rng(n)
    maps = random_contractions(rng, 1 if one_map else max(n, 1), 4)
    x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    states = qcore.propagate([(n, maps)], x0, n)
    assert states.shape == (n + 1, 4) and states.dtype == complex
    assert np.array_equal(states[0], x0)
    assert np.abs(states - propagate_by_loop(maps, x0, n)).max() <= 1e-14
    if one_map:  # one row, raised by doubling, is n copies of it scanned, to round-off
        copies = qcore.propagate([(n, np.repeat(maps, max(n, 1), 0))], x0, n)
        assert np.abs(states - copies).max() <= 1e-14


@pytest.mark.parametrize("n", [7, 23, 40])
@pytest.mark.parametrize("one_map", [False, True, "mixed"])
def test_propagate_carries_the_state_across_chunks(n, one_map):
    # chunks of five steps, each from the last state of the one before: of a map per step, of
    # one row for every step, or mixed, per-step chunks, then one row over the next n // 3 steps,
    # then per-step chunks again
    rng = np.random.default_rng(7)
    maps = random_contractions(rng, 1 if one_map is True else n, 3)
    x0 = rng.standard_normal(3) + 0j
    if one_map == "mixed":
        a = k = n // 3
        maps[a:a + k] = maps[a]
        chunks = (chunks_of(5, maps[:a], a) + [(k, maps[a:a + 1])]
                  + chunks_of(5, maps[a + k:], n - a - k))
    else:
        chunks = chunks_of(5, maps, n)
    whole = qcore.propagate([(n, maps)], x0, n)
    chunked = qcore.propagate(chunks, x0, n)
    assert np.abs(chunked - propagate_by_loop(maps, x0, n)).max() <= 1e-14
    assert np.abs(chunked - whole).max() <= 1e-14
    if one_map is True:
        assert np.abs(chunked - qcore.propagate([(n, np.repeat(maps, n, 0))], x0, n)).max() <= 1e-14


@pytest.mark.parametrize("n", [0, 9, 26, 300])
@pytest.mark.parametrize("one_map", [False, True])
def test_propagate_in_extended_precision(n, one_map):
    # the scan keeps the maps' own precision: against a clongdouble loop it is off by
    # round-off of that precision, far below double's
    rng = np.random.default_rng(11)
    maps = random_contractions(rng, 1 if one_map else max(n, 1), 4, np.clongdouble)
    x0 = (rng.standard_normal(4) + 1j * rng.standard_normal(4)).astype(np.clongdouble)
    states = qcore.propagate(chunks_of(40, maps, n), x0, n)
    assert states.dtype == np.clongdouble
    assert np.abs(states - propagate_by_loop(maps, x0, n)).max() <= 1e-18


# 2^k - 1, 2^k and 2^k + 1 steps at k = 3 and 10, around whole passes of the doubling
DOUBLING_STEPS = [0, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025, 20000]


@functools.cache
def unitary_run(dim):
    """A random unitary map as a one-row stack, a start, and its DOUBLING_STEPS[-1] steps by a
    per-step loop in extended precision.  A unitary neither damps nor grows the states, so
    round-off builds up over the steps instead of fading with them."""
    rng = np.random.default_rng(dim)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    maps = (q * (np.diag(r) / abs(np.diag(r))))[None]
    x0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    loop = np.empty((DOUBLING_STEPS[-1] + 1, dim), dtype=np.clongdouble)
    loop[0] = x0
    t = maps[0].astype(np.clongdouble)
    for k in range(DOUBLING_STEPS[-1]):
        loop[k + 1] = t @ loop[k]
    return maps, x0, loop


@pytest.mark.parametrize("dim", [1, 2, 4, 9, 16, 25])
def test_one_map_is_raised_by_doubling_closer_than_a_scan(dim):
    # against an extended-precision loop the doubled states are no further off than the scan of
    # n copies of the row, the way a one-row stack was scanned before: ~10x closer at 1,023 steps
    # and more; at up to nine steps both are a few ulps off, either may be the closer
    maps, x0, loop = unitary_run(dim)
    ulps = 4 * np.finfo(float).eps * np.linalg.norm(x0)
    for n in DOUBLING_STEPS:
        states = qcore.propagate([(n, maps)], x0, n)
        assert states.shape == (n + 1, dim) and states.dtype == complex
        assert np.array_equal(states[0], x0)
        copies = np.broadcast_to(maps, (max(n, 1), dim, dim))
        scan = qcore.propagate(chunks_of(qcore.STACK_CHUNK_BYTES // (16 * dim * dim), copies, n),
                               x0, n)
        err, scan_err = (np.abs(s - loop[:n + 1]).max() for s in (states, scan))
        assert err <= max(scan_err, ulps), n


@pytest.mark.parametrize("dim", [1, 2, 4, 9, 16, 25])
def test_one_extended_precision_map_is_raised_by_doubling(dim):
    # clongdouble maps keep their precision; the loop shares it, so the doubled states are held
    # to the bound of doubling itself: squaring doubles a power's relative error, so the power
    # of n steps is off by some n roundings
    maps, x0, loop = unitary_run(dim)
    eps = np.finfo(np.longdouble).eps
    for n in DOUBLING_STEPS:
        states = qcore.propagate([(n, maps.astype(np.clongdouble))], x0.astype(np.clongdouble), n)
        assert states.dtype == np.clongdouble and np.array_equal(states[0], x0)
        assert np.abs(states - loop[:n + 1]).max() <= (n + 1) * dim * eps * np.linalg.norm(x0), n


def test_propagate_overflow_is_non_finite_without_a_warning():
    # T^2 = 1e400 is finite in extended precision and overflows as it is cast to complex
    maps = np.array([1e200 * np.eye(2)], dtype=complex)
    states = qcore.propagate([(10, maps)], np.ones(2, complex), 10)
    assert np.isfinite(states[1]).all() and not np.isfinite(states[-1]).any()


def test_extended_precision_overflow_is_non_finite_without_a_warning():
    # the squarings of 1e3000 overflow in extended precision itself
    maps = (np.longdouble("1e3000") * np.eye(2)).astype(np.clongdouble)[None]
    states = qcore.propagate([(10, maps)], np.ones(2, np.clongdouble), 10)
    assert np.isfinite(states[1]).all() and not np.isfinite(states[-1]).any()


# ---------------------------------------------------------------------------
# ladder and displacement operators
# ---------------------------------------------------------------------------

def test_annihilator_qubit_truncation():
    a = annihilator(2)
    assert np.allclose(a.data @ fock(2, 1).amplitudes, fock(2, 0).amplitudes)
    assert np.allclose(a.data @ fock(2, 0).amplitudes, 0.0)


def test_annihilator_rejects_small_dimension():
    with pytest.raises(ValidationError):
        annihilator(1)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_annihilator_commutator_truncation_defect(d):
    a = annihilator(d)
    comm = a.data @ a.data.conj().T - a.data.conj().T @ a.data
    defect = np.zeros((d, d), dtype=complex)
    defect[d - 1, d - 1] = d
    assert np.max(np.abs(comm - (np.eye(d) - defect))) < 1e-12


@pytest.mark.parametrize("d", [2, 5, 12])
def test_creator_matrix_element_from_vacuum(d):
    adag = annihilator(d).dag()
    assert abs(adag.data[1, 0] - 1.0) < 1e-15


@pytest.mark.parametrize("d", [4, 9])
def test_creator_ladder_action(d):
    adag = annihilator(d).dag().data
    for k in range(d - 1):
        out = adag @ fock(d, k).amplitudes
        assert np.allclose(out, math.sqrt(k + 1) * fock(d, k + 1).amplitudes)
    assert np.allclose(adag @ fock(d, d - 1).amplitudes, 0.0)


def test_displacement_zero_is_identity():
    assert np.array_equal(displacement(0.0, 6).data, np.eye(6))


def test_displacement_is_unitary():
    disp = displacement(0.3 + 0.1j, 10)
    assert np.max(np.abs(disp.data.conj().T @ disp.data - np.eye(10))) < 1e-9


def test_displaced_annihilator_identity_on_subspace():
    d, xi = 12, 0.1
    a = annihilator(d)
    disp = displacement(xi, d)
    shifted = disp.dag().data @ a.data @ disp.data
    target = a.data + xi * np.eye(d)
    proj = np.diag([1.0] * (d // 2) + [0.0] * (d - d // 2))
    assert np.max(np.abs(proj @ (shifted - target) @ proj)) < 1e-6


def test_displacement_vacuum_overlap():
    xi, d = 0.2, 16
    overlap = abs(displacement(xi, d).data[0, 0]) ** 2
    assert abs(overlap - math.exp(-abs(xi) ** 2)) < 1e-8


def test_truncation_fidelity_is_poisson_tail():
    # d=2 keeps only the first two Fock weights of the coherent state
    xi = 0.3
    expected = 1.0 - math.exp(-xi**2) * (1.0 + xi**2)
    assert abs(truncation_fidelity(xi, 2) - expected) < 1e-15
    assert truncation_fidelity(0.1, 12) < 1e-12


@pytest.mark.parametrize("d", [2, 12, 172, 300])
def test_truncation_fidelity_is_the_regularized_incomplete_gamma(d):
    # sum_{k >= d} e^-n n^k / k! = P(d, n): d = 172 used to overflow math.factorial in a float,
    # and a small tail read as the round-off of 1 - kept (1.1e-16 for 3.8e-47)
    for xi in (1e-3, 0.1, 0.5, 1.0, 3.0, 1.0 + 2.0j, 12.0, 20.0):
        expected = scipy.special.gammainc(d, abs(xi) ** 2)
        assert truncation_fidelity(xi, d) == pytest.approx(expected, rel=1e-12, abs=1e-300)
    assert truncation_fidelity(0.0, d) == 0.0


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------

def test_trace_distance_extremes():
    e, g = fock_dm(2, 1), fock_dm(2, 0)
    assert abs(trace_distance(e, g) - 1.0) < 1e-12
    assert trace_distance(e, e) == 0.0


_Q = Operator(np.zeros((2, 2), dtype=complex), (2,))


@pytest.mark.parametrize("build, what", [
    (lambda: BathSpec(kind=PRODUCT, d=2, n_steps=3, etas=[[1, 0], [1]]), "ancilla state"),
    (lambda: CollisionSpec(h_sys=_Q, coupling=_Q, dt=0.1, n_steps=2, d_anc=2, g=1.0,
                           h_sys_table=[np.eye(2), np.eye(3)]), "h_sys_table"),
    (lambda: LindbladGenerator(h_eff=_Q, jumps=(), h_table=[np.eye(2), [[1.0, 0.0]]],
                               step_duration=0.5), "h_table"),
])
def test_ragged_step_indexed_input_is_a_validation_error(build, what):
    # numpy's "inhomogeneous shape" ValueError used to escape from all three
    with pytest.raises(ValidationError, match=f"{what} is not a stack of equal-shaped rows"):
        build()


@pytest.mark.parametrize("build, what", [
    (lambda: BathSpec(kind=PRODUCT, d=2, n_steps=1, etas=[["1", "zero"]]), "ancilla state"),
    (lambda: CollisionSpec(h_sys=_Q, coupling=_Q, dt=0.1, n_steps=1, d_anc=2, g=1.0,
                           h_sys_table=[[["1", "0"], ["0", "one"]]]), "h_sys_table"),
    (lambda: LindbladGenerator(h_eff=_Q, jumps=(), h_table=[[["1", "i"], ["-i", "1"]]],
                               step_duration=0.5), "h_table"),
])
def test_non_numeric_step_indexed_input_is_a_validation_error(build, what):
    # the complex cast after the shape check let "complex() arg is a malformed string" escape
    with pytest.raises(ValidationError, match=f"{what} has entries that are not numbers"):
        build()
