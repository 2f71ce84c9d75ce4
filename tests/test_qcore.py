import math

import numpy as np
import pytest

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
