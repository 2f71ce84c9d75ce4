import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from collisim import (
    CollisionSpec,
    DensityMatrix,
    FieldConfig,
    LindbladGenerator,
    Operator,
    PropagationError,
    ValidationError,
    annihilator,
    apply_generator,
    bloch_run,
    coherent_bath,
    collision_unitary,
    displacement,
    effective_hamiltonian,
    fock_dm,
    generator_from_collision,
    integrate_me,
    jump_operators,
    lindblad,
    qcore,
    run_correlated,
    run_product,
    single_photon_bath,
    spontaneous_emission_run,
)
from collisim import bath as bath_mod

from oracles import eigenbasis_generator

LOWER = annihilator(2)
H2 = Operator(np.zeros((2, 2), dtype=complex), (2,))


def two_level_spec(g=None, gamma=None, dt=0.1, n_steps=1, d_anc=2, h=H2):
    return CollisionSpec(h_sys=h, coupling=LOWER, dt=dt, n_steps=n_steps,
                         d_anc=d_anc, g=g, gamma=gamma)


def random_density(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho), (d,)))


def exchange_v(b: np.ndarray, d_anc: int) -> Operator:
    a = annihilator(d_anc).data
    v = np.kron(b, a.conj().T) + np.kron(b.conj().T, a)
    return Operator(v, (b.shape[0], d_anc))


def dissipator_superop(jumps) -> np.ndarray:
    """Row-major-vec superoperator of sum_k rate (L.L^dag - {L^dag L,.}/2)."""
    d = jumps[0][0].shape[0]
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for l, rate in jumps:
        ldl = l.conj().T @ l
        out += rate * (np.kron(l, l.conj())
                       - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))
    return out


def liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    d = h.shape[0]
    eye = np.eye(d)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    if jumps:
        out += dissipator_superop(jumps)
    return out


# ---------------------------------------------------------------------------
# effective Hamiltonian
# ---------------------------------------------------------------------------

def test_vacuum_average_vanishes():
    v = exchange_v(LOWER.data, 2)
    h = effective_hamiltonian(2.5 * v, fock_dm(2, 0))
    assert np.max(np.abs(h.data)) < 1e-14


def test_coherent_average_is_displaced_drive():
    d, xi, g = 12, 0.1, 3.0
    v = exchange_v(LOWER.data, d)
    disp = displacement(xi, d)
    eta = DensityMatrix(Operator(disp.data @ fock_dm(d, 0).data @ disp.data.conj().T, (d,)))
    h = effective_hamiltonian(g * v, eta)
    expected = g * (np.conj(xi) * LOWER.data + xi * LOWER.data.conj().T)
    assert np.max(np.abs(h.data - expected)) < 1e-6
    assert h.is_hermitian()


def test_maximally_mixed_average_vanishes():
    for d in (2, 4):
        v = exchange_v(LOWER.data, d)
        eta = DensityMatrix(Operator(np.eye(d, dtype=complex) / d, (d,)))
        h = effective_hamiltonian(v, eta)
        # direct-trace oracle: ladder operators are traceless against I/d
        assert np.max(np.abs(h.data)) < 1e-14


# ---------------------------------------------------------------------------
# jump operators
# ---------------------------------------------------------------------------

def test_vacuum_jumps_reduce_to_coupling():
    v = exchange_v(LOWER.data, 2)
    jumps = jump_operators(v, fock_dm(2, 0), gamma=1.3)
    assert len(jumps) == 1
    op, rate = jumps[0]
    assert rate == 1.3
    assert np.max(np.abs(op.data - LOWER.data)) < 1e-12


def test_fock_one_jumps():
    # ancilla in |1> at d=3: emission branch sqrt(2) b and absorption branch b^dag
    v = exchange_v(LOWER.data, 3)
    jumps = jump_operators(v, fock_dm(3, 1), gamma=1.0)
    mats = sorted((np.max(np.abs(op.data)), op.data) for op, _ in jumps)
    assert len(jumps) == 2
    assert np.max(np.abs(mats[0][1] - LOWER.data.conj().T)) < 1e-12
    assert np.max(np.abs(mats[1][1] - math.sqrt(2.0) * LOWER.data)) < 1e-12


def test_displaced_jumps_match_drive_pair():
    d, xi, gamma = 12, 0.1, 0.8
    v = exchange_v(LOWER.data, d)
    disp = displacement(xi, d)
    ket = disp.data[:, 0]
    eta = DensityMatrix(Operator(np.outer(ket, ket.conj()), (d,)))
    jumps = jump_operators(v, eta, gamma)
    c = np.conj(xi) * LOWER.data + xi * LOWER.data.conj().T
    # a pure eta gives one block J_a = <a|v|F> per number state a, F = e^{i theta} |ket>, so
    # sum_a conj(ket_a) J_a = e^{i theta} <ket|v|ket> is the drive operator
    assert len(jumps) == d
    drive = sum(np.conj(amp) * op.data for amp, (op, _) in zip(ket, jumps))
    phase = np.vdot(c, drive) / np.vdot(c, c)
    assert abs(abs(phase) - 1.0) < 1e-6
    assert np.max(np.abs(drive - phase * c)) < 1e-6
    # as a whole the dissipator equals the {b, c} pair at rate gamma
    got = dissipator_superop([(op.data, rate) for op, rate in jumps])
    want = dissipator_superop([(LOWER.data, gamma), (c, gamma)])
    assert np.max(np.abs(got - want)) < 1e-6


def test_near_zero_eigenvalue_branches_are_dropped():
    # eta of rank 2 on a qutrit: its round-off third eigenvalue gives no branch, so the
    # jumps are the 2 x 3 blocks of the map's two-column factor
    rng = np.random.default_rng(29)
    w, _ = np.linalg.qr(_random_operator(rng, 3))
    eta = DensityMatrix(Operator(w @ np.diag([0.6, 0.4, 0.0]) @ w.conj().T, (3,)))
    assert bath_mod._factor(eta.data).shape == (3, 2)
    assert len(jump_operators(exchange_v(LOWER.data, 3), eta, gamma=1.0)) == 6
    # 1e-13 is far above round-off: the map keeps it as a column, and the generator has one
    # jump per nonzero block of that factor, the emission b and the absorption sqrt(1e-13) b^dag
    # (each up to a phase)
    eta = DensityMatrix(Operator(np.diag([1.0 - 1e-13, 1e-13]).astype(complex), (2,)))
    assert bath_mod._factor(eta.data).shape == (2, 2)
    jumps = jump_operators(exchange_v(LOWER.data, 2), eta, gamma=1.0)
    want = [math.sqrt(1e-13) * LOWER.data.conj().T, math.sqrt(1.0 - 1e-13) * LOWER.data]
    got = sorted((op.data for op, _ in jumps), key=lambda m: np.abs(m).max())
    assert len(got) == 2
    for jump, expected in zip(got, want):
        assert np.max(np.abs(np.kron(jump, jump.conj()) - np.kron(expected, expected.conj()))) < 1e-15


def test_dissipator_invariant_under_degenerate_block_rotation():
    # eta = I/2 is fully degenerate; any orthonormal ancilla basis must give
    # the same dissipator even though individual jumps differ
    rng = np.random.default_rng(23)
    d = 2
    v = exchange_v(LOWER.data, d)
    eta = DensityMatrix(Operator(np.eye(d, dtype=complex) / d, (d,)))
    jumps = jump_operators(v, eta, gamma=1.0)
    library = dissipator_superop([(op.data, rate) for op, rate in jumps])

    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, _ = np.linalg.qr(m)
    v4 = v.data.reshape(2, d, 2, d)
    manual = []
    for j in range(d):
        for i in range(d):
            mat = math.sqrt(1.0 / d) * np.einsum(
                "a,satb,b->st", w[:, i].conj(), v4, w[:, j]
            )
            manual.append((mat, 1.0))
    assert np.max(np.abs(library - dissipator_superop(manual))) < 1e-12


# ---------------------------------------------------------------------------
# generator extraction
# ---------------------------------------------------------------------------

def test_vacuum_generator_structure():
    spec = two_level_spec(gamma=0.9, dt=0.02)
    gen = generator_from_collision(spec, fock_dm(2, 0))
    assert np.max(np.abs(gen.h_eff.data - spec.h_sys.data)) < 1e-12
    assert len(gen.jumps) == 1
    op, rate = gen.jumps[0]
    assert rate == 0.9
    assert np.max(np.abs(op.data - LOWER.data)) < 1e-12


def test_fixed_g_rate_vanishes_with_step():
    # with g held fixed the emergent rate g^2 dt dies in the fine-step limit
    rates = [two_level_spec(g=2.0, dt=dt).rate for dt in (0.1, 0.01, 0.001)]
    assert rates == pytest.approx([0.4, 0.04, 0.004])
    gen = generator_from_collision(two_level_spec(g=2.0, dt=0.001), fock_dm(2, 0))
    assert gen.jumps[0][1] == pytest.approx(0.004)


def test_coherent_step_generator():
    d, z, omega, gamma, n, t = 12, 1.2, 3.0, 1.0, 50, 1.0
    dt = t / n
    from collisim import coherent_bath
    bath = coherent_bath(z, omega, dt, n, d)
    spec = two_level_spec(gamma=gamma, dt=dt, d_anc=d)
    step = 7
    gen = generator_from_collision(spec, bath.ancilla_state(step))
    xi = bath.xi[step - 1]
    g = spec.coupling_strength
    expected_h = g * (np.conj(xi) * LOWER.data + xi * LOWER.data.conj().T)
    assert np.max(np.abs(gen.h_eff.data - expected_h)) < 1e-6
    c = np.conj(xi) * LOWER.data + xi * LOWER.data.conj().T
    got = dissipator_superop([(op.data, rate) for op, rate in gen.jumps])
    want = dissipator_superop([(LOWER.data, gamma), (c, gamma)])
    assert np.max(np.abs(got - want)) < 1e-6


def test_all_rates_non_negative():
    rng = np.random.default_rng(31)
    for _ in range(5):
        spec = two_level_spec(g=float(rng.uniform(0.5, 2.0)), dt=0.05, d_anc=3)
        gen = generator_from_collision(spec, random_density(rng, 3))
        assert all(rate >= 0 for _, rate in gen.jumps)


def test_coherent_dissipator_approaches_vacuum_dissipator_linearly():
    # the drive-operator jump carries weight |xi_n|^2 proportional to dt, so
    # the dissipator distance to the vacuum case halves when N doubles
    from collisim import coherent_bath

    d, z, gamma, t = 10, 1.0, 1.0, 1.0
    vacuum_gen = dissipator_superop([(LOWER.data, gamma)])

    def dissipator_gap(n):
        dt = t / n
        bath = coherent_bath(z, 0.0, dt, n, d)
        spec = two_level_spec(gamma=gamma, dt=dt, d_anc=d)
        gen = generator_from_collision(spec, bath.ancilla_state(1))
        got = dissipator_superop([(op.data, rate) for op, rate in gen.jumps])
        return float(np.max(np.abs(got - vacuum_gen)))

    gap_n, gap_2n = dissipator_gap(100), dissipator_gap(200)
    assert 1.7 <= gap_n / gap_2n <= 2.3


@pytest.mark.parametrize("eta, order", [
    (fock_dm(2, 0), 1.0),
    (DensityMatrix(Operator(np.diag([0.7, 0.3]).astype(complex), (2,))), 1.0),
    # with coherences in eta the third-order term (g v dt)^3 / dt = gamma^{3/2} dt^{1/2}
    # no longer averages to zero
    (random_density(np.random.default_rng(5), 2), 0.5),
], ids=["vacuum", "thermal", "random_full_rank"])
def test_generator_consistency_with_collision_map(eta, order):
    # the per-step change of the collision run approaches the generator: the residual
    # shrinks as dt^order, so halving dt divides it by 2^order
    h = Operator(0.2 * np.diag([1.0, -1.0]).astype(complex), (2,))
    rng = np.random.default_rng(41)
    test_set = [fock_dm(2, 1), fock_dm(2, 0),
                DensityMatrix(Operator(np.full((2, 2), 0.5, dtype=complex), (2,))),
                random_density(rng, 2)]

    def residual(dt):
        spec = two_level_spec(gamma=1.0, dt=dt, h=h)
        gen = generator_from_collision(spec, eta)
        u = collision_unitary(spec)
        worst = 0.0
        for rho in test_set:
            joint = u.data @ np.kron(rho.data, eta.data) @ u.data.conj().T
            mapped = joint.reshape(2, 2, 2, 2)
            out = np.einsum("abcb->ac", mapped)
            finite = (out - rho.data) / dt
            gen_rhs = apply_generator(gen, rho).data
            worst = max(worst, float(np.max(np.abs(finite - gen_rhs))))
        return worst

    ratio = residual(0.01) / residual(0.005)
    assert 0.8 * 2**order <= ratio <= 1.2 * 2**order


def test_generator_factors_the_ancilla_state_once(monkeypatch):
    calls = []
    factor = bath_mod._factor
    monkeypatch.setattr(bath_mod, "_factor", lambda eta: calls.append(1) or factor(eta))
    rng = np.random.default_rng(43)
    generator_from_collision(two_level_spec(gamma=1.0, dt=0.01, d_anc=3), random_density(rng, 3))
    assert len(calls) == 1


@st.composite
def ancilla_states(draw):
    """Random eta on d_a = 2..4: of any rank, or thermal with populations down to 1e-13."""
    d_a = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = _random_operator(rng, d_a)[:, :draw(st.integers(1, d_a))]
        eta = m @ m.conj().T
    else:
        smallest = 10.0 ** -draw(st.floats(0.0, 13.0))
        eta = np.diag(smallest ** (np.arange(d_a) / (d_a - 1))).astype(complex)
    return DensityMatrix(Operator(eta / np.trace(eta), (d_a,)))


@settings(max_examples=60, deadline=None)
@given(eta=ancilla_states(), d_s=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_generator_matches_the_eigenbasis_oracle(eta, d_s, seed):
    rng = np.random.default_rng(seed)
    b = Operator(_random_operator(rng, d_s), (d_s,))
    h_sys = Operator(np.zeros((d_s, d_s), dtype=complex), (d_s,))
    spec = CollisionSpec(h_sys=h_sys, coupling=b, dt=0.01, n_steps=1, d_anc=eta.side, g=1.3)
    gen = generator_from_collision(spec, eta)
    v = exchange_v(b.data, eta.side).data
    h_prime, jumps = eigenbasis_generator(v, eta.data, d_s)
    assert np.max(np.abs(gen.h_eff.data - spec.coupling_strength * h_prime)) < 1e-12
    got = dissipator_superop([(op.data, rate) for op, rate in gen.jumps])
    want = dissipator_superop([(j, spec.rate) for j in jumps])
    assert np.max(np.abs(got - want)) < 1e-12


def _warns(spec) -> bool:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        generator_from_collision(spec, fock_dm(2, 0))
    return bool(caught)


@pytest.mark.parametrize("w0, expected", [(0.2, False), (20.0, True)])
def test_generator_warning_is_independent_of_time_units(w0, expected):
    # rescaling (h_sys, gamma, dt) -> (h_sys/c, gamma/c, c dt) is a change of
    # time unit: the physics, and so the verdict, must not move
    sz = np.diag([1.0, -1.0]).astype(complex)
    for c in (1e-3, 1.0, 1e3):
        spec = two_level_spec(gamma=1.0 / c, dt=0.01 * c, h=Operator(w0 / c * sz, (2,)))
        assert _warns(spec) is expected


def test_generator_rejects_negative_rate_and_non_hermitian_h():
    with pytest.raises(ValidationError):
        LindbladGenerator(h_eff=H2, jumps=((LOWER, -0.1),))
    skew = Operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), (2,))
    with pytest.raises(ValidationError):
        LindbladGenerator(h_eff=skew, jumps=())


@pytest.mark.parametrize("rate, duration, message", [
    (math.nan, None, "jump rate must be >= 0"),
    (0.5, math.nan, "step_duration must be positive"),
    (0.5, -1.0, "step_duration must be positive"),
])
def test_generator_rejects_nan_rate_and_duration(rate, duration, message):
    with pytest.raises(ValidationError, match=message):
        LindbladGenerator(h_eff=H2, jumps=((LOWER, rate),), step_duration=duration)


@pytest.mark.parametrize("t_final", [math.nan, 0.0, -1.0])
def test_integrate_rejects_a_horizon_that_is_not_positive(t_final):
    # t_final = nan used to raise a bare IndexError
    gen = LindbladGenerator(h_eff=H2, jumps=((LOWER, 1.0),))
    with pytest.raises(ValidationError, match="t_final must be positive"):
        integrate_me(gen, fock_dm(2, 1), t_final=t_final, n_substeps=10)


def test_generator_rejects_empty_step_table():
    # an empty table used to pass here and fail later with a bare IndexError
    with pytest.raises(ValidationError):
        LindbladGenerator(h_eff=H2, jumps=(), h_table=np.zeros((0, 2, 2)), step_duration=0.1)


def test_generator_rejects_non_hermitian_table_row():
    table = np.array([np.diag([0.5, -0.5]), [[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
    with pytest.raises(ValidationError, match="h_table at step 2: not Hermitian"):
        LindbladGenerator(h_eff=H2, jumps=(), h_table=table, step_duration=0.5)
    with pytest.raises(ValidationError, match=r"h_table of shape \(2, 3, 3\)"):
        LindbladGenerator(h_eff=H2, jumps=(), h_table=np.zeros((2, 3, 3)), step_duration=0.5)


@pytest.mark.parametrize("t", [-0.6, -5.0, -1e-12, math.nan])
def test_term_for_time_rejects_negative_times(t):
    # -0.6 used to select the last entry silently, -5 raised a bare IndexError; the term in force
    # at a time is the table row that holds then, the last one from the table's end on
    table = np.array([np.diag([0.5, -0.5]), 0.3 * np.array([[0, 1], [1, 0]])], dtype=complex)
    gen = LindbladGenerator(jumps=((LOWER, 0.5),), h_table=table, step_duration=0.5)
    rho = fock_dm(2, 1)
    with pytest.raises(ValidationError, match="time must be >= 0"):
        apply_generator(gen, rho, t=t)
    for time, row in [(0.0, 0), (0.49, 0), (0.5, 1), (7.0, 1), (1e300, 1)]:
        static = LindbladGenerator(Operator(table[row], (2,)), ((LOWER, 0.5),))
        assert np.array_equal(apply_generator(gen, rho, time).data,
                              apply_generator(static, rho).data)


def test_apply_generator_reads_row_0_when_no_time_is_given():
    # a table's first row is h_eff, so the two readings of a generator at t = 0 agree
    rng = np.random.default_rng(29)
    table = np.array([_random_hermitian(rng, 2).data for _ in range(3)])
    per_row = np.array([_random_operator(rng, 2) for _ in range(3)])
    gen = LindbladGenerator(jumps=((per_row, 0.4), (LOWER, 1.0)), h_table=table,
                            step_duration=0.2)
    rho = random_density(rng, 2)
    at_0 = apply_generator(gen, rho, t=0.0).data
    assert np.array_equal(apply_generator(gen, rho).data, at_0)
    expected = liouvillian(table[0], [(per_row[0], 0.4), (LOWER.data, 1.0)]) @ rho.data.reshape(-1)
    assert np.max(np.abs(at_0 - expected.reshape(2, 2))) < 1e-14


def test_a_time_far_past_the_table_reads_its_last_row(monkeypatch):
    # t / step_duration of 1e300 or more (it overflows at 1e10) used to overflow the row index:
    # a cast warning or a bare IndexError
    table = np.array([np.diag([0.5, -0.5]), 0.3 * np.array([[0, 1], [1, 0]])], dtype=complex)
    gen = LindbladGenerator(Operator(table[0], (2,)), ((LOWER, 0.5),), table, 1e-300)
    last = LindbladGenerator(Operator(table[1], (2,)), ((LOWER, 0.5),))
    rho = fock_dm(2, 1)
    for t in (1.0, 1e10):
        assert np.array_equal(apply_generator(gen, rho, t).data, apply_generator(last, rho).data)
    for _ in propagations(monkeypatch):
        assert np.array_equal(integrate_me(gen, rho, 1.0, 10).states,
                              integrate_me(last, rho, 1.0, 10).states)


# ---------------------------------------------------------------------------
# generator application
# ---------------------------------------------------------------------------

def test_stationary_state_gives_zero():
    h = Operator(np.diag([1.0, -1.0]).astype(complex), (2,))
    gen = LindbladGenerator(h_eff=h, jumps=())
    out = apply_generator(gen, fock_dm(2, 1))
    assert np.max(np.abs(out.data)) < 1e-14


def test_decay_rates_by_hand():
    gamma = 0.7
    gen = LindbladGenerator(h_eff=H2, jumps=((LOWER, gamma),))
    out = apply_generator(gen, fock_dm(2, 1))
    assert abs(out.data[1, 1] + gamma) < 1e-14  # d rho_ee / dt = -gamma
    assert abs(out.data[0, 0] - gamma) < 1e-14  # d rho_gg / dt = +gamma


def test_generator_output_traceless_hermitian():
    rng = np.random.default_rng(53)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = Operator(m + m.conj().T, (2,))
    l_op = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), (2,))
    gen = LindbladGenerator(h_eff=h, jumps=((l_op, 0.4),))
    out = apply_generator(gen, random_density(rng, 2))
    assert abs(np.trace(out.data)) < 1e-12
    assert np.max(np.abs(out.data - out.data.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# master-equation integration
# ---------------------------------------------------------------------------

def propagations(monkeypatch):
    """Run the loop body with dense propagators, with one entry per batch, and with the series."""
    for module, name, value in [(None, None, None), (qcore, "STACK_CHUNK_BYTES", 1),
                                (qcore, "DENSE_MAX_DIM", 0)]:
        monkeypatch.undo()
        if name is not None:
            monkeypatch.setattr(module, name, value)
        yield


def test_zero_generator_is_constant(monkeypatch):
    for _ in propagations(monkeypatch):
        gen = LindbladGenerator(h_eff=H2, jumps=())
        rng = np.random.default_rng(61)
        rho0 = random_density(rng, 2)
        traj = integrate_me(gen, rho0, t_final=1.0, n_substeps=50)
        assert np.max(np.abs(traj.states[-1] - rho0.data)) < 1e-14


def test_exponential_decay_endpoint(monkeypatch):
    for _ in propagations(monkeypatch):
        gen = LindbladGenerator(h_eff=H2, jumps=((LOWER, 1.0),))
        traj = integrate_me(gen, fock_dm(2, 1), t_final=1.0, n_substeps=1000)
        assert abs(traj.states[-1][1, 1].real - math.exp(-1.0)) < 1e-12


def test_driven_decay_matches_liouvillian_exponential(monkeypatch):
    # static drive amplitude sqrt(gamma/2pi)|z| with the bare decay jump
    for _ in propagations(monkeypatch):
        gamma, z = 1.0, 3.0
        amp = math.sqrt(gamma / (2.0 * math.pi)) * abs(z)
        h = Operator(amp * (LOWER.data + LOWER.data.conj().T), (2,))
        gen = LindbladGenerator(h_eff=h, jumps=((LOWER, gamma),))
        t_final, n = 2.0, 2000
        traj = integrate_me(gen, fock_dm(2, 1), t_final, n)

        lv = liouvillian(h.data, [(LOWER.data, gamma)])
        for k in (1, n // 2, n):
            t = t_final * k / n
            expected = (scipy.linalg.expm(lv * t) @ fock_dm(2, 1).data.reshape(-1)).reshape(2, 2)
            assert np.max(np.abs(traj.states[k] - expected)) < 1e-12


def test_step_table_sampling_matches_piecewise_exponential(monkeypatch):
    for _ in propagations(monkeypatch):
        h1 = Operator(0.8 * np.diag([1.0, -1.0]).astype(complex), (2,))
        h2 = Operator(0.3 * np.array([[0, 1], [1, 0]], dtype=complex), (2,))
        jumps = ((LOWER, 0.5),)
        gen = LindbladGenerator(h_eff=h1, jumps=jumps,
                                h_table=np.array([h1.data, h2.data]), step_duration=0.5)
        traj = integrate_me(gen, fock_dm(2, 1), t_final=1.0, n_substeps=2000)

        lv1 = liouvillian(h1.data, [(LOWER.data, 0.5)])
        lv2 = liouvillian(h2.data, [(LOWER.data, 0.5)])
        prop = scipy.linalg.expm(lv2 * 0.5) @ scipy.linalg.expm(lv1 * 0.5)
        expected = (prop @ fock_dm(2, 1).data.reshape(-1)).reshape(2, 2)
        assert np.max(np.abs(traj.states[-1] - expected)) < 1e-12


def test_long_run_preserves_trace(monkeypatch):
    for _ in propagations(monkeypatch):
        gen = LindbladGenerator(h_eff=H2, jumps=((LOWER, 1.0),))
        traj = integrate_me(gen, fock_dm(2, 1), t_final=10.0, n_substeps=5000)
        drift = max(abs(np.trace(s) - 1.0) for s in traj.states)
        assert drift < 1e-9


def test_integrate_rejects_bad_substeps():
    gen = LindbladGenerator(h_eff=H2, jumps=())
    with pytest.raises(ValidationError):
        integrate_me(gen, fock_dm(2, 0), t_final=1.0, n_substeps=0)


def test_step_table_midpoints_off_the_table_grid(monkeypatch):
    # substep 0.1 against entries of 0.3: midpoints 0.05..0.95 pick entries
    # 0,0,0,1,1,1,2,2,2 and, past the table's end, the clamped last entry
    for _ in propagations(monkeypatch):
        hs = [Operator(w * np.array([[0, 1], [1, 0]], dtype=complex), (2,)) for w in (0.4, 1.3, 2.1)]
        jumps = ((LOWER, 0.6),)
        gen = LindbladGenerator(h_eff=hs[0], jumps=jumps,
                                h_table=np.array([h.data for h in hs]), step_duration=0.3)
        traj = integrate_me(gen, fock_dm(2, 1), t_final=1.0, n_substeps=10)

        props = [scipy.linalg.expm(0.1 * liouvillian(h.data, [(LOWER.data, 0.6)])) for h in hs]
        vec = fock_dm(2, 1).data.reshape(-1)
        for k, entry in enumerate([0, 0, 0, 1, 1, 1, 2, 2, 2, 2], start=1):
            vec = props[entry] @ vec
            assert np.max(np.abs(traj.states[k] - vec.reshape(2, 2))) < 1e-12


def _assert_matches_propagator_products(traj, props):
    vec = traj.states[0].reshape(-1)
    assert len(traj) == len(props) + 1
    for state, prop in zip(traj.states[1:], props):
        vec = prop @ vec
        assert np.max(np.abs(state - vec.reshape(2, 2))) < 1e-12


def test_spontaneous_emission_me_is_liouvillian_exponential(monkeypatch):
    for _ in propagations(monkeypatch):
        gamma, n = 0.9, 200
        cfg = FieldConfig(kind="vacuum", gamma=gamma, t_final=1.5, n_steps=n,
                          h_sys=H2, coupling=LOWER, rho0=fock_dm(2, 1))
        _, traj_me, _ = spontaneous_emission_run(cfg)
        prop = scipy.linalg.expm(cfg.dt * liouvillian(H2.data, [(LOWER.data, gamma)]))
        _assert_matches_propagator_products(traj_me, [prop] * n)


def test_bloch_me_is_product_of_drive_exponentials(monkeypatch):
    # drive of the coherent field at the end of each step, held over the step
    for _ in propagations(monkeypatch):
        gamma, z, omega, n, t_final = 1.1, 2.0 * np.exp(0.4j), 1.7, 300, 2.0
        cfg = FieldConfig(kind="coherent", gamma=gamma, t_final=t_final, n_steps=n,
                          h_sys=H2, coupling=LOWER, rho0=fock_dm(2, 1), z=z, omega=omega,
                          d_anc=8)
        _, traj_me, _ = bloch_run(cfg)
        dt = t_final / n
        b = LOWER.data
        props = []
        for step in range(1, n + 1):
            phase = omega * step * dt + np.angle(z)
            drive = math.sqrt(gamma / (2.0 * math.pi)) * abs(z) * (
                np.exp(-1j * phase) * b + np.exp(1j * phase) * b.conj().T)
            props.append(scipy.linalg.expm(dt * liouvillian(drive, [(b, gamma)])))
        _assert_matches_propagator_products(traj_me, props)


def _random_operator(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 3), n_entries=st.integers(1, 4), per_entry=st.integers(1, 3),
       n_jumps=st.integers(0, 2), t_final=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1),
       dense_max=st.sampled_from([qcore.DENSE_MAX_DIM, 0]))
def test_substep_refinement_agrees_on_shared_grid(d, n_entries, per_entry, n_jumps,
                                                  t_final, seed, dense_max):
    # the table grid is a subgrid of both substep grids, so n and 2n
    # substeps propagate the same piecewise-constant generator exactly
    rng = np.random.default_rng(seed)
    jumps = tuple((Operator(_random_operator(rng, d), (d,)), float(rng.uniform(0.0, 2.0)))
                  for _ in range(n_jumps))
    table = []
    for _ in range(n_entries):
        m = _random_operator(rng, d)
        table.append(0.5 * (m + m.conj().T))
    gen = LindbladGenerator(h_eff=Operator(table[0], (d,)), jumps=jumps, h_table=np.array(table),
                            step_duration=t_final / n_entries)
    rho0 = random_density(rng, d)
    n = n_entries * per_entry
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcore, "DENSE_MAX_DIM", dense_max)
        coarse = integrate_me(gen, rho0, t_final, n)
        fine = integrate_me(gen, rho0, t_final, 2 * n)
    for k in range(n + 1):
        assert np.max(np.abs(coarse.states[k] - fine.states[2 * k])) < 1e-12


def test_series_matches_dense_propagators_on_coarse_steps(monkeypatch):
    # h ||L|| well above 1 on a 5-level system, so the series runs in pieces
    rng = np.random.default_rng(71)
    d = 5
    m = _random_operator(rng, d)
    jumps = tuple((Operator(_random_operator(rng, d), (d,)), rate) for rate in (0.8, 2.5))
    gen = LindbladGenerator(h_eff=Operator(m + m.conj().T, (d,)), jumps=jumps)
    rho0 = random_density(rng, d)
    monkeypatch.setattr(qcore, "DENSE_MAX_DIM", d - 1)
    series = integrate_me(gen, rho0, t_final=3.0, n_substeps=4)
    monkeypatch.setattr(qcore, "DENSE_MAX_DIM", d)
    dense = integrate_me(gen, rho0, t_final=3.0, n_substeps=4)
    lv = liouvillian(gen.h_eff.data, [(op.data, rate) for op, rate in jumps])
    vec = rho0.data.reshape(-1)
    for k in range(1, 5):
        vec = scipy.linalg.expm(0.75 * lv) @ vec
        assert np.max(np.abs(dense.states[k] - vec.reshape(d, d))) < 1e-12
        assert np.max(np.abs(series.states[k] - vec.reshape(d, d))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, qcore.DENSE_MAX_DIM])
@pytest.mark.parametrize("chunked", [False, True])
def test_dense_scan_matches_the_series_step_by_step(monkeypatch, d, chunked):
    # the scan of dense propagators against the Taylor series of each substep's generator,
    # over a table finer and coarser than the substeps and across chunks
    rng = np.random.default_rng(d)
    table = []
    for _ in range(9):
        m = _random_operator(rng, d)
        table.append(0.5 * (m + m.conj().T))
    jumps = tuple((Operator(_random_operator(rng, d), (d,)), rate) for rate in (0.3, 1.2))
    gen = LindbladGenerator(h_eff=Operator(table[0], (d,)), jumps=jumps, h_table=np.array(table),
                            step_duration=0.17)
    rho0 = random_density(rng, d)
    if chunked:  # seven propagators a chunk
        monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", 7 * 16 * d**4)
    n, t_final = 40, 2.0
    traj = integrate_me(gen, rho0, t_final, n)
    assert np.array_equal(traj.states, traj.states.conj().swapaxes(1, 2))  # re-symmetrized
    rho, h = rho0.data, t_final / n
    for k in range(n):
        row = min(int((k + 0.5) * h / 0.17), len(table) - 1)
        rho = lindblad._expm_series(h, *lindblad._compiled(gen, row), rho)
        assert np.max(np.abs(traj.states[k + 1] - rho)) < 1e-12


@pytest.mark.parametrize("dense_max", [qcore.DENSE_MAX_DIM, 0])
@pytest.mark.parametrize("chunked", [False, True])
def test_jump_that_changes_every_row_matches_each_rows_exponential(monkeypatch, dense_max,
                                                                    chunked):
    # one jump given per row beside a static one, as a cascaded source's jump changes with its
    # coefficient: each substep holds its midpoint's row, rows finer and coarser than substeps
    rng = np.random.default_rng(97)
    d, n, t_final, duration = 3, 40, 2.0, 0.17
    table = np.array([_random_hermitian(rng, d).data for _ in range(11)])
    per_row = np.array([_random_operator(rng, d) for _ in range(11)])
    static = Operator(_random_operator(rng, d), (d,))
    gen = LindbladGenerator(jumps=((per_row, 0.7), (static, 0.2)), h_table=table,
                            step_duration=duration)
    assert gen.ls.shape == (11, 2, d, d) and gen.jumps[0][0] is per_row
    monkeypatch.setattr(qcore, "DENSE_MAX_DIM", dense_max)
    if chunked:  # seven propagators a chunk
        monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", 7 * 16 * d**4)
    rho0 = random_density(rng, d)
    traj = integrate_me(gen, rho0, t_final, n)
    vec, h = rho0.data.reshape(-1), t_final / n
    for k in range(n):
        row = min(int((k + 0.5) * h / duration), len(table) - 1)
        lv = liouvillian(table[row], [(per_row[row], 0.7), (static.data, 0.2)])
        vec = scipy.linalg.expm(h * lv) @ vec
        assert np.max(np.abs(traj.states[k + 1] - vec.reshape(d, d))) < 1e-12


def test_static_drive_needs_one_propagator(monkeypatch):
    # with omega = 0 the drive does not change: one ME propagator, not one per step
    built = []
    build = lindblad._liouvillian
    monkeypatch.setattr(lindblad, "_liouvillian", lambda *term: built.append(1) or build(*term))
    cfg = FieldConfig(kind="coherent", gamma=1.0, t_final=1.0, n_steps=50, h_sys=H2,
                      coupling=LOWER, rho0=fock_dm(2, 1), z=1.5, d_anc=6)
    bloch_run(cfg)
    assert len(built) == 1


def test_large_system_is_propagated_without_dense_liouvillians(monkeypatch):
    # above DENSE_MAX_DIM no d^2 x d^2 propagator is formed (here 400 x 400)
    monkeypatch.setattr(qcore, "expm_stack", lambda a: pytest.fail("dense expm used"))
    d = 20
    b = annihilator(d)
    gen = LindbladGenerator(h_eff=Operator(np.zeros((d, d), dtype=complex), (d,)),
                            jumps=((b, 1.0),))
    traj = integrate_me(gen, fock_dm(d, 1), t_final=0.5, n_substeps=5)
    assert abs(traj.states[-1][1, 1].real - math.exp(-0.5)) < 1e-12


# ---------------------------------------------------------------------------
# stored states
# ---------------------------------------------------------------------------

def _random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(0.5 * (m + m.conj().T), (d,))


def _stored_states(path, rng):
    n, dt = 200, 0.01
    if path == "me_dense" or path == "me_series":
        d = 2 if path == "me_dense" else qcore.DENSE_MAX_DIM + 1
        gen = LindbladGenerator(h_eff=_random_hermitian(rng, d), jumps=((annihilator(d), 1.0),))
        return integrate_me(gen, random_density(rng, d), n * dt, n).states
    d = 3 if path == "kraus_loop" else 2  # a moving field's per-step maps: Kraus pairs at d = 3
    spec = CollisionSpec(h_sys=_random_hermitian(rng, d), coupling=annihilator(d), dt=dt,
                         n_steps=n, d_anc=2 if path == "photon_sector" else 3, gamma=1.0)
    if path == "photon_sector":
        phi = np.exp(-((np.arange(n) - 80.0) / 30.0) ** 2)
        return run_correlated(spec, single_photon_bath(phi, n), random_density(rng, d)).states
    bath = coherent_bath(1.5 - 0.5j, omega=0.7, dt=dt, n=n, d=3)
    return run_product(spec, bath, random_density(rng, d)).states


@pytest.mark.parametrize("path", ["scan", "kraus_loop", "photon_sector", "me_dense", "me_series"])
def test_stored_states_are_exactly_hermitian(path):
    # every run stores (rho + rho^dag) / 2 of the states it checked: Hermitian to the bit, so
    # each population is exactly real
    states = _stored_states(path, np.random.default_rng(53))
    assert np.array_equal(states, states.conj().swapaxes(1, 2))
    assert not np.diagonal(states, axis1=1, axis2=2).imag.any()


def test_me_checks_its_raw_states(monkeypatch):
    # states off Hermitian by 1e-8 fail the check before they are symmetrized for storage
    propagate = qcore.propagate

    def skewed(maps, x0, n):
        states = propagate(maps, x0, n)
        states[1:, 1] += 1e-8j  # rho_01 of every step, rho_10 as it was
        return states

    monkeypatch.setattr(qcore, "propagate", skewed)
    gen = LindbladGenerator(h_eff=H2, jumps=((LOWER, 1.0),))
    with pytest.raises(PropagationError, match="step 1: .*Hermiticity deviation 1.000e-08"):
        integrate_me(gen, fock_dm(2, 1), 1.0, 10)
