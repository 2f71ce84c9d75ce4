import math
import tracemalloc

import numpy as np
import pytest

from collisim import (
    CollisionSpec,
    DensityMatrix,
    Operator,
    PropagationError,
    Trajectory,
    ValidationError,
    annihilator,
    choi_of_collision,
    coherent_bath,
    collide_once,
    collision_unitary,
    fock_dm,
    identity,
    product_bath,
    run_correlated,
    run_product,
    single_photon_bath,
    step_map_choi,
)
from collisim import collision, qcore
from collisim.bath import CORRELATED_PURE, PRODUCT, SINGLE_EXCITATION_NORM_TOL, BathSpec
from collisim.collision import step_map_superoperator
from oracles import embed_pair_unitary, one_photon_amplitudes

H2 = Operator(np.zeros((2, 2), dtype=complex), (2,))
LOWER = annihilator(2)


def two_level_spec(g=None, gamma=None, dt=0.1, n_steps=1, d_anc=2, h=H2):
    return CollisionSpec(h_sys=h, coupling=LOWER, dt=dt, n_steps=n_steps,
                         d_anc=d_anc, g=g, gamma=gamma)


def random_density(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho), (d,)))


def random_spec(rng, d_anc):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = Operator(m + m.conj().T, (2,))
    b = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), (2,))
    return CollisionSpec(h_sys=h, coupling=b, dt=float(rng.uniform(0.01, 0.3)),
                         n_steps=1, d_anc=d_anc, g=float(rng.uniform(0.1, 3.0)))


# ---------------------------------------------------------------------------
# spec invariants
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        two_level_spec(g=1.0, dt=0.0)
    with pytest.raises(ValidationError):
        two_level_spec(g=1.0, d_anc=1)
    with pytest.raises(ValidationError):
        two_level_spec()  # neither g nor gamma
    with pytest.raises(ValidationError):
        two_level_spec(g=1.0, gamma=1.0)  # both


@pytest.mark.parametrize("field, value, message", [
    ("dt", math.nan, "dt must be positive"),
    ("gamma", math.nan, "gamma must be positive"),
    ("g", math.nan, "g must be finite"),
    ("g", math.inf, "g must be finite"),
])
def test_spec_rejects_non_finite_parameters(field, value, message):
    # x <= 0 is False for NaN, so these used to pass and fail at step 1 as a PropagationError
    kwargs = {"dt": 0.1, "gamma": 1.0, field: value}
    if field == "g":
        kwargs["gamma"] = None
    with pytest.raises(ValidationError, match=message):
        two_level_spec(**kwargs)


def test_rate_mode_coupling_and_rate():
    spec = two_level_spec(gamma=2.0, dt=0.5)
    assert spec.coupling_strength == math.sqrt(2.0 / 0.5)
    assert spec.rate == 2.0  # exact, no sqrt round trip
    raw = two_level_spec(g=3.0, dt=0.5)
    assert raw.rate == pytest.approx(4.5)


# ---------------------------------------------------------------------------
# collision unitary
# ---------------------------------------------------------------------------

def test_decoupled_limit_factorizes():
    h = Operator(np.array([[0.4, 0.1], [0.1, -0.4]], dtype=complex), (2,))
    spec = two_level_spec(g=0.0, dt=0.2, h=h)
    u = collision_unitary(spec)
    import scipy.linalg
    expected = np.kron(scipy.linalg.expm(-1j * h.data * 0.2), np.eye(2))
    assert np.max(np.abs(u.data - expected)) < 1e-12


def test_exchange_block_is_rabi_rotation():
    # on span{|e,0>, |g,1>} the collision acts as a rotation by g dt
    g, dt = 1.7, 0.3
    u = collision_unitary(two_level_spec(g=g, dt=dt))
    assert abs(u.data[1, 2] - (-1j) * math.sin(g * dt)) < 1e-12
    assert abs(u.data[2, 2] - math.cos(g * dt)) < 1e-12


@pytest.mark.parametrize("d_anc", [2, 5])
def test_interaction_is_the_operator_expression_bit_for_bit(d_anc):
    # formed from raw matrices, b (x) adag + bdag (x) a keeps the bits of the Operator algebra
    spec = random_spec(np.random.default_rng(d_anc), d_anc)
    a = annihilator(d_anc)
    expected = qcore.tensor(spec.coupling, a.dag()) + qcore.tensor(spec.coupling.dag(), a)
    got = collision.interaction_operator(spec)
    assert got.dims == expected.dims == (2, d_anc)
    assert np.array_equal(got.data.view(np.uint64), expected.data.view(np.uint64))


@pytest.mark.parametrize("d_anc", [2, 3])
def test_collision_unitary_is_unitary(d_anc):
    rng = np.random.default_rng(d_anc)
    u = collision_unitary(random_spec(rng, d_anc))
    assert np.max(np.abs(u.data.conj().T @ u.data - np.eye(2 * d_anc))) < 1e-9


@pytest.mark.parametrize("step", [0, 4, -5, 5, 10**6])
def test_collision_unitary_rejects_steps_off_the_table(step):
    # step 0 used to wrap around to the last entry of a table, step 4 raised a bare IndexError;
    # a static spec, or a table longer than its steps, once returned a unitary for any step
    table = np.array([w * np.eye(2, dtype=complex) for w in (0.1, 0.2, 0.3, 0.4, 0.5)])
    for rows in (table[:3], None, table):
        spec = CollisionSpec(h_sys=H2, coupling=LOWER, dt=0.1, n_steps=3, d_anc=2, g=1.0,
                             h_sys_table=rows)
        with pytest.raises(ValidationError, match=f"step {step} outside 1..3"):
            collision_unitary(spec, step)


def test_spec_checks_its_h_sys_table_once():
    table = np.array([w * np.eye(2, dtype=complex) for w in (0.1, 0.2, 0.3)])
    spec = CollisionSpec(h_sys=H2, coupling=LOWER, dt=0.1, n_steps=3, d_anc=2, g=1.0,
                         h_sys_table=table)
    assert not spec.h_sys_table.flags.writeable and table.flags.writeable
    for bad_row in (0.5j * np.eye(2), np.full((2, 2), np.nan)):
        with pytest.raises(ValidationError, match="h_sys_table at step 2: not Hermitian"):
            CollisionSpec(h_sys=H2, coupling=LOWER, dt=0.1, n_steps=3, d_anc=2, g=1.0,
                          h_sys_table=np.array([table[0], bad_row, table[2]]))
    for bad in (table[:2], table[:, :1], np.zeros((3, 3, 3))):
        with pytest.raises(ValidationError, match="h_sys_table"):
            CollisionSpec(h_sys=H2, coupling=LOWER, dt=0.1, n_steps=3, d_anc=2, g=1.0,
                          h_sys_table=bad)


def test_run_product_reads_the_bath_arrays_directly(monkeypatch):
    # a homogeneous bath forms its blocks once; a step-dependent bath hands over its kets one
    # chunk of steps per _kraus call, not one step at a time
    seen = []
    kraus = collision._kraus
    monkeypatch.setattr(collision, "_kraus", lambda u, f: seen.append(f) or kraus(u, f))
    run_product(two_level_spec(g=1.0, n_steps=5), product_bath(fock_dm(2, 0), 5), fock_dm(2, 1))
    assert [f.shape for f in seen] == [(1, 2, 1)]
    monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", 2 * 16 * 4 * 4)  # two 4 x 4 unitaries
    bath = coherent_bath(0.5, omega=1.0, dt=0.1, n=5, d=2)
    seen.clear()
    run_product(two_level_spec(g=1.0, n_steps=5), bath, fock_dm(2, 1))
    assert [f.shape for f in seen] == [(2, 2, 1), (2, 2, 1), (1, 2, 1)]
    assert np.array_equal(np.concatenate(seen)[..., 0], np.stack(bath.etas))


def per_step_run(spec, bath, rho0):
    """One _kraus and one _kraus_loop call per step, each step's unitary formed on its own."""
    states = [rho0.data]
    for step in range(1, spec.n_steps + 1):
        k = collision._kraus(collision_unitary(spec, step).data, bath.factor(step))
        states.append(collision._kraus_loop([(1, k[None])], states[-1], 1)[1])
    return np.stack(states)


@pytest.mark.parametrize("n_steps", [0, 1, 10])
@pytest.mark.parametrize("kets", [False, True])
@pytest.mark.parametrize("table", [False, True])
def test_run_product_agrees_with_per_step_kernel_across_chunks(monkeypatch, table, kets, n_steps):
    # three 6 x 6 unitaries per chunk: ten steps are chunks of 3, 3, 3 and 1
    monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", 3 * 16 * 6 * 6)
    rng = np.random.default_rng(23)
    n = max(n_steps, 1)
    m = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    spec = CollisionSpec(h_sys=H2, coupling=LOWER, dt=0.2, n_steps=n_steps, d_anc=3, g=1.3,
                         h_sys_table=m + m.conj().swapaxes(1, 2) if table else None)
    bath = (coherent_bath(0.8 - 0.5j, omega=1.1, dt=0.2, n=n, d=3) if kets
            else product_bath(random_density(rng, 3), n))
    rho0 = random_density(rng, 2)
    states = run_product(spec, bath, rho0).states
    assert states.shape == (n_steps + 1, 2, 2)
    assert np.max(np.abs(states - per_step_run(spec, bath, rho0))) <= 1e-14


@pytest.mark.parametrize("kets", [False, True])
def test_run_product_above_the_dense_dimension_applies_kraus_pairs(monkeypatch, kets):
    # a 6-level system is past qcore.DENSE_MAX_DIM: no superoperator and no scan, each step
    # its Kraus pair, across chunks of two 18 x 18 unitaries
    assert qcore.DENSE_MAX_DIM < 6
    monkeypatch.setattr(qcore, "propagate", lambda *args: pytest.fail("scan used"))
    monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", 2 * 16 * 18 * 18)
    rng = np.random.default_rng(29)
    n, b = 7, annihilator(6)
    m = rng.standard_normal((n, 6, 6)) + 1j * rng.standard_normal((n, 6, 6))
    spec = CollisionSpec(h_sys=Operator(m[0] + m[0].conj().T, (6,)), coupling=b, dt=0.1,
                         n_steps=n, d_anc=3, g=1.1, h_sys_table=0.3 * (m + m.conj().swapaxes(1, 2)))
    bath = (coherent_bath(0.6 + 0.2j, omega=0.9, dt=0.1, n=n, d=3) if kets
            else product_bath(random_density(rng, 3), n))
    rho0 = random_density(rng, 6)
    states = run_product(spec, bath, rho0).states
    assert np.max(np.abs(states - per_step_run(spec, bath, rho0))) <= 1e-14


@pytest.mark.parametrize("d, kets, table, scanned", [
    (3, True, False, False), (3, False, True, False), (5, True, True, False),
    (3, False, False, True), (5, False, False, True), (2, True, True, True),
])
def test_run_product_scans_shared_maps_and_qubits(monkeypatch, d, kets, table, scanned):
    # a superoperator per step costs more than the step's Kraus pair at d = 3..5 (see
    # qcore.DENSE_MAX_DIM): those runs apply the pairs, and steps that share one map, or
    # any qubit's, are scanned in one call; across chunks of two unitaries
    assert qcore.DENSE_MAX_DIM >= 5
    maps = []
    propagate = qcore.propagate

    def scan(chunks, x0, n):
        if not scanned:
            pytest.fail("scan used for one map per step")
        chunks = list(chunks)
        maps.append(sum(len(ms) for _, ms in chunks))  # the rows of the chunks
        return propagate(chunks, x0, n)

    monkeypatch.setattr(qcore, "propagate", scan)
    monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", 2 * 16 * (3 * d) ** 2)
    rng = np.random.default_rng(31 + d)
    n, b = 7, annihilator(d)
    m = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    spec = CollisionSpec(h_sys=Operator(0.3 * (m[0] + m[0].conj().T), (d,)), coupling=b, dt=0.1,
                         n_steps=n, d_anc=3, g=1.1,
                         h_sys_table=0.3 * (m + m.conj().swapaxes(1, 2)) if table else None)
    bath = (coherent_bath(0.6 + 0.2j, omega=0.9, dt=0.1, n=n, d=3) if kets
            else product_bath(random_density(rng, 3), n))
    rho0 = random_density(rng, d)
    states = run_product(spec, bath, rho0).states
    assert np.max(np.abs(states - per_step_run(spec, bath, rho0))) <= 1e-12
    assert maps == ([1] if not (kets or table) else [7] if scanned else [])


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_shared_map_is_formed_and_scanned_once_across_chunks(monkeypatch, d):
    # steps that share one map (E^n rho0): one Kraus pair, one superoperator row and one scan of
    # one row for the whole run, however many chunks of unitaries it spans; past
    # qcore.DENSE_MAX_DIM the one pair is applied at every step
    calls = []
    for module, name in [(collision, "_kraus"), (collision, "_superoperator")]:
        monkeypatch.setattr(module, name, lambda *args, name=name, f=getattr(module, name):
                            calls.append((name, len(args[0]))) or f(*args))
    propagate = qcore.propagate

    def scan(chunks, x0, n):
        chunks = list(chunks)
        calls.append(("propagate", sum(len(maps) for _, maps in chunks)))  # the rows of the chunks
        return propagate(chunks, x0, n)

    monkeypatch.setattr(qcore, "propagate", scan)
    monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", 16 * (3 * d) ** 2)  # one unitary a chunk
    rng = np.random.default_rng(37 + d)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    spec = CollisionSpec(h_sys=Operator(0.3 * (m + m.conj().T), (d,)), coupling=annihilator(d),
                         dt=0.1, n_steps=9, d_anc=3, g=1.1)
    bath = product_bath(random_density(rng, 3), 9)
    rho0 = random_density(rng, d)
    states = run_product(spec, bath, rho0).states
    assert calls == [("_kraus", 1)] + ([("_superoperator", 1), ("propagate", 1)] if d <= 5 else [])
    assert np.max(np.abs(states - per_step_run(spec, bath, rho0))) <= 1e-12


def test_qubit_maps_are_streamed_a_chunk_at_a_time(monkeypatch):
    # a per-step qubit run hands qcore.propagate each chunk's superoperators as it forms them:
    # its states are those of propagate over the _kraus_chunks stream, to the bit, stored as
    # (rho + rho^dag) / 2, and it peaks below the bytes an (n, 4, 4) stack of its maps would take
    monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", 64 * 16 * 6 * 6)  # 64 unitaries a chunk
    n = 4000
    spec = two_level_spec(gamma=1.0, dt=0.001, n_steps=n, d_anc=3)
    bath = coherent_bath(1.5 - 0.5j, omega=0.7, dt=0.001, n=n, d=3)
    rho0 = random_density(np.random.default_rng(41), 2)
    chunks = [(c, collision._superoperator(ks))
              for c, ks in collision._kraus_chunks(spec, n, bath.etas)]
    assert len(chunks) > 60
    expected = qcore.propagate(chunks, rho0.data.reshape(-1), n).reshape(-1, 2, 2)
    expected = 0.5 * (expected + expected.conj().swapaxes(1, 2))
    del chunks
    tracemalloc.start()
    try:
        states = run_product(spec, bath, rho0).states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.tobytes() == expected.tobytes()
    assert peak < n * 16 * 4 * 4


# ---------------------------------------------------------------------------
# single collision
# ---------------------------------------------------------------------------

def test_identity_collision_returns_input():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    out = collide_once(rho, fock_dm(2, 0), identity(2, 2))
    assert np.max(np.abs(out.data - rho.data)) < 1e-14


def test_vacuum_collision_rabi_decay():
    g, dt = 1.7, 0.3
    u = collision_unitary(two_level_spec(g=g, dt=dt))
    out = collide_once(fock_dm(2, 1), fock_dm(2, 0), u)
    assert abs(out.data[1, 1].real - math.cos(g * dt) ** 2) < 1e-12


def test_collision_preserves_trace():
    rng = np.random.default_rng(4)
    for d_anc in (2, 3):
        spec = random_spec(rng, d_anc)
        u = collision_unitary(spec)
        out = collide_once(random_density(rng, 2), random_density(rng, d_anc), u)
        assert abs(np.trace(out.data) - 1.0) < 1e-12


def test_collide_once_rejects_dimension_mismatch():
    with pytest.raises(ValidationError):
        collide_once(fock_dm(2, 0), fock_dm(3, 0), identity(2, 2))


# ---------------------------------------------------------------------------
# product-bath runs
# ---------------------------------------------------------------------------

def test_run_with_zero_steps_returns_initial_state():
    spec = two_level_spec(gamma=1.0, n_steps=0)
    bath = product_bath(fock_dm(2, 0), 1)
    traj = run_product(spec, bath, fock_dm(2, 1))
    assert len(traj) == 1
    assert np.array_equal(traj.states[0], fock_dm(2, 1).data)


def test_spontaneous_emission_endpoint():
    n = 1000
    spec = two_level_spec(gamma=1.0, dt=1.0 / n, n_steps=n)
    bath = product_bath(fock_dm(2, 0), n)
    number_op = LOWER.dag() @ LOWER
    traj = run_product(spec, bath, fock_dm(2, 1), {"excited_population": number_op})
    final = traj.observables["excited_population"][-1].real
    assert abs(final - math.exp(-1.0)) < 5e-3
    # trace holds along the whole run
    assert all(abs(np.trace(s) - 1.0) < 1e-10 for s in traj.states)


def test_homogeneous_run_satisfies_semigroup_composition():
    rng = np.random.default_rng(9)
    rho0 = random_density(rng, 2)
    bath = product_bath(fock_dm(2, 0), 100)
    for n, m in ((8, 3), (20, 10)):
        spec_n = two_level_spec(gamma=0.7, dt=0.02, n_steps=n)
        spec_m = two_level_spec(gamma=0.7, dt=0.02, n_steps=m)
        spec_rest = two_level_spec(gamma=0.7, dt=0.02, n_steps=n - m)
        direct = run_product(spec_n, bath, rho0).states[-1]
        mid = DensityMatrix(Operator(run_product(spec_m, bath, rho0).states[-1], (2,)))
        composed = run_product(spec_rest, bath, mid).states[-1]
        assert np.max(np.abs(direct - composed)) < 1e-12


def test_run_states_are_one_read_only_array():
    spec = two_level_spec(gamma=1.0, dt=0.1, n_steps=5)
    traj = run_product(spec, product_bath(fock_dm(2, 0), 5), fock_dm(2, 1))
    assert traj.states.shape == (6, 2, 2)
    with pytest.raises(ValueError):
        traj.states[1, 0, 0] = 0.0


@pytest.mark.parametrize("chunk_bytes", [None, 3 * 64])
def test_qubit_storage_is_the_generic_symmetrization_bit_for_bit(monkeypatch, chunk_bytes):
    # raw qubit states, off Hermitian within the check's tolerance, some with signed-zero
    # coherences and imaginary diagonal parts, are stored with the bits of the generic
    # (rho + rho^dag) / 2; at 3 * 64 bytes the check runs in three-state chunks
    if chunk_bytes is not None:
        monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", chunk_bytes)
    rng, n = np.random.default_rng(29), 40
    states = np.stack([random_density(rng, 2).data for _ in range(n)])
    states += 1e-11 * (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    signed = rng.random(n) < 0.4
    zeros = rng.choice([0.0, -0.0], (n, 2, 2))
    for i, j in ((0, 1), (1, 0)):
        states.real[signed, i, j] = zeros[signed, i, j]
        states.imag[signed, i, j] = -zeros[signed, j, i]
    states.imag[signed, 0, 0] = zeros[signed, 0, 0]
    generic = 0.5 * (states + states.conj().swapaxes(1, 2))
    number = LOWER.dag() @ LOWER + Operator(np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0]]), (2,))
    traj = collision._checked_trajectory(0.1, states, {"n": number})
    assert np.array_equal(traj.states.view(np.uint64), generic.view(np.uint64))
    trace = np.einsum("ij,tji->t", number.data, generic)
    assert np.abs(traj.observables["n"] - trace).max() <= 1e-15


@pytest.mark.parametrize("gamma", [1e20, 1e100])
def test_run_product_reports_the_first_failing_step(gamma):
    # 1e20 breaks the trace at step 1; 1e100 makes the state non-finite there
    spec = two_level_spec(gamma=gamma, dt=0.1, n_steps=10)
    with pytest.raises(PropagationError) as exc:
        run_product(spec, product_bath(fock_dm(2, 0), 10), fock_dm(2, 1))
    assert exc.value.step == 1
    assert "step 1:" in str(exc.value)


def test_run_product_rejects_short_bath():
    spec = two_level_spec(gamma=1.0, n_steps=5)
    with pytest.raises(ValidationError):
        run_product(spec, product_bath(fock_dm(2, 0), 3), fock_dm(2, 1))


# ---------------------------------------------------------------------------
# correlated-bath runs
# ---------------------------------------------------------------------------

def test_single_slot_envelope_matches_step_dependent_product():
    # photon localized on ancilla 1: correlated machinery must reproduce a
    # product run whose first ancilla is |1><1| and the rest vacuum
    n, g, dt = 4, 0.9, 0.25
    # a per-step Hamiltonian must act at the same step on both paths
    table = np.array([w * np.array([[0, 1], [1, 0]], dtype=complex) for w in (0.3, 1.1, 2.0, 0.7)])
    driven = CollisionSpec(h_sys=H2, coupling=LOWER, dt=dt, n_steps=n, d_anc=2, g=g,
                           h_sys_table=table)
    corr = single_photon_bath([1.0, 0.0, 0.0, 0.0], n)
    kets = np.array([[0.0, 1.0]] + [[1.0, 0.0]] * (n - 1))
    prod = BathSpec(kind=PRODUCT, d=2, n_steps=n, etas=kets)
    for spec in (two_level_spec(g=g, dt=dt, n_steps=n), driven):
        traj_corr = run_correlated(spec, corr, fock_dm(2, 0))
        traj_prod = run_product(spec, prod, fock_dm(2, 0))
        for a, b in zip(traj_corr.states, traj_prod.states):
            assert np.max(np.abs(a - b)) < 1e-12


def test_per_step_traceout_matches_no_discard_evolution():
    # evolve the full joint state without intermediate trace-outs and
    # compare the final reduced state against the per-step-discard path
    g, dt = math.pi / 2 / 0.3, 0.3  # g dt = pi/2
    spec = two_level_spec(g=g, dt=dt, n_steps=2)
    bath = single_photon_bath([1.0, 1.0], 2)
    rho0 = fock_dm(2, 0)

    traj = run_correlated(spec, bath, rho0)

    u = collision_unitary(spec).data
    psi = one_photon_amplitudes(bath.phi)
    sigma = np.kron(rho0.data, np.outer(psi, psi.conj()))
    u1 = embed_pair_unitary(u, 2, 1)
    u2 = embed_pair_unitary(u, 2, 2)
    sigma = u2 @ u1 @ sigma @ u1.conj().T @ u2.conj().T
    t = sigma.reshape(2, 4, 2, 4)
    rho_final = np.einsum("abcb->ac", t)
    assert np.max(np.abs(traj.states[-1] - rho_final)) < 1e-12


def test_correlated_run_requires_matching_steps():
    spec = two_level_spec(gamma=1.0, dt=0.1, n_steps=3)
    bath = single_photon_bath([1.0, 1.0], 2)
    with pytest.raises(ValidationError):
        run_correlated(spec, bath, fock_dm(2, 0))


def test_photon_pass_forms_its_kraus_pairs_a_chunk_at_a_time():
    # a step's pair on source (x) S is four times its 4 x 4 unitary, so chunks are sized by the
    # pairs, and each chunk's source (x) S states are traced out before the next is formed: the
    # run holds less than 3 times the 16 * 16 n bytes of all its source (x) S states, where
    # chunks of 8,192 steps of pairs once took over 8 times that
    n = 20_000
    spec = two_level_spec(gamma=1.0, dt=6.0 / n, n_steps=n)
    bath = single_photon_bath(np.exp(-0.5 * ((np.arange(1, n + 1) * spec.dt - 3.0) / 0.7) ** 2), n)
    tracemalloc.start()
    try:
        run_correlated(spec, bath, fock_dm(2, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 16 * 16 * n


def test_photon_amplitudes_normalised_within_tolerance_keep_the_trace():
    # a total weight of 1 + 8e-10 passes the bath's own check; the run hands the photon out
    # through a source qubit that starts normalised, so it gives the normalised bath's states
    # where it once failed at step 1 with a trace of 1.0000000008
    n = 40
    spec = two_level_spec(gamma=1.0, dt=0.15, n_steps=n)
    exact = single_photon_bath(np.exp(-0.5 * ((np.arange(1, n + 1) - 20) / 6) ** 2), n)
    weight = 1 + 0.8 * SINGLE_EXCITATION_NORM_TOL
    loose = BathSpec(kind=CORRELATED_PURE, d=2, n_steps=n, phi=exact.phi * math.sqrt(weight))
    for rho0 in (fock_dm(2, 0), fock_dm(2, 1)):
        states = run_correlated(spec, loose, rho0).states
        assert np.max(np.abs(states - run_correlated(spec, exact, rho0).states)) <= 1e-12


# ---------------------------------------------------------------------------
# complete positivity
# ---------------------------------------------------------------------------

def test_choi_of_identity_collision_is_maximally_entangled_projector():
    spec = two_level_spec(g=0.0, dt=0.1)
    choi = choi_of_collision(spec, fock_dm(2, 0))
    omega = np.zeros((4, 1), dtype=complex)
    omega[0] = omega[3] = 1.0  # |00> + |11>, unnormalized
    assert np.max(np.abs(choi.data - omega @ omega.conj().T)) < 1e-12
    eigs = np.linalg.eigvalsh(choi.data)
    assert np.sum(eigs > 1e-12) == 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_product_collisions_are_cptp(seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, int(rng.integers(2, 4)))
    eta = random_density(rng, spec.d_anc)
    choi = choi_of_collision(spec, eta)
    assert float(np.linalg.eigvalsh(choi.data)[0]) >= -1e-9
    marginal = np.einsum(choi.data.reshape(2, 2, 2, 2), [0, 1, 0, 3], [1, 3])
    assert np.max(np.abs(marginal - np.eye(2))) < 1e-10


# ---------------------------------------------------------------------------
# step-map tomography (memory witness)
# ---------------------------------------------------------------------------

# Frozen regression: two-step uniform single-photon envelope, g dt = pi/3,
# lowering-operator coupling, no free Hamiltonian.  The reconstructed
# second-step map is far from completely positive.
WITNESS_MIN_EIGENVALUE = -1.125


def witness_spec_and_bath():
    spec = two_level_spec(g=math.pi / 3, dt=1.0, n_steps=2)
    return spec, single_photon_bath([1.0, 1.0], 2)


def test_step_two_map_of_correlated_bath_is_not_cp():
    spec, bath = witness_spec_and_bath()
    choi = step_map_choi(spec, bath, 2)
    min_eig = float(np.linalg.eigvalsh(choi.data)[0])
    assert min_eig < -1e-6
    assert abs(min_eig - WITNESS_MIN_EIGENVALUE) < 1e-9


def test_step_one_map_of_correlated_bath_is_cp():
    # no prior system-bath correlation yet, so the first map must be CP
    spec, bath = witness_spec_and_bath()
    choi = step_map_choi(spec, bath, 1)
    assert float(np.linalg.eigvalsh(choi.data)[0]) >= -1e-9


def test_step_two_map_of_product_control_is_cp():
    spec, _ = witness_spec_and_bath()
    bath = product_bath(fock_dm(2, 0), 2)
    choi = step_map_choi(spec, bath, 2)
    assert float(np.linalg.eigvalsh(choi.data)[0]) >= -1e-9


def test_correlated_step_map_builds_its_unitaries_once(monkeypatch):
    # one exponential per call, not one per matrix unit (9 for three levels)
    calls = []
    expm_stack = qcore.expm_stack
    monkeypatch.setattr(qcore, "expm_stack", lambda a: calls.append(a.shape) or expm_stack(a))
    spec = CollisionSpec(h_sys=Operator(np.diag([0.0, 1.0, 2.0]).astype(complex), (3,)),
                         coupling=annihilator(3), dt=0.3, n_steps=2, d_anc=2, g=1.0)
    step_map_superoperator(spec, single_photon_bath([1.0, 1.0], 2), 2)
    assert calls == [(1, 6, 6)]


@pytest.mark.parametrize("d_anc, bath, match", [
    (3, product_bath(fock_dm(2, 0), 5), "ancilla dimension 2 != spec d_anc 3"),
    (2, single_photon_bath([1.0, 1.0, 1.0], 3), "bath covers 3 steps, spec wants 5"),
    (2, product_bath(fock_dm(2, 0), 3), "bath covers 3 steps, spec wants 5"),
    (2, single_photon_bath([1.0] * 6, 6), "bath covers 6 steps, spec wants 5"),
    (3, single_photon_bath([1.0] * 5, 5), "ancilla dimension 2 != spec d_anc 3"),
], ids=["product d", "photon steps", "product steps", "photon long", "photon d"])
def test_step_map_checks_the_bath_against_the_spec(d_anc, bath, match):
    # these gave a 9 x 9 "map", the step-3 map for step 5, and unhandled errors
    spec = two_level_spec(g=1.0, n_steps=5, d_anc=d_anc)
    with pytest.raises(ValidationError, match=match):
        step_map_superoperator(spec, bath, 5)
    with pytest.raises(ValidationError, match=match):
        (run_product if bath.kind == PRODUCT else run_correlated)(spec, bath, fock_dm(2, 0))


def test_runs_reject_the_other_bath_kind():
    spec = two_level_spec(g=1.0, n_steps=2)
    with pytest.raises(ValidationError, match="needs a product bath"):
        run_product(spec, single_photon_bath([1.0, 1.0], 2), fock_dm(2, 0))
    with pytest.raises(ValidationError, match="needs a correlated_pure bath"):
        run_correlated(spec, product_bath(fock_dm(2, 0), 2), fock_dm(2, 0))


def test_tomography_reproduces_single_collision_choi_for_product_bath():
    rng = np.random.default_rng(17)
    spec = random_spec(rng, 2)
    spec = CollisionSpec(h_sys=spec.h_sys, coupling=spec.coupling, dt=spec.dt,
                         n_steps=3, d_anc=2, g=spec.g)
    eta = random_density(rng, 2)
    bath = product_bath(eta, 3)
    direct = choi_of_collision(spec, eta)
    reconstructed = step_map_choi(spec, bath, 2)
    assert np.max(np.abs(direct.data - reconstructed.data)) < 1e-10


# ---------------------------------------------------------------------------
# trajectory invariants
# ---------------------------------------------------------------------------

def test_trajectory_requires_increasing_times():
    states = np.stack([fock_dm(2, 0).data] * 2)
    with pytest.raises(ValidationError):
        Trajectory(np.array([0.0, 0.0]), states, {})
    with pytest.raises(ValidationError):
        Trajectory(np.array([0.0]), states, {})
    with pytest.raises(ValidationError):
        Trajectory(np.array([0.0, math.nan]), states, {})
