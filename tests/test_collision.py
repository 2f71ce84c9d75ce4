import math

import numpy as np
import pytest
import scipy.linalg

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
from collisim.bath import PRODUCT, BathSpec
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


@pytest.mark.parametrize("d_anc", [2, 3])
def test_collision_unitary_is_unitary(d_anc):
    rng = np.random.default_rng(d_anc)
    u = collision_unitary(random_spec(rng, d_anc))
    assert np.max(np.abs(u.data.conj().T @ u.data - np.eye(2 * d_anc))) < 1e-9


@pytest.mark.parametrize("step", [0, 4])
def test_collision_unitary_rejects_steps_off_the_table(step):
    # step 0 used to wrap around to the last entry, step 4 raised a bare IndexError
    table = np.array([w * np.eye(2, dtype=complex) for w in (0.1, 0.2, 0.3)])
    spec = CollisionSpec(h_sys=H2, coupling=LOWER, dt=0.1, n_steps=3, d_anc=2, g=1.0,
                         h_sys_table=table)
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
    """One _kraus and one _collide per step, each step's unitary formed on its own."""
    states = [rho0.data]
    for step in range(1, spec.n_steps + 1):
        k, k_dag = collision._kraus(collision_unitary(spec, step).data, bath.factor(step))
        states.append(collision._collide(k, k_dag, states[-1]))
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
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a.shape) or expm(a))
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
