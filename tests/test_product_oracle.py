"""The product-bath kernel against an independent per-step oracle.

The oracle is the direct definition of a collision, applied one step at a
time: form U_n = exp(-i (H_n (x) I + g v) dt), apply it to rho (x) eta_n,
trace the ancilla out.  run_product, collide_once, choi_of_collision and
the product branch of step_map_superoperator must all agree with it.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collisim import (
    CollisionSpec,
    DensityMatrix,
    Operator,
    choi_of_collision,
    coherent_bath,
    collide_once,
    collision_unitary,
    displacement,
    fock_dm,
    product_bath,
    run_product,
)
from collisim.bath import PRODUCT, BathSpec, _factor
from collisim.collision import step_map_superoperator
from collisim.qcore import trace_distances
from oracles import oracle_unitary

TOL = 1e-12


def oracle_collide(m, eta, u):
    d_s, d_a = m.shape[0], eta.shape[0]
    joint = u @ np.kron(m, eta) @ u.conj().T
    return np.einsum("iaja->ij", joint.reshape(d_s, d_a, d_s, d_a))


def oracle_run(spec, bath, rho0):
    states = [rho0.data]
    for step in range(1, spec.n_steps + 1):
        eta = bath.ancilla_state(step).data
        states.append(oracle_collide(states[-1], eta, oracle_unitary(spec, step)))
    return np.stack(states)


def matrix_units(d):
    return np.eye(d * d, dtype=complex).reshape(-1, d, d)


def oracle_superoperator(eta, u, d):
    # column k is vec(E(e_k)) for the k-th matrix unit, row-major
    return np.stack([oracle_collide(e, eta, u).reshape(-1) for e in matrix_units(d)], axis=1)


def oracle_choi(eta, u, d):
    return sum(np.kron(oracle_collide(e, eta, u), e) for e in matrix_units(d))


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m + m.conj().T


def random_density(rng, d, rank=None):
    """Random state of the given rank (default full): exact zero eigenvalues below it."""
    m = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    rho = m @ m.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho), (d,)))


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def product_runs(draw):
    d_s = draw(st.sampled_from([2, 3]))
    d_a = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 6))
    with_table = draw(st.booleans())
    ancillas = draw(st.sampled_from(["coherent", "mixed", "rank 2", "mixed per step"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dt = float(rng.uniform(0.01, 0.3))
    table = None
    if with_table:
        table = np.array([random_hermitian(rng, d_s) for _ in range(n)])
    spec = CollisionSpec(
        h_sys=Operator(random_hermitian(rng, d_s), (d_s,)),
        coupling=Operator(rng.standard_normal((d_s, d_s)) + 1j * rng.standard_normal((d_s, d_s)), (d_s,)),
        dt=dt, n_steps=n, d_anc=d_a, g=float(rng.uniform(0.1, 3.0)), h_sys_table=table,
    )
    if ancillas == "coherent":
        z = complex(*rng.uniform(-1.0, 1.0, 2))
        bath = coherent_bath(z, float(rng.uniform(-2.0, 2.0)), dt, n, d_a)
    elif ancillas == "mixed per step":  # a random (n, d_a, r) stack of factors, Tr F F^dag = 1
        shape = (n, d_a, int(rng.integers(1, d_a + 1)))
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        bath = BathSpec(kind=PRODUCT, d=d_a, n_steps=n,
                        etas=f / np.linalg.norm(f, axis=(1, 2), keepdims=True))
    else:  # rank 2 is rank-deficient at d_a = 3 and 4
        bath = product_bath(random_density(rng, d_a, 2 if ancillas == "rank 2" else None), n)
    return spec, bath, random_density(rng, d_s)


@settings(max_examples=40, deadline=None)
@given(product_runs())
def test_product_kernel_matches_per_step_oracle(setup):
    spec, bath, rho0 = setup
    d_s, n = spec.d_sys, spec.n_steps

    traj = run_product(spec, bath, rho0)
    assert np.max(np.abs(traj.states - oracle_run(spec, bath, rho0))) <= TOL

    for step in (1, n):
        assert np.max(np.abs(collision_unitary(spec, step).data - oracle_unitary(spec, step))) <= TOL

    eta1, u1 = bath.ancilla_state(1), oracle_unitary(spec, 1)
    once = collide_once(rho0, eta1, collision_unitary(spec, 1))
    assert np.max(np.abs(once.data - oracle_collide(rho0.data, eta1.data, u1))) <= TOL

    choi = choi_of_collision(spec, eta1)
    assert np.max(np.abs(choi.data - oracle_choi(eta1.data, u1, d_s))) <= TOL

    for step in (1, n):
        eta_k, u_k = bath.ancilla_state(step).data, oracle_unitary(spec, step)
        step_map = step_map_superoperator(spec, bath, step)
        assert np.max(np.abs(step_map - oracle_superoperator(eta_k, u_k, d_s))) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 12),
    magnitude=st.floats(0.0, 0.95),
    phase=st.floats(-math.pi, math.pi),
    omega=st.floats(-5.0, 5.0),
    n=st.integers(1, 40),
)
@example(d=5, magnitude=0.6, phase=0.4, omega=0.0, n=9)  # a static field: one ket for all steps
def test_coherent_bath_is_displaced_vacuum(d, magnitude, phase, omega, n):
    # |xi_n|^2 = |z|^2 dt / (2 pi) stays below the d/4 truncation guard
    dt = 0.05
    z = magnitude * math.sqrt(2.0 * math.pi * d / 4.0 / dt) * complex(math.cos(phase), math.sin(phase))
    bath = coherent_bath(z, omega, dt, n, d)
    if bath.xi is None:  # z == 0 is the vacuum product bath, one factor for every step
        assert len(bath.etas) == 1
        assert np.array_equal(bath.ancilla_state(n).data, fock_dm(d, 0).data)
        return
    assert len(bath.etas) == len(bath.xi) == (n if omega != 0 else 1)
    vacuum = fock_dm(d, 0).data
    for ket, xi in zip(bath.etas, bath.xi):
        disp = displacement(complex(xi), d).data
        assert np.max(np.abs(np.outer(ket, ket.conj()) - disp @ vacuum @ disp.conj().T)) <= 1e-14
        assert abs(np.vdot(ket, ket) - 1.0) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(product_runs(), st.integers(0, 2**32 - 1))
def test_product_runs_never_make_two_starts_more_distinguishable(setup, seed):
    # Breuer-Laine-Piilo witness: every step of a product bath is CPTP, so the trace distance of
    # two runs that differ only in their start never grows
    spec, bath, _ = setup
    rng = np.random.default_rng(seed)
    a, b = (run_product(spec, bath, random_density(rng, spec.d_sys)).states for _ in range(2))
    assert np.max(np.diff(trace_distances(a, b)), initial=0.0) <= TOL


@st.composite
def random_maps(draw):
    d_s = draw(st.sampled_from([2, 3]))
    d_a = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, d_a))
    return d_s, Operator(random_unitary(rng, d_s * d_a), (d_s, d_a)), random_density(rng, d_a, rank)


@settings(max_examples=40, deadline=None)
@given(random_maps())
def test_random_collision_maps_are_cptp(setup):
    # Choi state (E (x) id)(|Omega><Omega|)/d of E(rho) = Tr_a[U (rho (x) eta) U^dag], for a Haar
    # random U and a mixed, possibly rank-deficient eta: collide the system half of a maximally
    # entangled pair, with U acting as I (x) U on reference (x) system (x) ancilla
    d_s, u, eta = setup
    omega = np.eye(d_s).reshape(-1) / np.sqrt(d_s)
    pair = DensityMatrix(Operator(np.outer(omega, omega), (d_s, d_s)))
    u_pair = Operator(np.kron(np.eye(d_s), u.data), (d_s, d_s, eta.side))
    choi = collide_once(pair, eta, u_pair).data
    assert np.linalg.eigvalsh(choi)[0] >= -TOL
    reference = np.einsum("iaja->ij", choi.reshape(d_s, d_s, d_s, d_s))  # trace the output out
    assert np.max(np.abs(reference - np.eye(d_s) / d_s)) <= TOL
    assert np.max(np.abs(choi - oracle_collide(pair.data, eta.data, u_pair.data))) <= TOL


@settings(max_examples=25, deadline=None)
@given(product_runs(), st.integers(1, 5), st.integers(1, 5))
def test_homogeneous_product_runs_compose(setup, n, m):
    # run(n + m) is run(n) followed by m more steps from its last state
    spec, bath, rho0 = setup
    eta = bath.ancilla_state(1)  # one ancilla state and one Hamiltonian for every step
    run = lambda k, start: run_product(replace(spec, n_steps=k, h_sys_table=None),
                                       product_bath(eta, k), start).states
    whole, first = run(n + m, rho0), run(n, rho0)
    rest = run(m, DensityMatrix(Operator(first[-1], rho0.dims)))
    assert np.max(np.abs(whole[:n + 1] - first)) <= TOL
    assert np.max(np.abs(whole[n:] - rest)) <= TOL


def _long_homogeneous_run(eta, n):
    # n collisions of a driven, decaying qubit with ancillas all in eta, by the kernel and by the
    # oracle with the same unitary
    rng = np.random.default_rng(41)
    d_a = eta.side
    spec = CollisionSpec(
        h_sys=Operator(random_hermitian(rng, 2), (2,)),
        coupling=Operator(np.array([[0, 1], [0, 0]], dtype=complex), (2,)),
        dt=0.05, n_steps=n, d_anc=d_a, g=2.0,
    )
    u = collision_unitary(spec).data
    rho0 = random_density(rng, 2)
    states = [rho0.data]
    for _ in range(n):
        states.append(oracle_collide(states[-1], eta.data, u))
    return run_product(spec, product_bath(eta, n), rho0).states, np.stack(states)


def test_tiny_ancilla_populations_are_kept_over_long_runs():
    # thermal ancilla with populations ~ q^k: the top one, ~1e-13, is far above round-off, so it
    # stays in the map; dropping it would lose ~1e-13 of trace per step, over 1e-10 in 3,000 steps
    q = 4.6e-5
    p = q ** np.arange(4)
    eta = DensityMatrix(Operator(np.diag(p / p.sum()).astype(complex), (4,)))
    assert _factor(eta.data).shape == (4, 4)  # one Kraus branch per population
    # while the round-off eigenvalues of a rank-2 state (+1.1e-16 and -8e-17 here) get none
    assert _factor(random_density(np.random.default_rng(0), 4, 2).data).shape == (4, 2)
    got, want = _long_homogeneous_run(eta, 3000)
    assert np.max(np.abs(np.trace(got, axis1=1, axis2=2) - 1.0)) <= TOL
    assert np.max(np.abs(got - want)) <= TOL


def test_slightly_negative_ancilla_eigenvalue_is_clipped_without_losing_trace():
    # eta is accepted as a state with an eigenvalue of -5e-10 (inside PSD_TOL); the kernel drops
    # it and rescales the rest to Tr eta, so it runs the oracle on that clipped state, and keeps
    # the trace to round-off where the unclipped rest would add 5e-10 per step
    rng = np.random.default_rng(43)
    w = random_unitary(rng, 3)
    p = np.array([0.7, 0.3 + 5e-10, -5e-10])
    eta = DensityMatrix(Operator(w @ np.diag(p) @ w.conj().T, (3,)))
    clipped = DensityMatrix(Operator(w @ np.diag([0.7, 0.3 + 5e-10, 0.0]) @ w.conj().T
                                     / (1.0 + 5e-10), (3,)))
    got, _ = _long_homogeneous_run(eta, 1000)
    _, want = _long_homogeneous_run(clipped, 1000)
    assert np.max(np.abs(np.trace(got, axis1=1, axis2=2) - 1.0)) <= TOL
    assert np.max(np.abs(got - want)) <= TOL
