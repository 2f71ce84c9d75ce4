"""The product-bath kernel against an independent per-step oracle.

The oracle is the direct definition of a collision, applied one step at a
time: form U_n = exp(-i (H_n (x) I + g v) dt), apply it to rho (x) eta_n,
trace the ancilla out.  run_product, collide_once, choi_of_collision and
the product branch of step_map_superoperator must all agree with it.
"""

import math

import numpy as np
from hypothesis import given, settings
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
from collisim.collision import step_map_superoperator
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


def random_density(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho), (d,)))


@st.composite
def product_runs(draw):
    d_s = draw(st.sampled_from([2, 3]))
    d_a = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 6))
    with_table = draw(st.booleans())
    coherent = draw(st.booleans())
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
    if coherent:
        z = complex(*rng.uniform(-1.0, 1.0, 2))
        bath = coherent_bath(z, float(rng.uniform(-2.0, 2.0)), dt, n, d_a)
    else:
        bath = product_bath(random_density(rng, d_a), n)
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

    eta_n, u_n = bath.ancilla_state(n).data, oracle_unitary(spec, n)
    step_map = step_map_superoperator(spec, bath, n)
    assert np.max(np.abs(step_map - oracle_superoperator(eta_n, u_n, d_s))) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 12),
    magnitude=st.floats(0.0, 0.95),
    phase=st.floats(-math.pi, math.pi),
    omega=st.floats(-5.0, 5.0),
    n=st.integers(1, 40),
)
def test_coherent_bath_is_displaced_vacuum(d, magnitude, phase, omega, n):
    # |xi_n|^2 = |z|^2 dt / (2 pi) stays below the d/4 truncation guard
    dt = 0.05
    z = magnitude * math.sqrt(2.0 * math.pi * d / 4.0 / dt) * complex(math.cos(phase), math.sin(phase))
    bath = coherent_bath(z, omega, dt, n, d)
    if bath.etas is None:  # z == 0 is the vacuum product bath
        assert np.array_equal(bath.eta.data, fock_dm(d, 0).data)
        return
    vacuum = fock_dm(d, 0).data
    for eta, xi in zip(bath.etas, bath.xi):
        disp = displacement(complex(xi), d).data
        assert np.max(np.abs(eta - disp @ vacuum @ disp.conj().T)) <= 1e-14
        assert abs(np.trace(eta) - 1.0) <= 1e-14
