"""The single-photon source-qubit path against the dense joint-state oracle.

The library runs a single photon as a product run of the system and one
source qubit, which hands each vacuum ancilla its share of the photon just
before that ancilla collides (Gough, James & Nurdin, Phil. Trans. R. Soc. A
370, 5408 (2012)). The oracle (`oracles.dense_correlated_marginals`) builds
the bath as an explicit vector of 2^N amplitudes and evolves the whole joint
operator. run_correlated, the run routine `_run` moving non-Hermitian matrix
units (all of them in one batched call), and the correlated
step_map_superoperator must all agree with it. The envelopes include exact zeros at either end, a single
nonzero bin (the source empties mid-run) and amplitudes whose squares
underflow, where the source's weight reaches 0. Runs are cut into chunks of
one to three steps, or left whole, so the joint state crosses chunk edges.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim import (CollisionSpec, DensityMatrix, Operator, qcore, run_correlated,
                      single_photon_bath)
from collisim.collision import _run, step_map_superoperator
from oracles import dense_correlated_marginals, one_photon_amplitudes

TOL = 1e-12


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m + m.conj().T


@st.composite
def photon_runs(draw):
    d_s = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 8))
    with_table = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = None
    if with_table:
        table = np.array([random_hermitian(rng, d_s) for _ in range(n)])
    spec = CollisionSpec(
        h_sys=Operator(random_hermitian(rng, d_s), (d_s,)),
        coupling=Operator(rng.standard_normal((d_s, d_s)) + 1j * rng.standard_normal((d_s, d_s)), (d_s,)),
        dt=float(rng.uniform(0.01, 0.3)), n_steps=n, d_anc=2, g=float(rng.uniform(0.1, 3.0)),
        h_sys_table=table,
    )
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shape = draw(st.sampled_from(["random", "zero_ends", "one_bin", "underflow"]))
    if shape == "zero_ends":
        lead = draw(st.integers(0, n - 1))
        trail = draw(st.integers(0, n - 1 - lead))
        phi[:lead] = phi[n - trail:] = 0.0
    elif shape == "one_bin":
        phi[np.arange(n) != draw(st.integers(0, n - 1))] = 0.0
    elif shape == "underflow":  # |phi|^2 ~ 1e-340 rounds to 0; one bin keeps its size
        tiny = rng.random(n) < 0.5
        tiny[draw(st.integers(0, n - 1))] = False
        phi[tiny] *= 1e-170
    bath = single_photon_bath(phi, n)
    m = rng.standard_normal((d_s, d_s)) + 1j * rng.standard_normal((d_s, d_s))
    rho0 = DensityMatrix(Operator(m @ m.conj().T / np.trace(m @ m.conj().T), (d_s,)))
    # a step's Kraus pair on source (x) S is 2 d_s^2 * 8 entries, which sizes the chunks
    chunk_steps = draw(st.sampled_from([1, 2, 3, None]))
    chunk_bytes = qcore.STACK_CHUNK_BYTES if chunk_steps is None else chunk_steps * 16 * 16 * d_s**2
    return spec, bath, rho0, chunk_bytes


@settings(max_examples=40, deadline=None)
@given(photon_runs())
def test_sector_path_matches_dense_joint_evolution(setup):
    spec, bath, rho0, chunk_bytes = setup
    d_s, n = spec.d_sys, spec.n_steps
    amps = one_photon_amplitudes(bath.phi)

    with mock.patch.object(qcore, "STACK_CHUNK_BYTES", chunk_bytes):
        traj = run_correlated(spec, bath, rho0)
        units = np.eye(d_s * d_s, dtype=complex).reshape(-1, d_s, d_s)
        sector_units = _run(spec, bath, units, n)
        step_map = step_map_superoperator(spec, bath, n)
    oracle = dense_correlated_marginals(spec, amps, rho0.data[None])[0]
    assert np.max(np.abs(traj.states - oracle)) <= TOL

    oracle_units = dense_correlated_marginals(spec, amps, units)
    assert np.max(np.abs(sector_units - oracle_units)) <= TOL

    # the step map divides by the map of the earlier steps, which multiplies
    # round-off by that map's condition number; the bound scales with it
    before, after = (oracle_units[:, j].reshape(d_s * d_s, -1) for j in (n - 1, n))
    oracle_map = np.linalg.solve(before, after).T
    assert np.max(np.abs(step_map - oracle_map)) <= TOL * np.linalg.cond(before)
