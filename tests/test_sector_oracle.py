"""The single-photon sector path against the dense joint-state oracle.

The oracle (`oracles.dense_correlated_marginals`) builds the bath as an
explicit vector of 2^N amplitudes and evolves the whole joint operator.
run_correlated, the propagation of non-Hermitian matrix units, and the
correlated step_map_superoperator must all agree with it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim import CollisionSpec, DensityMatrix, Operator, run_correlated, single_photon_bath
from collisim.collision import _run_correlated_raw, _unitaries, step_map_superoperator
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
    bath = single_photon_bath(rng.standard_normal(n) + 1j * rng.standard_normal(n), n)
    m = rng.standard_normal((d_s, d_s)) + 1j * rng.standard_normal((d_s, d_s))
    rho0 = DensityMatrix(Operator(m @ m.conj().T / np.trace(m @ m.conj().T), (d_s,)))
    return spec, bath, rho0


@settings(max_examples=40, deadline=None)
@given(photon_runs())
def test_sector_path_matches_dense_joint_evolution(setup):
    spec, bath, rho0 = setup
    d_s, n = spec.d_sys, spec.n_steps
    amps = one_photon_amplitudes(bath.phi)

    traj = run_correlated(spec, bath, rho0)
    oracle = dense_correlated_marginals(spec, amps, rho0.data[None])[0]
    assert np.max(np.abs(traj.states - oracle)) <= TOL

    units = np.eye(d_s * d_s, dtype=complex).reshape(-1, d_s, d_s)
    oracle_units = dense_correlated_marginals(spec, amps, units)
    us = list(_unitaries(spec, range(1, n + 1)))
    sector_units = np.stack([_run_correlated_raw(us, bath.phi, e) for e in units])
    assert np.max(np.abs(sector_units - oracle_units)) <= TOL

    # the step map divides by the map of the earlier steps, which multiplies
    # round-off by that map's condition number; the bound scales with it
    before, after = (oracle_units[:, j].reshape(d_s * d_s, -1) for j in (n - 1, n))
    oracle_map = np.linalg.solve(before, after).T
    step_map = step_map_superoperator(spec, bath, n)
    assert np.max(np.abs(step_map - oracle_map)) <= TOL * np.linalg.cond(before)
