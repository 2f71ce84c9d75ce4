import math
from dataclasses import replace

import numpy as np
import pytest

from collisim import (
    FieldConfig,
    GaussianEnvelope,
    TabulatedSpectrum,
    Trajectory,
    ValidationError,
    bloch_run,
    convergence_study,
    discretize_input_output,
    fock_dm,
    product_bath,
    run_correlated,
    run_product,
    single_photon_run,
    spontaneous_emission_run,
    trace_distance_series,
)
from collisim.bath import PRODUCT, BathSpec
from collisim import collision as coll
from collisim import qcore, scenarios
from collisim.scenarios import default_emitter

H2, LOWER, EXCITED = default_emitter()


def test_default_emitter_is_one_shared_frozen_value():
    # every caller shares the values built on the first call, so none may be written into
    first, second = default_emitter(), default_emitter()
    assert all(a is b for a, b in zip(first, second))
    for value in first:
        with pytest.raises(ValueError, match="read-only"):
            value.data[0, 0] = 1.0


def make_cfg(kind="vacuum", gamma=1.0, t_final=1.0, n_steps=100, rho0=None, **kw):
    return FieldConfig(kind=kind, gamma=gamma, t_final=t_final, n_steps=n_steps,
                       h_sys=H2, coupling=LOWER, rho0=rho0 or EXCITED, **kw)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_discretizer_arithmetic():
    spec, _ = discretize_input_output(make_cfg(n_steps=100))
    assert spec.dt == 0.01
    assert spec.coupling_strength == pytest.approx(10.0)
    assert spec.rate == 1.0


@pytest.mark.parametrize("n", [10, 100, 1000, 10000])
def test_rate_identity_is_exact(n):
    gamma = 0.7312498433
    spec, _ = discretize_input_output(make_cfg(gamma=gamma, n_steps=n))
    assert spec.rate == gamma  # bitwise, not approx


def test_vacuum_field_gives_vacuum_product_bath():
    _, field_bath = discretize_input_output(make_cfg(n_steps=12))
    assert field_bath.kind == PRODUCT
    assert len(field_bath.etas) == 1  # one vacuum factor shared by all 12 steps
    assert np.array_equal(field_bath.ancilla_state(12).data, fock_dm(2, 0).data)


def test_coherent_field_amplitudes():
    cfg = make_cfg(kind="coherent", t_final=1.0, n_steps=200, z=2.0, omega=5.0, d_anc=8)
    _, field_bath = discretize_input_output(cfg)
    expected = 2.0 * math.sqrt(0.005) / math.sqrt(2.0 * math.pi)
    assert np.allclose(np.abs(field_bath.xi), expected)


def test_tabulated_spectrum_matches_closed_form_gaussian():
    # psi(omega) = exp(-s^2 w^2 + i w c) has the closed-form time profile
    # exp(-(t-c)^2 / 4 s^2); the midpoint quadrature must reproduce it
    s, c = 0.8, 2.0
    omegas = np.linspace(-12.0, 12.0, 4001)
    psi = np.exp(-(s**2) * omegas**2 + 1j * omegas * c)
    cfg_tab = make_cfg(kind="single_photon", t_final=4.0, n_steps=8,
                       rho0=EXCITED, envelope=TabulatedSpectrum(omegas, psi))
    cfg_gauss = make_cfg(kind="single_photon", t_final=4.0, n_steps=8,
                         rho0=EXCITED, envelope=GaussianEnvelope(center=c, width=s))
    _, bath_tab = discretize_input_output(cfg_tab)
    _, bath_gauss = discretize_input_output(cfg_gauss)
    assert np.max(np.abs(bath_tab.phi - bath_gauss.phi)) < 1e-8


def test_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        make_cfg(gamma=-1.0)
    with pytest.raises(ValidationError):
        make_cfg(t_final=0.0)
    with pytest.raises(ValidationError):
        make_cfg(kind="single_photon")  # missing envelope


@pytest.mark.parametrize("field", ["gamma", "t_final"])
def test_config_rejects_nan_rate_and_horizon(field):
    with pytest.raises(ValidationError, match=f"{field} must be positive"):
        make_cfg(**{field: math.nan})


@pytest.mark.parametrize("width", [math.nan, 0.0, -0.5])
def test_gaussian_envelope_rejects_a_width_that_is_not_positive(width):
    with pytest.raises(ValidationError, match="width must be positive"):
        GaussianEnvelope(center=1.0, width=width)


@pytest.mark.parametrize("omegas", [[math.nan, 1.0, 2.0], [0.0, math.nan, 2.0], [0.0, 1.0, math.nan],
                                    [0.0, 1.0, 1.5], [0.0, 0.0, 0.0]])
def test_tabulated_spectrum_rejects_a_grid_that_is_not_uniform(omegas):
    with pytest.raises(ValidationError, match="uniform and increasing"):
        TabulatedSpectrum(np.array(omegas), np.ones(3))


# ---------------------------------------------------------------------------
# spontaneous emission
# ---------------------------------------------------------------------------

def test_spontaneous_emission_against_closed_form():
    cm, me, row = spontaneous_emission_run(make_cfg(n_steps=1000))
    assert abs(cm.observables["excited_population"][-1].real - math.exp(-1.0)) < 5e-3
    assert row.max_state_error < 5e-3


def test_spontaneous_emission_error_halves_with_doubling():
    _, _, row_n = spontaneous_emission_run(make_cfg(n_steps=200))
    _, _, row_2n = spontaneous_emission_run(make_cfg(n_steps=400))
    ratio = row_n.max_state_error / row_2n.max_state_error
    assert 1.6 <= ratio <= 2.4


def test_ground_state_is_dark():
    cm, me, row = spontaneous_emission_run(make_cfg(n_steps=50, rho0=fock_dm(2, 0)))
    for traj in (cm, me):
        for s in traj.states:
            assert np.max(np.abs(s - fock_dm(2, 0).data)) < 1e-12
    assert row.max_state_error < 1e-12


def test_cm_me_distance_shrinks_monotonically_along_doubling():
    errors = [spontaneous_emission_run(make_cfg(n_steps=n))[2].max_state_error
              for n in (50, 100, 200, 400)]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= 1.1 * coarse


# ---------------------------------------------------------------------------
# optical Bloch
# ---------------------------------------------------------------------------

def test_bloch_zero_field_reduces_to_spontaneous_emission():
    cfg = make_cfg(kind="coherent", z=0.0, d_anc=2, n_steps=100)
    traj_q, traj_me, traj_semi = bloch_run(cfg)
    cm_v, me_v, _ = spontaneous_emission_run(make_cfg(n_steps=100))
    assert trace_distance_series(traj_q, cm_v).max() < 1e-12
    assert trace_distance_series(traj_me, me_v).max() < 1e-12
    assert trace_distance_series(traj_semi, cm_v).max() < 1e-12


def test_drive_strength_identity_is_step_independent():
    # g xi_n carries no residual dt dependence: sqrt(gamma/2pi) z e^{i omega t_n}
    for n in (100, 400):
        cfg = make_cfg(kind="coherent", z=1.0 + 1.0j, omega=2.0, n_steps=n, d_anc=8)
        spec, field_bath = discretize_input_output(cfg)
        drive = spec.coupling_strength * field_bath.xi
        t = np.arange(1, n + 1) * spec.dt
        expected = math.sqrt(cfg.gamma / (2.0 * math.pi)) * (1.0 + 1.0j) * np.exp(2.0j * t)
        assert np.max(np.abs(drive - expected)) < 1e-12


def test_bloch_trajectories_agree_and_tighten():
    def max_pairwise(n):
        cfg = make_cfg(kind="coherent", z=3.0, omega=0.0, gamma=1.0,
                       t_final=2.0, n_steps=n, d_anc=12)
        a, b, c = bloch_run(cfg)
        return max(trace_distance_series(a, b).max(),
                   trace_distance_series(a, c).max(),
                   trace_distance_series(b, c).max())

    at_n = max_pairwise(250)
    at_2n = max_pairwise(500)
    assert at_n < 1e-2
    assert at_2n <= 0.7 * at_n


def test_semiclassical_converges_to_quantum_cm():
    def gap(n):
        cfg = make_cfg(kind="coherent", z=2.0, omega=1.5, gamma=1.0,
                       t_final=1.0, n_steps=n, d_anc=10)
        traj_q, _, traj_semi = bloch_run(cfg)
        return trace_distance_series(traj_q, traj_semi).max()

    assert gap(200) <= 0.7 * gap(100)


def test_static_semiclassical_drive_forms_one_unitary(monkeypatch):
    # at omega = 0 the drive is the same at every step: one exponential serves the
    # semiclassical run, with the states of the per-step table of that drive, to round-off
    shapes = []
    expm_stack = qcore.expm_stack
    monkeypatch.setattr(qcore, "expm_stack", lambda a: shapes.append(a.shape) or expm_stack(a))
    cfg = make_cfg(kind="coherent", z=1.5, n_steps=50, d_anc=6)
    _, _, traj_semi = bloch_run(cfg)
    # the quantum run's U on S (x) 6 levels, the ME's propagator, the semiclassical U
    assert shapes == [(1, 12, 12), (1, 4, 4), (1, 4, 4)]
    spec, _ = discretize_input_output(cfg)
    drive = scenarios._drive_hamiltonian(cfg, np.arange(1, 51) * cfg.dt)
    table = run_product(replace(spec, d_anc=2, h_sys_table=drive), product_bath(fock_dm(2, 0), 50),
                        cfg.rho0)
    assert np.abs(traj_semi.states - table.states).max() <= 1e-14


@pytest.mark.parametrize("omega", [0.0, 0.7])
def test_static_drive_is_evaluated_at_one_time(monkeypatch, omega):
    # only a moving drive needs its table, one row per step or reference substep (here one
    # reference on max(n_list) = 80 substeps); a static one is one time per reference grid,
    # and each step count is its own grid
    lengths = []
    drive = scenarios._drive_hamiltonian
    monkeypatch.setattr(scenarios, "_drive_hamiltonian",
                        lambda cfg, times: lengths.append(len(times)) or drive(cfg, times))
    bloch_run(make_cfg(kind="coherent", z=1.5, omega=omega, n_steps=50, d_anc=6))
    convergence_study(make_cfg(kind="coherent", z=1.0, omega=omega, d_anc=6), [20, 40, 80])
    assert lengths == ([1, 1, 1, 1] if omega == 0 else [50, 80])


def test_static_field_is_one_map_for_the_quantum_run(monkeypatch):
    # at omega = 0 the quantum run meets one displaced vacuum: one ket, one Kraus pair and one
    # superoperator, with the states of N rows of that ket, to round-off, across chunks too
    rows = []
    superoperator = coll._superoperator
    monkeypatch.setattr(coll, "_superoperator", lambda k: rows.append(len(k)) or superoperator(k))
    cfg = make_cfg(kind="coherent", z=1.5 - 0.5j, n_steps=50, d_anc=6)
    traj_quantum, _, _ = bloch_run(cfg)
    assert rows == [1, 1]  # the quantum run's map, then the semiclassical run's
    spec, field_bath = discretize_input_output(cfg)
    assert len(field_bath.etas) == len(field_bath.xi) == 1
    kets = BathSpec(kind=PRODUCT, d=6, n_steps=50, etas=np.repeat(field_bath.etas[0][None], 50, 0))
    assert np.abs(traj_quantum.states - run_product(spec, kets, cfg.rho0).states).max() <= 1e-14
    monkeypatch.setattr(qcore, "STACK_CHUNK_BYTES", 16 * 16 * 12 * 12)  # 16 steps a chunk
    assert np.abs(run_product(spec, field_bath, cfg.rho0).states
                  - run_product(spec, kets, cfg.rho0).states).max() <= 1e-14


# ---------------------------------------------------------------------------
# single photon and memory witness
# ---------------------------------------------------------------------------

def test_single_photon_revival_fixture_small():
    cfg = make_cfg(kind="single_photon", gamma=1.0, t_final=6.0, n_steps=8,
                   envelope=GaussianEnvelope(center=2.0, width=1.0))
    traj_a, traj_b, report = single_photon_run(cfg)
    assert report.revival_steps  # information flows back at least once
    assert np.max(np.diff(report.distances)) > 1e-3


def test_single_slot_photon_has_markovian_tail():
    # photon concentrated on the first step: afterwards the bath is vacuum
    # product and the distance must be non-increasing
    n = 6
    cfg = make_cfg(kind="single_photon", t_final=3.0, n_steps=n,
                   envelope=GaussianEnvelope(center=0.25, width=0.05))
    _, _, report = single_photon_run(cfg)
    assert all(step == 0 for step in report.revival_steps)
    tail = np.diff(report.distances[1:])
    assert np.all(tail <= 1e-6)


def test_photon_run_at_forty_steps():
    # a dense joint state of 40 ancillas would take 2^40 amplitudes (16 TiB)
    cfg = make_cfg(kind="single_photon", t_final=4.0, n_steps=40,
                   envelope=GaussianEnvelope(center=2.0, width=1.0))
    traj_a, traj_b, report = single_photon_run(cfg)
    assert len(traj_a) == len(traj_b) == len(report.distances) == 41
    assert abs(report.distances[0] - 1.0) < 1e-12


def test_both_photon_starts_share_one_sector_pass(monkeypatch):
    # one static collision unitary and one pass over the steps serve both starts, with the
    # states of a separate run from each start, bit for bit
    shapes = []
    expm_stack = qcore.expm_stack
    monkeypatch.setattr(qcore, "expm_stack", lambda a: shapes.append(a.shape) or expm_stack(a))
    cfg = make_cfg(kind="single_photon", t_final=4.0, n_steps=30,
                   envelope=GaussianEnvelope(center=2.0, width=0.7))
    ground = fock_dm(2, 0)
    traj_a, traj_b, _ = single_photon_run(cfg, rho_a=EXCITED, rho_b=ground)
    assert shapes == [(1, 4, 4)]
    spec, field_bath = discretize_input_output(cfg)
    for traj, rho0 in ((traj_a, EXCITED), (traj_b, ground)):
        alone = run_correlated(spec, field_bath, rho0, {"excited_population": LOWER.dag() @ LOWER})
        assert np.array_equal(traj.states, alone.states)
        assert np.array_equal(traj.observables["excited_population"],
                              alone.observables["excited_population"])


def test_default_photon_starts_build_no_density_matrix(monkeypatch):
    # the default starts are raw projectors, checked once as each trajectory's first state
    cfg = make_cfg(kind="single_photon", t_final=2.0, n_steps=20,
                   envelope=GaussianEnvelope(center=1.0, width=0.5))
    built = []
    check = qcore.DensityMatrix.__post_init__
    monkeypatch.setattr(qcore.DensityMatrix, "__post_init__",
                        lambda self: built.append(self) or check(self))
    traj_a, traj_b, report = single_photon_run(cfg)
    assert built == []
    assert np.array_equal(traj_a.states[0], np.diag([0.0, 1.0]))
    assert np.array_equal(traj_b.states[0], np.diag([1.0, 0.0]))
    assert report.distances[0] == 1.0


def test_photon_start_on_the_wrong_space_is_rejected():
    cfg = make_cfg(kind="single_photon", t_final=2.0, n_steps=5,
                   envelope=GaussianEnvelope(center=1.0, width=0.5))
    with pytest.raises(ValidationError):
        single_photon_run(cfg, rho_b=fock_dm(3, 0))


def test_gaussian_photon_excites_an_emitter_to_the_known_optimum():
    # a Gaussian photon of width 0.7/gamma drives a ground-state emitter to a peak
    # population of ~0.80 (Wang, Minar, Sheridan & Scarani, PRA 83, 063842 (2011))
    cfg = make_cfg(kind="single_photon", t_final=6.0, n_steps=2000,
                   envelope=GaussianEnvelope(center=3.0, width=0.7))
    spec, field_bath = discretize_input_output(cfg)
    traj = run_correlated(spec, field_bath, fock_dm(2, 0), {"excited": LOWER.dag() @ LOWER})
    assert abs(np.max(traj.observables["excited"].real) - 0.80) <= 0.01


def test_identical_inputs_stay_indistinguishable():
    cfg = make_cfg(kind="single_photon", t_final=2.0, n_steps=5,
                   envelope=GaussianEnvelope(center=1.0, width=0.5))
    _, _, report = single_photon_run(cfg, rho_a=EXCITED, rho_b=EXCITED)
    assert np.max(report.distances) < 1e-14
    assert report.revival_steps == ()


def test_witness_never_fires_for_product_baths():
    # vacuum and coherent collision streams are CP-divisible: the trace
    # distance between any two evolutions must be non-increasing
    for kind, extra in (("vacuum", {}), ("coherent", {"z": 1.5, "d_anc": 8})):
        cfg = make_cfg(kind=kind, n_steps=150, t_final=1.5, **extra)
        spec, field_bath = discretize_input_output(cfg)
        obs = {}
        traj_a = run_product(spec, field_bath, fock_dm(2, 1), obs)
        traj_b = run_product(spec, field_bath, fock_dm(2, 0), obs)
        dist = trace_distance_series(traj_a, traj_b)
        assert np.all(np.diff(dist) <= 1e-6)


@pytest.mark.parametrize("steps, d", [(4, 2), (3, 3)])
def test_distance_series_rejects_trajectories_of_different_shapes(steps, d):
    # neither a longer run nor one on another space is broadcast against a 3-step qubit run
    def trajectory(n, side):
        return Trajectory(np.arange(n) * 0.1, np.repeat(np.eye(side)[None] / side, n, 0), {})

    with pytest.raises(ValidationError, match="stacks of shapes"):
        trace_distance_series(trajectory(3, 2), trajectory(steps, d))


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_vacuum_convergence_is_first_order():
    report = convergence_study(make_cfg(n_steps=100), [100, 200, 400])
    assert -1.3 <= report.slope <= -0.7
    assert [row.n_steps for row in report.rows] == [100, 200, 400]


def test_fixed_g_control_does_not_converge():
    report = convergence_study(make_cfg(n_steps=100), [100, 200, 400],
                               fixed_g=math.sqrt(1.0 / 0.01))
    assert report.slope > -0.3


def test_convergence_rejects_short_grid():
    with pytest.raises(ValidationError):
        convergence_study(make_cfg(), [100])
    with pytest.raises(ValidationError):
        convergence_study(make_cfg(), [100, 200])


def test_coherent_convergence_runs():
    cfg = make_cfg(kind="coherent", z=1.0, omega=0.0, d_anc=8, t_final=1.0)
    report = convergence_study(cfg, [50, 100, 200])
    assert report.rows[-1].max_state_error < report.rows[0].max_state_error


@pytest.mark.parametrize("omega, n_list, row_grids", [
    (0.0, [100, 200, 400], [100, 200, 400]),
    (1.3, [100, 200, 400], [400, 400, 400]),
    (1.3, [100, 150, 200], [200, 150, 200]),
], ids=["0.0-400", "1.3-400", "1.3-150"])
def test_convergence_reference_grid(monkeypatch, omega, n_list, row_grids):
    # row N's reference runs on max(n_list) substeps where the drive moves (omega != 0) and N
    # divides it, on N otherwise, held over each substep at its midpoint; one reference per grid,
    # kept until its last row.  A static drive is one row, and each step count is its own grid
    refs, gens, props = [], [], []
    integrate = scenarios.lind.integrate_me
    monkeypatch.setattr(scenarios.lind, "integrate_me", lambda gen, rho0, t, n, obs:
                        gens.append(gen) or refs.append(integrate(gen, rho0, t, n, obs))
                        or refs[-1])
    expm_stack = qcore.expm_stack
    monkeypatch.setattr(qcore, "expm_stack", lambda a: props.append(len(a)) or expm_stack(a))
    cfg = make_cfg(kind="coherent", z=1.0, omega=omega, d_anc=8)
    report = convergence_study(cfg, n_list)
    grids = list(dict.fromkeys(row_grids))
    assert [len(ref) - 1 for ref in refs] == grids
    if omega == 0:  # one row is a static generator: one propagator serves every substep
        assert props == [1] * 6  # each step count's collision unitary and ME propagator
    b = LOWER.data
    for gen, grid in zip(gens, grids):
        # the drive held over substep k is the field's at the substep's midpoint, (k + 1/2) t / G
        t = (np.arange(grid)[:, None, None] + 0.5) * cfg.t_final / grid
        drive = math.sqrt(cfg.gamma / (2 * math.pi)) * (np.exp(-1j * omega * t) * b
                                                         + np.exp(1j * omega * t) * b.conj().T)
        assert len(gen.hs) == (1 if omega == 0 else grid) and len(gen.ls) == 1
        assert np.max(np.abs(gen.hs - drive[:len(gen.hs)])) < 1e-14
    # each row reads its grid's reference at its own grid points
    for row, grid in zip(report.rows, row_grids):
        traj = run_product(*discretize_input_output(replace(cfg, n_steps=row.n_steps)), cfg.rho0)
        ref = refs[grids.index(grid)].states[::grid // row.n_steps]
        assert np.array_equal(row.state_errors, qcore.trace_distances(traj.states, ref))


def test_static_reference_on_common_grid_matches_a_finer_one():
    # a static generator is exact on any grid: the rows of [20, 40, 80] against an 80-substep
    # reference are those against the 800 substeps that the step count 800 brings in
    cfg = make_cfg(kind="coherent", z=1.0, d_anc=8)
    coarse = convergence_study(cfg, [20, 40, 80])
    fine = convergence_study(cfg, [20, 40, 80, 800])
    for a, b in zip(coarse.rows, fine.rows):
        assert abs(a.max_state_error - b.max_state_error) < 1e-12
        assert abs(a.endpoint_observable_error - b.endpoint_observable_error) < 1e-12


def test_midpoint_reference_for_a_moving_drive_does_not_depend_on_its_grid():
    # sampled at substep midpoints (second order), an 80-substep reference moves each row by
    # under 5e-3 of its own first-order error against an 800-substep one (1.8e-3); step-end
    # sampling, first order, moves the last row by 1.6e-2 even on 800 substeps
    cfg = make_cfg(kind="coherent", z=1.0, omega=0.7, d_anc=6)
    coarse = convergence_study(cfg, [20, 40, 80])
    fine = convergence_study(cfg, [20, 40, 80, 800])
    for a, b in zip(coarse.rows, fine.rows):
        assert abs(a.max_state_error - b.max_state_error) <= 5e-3 * a.max_state_error
        assert (abs(a.endpoint_observable_error - b.endpoint_observable_error)
                <= 5e-3 * a.endpoint_observable_error)


def test_moving_drive_converges_at_first_order():
    # the reference's own error does not bend the fit: -1.0013 (step-end sampling on 8,000
    # substeps gives -1.0084)
    cfg = make_cfg(kind="coherent", z=1.0, omega=0.7, d_anc=6)
    assert abs(convergence_study(cfg, [100, 200, 400, 800]).slope + 1.0) < 3e-3

