import math

import numpy as np
import pytest

from collisim import (
    FieldConfig,
    GaussianEnvelope,
    TabulatedSpectrum,
    ValidationError,
    bloch_run,
    convergence_study,
    discretize_input_output,
    fock_dm,
    run_correlated,
    run_product,
    single_photon_run,
    spontaneous_emission_run,
    trace_distance_series,
)
from collisim.bath import PRODUCT
from collisim import scenarios
from collisim.scenarios import default_emitter

H2, LOWER, EXCITED = default_emitter()


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


@pytest.mark.parametrize("omega, substeps", [(0.0, 400), (1.3, 4000)])
def test_convergence_reference_grid(monkeypatch, omega, substeps):
    # a static generator is exact on the common grid of the step counts;
    # only a moving drive (omega != 0) is sampled REFERENCE_DRIVE_REFINE times finer
    grids, gens = [], []
    integrate = scenarios.lind.integrate_me
    monkeypatch.setattr(scenarios.lind, "integrate_me", lambda gen, rho0, t, n, obs:
                        grids.append(n) or gens.append(gen) or integrate(gen, rho0, t, n, obs))
    cfg = make_cfg(kind="coherent", z=1.0, omega=omega, d_anc=8)
    convergence_study(cfg, [100, 200, 400])
    assert grids == [substeps]
    # the drive held over substep k is the field's at the substep's end, (k + 1) t / substeps
    t = np.arange(1, substeps + 1)[:, None, None] * cfg.t_final / substeps
    b = LOWER.data
    drive = math.sqrt(cfg.gamma / (2 * math.pi)) * (np.exp(-1j * omega * t) * b
                                                     + np.exp(1j * omega * t) * b.conj().T)
    table = gens[0].h_eff.data[None] if omega == 0 else gens[0].h_table
    assert np.max(np.abs(table - drive[:len(table)])) < 1e-14


def test_static_reference_on_common_grid_matches_a_finer_one(monkeypatch):
    cfg = make_cfg(kind="coherent", z=1.0, d_anc=8)
    coarse = convergence_study(cfg, [20, 40, 80])
    monkeypatch.setattr(scenarios, "_reference_substeps", lambda cfg, n_list: 800)
    fine = convergence_study(cfg, [20, 40, 80])
    for a, b in zip(coarse.rows, fine.rows):
        assert abs(a.max_state_error - b.max_state_error) < 1e-12
        assert abs(a.endpoint_observable_error - b.endpoint_observable_error) < 1e-12

