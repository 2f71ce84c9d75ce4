"""Every input check of the Python API raises its own ValidationError: one case per check that
no other test reaches, and one per value that enters as a count, dimension or step, unread bath
field or observable on another space."""

import math

import numpy as np
import pytest

from collisim import (
    BathSpec,
    CollisionSpec,
    ConvergenceReport,
    FieldConfig,
    GaussianEnvelope,
    LindbladGenerator,
    Operator,
    PureState,
    ValidationError,
    apply_generator,
    bloch_run,
    coherent_bath,
    collision_unitary,
    convergence_study,
    effective_hamiltonian,
    fock,
    fock_dm,
    identity,
    integrate_me,
    jump_operators,
    partial_trace,
    product_bath,
    run_correlated,
    run_product,
    single_photon_bath,
    single_photon_run,
    spontaneous_emission_run,
    step_map_choi,
    truncation_fidelity,
)
from collisim.bath import CORRELATED_PURE, PRODUCT
from collisim.collision import interaction_operator, step_map_superoperator
from collisim.scenarios import ConvergenceRow, default_emitter

H2, LOWER, EXCITED = default_emitter()
H3 = Operator(np.zeros((3, 3)), (3,))
RHO3 = fock_dm(3, 0)
KET = np.array([[1.0, 0.0]])
GAUSSIAN = GaussianEnvelope(center=3.0, width=1.0)


def spec(h=H2, coupling=LOWER, n_steps=3):
    return CollisionSpec(h_sys=h, coupling=coupling, dt=0.1, n_steps=n_steps, d_anc=2, g=1.0)


def field(kind="vacuum", **keys):
    doc = dict(kind=kind, gamma=1.0, t_final=1.0, n_steps=10, h_sys=H2, coupling=LOWER,
               rho0=EXCITED, envelope=GAUSSIAN if kind == "single_photon" else None)
    return FieldConfig(**dict(doc, **keys))


def row(n):
    return ConvergenceRow(n_steps=n, dt=1.0 / n, state_errors=np.zeros(n + 1),
                          endpoint_observable_error=0.0)


GENERATOR = LindbladGenerator(h_eff=H2, jumps=((LOWER, 1.0),))
TABLE_GENERATOR = LindbladGenerator(H2, ((LOWER, 1.0),), h_table=np.zeros((2, 2, 2)),
                                    step_duration=0.5)
H17 = Operator(np.zeros((17, 17)), (17,))
VACUUM_BATH = product_bath(fock_dm(2, 0), 3)
PHOTON_BATH = single_photon_bath([0.6, 0.8], 2)
RAW_OBSERVABLE = {"z": np.diag([1.0, -1.0])}  # an array, not an Operator
QUTRIT_OBSERVABLE = {"n": Operator(np.diag([0.0, 1.0, 2.0]), (3,))}


def bath(kind=PRODUCT, **keys):
    doc = dict(d=2, n_steps=1, **(dict(etas=KET) if kind == PRODUCT else dict(phi=[1.0])))
    return BathSpec(kind=kind, **dict(doc, **keys))


def not_integer(what, value):
    return rf"{what} must be an integer, got {value}"

CASES = {
    "bath_kind": (lambda: BathSpec(kind="thermal", d=2, n_steps=1, etas=KET),
                  "unknown bath kind 'thermal'"),
    "bath_no_steps": (lambda: BathSpec(kind=PRODUCT, d=2, n_steps=0, etas=KET),
                      "bath must cover at least one step"),
    "correlated_ancilla_after_last_step": (
        lambda: single_photon_bath([0.6, 0.8], 2).ancilla_state(3), r"step 3 outside 1\.\.2"),
    "coherent_no_steps": (lambda: coherent_bath(1.0, 0.0, 0.1, 0, 4),
                          "step count must be >= 1"),
    "coherent_truncation_1": (lambda: coherent_bath(1.0, 0.0, 0.1, 5, 1),
                              "truncation dimension must be >= 2, got 1"),
    "photon_no_steps": (lambda: single_photon_bath([1.0], 0), "step count must be >= 1"),
    "photon_wrong_length": (lambda: single_photon_bath([0.6, 0.8], 3),
                            r"envelope must supply 3 amplitudes, got shape \(2,\)"),
    "spec_negative_steps": (lambda: spec(n_steps=-1), "n_steps must be >= 0"),
    "spec_mismatched_spaces": (lambda: spec(coupling=Operator(np.zeros((3, 3)), (3,))),
                               "h_sys and coupling act on different spaces"),
    "step_map_step_0": (lambda: step_map_superoperator(spec(), VACUUM_BATH, 0),
                        r"step 0 outside 1\.\.3"),
    "step_map_system_17": (lambda: step_map_superoperator(spec(H17, H17), VACUUM_BATH, 1),
                           "system dimension 17 too large for a step map"),
    "generator_jump_space": (lambda: LindbladGenerator(h_eff=H2, jumps=((H3, 1.0),)),
                             "jump operator on wrong space"),
    "shift_ancilla_dims": (lambda: effective_hamiltonian(Operator(np.eye(4), (2, 2)), RHO3),
                           r"interaction dims \(2, 2\) do not end with ancilla dims \(3,\)"),
    "apply_generator_space": (lambda: apply_generator(GENERATOR, RHO3),
                              "generator and state act on different spaces"),
    "integrate_me_space": (lambda: integrate_me(GENERATOR, RHO3, 1.0, 10),
                           "generator and state act on different spaces"),
    "operator_sum_spaces": (lambda: H2 + H3,
                            r"operators act on different spaces: \(2,\) vs \(3,\)"),
    "pure_state_no_dims": (lambda: PureState(np.array([1.0]), ()),
                           "dims must be a non-empty list of dimensions >= 1"),
    "pure_state_length": (lambda: PureState(np.array([1.0, 0.0, 0.0]), (2,)),
                          r"amplitude vector of length 3 incompatible with dims \(2,\)"),
    "fock_index_d": (lambda: fock(3, 3), "Fock index 3 outside truncation 3"),
    "field_kind": (lambda: field(kind="thermal"), "unknown field kind 'thermal'"),
    "field_no_steps": (lambda: field(n_steps=0), "n_steps must be >= 1"),
    "photon_field_d_anc_3": (lambda: field(kind="single_photon", d_anc=3),
                             r"single-photon ancillas are qubits \(d_anc = 2\)"),
    "field_mismatched_spaces": (lambda: field(rho0=RHO3),
                                "system operators and initial state on mismatched spaces"),
    "report_unsorted": (lambda: ConvergenceReport(rows=(row(20), row(10)), slope=-1.0),
                        "convergence rows must be sorted by N ascending"),
    "decay_on_coherent": (lambda: spontaneous_emission_run(field(kind="coherent", z=1.0)),
                          "spontaneous_emission_run needs a vacuum configuration"),
    "bloch_on_vacuum": (lambda: bloch_run(field()), "bloch_run needs a coherent configuration"),
    "photon_on_vacuum": (lambda: single_photon_run(field()),
                         "single_photon_run needs a single-photon configuration"),
    "convergence_on_photon": (lambda: convergence_study(field(kind="single_photon"), [10, 20, 40]),
                              "no Lindblad reference exists for single-photon fields"),
    # a count, a dimension or a step is an integer, never truncated or used as an index
    "unitary_step_1.5": (lambda: collision_unitary(spec(), 1.5), not_integer("step", 1.5)),
    "step_map_choi_step_1.5": (lambda: step_map_choi(spec(), VACUUM_BATH, 1.5),
                               not_integer("step", 1.5)),
    "bath_factor_step_1.5": (lambda: VACUUM_BATH.factor(1.5), not_integer("step", 1.5)),
    "photon_ancilla_step_1.5": (lambda: PHOTON_BATH.ancilla_state(1.5), not_integer("step", 1.5)),
    "convergence_step_count_20.5": (lambda: convergence_study(field(), [10, 20.5, 40]),
                                    not_integer("step count", 20.5)),
    "partial_trace_keep_0.5": (lambda: partial_trace(EXCITED, [0.5]),
                               not_integer("keep index", 0.5)),
    "operator_dims_2.7": (lambda: Operator(np.eye(2), (2.7,)), not_integer("dimension", 2.7)),
    "pure_state_dims_2.9": (lambda: PureState(np.array([1.0, 0.0]), (2.9,)),
                            not_integer("dimension", 2.9)),
    "fock_index_1.0": (lambda: fock(2, 1.0), not_integer("Fock index", 1.0)),
    "fock_index_true": (lambda: fock(2, True), not_integer("Fock index", True)),
    "fock_truncation_2.0": (lambda: fock(2.0, 1), not_integer("truncation dimension", 2.0)),
    "spec_steps_2.5": (lambda: run_product(spec(n_steps=2.5), VACUUM_BATH, EXCITED),
                       not_integer("n_steps", 2.5)),
    "spec_d_anc_2.0": (lambda: CollisionSpec(h_sys=H2, coupling=LOWER, dt=0.1, n_steps=3,
                                             d_anc=2.0, g=1.0), not_integer("d_anc", 2.0)),
    "bath_d_2.0": (lambda: bath(d=2.0), not_integer("d", 2.0)),
    "bath_steps_1.5": (lambda: bath(CORRELATED_PURE, n_steps=1.5), not_integer("n_steps", 1.5)),
    "field_steps_10.5": (lambda: field(n_steps=10.5), not_integer("n_steps", 10.5)),
    "field_d_anc_4.5": (lambda: field(kind="coherent", z=1.0, d_anc=4.5),
                        not_integer("d_anc", 4.5)),
    "photon_bath_steps_2.5": (lambda: single_photon_bath(lambda k: 1.0, 2.5),
                              not_integer("step count", 2.5)),
    "integrate_me_substeps_2.5": (lambda: integrate_me(GENERATOR, EXCITED, 1.0, 2.5),
                                  not_integer("n_substeps", 2.5)),
    "truncation_fidelity_d_2.5": (lambda: truncation_fidelity(0.5, 2.5),
                                  not_integer("truncation dimension", 2.5)),
    "truncation_fidelity_d_0": (lambda: truncation_fidelity(0.5, 0),
                                "truncation dimension must be >= 1, got 0"),
    "identity_dims_2.5": (lambda: identity(2.5), not_integer("dimension", 2.5)),
    # a generator's inputs fail where they enter, never later in a run
    "generator_infinite_rate": (lambda: LindbladGenerator(H2, ((LOWER, math.inf),)),
                                "jump rate must be >= 0 and finite, got inf"),
    "generator_step_duration_without_table": (
        lambda: LindbladGenerator(H2, ((LOWER, 1.0),), step_duration=0.5),
        "step_duration must be positive, with an h_table, got 0.5"),
    "generator_table_not_h_eff": (
        lambda: LindbladGenerator(H2, (), np.ones((2, 2, 2)), 0.5),
        "h_table does not start with h_eff"),
    "generator_table_without_space": (
        lambda: LindbladGenerator(h_table=np.zeros((2, 2, 2)), step_duration=0.5),
        r"a generator needs h_eff, or h_table and a jump Operator"),
    "generator_raw_h_eff": (lambda: LindbladGenerator(np.zeros((2, 2)), ((LOWER, 1.0),)),
                            "h_eff must be an Operator"),
    "generator_raw_jump_matrix": (lambda: LindbladGenerator(H2, ((np.zeros((2, 2)), 1.0),)),
                                  r"jump of shape \(2, 2\) is not N x \(2, 2\)"),
    "generator_jump_rows": (lambda: LindbladGenerator(H2, ((np.zeros((3, 2, 2)), 1.0),)),
                            "a jump stack needs one row per table row, got 3"),
    "generator_jump_not_pair": (lambda: LindbladGenerator(H2, (LOWER,)),
                                r"jumps must be \(operator, rate\) pairs"),
    "apply_generator_time_inf": (lambda: apply_generator(TABLE_GENERATOR, EXCITED, math.inf),
                                 "generator time must be >= 0 and finite, got inf"),
    "integrate_me_horizon_inf": (lambda: integrate_me(TABLE_GENERATOR, EXCITED, math.inf, 10),
                                 "t_final must be positive and finite"),
    "jump_operators_gamma_-1": (
        lambda: jump_operators(interaction_operator(spec()), fock_dm(2, 0), gamma=-1.0),
        "jump rate must be >= 0 and finite, got -1.0"),
    "jump_operators_gamma_nan": (
        lambda: jump_operators(interaction_operator(spec()), fock_dm(2, 0), gamma=math.nan),
        "jump rate must be >= 0 and finite, got nan"),
    # a bath keeps no field that its kind does not read
    "bath_eta_joint": (lambda: bath(eta="junk", joint=123), "a product bath takes no eta, joint"),
    "product_bath_phi": (lambda: bath(phi=[1.0]), "a product bath takes no phi"),
    "photon_bath_etas": (lambda: bath(CORRELATED_PURE, etas=KET),
                         "a correlated_pure bath takes no etas"),
    "photon_bath_xi": (lambda: bath(CORRELATED_PURE, xi=[0.1]),
                       "a correlated_pure bath takes no xi"),
    "bath_xi_length": (lambda: bath(xi=[1, 2, 3]),
                       r"need one xi per ancilla state \(1\), got shape \(3,\)"),
    # an observable on another space fails before any step runs
    "run_product_qutrit_observable": (
        lambda: run_product(spec(), VACUUM_BATH, EXCITED, QUTRIT_OBSERVABLE),
        r"observable 'n' is not an operator on dims \(2,\)"),
    "run_product_raw_observable": (
        lambda: run_product(spec(), VACUUM_BATH, EXCITED, RAW_OBSERVABLE),
        r"observable 'z' is not an operator on dims \(2,\)"),
    "run_correlated_qutrit_observable": (
        lambda: run_correlated(spec(n_steps=2), PHOTON_BATH, EXCITED, QUTRIT_OBSERVABLE),
        r"observable 'n' is not an operator on dims \(2,\)"),
    "integrate_me_raw_observable": (
        lambda: integrate_me(GENERATOR, EXCITED, 1.0, 10, RAW_OBSERVABLE),
        r"observable 'z' is not an operator on dims \(2,\)"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_invalid_input_raises_its_validation_error(case):
    call, message = CASES[case]
    with pytest.raises(ValidationError, match=message):
        call()
