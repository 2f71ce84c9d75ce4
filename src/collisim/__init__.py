"""Collision-model simulation of open quantum systems.

Discrete repeated-interaction dynamics, extraction of the emergent
Lindblad generator, a reference master-equation integrator, and the
standard quantum-optics scenarios built on top (vacuum decay, coherent
drive, single-photon wavepackets).
"""

__version__ = "0.1.0"

from .bath import BathSpec, coherent_bath, product_bath, single_photon_bath
from .collision import (
    CollisionSpec,
    Trajectory,
    choi_of_collision,
    collide_once,
    collision_unitary,
    run_correlated,
    run_product,
    step_map_choi,
)
from .errors import PropagationError, ValidationError
from .lindblad import (
    LindbladGenerator,
    apply_generator,
    effective_hamiltonian,
    generator_from_collision,
    integrate_me,
    jump_operators,
)
from .qcore import (
    DensityMatrix,
    Operator,
    PureState,
    annihilator,
    displacement,
    expm,
    fock,
    fock_dm,
    identity,
    partial_trace,
    tensor,
    trace_distance,
    truncation_fidelity,
)
from .scenarios import (
    ConvergenceReport,
    FieldConfig,
    GaussianEnvelope,
    MemoryWitnessReport,
    TabulatedSpectrum,
    bloch_run,
    convergence_study,
    default_emitter,
    discretize_input_output,
    single_photon_run,
    spontaneous_emission_run,
    trace_distance_series,
)

__all__ = [
    "__version__",
    "BathSpec",
    "CollisionSpec",
    "ConvergenceReport",
    "DensityMatrix",
    "FieldConfig",
    "GaussianEnvelope",
    "LindbladGenerator",
    "MemoryWitnessReport",
    "Operator",
    "PropagationError",
    "PureState",
    "TabulatedSpectrum",
    "Trajectory",
    "ValidationError",
    "annihilator",
    "apply_generator",
    "bloch_run",
    "choi_of_collision",
    "coherent_bath",
    "collide_once",
    "collision_unitary",
    "convergence_study",
    "default_emitter",
    "discretize_input_output",
    "displacement",
    "effective_hamiltonian",
    "expm",
    "fock",
    "fock_dm",
    "generator_from_collision",
    "identity",
    "integrate_me",
    "jump_operators",
    "partial_trace",
    "product_bath",
    "run_correlated",
    "run_product",
    "single_photon_bath",
    "single_photon_run",
    "spontaneous_emission_run",
    "step_map_choi",
    "tensor",
    "trace_distance",
    "trace_distance_series",
    "truncation_fidelity",
]
