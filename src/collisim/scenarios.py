"""Input-output discretization and the reference quantum-optics scenarios.

A field configuration (decay rate, horizon, step count, field state) is
discretized into a collision specification plus matching bath: step
dt = t/N, coupling g = sqrt(gamma/dt), exchange interaction between the
system coupling operator and the step's input mode.  On top of that sit
the three field-state scenarios (vacuum decay, coherent drive, single
photon), a convergence study against a high-resolution master-equation
reference, and a trace-distance memory witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from . import bath as bath_mod
from . import collision as coll
from . import lindblad as lind
from . import qcore
from .bath import BathSpec
from .collision import CollisionSpec, Trajectory
from .errors import ValidationError
from .lindblad import LindbladGenerator
from .qcore import DensityMatrix, Operator

VACUUM = "vacuum"
COHERENT = "coherent"
SINGLE_PHOTON = "single_photon"

# The convergence reference samples a drive with omega != 0, which is genuinely
# time dependent, this many times more finely than the finest collision grid.
# It is not an accuracy knob; the ME is propagated exactly.
REFERENCE_DRIVE_REFINE = 10

DEFAULT_COHERENT_TRUNCATION = 8
REVIVAL_THRESHOLD = 1e-6


@dataclass(frozen=True)
class GaussianEnvelope:
    """Time-domain Gaussian photon envelope, amplitude exp(-(t-center)^2/(4 width^2)).

    The Fourier transform of a Gaussian spectrum is evaluated in closed
    form, so no quadrature is involved.
    """

    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValidationError("envelope width must be positive")


@dataclass(frozen=True, eq=False)
class TabulatedSpectrum:
    """Spectral amplitudes psi(omega) sampled on a uniform grid (midpoint rule)."""

    omegas: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if omegas.ndim != 1 or omegas.shape != amps.shape or omegas.size < 2:
            raise ValidationError("spectrum needs matching 1-d omega and amplitude arrays")
        spacing = np.diff(omegas)
        if np.any(spacing <= 0) or np.max(np.abs(spacing - spacing[0])) > 1e-9 * abs(spacing[0]):
            raise ValidationError("omega grid must be uniform and increasing")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "amplitudes", amps)


Envelope = Union[GaussianEnvelope, TabulatedSpectrum]


def default_emitter() -> tuple[Operator, Operator, DensityMatrix]:
    """Two-level emitter: no free Hamiltonian, lowering-operator coupling, excited start."""
    h = Operator(np.zeros((2, 2), dtype=complex), (2,))
    return h, qcore.annihilator(2), qcore.fock_dm(2, 1)


@dataclass(frozen=True, eq=False)
class FieldConfig:
    """One scenario's physical configuration."""

    kind: str
    gamma: float
    t_final: float
    n_steps: int
    h_sys: Operator
    coupling: Operator
    rho0: DensityMatrix
    z: complex = 0j
    omega: float = 0.0
    envelope: Envelope | None = None
    d_anc: int | None = None

    def __post_init__(self):
        if self.kind not in (VACUUM, COHERENT, SINGLE_PHOTON):
            raise ValidationError(f"unknown field kind {self.kind!r}")
        if self.gamma <= 0:
            raise ValidationError("gamma must be positive")
        if self.t_final <= 0:
            raise ValidationError("t_final must be positive")
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        if self.kind == SINGLE_PHOTON and self.envelope is None:
            raise ValidationError("single-photon configuration needs an envelope")
        if self.kind == SINGLE_PHOTON and self.d_anc not in (None, 2):
            raise ValidationError("single-photon ancillas are qubits (d_anc = 2)")
        if self.h_sys.dims != self.coupling.dims or self.rho0.dims != self.h_sys.dims:
            raise ValidationError("system operators and initial state on mismatched spaces")
        if not self.h_sys.is_hermitian():
            raise ValidationError("h_sys is not Hermitian")

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    @property
    def truncation(self) -> int:
        if self.d_anc is not None:
            return self.d_anc
        return DEFAULT_COHERENT_TRUNCATION if self.kind == COHERENT else 2


@dataclass(frozen=True, eq=False)
class ConvergenceRow:
    """Trace distance to the reference at every grid point, and endpoint population gap."""

    n_steps: int
    dt: float
    state_errors: np.ndarray
    endpoint_observable_error: float

    @property
    def max_state_error(self) -> float:
        return float(np.max(self.state_errors))


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    slope: float

    def __post_init__(self):
        ns = [row.n_steps for row in self.rows]
        if ns != sorted(ns):
            raise ValidationError("convergence rows must be sorted by N ascending")


@dataclass(frozen=True, eq=False)
class MemoryWitnessReport:
    """Trace-distance series between two evolutions plus flagged revivals.

    ``revival_steps`` lists the indices n for which the distance grows
    from t_n to t_{n+1} by more than the threshold; any entry witnesses
    information backflow (non-Markovianity).
    """

    times: np.ndarray
    distances: np.ndarray
    revival_steps: tuple[int, ...]
    threshold: float


def _single_photon_amplitudes(cfg: FieldConfig) -> np.ndarray:
    t = np.arange(1, cfg.n_steps + 1) * cfg.dt
    env = cfg.envelope
    if isinstance(env, GaussianEnvelope):
        return np.exp(-((t - env.center) ** 2) / (4.0 * env.width**2)).astype(complex)
    d_omega = env.omegas[1] - env.omegas[0]
    phases = np.exp(-1j * np.outer(t, env.omegas))
    with np.errstate(over="ignore", invalid="ignore"):  # single_photon_bath rejects non-finite sums
        return math.sqrt(cfg.dt) / math.sqrt(2.0 * math.pi) * d_omega * (phases @ env.amplitudes)


def discretize_input_output(cfg: FieldConfig) -> tuple[CollisionSpec, BathSpec]:
    """Collision spec and bath realizing the configured input field.

    Rate mode is used throughout, so the emergent dissipator rate equals
    gamma exactly for every step count.
    """
    spec = CollisionSpec(
        h_sys=cfg.h_sys,
        coupling=cfg.coupling,
        dt=cfg.dt,
        n_steps=cfg.n_steps,
        d_anc=cfg.truncation,
        gamma=cfg.gamma,
    )
    if cfg.kind == VACUUM:
        field_bath = bath_mod.product_bath(qcore.fock_dm(cfg.truncation, 0), cfg.n_steps)
    elif cfg.kind == COHERENT:
        field_bath = bath_mod.coherent_bath(cfg.z, cfg.omega, cfg.dt, cfg.n_steps, cfg.truncation)
    else:
        field_bath = bath_mod.single_photon_bath(_single_photon_amplitudes(cfg), cfg.n_steps)
    return spec, field_bath


def trace_distance_series(a: Trajectory, b: Trajectory) -> np.ndarray:
    """Pointwise trace distance between two trajectories on the same grid."""
    if len(a) != len(b):
        raise ValidationError("trajectories have different lengths")
    return qcore.trace_distances(a.states, b.states)


def _excited_population(cfg: FieldConfig) -> dict[str, Operator]:
    return {"excited_population": cfg.coupling.dag() @ cfg.coupling}


def spontaneous_emission_run(cfg: FieldConfig) -> tuple[Trajectory, Trajectory, ConvergenceRow]:
    """Vacuum-field decay: collision run vs. the emergent master equation.

    Both trajectories are returned on the collision grid together with a
    row recording their trace distance at every grid point and endpoint
    observable discrepancy.
    """
    if cfg.kind != VACUUM:
        raise ValidationError("spontaneous_emission_run needs a vacuum configuration")
    spec, field_bath = discretize_input_output(cfg)
    obs = _excited_population(cfg)
    traj_cm = coll.run_product(spec, field_bath, cfg.rho0, obs)
    gen = lind.generator_from_collision(spec, field_bath.ancilla_state(1))
    traj_me = lind.integrate_me(gen, cfg.rho0, cfg.t_final, cfg.n_steps, obs)
    return traj_cm, traj_me, _error_row(cfg, traj_cm, traj_me.states, traj_me.observables)


def _error_row(cfg: FieldConfig, traj: Trajectory, ref_states, ref_obs) -> ConvergenceRow:
    """Trace distances to the reference states and endpoint population gap."""
    pop = "excited_population"
    return ConvergenceRow(
        n_steps=cfg.n_steps,
        dt=cfg.dt,
        state_errors=qcore.trace_distances(traj.states, ref_states),
        endpoint_observable_error=float(np.abs(traj.observables[pop][-1] - ref_obs[pop][-1])),
    )


def _drive_hamiltonian(cfg: FieldConfig, times: np.ndarray) -> np.ndarray:
    """Semiclassical driving Hamiltonians matching the coherent field, one (d, d) per time."""
    amp = math.sqrt(cfg.gamma / (2.0 * math.pi)) * abs(cfg.z)
    phase = (cfg.omega * times + np.angle(cfg.z))[:, None, None]
    b = cfg.coupling.data
    return cfg.h_sys.data + amp * (np.exp(-1j * phase) * b + np.exp(1j * phase) * b.conj().T)


def _driven_me_generator(cfg: FieldConfig, drive: np.ndarray, duration: float) -> LindbladGenerator:
    """Decay plus the classical drive: row k of ``drive`` held over the k-th interval of
    ``duration``, or its first row throughout when omega = 0 makes the drive static."""
    h0, jumps = Operator(drive[0], cfg.h_sys.dims), ((cfg.coupling, cfg.gamma),)
    table = None if cfg.omega == 0 else drive
    return LindbladGenerator(h0, jumps, h_table=table, step_duration=duration)


def bloch_run(cfg: FieldConfig) -> tuple[Trajectory, Trajectory, Trajectory]:
    """Coherent drive three ways: quantum CM, driven ME, semiclassical CM.

    (i) collisions with displaced-vacuum ancillas, (ii) master equation
    with the equivalent classical drive in the Hamiltonian and the bare
    decay jump, (iii) collisions with vacuum ancillas and the same drive
    folded into a per-step system Hamiltonian.
    """
    if cfg.kind != COHERENT:
        raise ValidationError("bloch_run needs a coherent configuration")
    spec, field_bath = discretize_input_output(cfg)
    obs = _excited_population(cfg)
    traj_quantum = coll.run_product(spec, field_bath, cfg.rho0, obs)

    drive = _drive_hamiltonian(cfg, np.arange(1, cfg.n_steps + 1) * cfg.dt)
    gen = _driven_me_generator(cfg, drive, cfg.dt)
    traj_me = lind.integrate_me(gen, cfg.rho0, cfg.t_final, cfg.n_steps, obs)

    spec_semi = replace(spec, d_anc=2, h_sys_table=drive)
    vacuum = bath_mod.product_bath(qcore.fock_dm(2, 0), cfg.n_steps)
    traj_semi = coll.run_product(spec_semi, vacuum, cfg.rho0, obs)
    return traj_quantum, traj_me, traj_semi


def _distinguishable_pair(cfg: FieldConfig) -> tuple[DensityMatrix, DensityMatrix]:
    """Orthogonal pair maximizing initial trace distance: extreme eigenvectors of b^dag b."""
    number_op = cfg.coupling.data.conj().T @ cfg.coupling.data
    _, vecs = np.linalg.eigh(number_op)
    lo, hi = vecs[:, 0], vecs[:, -1]
    make = lambda v: DensityMatrix(Operator(np.outer(v, v.conj()), cfg.h_sys.dims))
    return make(hi), make(lo)


def single_photon_run(
    cfg: FieldConfig,
    rho_a: DensityMatrix | None = None,
    rho_b: DensityMatrix | None = None,
    revival_threshold: float = REVIVAL_THRESHOLD,
) -> tuple[Trajectory, Trajectory, MemoryWitnessReport]:
    """Single-photon field from two distinguishable starts, plus revival witness."""
    if cfg.kind != SINGLE_PHOTON:
        raise ValidationError("single_photon_run needs a single-photon configuration")
    spec, field_bath = discretize_input_output(cfg)
    if rho_a is None or rho_b is None:
        default_a, default_b = _distinguishable_pair(cfg)
        rho_a = rho_a if rho_a is not None else default_a
        rho_b = rho_b if rho_b is not None else default_b
    obs = _excited_population(cfg)
    traj_a = coll.run_correlated(spec, field_bath, rho_a, obs)
    traj_b = coll.run_correlated(spec, field_bath, rho_b, obs)
    dist = trace_distance_series(traj_a, traj_b)
    revivals = tuple(int(n) for n in np.flatnonzero(np.diff(dist) > revival_threshold))
    report = MemoryWitnessReport(
        times=traj_a.times,
        distances=dist,
        revival_steps=revivals,
        threshold=revival_threshold,
    )
    return traj_a, traj_b, report


def _reference_substeps(cfg: FieldConfig, n_list: Sequence[int]) -> int:
    # a static generator is exact on the common grid; a drive is resolved finer
    base = math.lcm(*n_list)
    refine = REFERENCE_DRIVE_REFINE if cfg.omega != 0 else 1
    return base * math.ceil(refine * max(n_list) / base)


def convergence_study(
    cfg: FieldConfig, n_list: Sequence[int], fixed_g: float | None = None
) -> ConvergenceReport:
    """Error of the collision dynamics against one high-resolution ME reference.

    For each step count N the collision run is compared, on its own time
    grid, against a single exactly propagated reference trajectory whose
    substep count is a common multiple of all the N; a drive with
    omega != 0 is sampled at least REFERENCE_DRIVE_REFINE times finer
    than the largest.  With ``fixed_g`` the coupling is held constant
    instead of scaling as 1/sqrt(dt); the emergent dissipation then dies
    away with N and the error stops shrinking.
    """
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 3:
        raise ValidationError("convergence study needs at least 3 step counts")
    if len(set(n_list)) != len(n_list):
        raise ValidationError("step counts must be distinct")
    if cfg.kind == SINGLE_PHOTON:
        raise ValidationError("no Lindblad reference exists for single-photon fields")

    substeps = _reference_substeps(cfg, n_list)
    h = cfg.t_final / substeps
    drive = _drive_hamiltonian(cfg, np.arange(1, substeps + 1) * h)
    gen = _driven_me_generator(cfg, drive, h)
    obs = _excited_population(cfg)
    reference = lind.integrate_me(gen, cfg.rho0, cfg.t_final, substeps, obs)

    rows = []
    for n in n_list:
        cfg_n = replace(cfg, n_steps=n)
        spec, field_bath = discretize_input_output(cfg_n)
        if fixed_g is not None:
            spec = replace(spec, g=fixed_g, gamma=None)
        traj = coll.run_product(spec, field_bath, cfg_n.rho0, obs)
        ref_states = reference.states[:: substeps // n]
        rows.append(_error_row(cfg_n, traj, ref_states, reference.observables))
    log_n = np.log([row.n_steps for row in rows])
    log_err = np.log([max(row.max_state_error, 1e-300) for row in rows])
    slope = float(np.polyfit(log_n, log_err, 1)[0])
    return ConvergenceReport(rows=tuple(rows), slope=slope)
