"""Input-output discretization and the reference quantum-optics scenarios.

A field configuration (decay rate, horizon, step count, field state) is
discretized into a collision specification plus matching bath: step
dt = t/N, coupling g = sqrt(gamma/dt), exchange interaction between the
system coupling operator and the step's input mode.  On top of that sit
the three field-state scenarios (vacuum decay, coherent drive, single
photon), a convergence study against exactly propagated master-equation
references, and a trace-distance memory witness.
"""

from __future__ import annotations

import functools
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
        if not self.width > 0:  # written so that NaN fails too, here and below
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
        if not (spacing[0] > 0 and np.max(np.abs(spacing - spacing[0])) <= 1e-9 * spacing[0]):
            raise ValidationError("omega grid must be uniform and increasing")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "amplitudes", amps)


Envelope = Union[GaussianEnvelope, TabulatedSpectrum]


@functools.cache
def default_emitter() -> tuple[Operator, Operator, DensityMatrix]:
    """Two-level emitter (H = 0, coupling sigma_-, excited start): built once, shared, immutable."""
    h = Operator(np.zeros((2, 2), dtype=complex), (2,))
    return h, qcore.annihilator(2), DensityMatrix(Operator(np.diag([0.0, 1.0]), (2,)))


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
        object.__setattr__(self, "n_steps", qcore.as_int(self.n_steps, "n_steps"))
        if self.d_anc is not None:
            object.__setattr__(self, "d_anc", qcore.as_int(self.d_anc, "d_anc"))
        if not self.gamma > 0:
            raise ValidationError("gamma must be positive")
        if not self.t_final > 0:
            raise ValidationError("t_final must be positive")
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        t_last = max(self.t_final, self.n_steps * self.dt)  # no step time a run forms is later
        if self.omega != 0 and not math.isfinite(self.omega * t_last):
            raise ValidationError(f"omega * t overflows: omega {self.omega:g} at t = "
                                  f"{float(t_last)!r}")
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
    # an overflow is a bin far outside the envelope, amplitude 0; single_photon_bath rejects an
    # envelope that is zero throughout, and non-finite sums.  A Gaussian's ((t - c) / 2w)^2 has
    # t - c and w = m 2^e scaled by 2^-e, which is exact: 4 m^2 cannot underflow, and the
    # quotient nearly always keeps the bits of (t - c)^2 / (4 w^2)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(env, GaussianEnvelope):
            m, e = math.frexp(env.width)
            x = np.ldexp(t - env.center, -e)
            return np.exp(-(x**2 / (4.0 * m**2))).astype(complex)
        d_omega = env.omegas[1] - env.omegas[0]
        phases = np.exp(-1j * np.outer(t, env.omegas))
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
    """Pointwise trace distance of two trajectories of one shape, by ``qcore.trace_distances``."""
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
    ``duration``, the last row from then on, so a one-row drive is static throughout."""
    return LindbladGenerator(jumps=((cfg.coupling, cfg.gamma),), h_table=drive,
                             step_duration=duration)


def bloch_run(cfg: FieldConfig) -> tuple[Trajectory, Trajectory, Trajectory]:
    """Coherent drive three ways: quantum CM, driven ME, semiclassical CM.

    (i) collisions with displaced-vacuum ancillas, (ii) master equation
    with the equivalent classical drive in the Hamiltonian and the bare
    decay jump, (iii) collisions with vacuum ancillas and the same drive
    folded into the system Hamiltonian, one per step unless omega = 0.
    """
    if cfg.kind != COHERENT:
        raise ValidationError("bloch_run needs a coherent configuration")
    spec, field_bath = discretize_input_output(cfg)
    obs = _excited_population(cfg)
    traj_quantum = coll.run_product(spec, field_bath, cfg.rho0, obs)

    times = np.arange(1, cfg.n_steps + 1 if cfg.omega != 0 else 2) * cfg.dt
    drive = _drive_hamiltonian(cfg, times)  # a static drive (omega = 0) is its first row alone
    gen = _driven_me_generator(cfg, drive, cfg.dt)
    traj_me = lind.integrate_me(gen, cfg.rho0, cfg.t_final, cfg.n_steps, obs)

    # as for the ME, a static drive (omega = 0) is one Hamiltonian: one unitary serves every step
    spec_semi = replace(spec, d_anc=2, h_sys=Operator(drive[0], cfg.h_sys.dims),
                        h_sys_table=None if cfg.omega == 0 else drive)
    vacuum = bath_mod.product_bath(qcore.fock_dm(2, 0), cfg.n_steps)
    traj_semi = coll.run_product(spec_semi, vacuum, cfg.rho0, obs)
    return traj_quantum, traj_me, traj_semi


def _distinguishable_pair(cfg: FieldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal pair maximizing initial trace distance: the projectors on the extreme
    eigenvectors of b^dag b, as raw matrices; a run checks them as its first states."""
    number_op = cfg.coupling.data.conj().T @ cfg.coupling.data
    _, vecs = np.linalg.eigh(number_op)
    lo, hi = vecs[:, 0], vecs[:, -1]
    return np.outer(hi, hi.conj()), np.outer(lo, lo.conj())


def single_photon_run(
    cfg: FieldConfig,
    rho_a: DensityMatrix | None = None,
    rho_b: DensityMatrix | None = None,
) -> tuple[Trajectory, Trajectory, MemoryWitnessReport]:
    """Single-photon field from two distinguishable starts, plus revival witness.  A start left
    out is the one of ``_distinguishable_pair``."""
    if cfg.kind != SINGLE_PHOTON:
        raise ValidationError("single_photon_run needs a single-photon configuration")
    spec, field_bath = discretize_input_output(cfg)
    for rho in (rho_a, rho_b):
        coll._check_bath(spec, field_bath, rho)
    starts = [default if rho is None else rho.data
              for rho, default in zip((rho_a, rho_b), _distinguishable_pair(cfg))]
    obs = _excited_population(cfg)
    # one run of the source and the system moves both starts; each keeps its own checked trajectory
    runs = coll._run(spec, field_bath, np.stack(starts), spec.n_steps)
    traj_a, traj_b = (coll._checked_trajectory(spec.dt, states, obs) for states in runs)
    dist = trace_distance_series(traj_a, traj_b)
    revivals = tuple(int(n) for n in np.flatnonzero(np.diff(dist) > REVIVAL_THRESHOLD))
    return traj_a, traj_b, MemoryWitnessReport(traj_a.times, dist, revivals, REVIVAL_THRESHOLD)


def step_counts(n_list: Sequence[int]) -> list[int]:
    """The step counts of a convergence study, ascending: at least 3, all distinct."""
    n_list = sorted(qcore.as_int(n, "step count") for n in n_list)
    if len(n_list) < 3 or len(set(n_list)) != len(n_list):
        raise ValidationError(f"need at least 3 distinct step counts, got {n_list}")
    return n_list


def convergence_study(
    cfg: FieldConfig, n_list: Sequence[int], fixed_g: float | None = None
) -> ConvergenceReport:
    """Error of the collision dynamics against an exactly propagated ME reference.

    Row N is compared, on its own time grid, against a reference of G substeps: G = max(n_list)
    where the drive moves (omega != 0) and N divides it, N otherwise, as a static generator is
    exact on any grid.  A moving drive is held over each substep at its midpoint value (the
    exponential midpoint rule, second order); a static one is one row, one propagator
    exp(L t / G).  Each G has one reference, formed for its first row and dropped after its
    last, so step counts that share no grid never form a common one.  With ``fixed_g`` the
    coupling is held constant instead of scaling as 1/sqrt(dt); the emergent dissipation then
    dies away with N and the error stops shrinking.
    """
    n_list = step_counts(n_list)
    if cfg.kind == SINGLE_PHOTON:
        raise ValidationError("no Lindblad reference exists for single-photon fields")

    obs = _excited_population(cfg)
    grids = [n if cfg.omega == 0 or n_list[-1] % n else n_list[-1] for n in n_list]
    references, rows = {}, []
    for i, (n, grid) in enumerate(zip(n_list, grids)):
        cfg_n = replace(cfg, n_steps=n)
        spec, field_bath = discretize_input_output(cfg_n)
        if fixed_g is not None:
            spec = replace(spec, g=fixed_g, gamma=None)
        traj = coll.run_product(spec, field_bath, cfg_n.rho0, obs)
        if grid not in references:
            h = cfg.t_final / grid
            drive = _drive_hamiltonian(cfg, (np.arange(grid if cfg.omega != 0 else 1) + 0.5) * h)
            gen = _driven_me_generator(cfg, drive, h)
            references[grid] = lind.integrate_me(gen, cfg.rho0, cfg.t_final, grid, obs)
        reference = references[grid] if grid in grids[i + 1:] else references.pop(grid)
        rows.append(_error_row(cfg_n, traj, reference.states[::grid // n], reference.observables))
    log_n = np.log([row.n_steps for row in rows])
    log_err = np.log([max(row.max_state_error, 1e-300) for row in rows])
    slope = float(np.polyfit(log_n, log_err, 1)[0])
    return ConvergenceReport(rows=tuple(rows), slope=slope)
