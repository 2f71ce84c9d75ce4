"""Construction of the ancilla stream the system collides with.

Three bath families are supported: a homogeneous product bath (one state
shared by every ancilla), a step-dependent product bath of displaced vacua
(coherent input field), and a correlated pure bath carrying exactly one
excitation spread over all ancillas (single-photon input field).  The
step-dependent states are one read-only (N, d, d) stack, checked once; the
correlated bath is held as its N amplitudes, never as a 2^N joint state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import qcore
from .errors import ValidationError
from .qcore import DensityMatrix, Operator

PRODUCT = "product"
PRODUCT_STEP_DEPENDENT = "product_step_dependent"
CORRELATED_PURE = "correlated_pure"

SINGLE_EXCITATION_NORM_TOL = 1e-9

Envelope = Union[Sequence[complex], np.ndarray, Callable[[int], complex]]


@dataclass(frozen=True, eq=False)
class BathSpec:
    """Per-step description of the ancilla stream.

    ``eta`` holds the shared state for the homogeneous product kind,
    ``etas`` the per-step states for the step-dependent kind, and ``phi``
    the amplitudes of the joint state sum_k phi_k |1_k> for the correlated
    kind.  ``etas`` is given as one (N, d, d) stack, checked once and kept
    as a tuple of its read-only rows.
    """

    kind: str
    d: int
    n_steps: int
    eta: DensityMatrix | None = None
    etas: tuple[np.ndarray, ...] | None = None
    joint: None = None  # always None; bench/tracer.py still reads it
    phi: np.ndarray | None = None
    xi: np.ndarray | None = None
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (PRODUCT, PRODUCT_STEP_DEPENDENT, CORRELATED_PURE):
            raise ValidationError(f"unknown bath kind {self.kind!r}")
        if self.n_steps < 1:
            raise ValidationError("bath must cover at least one step")
        if self.kind == PRODUCT:
            if self.eta is None or self.eta.side != self.d:
                raise ValidationError("product bath needs a shared ancilla state of side d")
        elif self.kind == PRODUCT_STEP_DEPENDENT:
            stack = qcore.checked_stack(self.etas, self.d, "ancilla state")
            if len(stack) != self.n_steps:
                raise ValidationError(f"bath needs {self.n_steps} ancilla states, got {len(stack)}")
            object.__setattr__(self, "etas", tuple(stack))
        else:
            if self.phi is None or self.d != 2:
                raise ValidationError("correlated bath needs qubit amplitudes")
            norm_sq = float(np.sum(np.abs(self.phi) ** 2))
            if not abs(norm_sq - 1.0) <= SINGLE_EXCITATION_NORM_TOL:
                raise ValidationError(
                    f"single-excitation amplitudes have norm^2 {norm_sq}, expected 1"
                )

    def ancilla_state(self, step: int) -> DensityMatrix:
        """State (marginal, for the correlated kind) of the ancilla met at `step` (1-based)."""
        if not 1 <= step <= self.n_steps:
            raise ValidationError(f"step {step} outside 1..{self.n_steps}")
        if self.kind == PRODUCT:
            return self.eta
        if self.kind == PRODUCT_STEP_DEPENDENT:
            return DensityMatrix(Operator(self.etas[step - 1], (self.d,)))
        p = float(np.abs(self.phi[step - 1]) ** 2)
        return DensityMatrix(Operator(np.diag([1.0 - p, p]).astype(complex), (2,)))


def product_bath(eta: DensityMatrix, n: int) -> BathSpec:
    """Homogeneous product bath: every ancilla starts in ``eta``."""
    if n < 1:
        raise ValidationError("step count must be >= 1")
    return BathSpec(kind=PRODUCT, d=eta.side, n_steps=n, eta=eta)


def coherent_bath(z: complex, omega: float, dt: float, n: int, d: int) -> BathSpec:
    """Step-dependent product bath of displaced vacua for a coherent input field.

    The ancilla met at step n is in the coherent state of amplitude
    xi_n = z e^{i omega t_n} sqrt(dt) / sqrt(2 pi), with t_n = n dt.
    """
    if n < 1:
        raise ValidationError("step count must be >= 1")
    if dt <= 0:
        raise ValidationError("step duration must be positive")
    if d < 2:
        raise ValidationError(f"truncation dimension must be >= 2, got {d}")
    if z == 0:
        return product_bath(qcore.fock_dm(d, 0), n)

    t = np.arange(1, n + 1) * dt
    xi = (z / math.sqrt(2.0 * math.pi)) * np.exp(1j * omega * t) * math.sqrt(dt)
    max_sq = float(np.max(np.abs(xi) ** 2))
    if max_sq >= d / 4.0:
        raise ValidationError(
            f"truncation guard: max |xi_n|^2 = {max_sq:.3e} >= d/4 = {d / 4.0}; "
            f"increase the ancilla dimension (need d > {4.0 * max_sq:.1f})"
        )

    # D(xi)|0> = diag(e^{i k theta}) exp(-i r H)|0> for xi = r e^{i theta}, H = i(a^dag - a): one
    # eigendecomposition serves all steps; columns are renormalized so round-off cannot build up
    a = qcore.annihilator(d).data
    lam, vecs = np.linalg.eigh(1j * (a.T - a))
    cols = vecs @ (np.exp(-1j * np.outer(lam, np.abs(xi))) * vecs[0].conj()[:, None])
    cols *= np.exp(1j * np.outer(np.arange(d), np.angle(xi)))
    cols /= np.linalg.norm(cols, axis=0)
    kets = np.ascontiguousarray(cols.T)
    etas = kets[:, :, None] * kets.conj()[:, None, :]  # |c_n><c_n|, one C-ordered (n, d, d) stack
    worst = qcore.truncation_fidelity(math.sqrt(max_sq), d)
    return BathSpec(
        kind=PRODUCT_STEP_DEPENDENT,
        d=d,
        n_steps=n,
        etas=etas,
        xi=xi,
        diagnostics={"truncation_fidelity": worst, "max_abs_xi": math.sqrt(max_sq)},
    )


def single_photon_bath(envelope: Envelope, n: int) -> BathSpec:
    """Correlated pure bath with one excitation shared by all n ancillas.

    ``envelope`` gives the per-step amplitudes phi_1..phi_n, either as a
    sequence or as a callable of the 1-based step index.  Amplitudes are
    renormalized to unit total weight; the applied factor is recorded in
    the diagnostics.  Each ancilla is a qubit (truncation d=2); the joint
    state sum_k phi_k |1_k> is kept as its n amplitudes, and runs propagate
    it in the one-excitation sector (``collision.run_correlated``).
    """
    if n < 1:
        raise ValidationError("step count must be >= 1")
    if callable(envelope):
        phi = np.asarray([envelope(step) for step in range(1, n + 1)], dtype=complex)
    else:
        phi = np.asarray(envelope, dtype=complex)
    if phi.shape != (n,):
        raise ValidationError(f"envelope must supply {n} amplitudes, got shape {phi.shape}")
    norm_sq = float(np.sum(np.abs(phi) ** 2))
    if not math.isfinite(norm_sq):
        raise ValidationError(f"envelope amplitudes must have a finite total weight, got {norm_sq}")
    if norm_sq == 0.0:
        raise ValidationError("envelope is identically zero")
    phi = phi / math.sqrt(norm_sq)
    return BathSpec(
        kind=CORRELATED_PURE,
        d=2,
        n_steps=n,
        phi=phi,
        diagnostics={"envelope_norm": norm_sq},
    )
