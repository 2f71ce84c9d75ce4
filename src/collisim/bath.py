"""Construction of the ancilla stream the system collides with.

Vacuum, thermal and coherent input fields give a product bath of uncorrelated
ancillas, each held as a Kraus factor F (d x r, eta = F F^dag): one shared by
every step, or one per step.  A coherent field's ancillas are displaced vacua,
held as kets (r = 1): a static field (omega = 0) is one ket for every step, and
only a moving one (omega != 0) stores one per step.  A single-photon field gives
a correlated pure bath carrying exactly one excitation spread over all ancillas,
held as its N amplitudes, never as a 2^N joint state; a run takes the ancillas not
yet met as a source qubit (Gough, James & Nurdin, Phil. Trans. R. Soc. A 370, 5408 (2012)).
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
CORRELATED_PURE = "correlated_pure"

SINGLE_EXCITATION_NORM_TOL = 1e-9

Envelope = Union[Sequence[complex], np.ndarray, Callable[[int], complex]]


@dataclass(frozen=True, eq=False)
class BathSpec:
    """Per-step description of the ancilla stream.

    ``etas`` holds the Kraus factors F_n, eta_n = F_n F_n^dag, of the product
    kind, given as an (M, d) stack of kets or an (M, d, r) stack of factors with
    M = 1 (one row serves every step, as for a static coherent field) or
    M = n_steps, checked once for finite Tr F F^dag = 1 and kept as a tuple of
    its read-only rows.  ``xi`` holds a coherent field's displacement amplitudes,
    one per row of ``etas``.  ``phi`` holds the n_steps amplitudes of the
    correlated kind's joint state sum_k phi_k |1_k>.
    """

    kind: str
    d: int
    n_steps: int
    eta: None = None  # always None, as is joint; only bench/tracer.py reads them
    etas: tuple[np.ndarray, ...] | None = None  # Kraus factors, or kets
    joint: None = None
    phi: np.ndarray | None = None
    xi: np.ndarray | None = None
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (PRODUCT, CORRELATED_PURE):
            raise ValidationError(f"unknown bath kind {self.kind!r}")
        for name in ("d", "n_steps"):
            object.__setattr__(self, name, qcore.as_int(getattr(self, name), name))
        unread = ("eta", "joint") + (("phi",) if self.kind == PRODUCT else ("etas", "xi"))
        given = [name for name in unread if getattr(self, name) is not None]
        if given:
            raise ValidationError(f"a {self.kind} bath takes no {', '.join(given)}")
        if self.n_steps < 1:
            raise ValidationError("bath must cover at least one step")
        if self.kind == PRODUCT:
            rows = qcore.checked_stack(self.etas, (self.d, None), "ancilla state",
                                       lambda fs: qcore.first_non_unit(fs.reshape(len(fs), -1)))
            if len(rows) not in (1, self.n_steps):
                raise ValidationError(f"need 1 or {self.n_steps} ancilla states, got {len(rows)}")
            if self.xi is not None and np.shape(self.xi) != (len(rows),):
                raise ValidationError(f"need one xi per ancilla state ({len(rows)}), "
                                      f"got shape {np.shape(self.xi)}")
            object.__setattr__(self, "etas", tuple(rows))
        else:
            phi = np.asarray(self.phi, dtype=complex)
            if self.d != 2 or phi.shape != (self.n_steps,):
                raise ValidationError(f"correlated bath needs {self.n_steps} qubit amplitudes, "
                                      f"got shape {phi.shape} at d = {self.d}")
            bad = qcore.first_non_unit(phi[None], SINGLE_EXCITATION_NORM_TOL)
            if bad is not None:
                raise ValidationError(f"single-excitation amplitudes: {bad[1]}")
            object.__setattr__(self, "phi", phi)

    def factor(self, step: int) -> np.ndarray:
        """F (d x r) of the product ancilla met at `step` (1-based); a one-row stack serves all."""
        step = qcore.as_step(step, self.n_steps)
        return self.etas[step - 1 if len(self.etas) > 1 else 0].reshape(self.d, -1)

    def ancilla_state(self, step: int) -> DensityMatrix:
        """State (marginal, for the correlated kind) of the ancilla met at `step` (1-based)."""
        if self.kind == PRODUCT:
            f = self.factor(step)
            return DensityMatrix(Operator(f @ f.conj().T, (self.d,)))
        step = qcore.as_step(step, self.n_steps)
        p = float(np.abs(self.phi[step - 1]) ** 2)
        return DensityMatrix(Operator(np.diag([1.0 - p, p]).astype(complex), (2,)))


def _factor(eta: np.ndarray) -> np.ndarray:
    """F (d x r), F F^dag = eta: sqrt(p) |e> per eigenvalue p above round-off, scaled to Tr eta."""
    p, e = np.linalg.eigh(eta)
    keep = p > len(p) * np.finfo(float).eps * p[-1]
    return e[:, keep] * np.sqrt(p[keep] * (np.trace(eta).real / p[keep].sum()))


def product_bath(eta: DensityMatrix, n: int) -> BathSpec:
    """Homogeneous product bath: every ancilla starts in ``eta``, factored once."""
    return BathSpec(kind=PRODUCT, d=eta.side, n_steps=n, etas=_factor(eta.data)[None])


def coherent_bath(z: complex, omega: float, dt: float, n: int, d: int) -> BathSpec:
    """Product bath of displaced vacua for a coherent input field.

    The ancilla met at step n is in the coherent state of amplitude
    xi_n = z e^{i omega t_n} sqrt(dt) / sqrt(2 pi), with t_n = n dt.  A field
    at the carrier (omega = 0) hands over the same ancilla at every step: one
    ket and one xi serve them all.  Otherwise there is one ket and one xi per step.
    """
    if n < 1:
        raise ValidationError("step count must be >= 1")
    if not dt > 0:  # NaN fails too
        raise ValidationError("step duration must be positive")
    if d < 2:
        raise ValidationError(f"truncation dimension must be >= 2, got {d}")
    if z == 0:
        return product_bath(qcore.fock_dm(d, 0), n)

    rows = n if omega != 0 else 1  # a static field is one ancilla for every step
    t = np.arange(1, rows + 1) * dt
    xi = (z / math.sqrt(2.0 * math.pi)) * np.exp(1j * omega * t) * math.sqrt(dt)
    with np.errstate(over="ignore"):  # a finite z near the largest double: inf, which fails
        max_sq = float(np.max(np.abs(xi) ** 2))
    if max_sq >= d / 4.0:
        raise ValidationError(
            f"truncation guard: max |xi_n|^2 = {max_sq:.3e} >= d/4 = {d / 4.0}; "
            f"increase the ancilla dimension (need d > {4.0 * max_sq:.1f})"
        )

    # D(xi)|0> = diag(e^{i k theta}) exp(-i r H)|0> for xi = r e^{i theta}, H = i(a^dag - a): one
    # eigendecomposition serves all kets; columns are renormalized so round-off cannot build up
    a = qcore.annihilator(d).data
    lam, vecs = np.linalg.eigh(1j * (a.T - a))
    cols = vecs @ (np.exp(-1j * np.outer(lam, np.abs(xi))) * vecs[0].conj()[:, None])
    cols *= np.exp(1j * np.outer(np.arange(d), np.angle(xi)))
    cols /= np.linalg.norm(cols, axis=0)
    worst = qcore.truncation_fidelity(math.sqrt(max_sq), d)
    return BathSpec(
        kind=PRODUCT,
        d=d,
        n_steps=n,
        etas=cols.T,
        xi=xi,
        diagnostics={"truncation_fidelity": worst, "max_abs_xi": math.sqrt(max_sq)},
    )


def single_photon_bath(envelope: Envelope, n: int) -> BathSpec:
    """Correlated pure bath with one excitation shared by all n ancillas.

    ``envelope`` gives the per-step amplitudes phi_1..phi_n, either as a
    sequence or as a callable of the 1-based step index.  Amplitudes are
    renormalized to unit total weight, which any finite amplitudes have
    once scaled by a power of two; the weight before is recorded in the
    diagnostics (inf where it overflows a double).  Each ancilla is a
    qubit (truncation d=2); the joint state sum_k phi_k |1_k> is kept as
    its n amplitudes, which a run hands out through a source qubit
    (``collision.run_correlated``).
    """
    n = qcore.as_int(n, "step count")
    if n < 1:
        raise ValidationError("step count must be >= 1")
    if callable(envelope):
        phi = np.asarray([envelope(step) for step in range(1, n + 1)], dtype=complex)
    else:
        phi = np.asarray(envelope, dtype=complex)
    if phi.shape != (n,):
        raise ValidationError(f"envelope must supply {n} amplitudes, got shape {phi.shape}")
    parts = np.ascontiguousarray(phi).view(np.float64)  # the real and imaginary parts
    peak = float(np.max(np.abs(parts)))
    if not math.isfinite(peak):
        raise ValidationError(f"envelope amplitudes must have a finite total weight, got {peak}")
    if peak == 0.0:
        raise ValidationError("envelope is identically zero")
    # scaled by 2**-e, e the binary exponent of the largest part, the weight neither overflows
    # nor underflows, and an ordinary envelope keeps its bits: powers of two scale exactly
    e = math.frexp(peak)[1]
    scaled = np.ldexp(parts, -e).view(complex)
    weight = float(np.sum(np.abs(scaled) ** 2))
    try:
        norm_sq = math.ldexp(weight, 2 * e)  # the unscaled weight
    except OverflowError:
        norm_sq = math.inf
    phi = scaled / math.sqrt(weight)
    return BathSpec(
        kind=CORRELATED_PURE,
        d=2,
        n_steps=n,
        phi=phi,
        diagnostics={"envelope_norm": norm_sq},
    )
