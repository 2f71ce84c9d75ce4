"""Span tracing of collisim's layers, from outside the package.

`instrument` temporarily replaces the public functions through which the
modules call each other (module attributes, plus the `DensityMatrix`
validation hook) with wrappers that record one span per call: name,
parent span, start and end.  Nothing under `src/` is modified; a target
that a later version of the package no longer has is skipped and listed
in `Tracer.missing`.

A name re-entered while already active (a bath builder that calls
another) records no second span, so layer totals never count time twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

# (name, unit, better, which end-to-end metric it should move, on which workload)
LAYER_METRICS = (
    ("lindblad.me.s", "s", "lower", "run_s on vacuum_decay and bloch_drive; zero on photon_memory"),
    ("lindblad.me.substeps", "count", "lower", "run_s on vacuum_decay and bloch_drive"),
    ("lindblad.me.substep_us", "us", "lower", "run_s on vacuum_decay and bloch_drive"),
    ("lindblad.me.useful_ratio", "ratio", "higher", "run_s on vacuum_decay and bloch_drive"),
    ("lindblad.generator.s", "s", "lower", "run_s on bloch_drive, then vacuum_decay"),
    ("bath.build.s", "s", "lower", "run_s on bloch_drive; ~0 on vacuum_decay"),
    ("bath.build.bytes", "bytes", "lower", "peak_rss_mib and run_s on bloch_drive"),
    ("collision.product.s", "s", "lower", "run_s on bloch_drive and vacuum_decay"),
    ("collision.product.steps", "count", "lower", "run_s on bloch_drive and vacuum_decay"),
    ("collision.product.step_us", "us", "lower", "run_s on bloch_drive and vacuum_decay"),
    ("collision.unitary.calls", "count", "lower", "run_s on bloch_drive (4,001) and vacuum_decay (1)"),
    ("collision.unitary.s", "s", "lower", "run_s on bloch_drive"),
    ("collision.correlated.s", "s", "lower", "run_s on photon_memory only"),
    ("collision.correlated.steps", "count", "lower", "run_s on photon_memory only"),
    ("collision.correlated.step_us", "us", "lower", "run_s on photon_memory only"),
    ("collision.correlated.joint_bytes", "bytes", "lower", "peak_rss_mib on photon_memory only"),
    ("qcore.expm.calls", "count", "lower", "run_s on bloch_drive, then vacuum_decay"),
    ("qcore.expm.s", "s", "lower", "run_s on bloch_drive, then vacuum_decay"),
    ("qcore.state_checks.calls", "count", "lower", "run_s on bloch_drive, then vacuum_decay"),
    ("qcore.state_checks.s", "s", "lower", "run_s on bloch_drive, then vacuum_decay"),
    ("qcore.trace_distance.calls", "count", "lower", "run_s on bloch_drive, then vacuum_decay"),
    ("qcore.trace_distance.s", "s", "lower", "run_s on bloch_drive, then vacuum_decay"),
    ("scenarios.witness.s", "s", "lower", "run_s on bloch_drive"),
    ("scenarios.self_s", "s", "lower", "run_s on bloch_drive"),
    ("cli.parse.s", "s", "lower", "setup_s on all workloads"),
    ("cli.run.self_s", "s", "lower", "run_s on bloch_drive (JSON) versus vacuum_decay (CSV)"),
    ("cli.artifact_bytes", "bytes", "lower", "run_s on bloch_drive (JSON) versus vacuum_decay (CSV)"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced run_s"),
)


class Tracer:
    """In-memory span log of one or more traced calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, parent index or -1, start_ns, end_ns]
        self.sums: Counter = Counter()
        self.peaks: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: set[str] = set()

    def wrap(self, name, fn, count=None):
        spans, stack, active = self.spans, self._stack, self._active
        signature = inspect.signature(fn) if count else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            active.add(name)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                active.discard(name)
            if count:
                count(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.sums.clear()
        self.peaks.clear()


def _bath_bytes(tracer, args, bath):
    arrays = [bath.eta.data if bath.eta is not None else None, bath.phi, bath.xi]
    arrays += [eta.data for eta in bath.etas or ()]
    if bath.joint is not None:
        arrays.append(bath.joint.amplitudes)
    tracer.sums["bath.build.bytes"] += sum(a.nbytes for a in arrays if a is not None)


def _me_counts(tracer, args, _result):
    tracer.sums["lindblad.me.substeps"] += args["n_substeps"]


def _product_counts(tracer, args, _result):
    tracer.sums["collision.product.steps"] += args["spec"].n_steps


def _correlated_counts(tracer, args, _result):
    spec, bath = args["spec"], args["bath"]
    tracer.sums["collision.correlated.steps"] += spec.n_steps
    joint_dim = args["rho0"].side * bath.d**bath.n_steps
    tracer.peaks["collision.correlated.joint_bytes"] = max(
        tracer.peaks["collision.correlated.joint_bytes"], 16 * joint_dim**2)


# (module, attribute path, span name, counter callback)
TARGETS = (
    ("collisim.cli", "parse_config", "cli.parse", None),
    ("collisim.cli", "run", "cli.run", None),
    ("collisim.scenarios", "spontaneous_emission_run", "scenarios.run", None),
    ("collisim.scenarios", "bloch_run", "scenarios.run", None),
    ("collisim.scenarios", "single_photon_run", "scenarios.run", None),
    ("collisim.scenarios", "trace_distance_series", "scenarios.witness", None),
    ("collisim.scenarios", "_driven_me_generator", "lindblad.generator", None),
    ("collisim.lindblad", "generator_from_collision", "lindblad.generator", None),
    ("collisim.lindblad", "integrate_me", "lindblad.me", _me_counts),
    ("collisim.bath", "product_bath", "bath.build", _bath_bytes),
    ("collisim.bath", "coherent_bath", "bath.build", _bath_bytes),
    ("collisim.bath", "single_photon_bath", "bath.build", _bath_bytes),
    ("collisim.collision", "run_product", "collision.product", _product_counts),
    ("collisim.collision", "run_correlated", "collision.correlated", _correlated_counts),
    ("collisim.collision", "collision_unitary", "collision.unitary", None),
    ("collisim.qcore", "expm", "qcore.expm", None),
    ("collisim.qcore", "DensityMatrix.__post_init__", "qcore.state_checks", None),
    ("collisim.qcore", "trace_distance", "qcore.trace_distance", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    restore = []
    tracer.missing.clear()
    try:
        for module_name, path, name, count in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                tracer.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, tracer.wrap(name, original, count))
            restore.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def span_table(tracer: Tracer) -> tuple[dict, dict, Counter, int]:
    """Per-name total and self seconds, call counts, and nesting violations.

    A violation is a span whose children together last longer than it does.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls: Counter = Counter()
    violations = 0
    for i, (name, _parent, start, end) in enumerate(spans):
        duration = end - start
        violations += child_ns[i] > duration
        total[name] += duration * 1e-9
        self_s[name] += (duration - child_ns[i]) * 1e-9
        calls[name] += 1
    return total, self_s, calls, violations


def layer_metrics(tracer: Tracer, kept_points: int, artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of the traced calls logged since the last reset.

    `kept_points` is the number of grid points the artifact reports, which
    is what the master-equation substeps are subsampled to.
    """
    total, self_s, calls, _ = span_table(tracer)
    sums, peaks = tracer.sums, tracer.peaks

    def per_step_us(seconds, steps):
        return 1e6 * seconds / steps if steps else 0.0

    substeps = sums["lindblad.me.substeps"]
    out = {
        "lindblad.me.s": total["lindblad.me"],
        "lindblad.me.substeps": substeps,
        "lindblad.me.substep_us": per_step_us(total["lindblad.me"], substeps),
        "lindblad.me.useful_ratio": kept_points / substeps if substeps else 0.0,
        "lindblad.generator.s": total["lindblad.generator"],
        "bath.build.s": total["bath.build"],
        "bath.build.bytes": sums["bath.build.bytes"],
        "collision.product.s": total["collision.product"],
        "collision.product.steps": sums["collision.product.steps"],
        "collision.product.step_us": per_step_us(total["collision.product"],
                                                 sums["collision.product.steps"]),
        "collision.unitary.calls": calls["collision.unitary"],
        "collision.unitary.s": total["collision.unitary"],
        "collision.correlated.s": total["collision.correlated"],
        "collision.correlated.steps": sums["collision.correlated.steps"],
        "collision.correlated.step_us": per_step_us(total["collision.correlated"],
                                                    sums["collision.correlated.steps"]),
        "collision.correlated.joint_bytes": peaks["collision.correlated.joint_bytes"],
        "qcore.expm.calls": calls["qcore.expm"],
        "qcore.expm.s": total["qcore.expm"],
        "qcore.state_checks.calls": calls["qcore.state_checks"],
        "qcore.state_checks.s": total["qcore.state_checks"],
        "qcore.trace_distance.calls": calls["qcore.trace_distance"],
        "qcore.trace_distance.s": total["qcore.trace_distance"],
        "scenarios.witness.s": total["scenarios.witness"],
        "scenarios.self_s": self_s["scenarios.run"],
        "cli.parse.s": total["cli.parse"],
        "cli.run.self_s": self_s["cli.run"],
        "cli.artifact_bytes": artifact_bytes,
    }
    return {key: float(value) for key, value in out.items()}
