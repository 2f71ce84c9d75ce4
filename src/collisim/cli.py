"""Configuration ingestion, scenario dispatch, and result emission.

Configs are strict JSON documents (unknown keys are rejected); results are
written with the full config echoed for provenance, in a format named in
render.WRITERS (CSV or JSON), whose writer renders ROW_BLOCK rows at a time.
All runs are deterministic: identical configs produce byte-identical files.

Exit codes: 0 success, 1 configuration or filesystem problem (or a run whose
arrays cannot be allocated), 2 numeric or invariant failure during a run.  No
run has a size cap: a single-photon field runs as the system and one source
qubit, at a cost linear in the step count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from . import qcore, render, scenarios
from .errors import PropagationError, ValidationError
from .qcore import DensityMatrix, Operator
from .scenarios import FieldConfig, GaussianEnvelope, TabulatedSpectrum

SCENARIOS = ("spontaneous_emission", "bloch", "single_photon", "convergence")
MAX_ENTRIES = 2**59  # complex entries in an array of under 2^63 bytes, the most numpy indexes

_ALLOWED_KINDS = {  # the first kind of a scenario is its default
    "spontaneous_emission": (scenarios.VACUUM,),
    "bloch": (scenarios.COHERENT,),
    "single_photon": (scenarios.SINGLE_PHOTON,),
    "convergence": (scenarios.VACUUM, scenarios.COHERENT),
}


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


@dataclass(frozen=True, eq=False)
class RunConfig:
    scenario: str
    field: FieldConfig
    output: str
    out_path: str | None
    n_list: tuple[int, ...] | None
    fixed_g: float | None
    echo: dict


def _check_keys(doc: Mapping[str, Any], allowed: set[str], where: str) -> None:
    extra = sorted(set(doc) - allowed)
    if extra:
        raise ConfigError(f"unknown key(s) {extra} in {where}")


def _finite_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    if not abs(value) <= sys.float_info.max:  # compared exactly: float() overflows on huge ints
        raise ConfigError(f"{name} must be finite")
    return float(value)


def _positive_number(value: Any, name: str) -> float:
    out = _finite_number(value, name)
    if out <= 0:
        raise ConfigError(f"{name} must be positive")
    return out


def _positive_int(value: Any, name: str, low: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}")
    return value


def _complex_value(value: Any, name: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_finite_number(value, name), 0.0)
    if isinstance(value, dict):
        _check_keys(value, {"re", "im"}, name)
        if "re" not in value or "im" not in value:
            raise ConfigError(f"{name} must have both 're' and 'im'")
        return complex(_finite_number(value["re"], f"{name}.re"),
                       _finite_number(value["im"], f"{name}.im"))
    raise ConfigError(f"{name} must be a number or a {{re, im}} object")


def _matrix(value: Any, name: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty matrix (list of rows)")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise ConfigError(f"{name} must be square")
        rows.append([_complex_value(x, f"{name}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows, dtype=complex)


def _parse_envelope(doc: Any):
    if not isinstance(doc, dict):
        raise ConfigError("field.envelope must be an object")
    kind = doc.get("type")
    if kind == "gaussian":
        _check_keys(doc, {"type", "center", "width"}, "field.envelope")
        for key in ("center", "width"):
            if key not in doc:
                raise ConfigError(f"missing required key field.envelope.{key}")
        return GaussianEnvelope(
            center=_finite_number(doc["center"], "field.envelope.center"),
            width=_positive_number(doc["width"], "field.envelope.width"),
        )
    if kind == "tabulated":
        _check_keys(doc, {"type", "omega", "psi"}, "field.envelope")
        if not (isinstance(doc.get("omega"), list) and isinstance(doc.get("psi"), list)):
            raise ConfigError("field.envelope needs 'omega' and 'psi' arrays")
        omegas = [_finite_number(w, "field.envelope.omega") for w in doc["omega"]]
        psi = [_complex_value(p, "field.envelope.psi") for p in doc["psi"]]
        try:
            return TabulatedSpectrum(np.array(omegas), np.array(psi))
        except ValidationError as exc:
            raise ConfigError(f"field.envelope: {exc}") from exc
    raise ConfigError("field.envelope.type must be 'gaussian' or 'tabulated'")


def _parse_field(doc: Any, scenario: str) -> FieldConfig:
    if not isinstance(doc, dict):
        raise ConfigError("'field' must be an object")
    _check_keys(
        doc,
        {"kind", "gamma", "t_final", "n_steps", "d_anc", "z", "omega", "envelope", "system"},
        "field",
    )
    kind = doc.get("kind", _ALLOWED_KINDS[scenario][0])
    if kind not in (scenarios.VACUUM, scenarios.COHERENT, scenarios.SINGLE_PHOTON):
        raise ConfigError(f"field.kind must be one of vacuum, coherent, single_photon")
    if kind not in _ALLOWED_KINDS[scenario]:
        raise ConfigError(f"field.kind {kind!r} is not valid for scenario {scenario!r}")
    for key in ("gamma", "t_final", "n_steps"):
        if key not in doc:
            raise ConfigError(f"missing required key field.{key}")
    gamma = _positive_number(doc["gamma"], "gamma")
    t_final = _positive_number(doc["t_final"], "t_final")
    n_steps = _positive_int(doc["n_steps"], "n_steps")

    if kind != scenarios.COHERENT and ("z" in doc or "omega" in doc):
        raise ConfigError("'z' and 'omega' apply only to coherent fields")
    if kind == scenarios.SINGLE_PHOTON and "envelope" not in doc:
        raise ConfigError("single-photon fields need field.envelope")
    if kind != scenarios.SINGLE_PHOTON and "envelope" in doc:
        raise ConfigError("'envelope' applies only to single-photon fields")

    z = _complex_value(doc["z"], "field.z") if "z" in doc else 0j
    omega = _finite_number(doc.get("omega", 0.0), "field.omega")
    envelope = _parse_envelope(doc["envelope"]) if "envelope" in doc else None
    d_anc = _positive_int(doc["d_anc"], "d_anc", 2) if "d_anc" in doc else None

    if "system" in doc:
        sysdoc = doc["system"]
        if not isinstance(sysdoc, dict):
            raise ConfigError("field.system must be an object")
        _check_keys(sysdoc, {"h_sys", "coupling", "rho0"}, "field.system")
        for key in ("h_sys", "coupling", "rho0"):
            if key not in sysdoc:
                raise ConfigError(f"missing required key field.system.{key}")
        h_mat = _matrix(sysdoc["h_sys"], "field.system.h_sys")
        b_mat = _matrix(sysdoc["coupling"], "field.system.coupling")
        r_mat = _matrix(sysdoc["rho0"], "field.system.rho0")
        try:
            h_sys = Operator(h_mat, (h_mat.shape[0],))
            coupling = Operator(b_mat, (b_mat.shape[0],))
            rho0 = DensityMatrix(Operator(r_mat, (r_mat.shape[0],)))
        except ValidationError as exc:
            raise ConfigError(f"field.system: {exc}") from exc
    else:
        h_sys, coupling, rho0 = scenarios.default_emitter()

    try:
        return FieldConfig(
            kind=kind,
            gamma=gamma,
            t_final=t_final,
            n_steps=n_steps,
            h_sys=h_sys,
            coupling=coupling,
            rho0=rho0,
            z=z,
            omega=omega,
            envelope=envelope,
            d_anc=d_anc,
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def _check_size(field: FieldConfig, steps: int, name: str) -> None:
    """ConfigError unless numpy can index every array that a run of ``field`` over ``steps`` steps
    forms: the collision unitary, (d d_anc)^2 entries, and steps + 1 rows of 8 d^2 (a bound on
    a photon pass's step factors, 8, and its two starts' marginals, 2 d^2), d_anc (a moving
    coherent field's kets) or the tabulated envelope's grid length (its phases)."""
    d, d_anc = field.h_sys.side, field.truncation
    grid = len(field.envelope.omegas) if isinstance(field.envelope, TabulatedSpectrum) else 0
    if max((steps + 1) * max(8 * d * d, d_anc, grid), (d * d_anc) ** 2) >= MAX_ENTRIES:
        raise ConfigError(f"{name} with d_anc {d_anc} at system dimension {d}: a run would form "
                          "arrays too large for numpy to index")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document (strict mode)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ConfigError("malformed config: nested too deeply") from None
    except ValueError as exc:  # an integer literal of more digits than Python converts
        raise ConfigError(f"malformed config: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(doc, {"scenario", "field", "output", "out_path", "n_list", "fixed_g"}, "top level")

    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {', '.join(SCENARIOS)}")
    if "field" not in doc:
        raise ConfigError("missing required key 'field'")
    field = _parse_field(doc["field"], scenario)
    _check_size(field, field.n_steps, "n_steps")

    output = doc.get("output", "csv")
    if output not in render.WRITERS:
        raise ConfigError("output must be 'csv' or 'json'")
    out_path = doc.get("out_path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("out_path must be a string")

    n_list = fixed_g = None
    if scenario == "convergence":
        if "n_list" not in doc:
            raise ConfigError("convergence runs need 'n_list'")
        raw = doc["n_list"]
        if not isinstance(raw, list):
            raise ConfigError("n_list must be a list of step counts")
        n_list = tuple(_positive_int(n, "n_list entry") for n in raw)
        try:
            scenarios.step_counts(n_list)
        except ValidationError as exc:
            raise ConfigError(f"n_list: {exc}") from exc
        # every row's collision run and reference run on N or max(n_list) steps
        _check_size(field, max(n_list), "max(n_list)")
        try:  # each row runs the field at its own N, whose last step time may round past t_final
            for n in n_list:
                replace(field, n_steps=n)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        if "fixed_g" in doc:
            fixed_g = _positive_number(doc["fixed_g"], "fixed_g")
    else:
        if "n_list" in doc or "fixed_g" in doc:
            raise ConfigError("'n_list' and 'fixed_g' apply only to convergence runs")

    return RunConfig(
        scenario=scenario,
        field=field,
        output=output,
        out_path=out_path,
        n_list=n_list,
        fixed_g=fixed_g,
        echo=doc,
    )


# ---------------------------------------------------------------------------
# result emission
# ---------------------------------------------------------------------------

def _execute(cfg: RunConfig) -> tuple[list[tuple[str, Sequence]], dict]:
    """Run the scenario; return (columns, metadata)."""
    field = cfg.field
    meta = {"dt": field.dt, "n_steps": field.n_steps, "gamma": field.gamma}
    if cfg.scenario != "convergence":
        meta["g"] = math.sqrt(field.gamma / field.dt)
        meta["rate"] = field.gamma

    if cfg.scenario == "spontaneous_emission":
        traj_cm, traj_me, row = scenarios.spontaneous_emission_run(field)
        meta["max_state_error"] = row.max_state_error
        meta["endpoint_observable_error"] = row.endpoint_observable_error
        columns = [
            ("step", np.arange(len(traj_cm))),
            ("t", traj_cm.times),
            ("excited_population", traj_cm.observables["excited_population"]),
            ("trace_distance_cm_vs_me", row.state_errors),
        ]
        return columns, meta

    if cfg.scenario == "bloch":
        traj_q, traj_me, traj_semi = scenarios.bloch_run(field)
        d_q_me = scenarios.trace_distance_series(traj_q, traj_me)
        d_q_semi = scenarios.trace_distance_series(traj_q, traj_semi)
        d_me_semi = scenarios.trace_distance_series(traj_me, traj_semi)
        meta["max_pairwise_trace_distance"] = float(
            max(np.max(d_q_me), np.max(d_q_semi), np.max(d_me_semi))
        )
        max_xi = abs(field.z) * math.sqrt(field.dt / (2.0 * math.pi))
        meta["truncation_fidelity"] = qcore.truncation_fidelity(max_xi, field.truncation)
        columns = [
            ("step", np.arange(len(traj_q))),
            ("t", traj_q.times),
            ("excited_population", traj_q.observables["excited_population"]),
            ("trace_distance_cm_vs_me", d_q_me),
            ("trace_distance_cm_vs_semiclassical", d_q_semi),
            ("trace_distance_me_vs_semiclassical", d_me_semi),
        ]
        return columns, meta

    if cfg.scenario == "single_photon":
        traj_a, traj_b, report = scenarios.single_photon_run(field)
        meta["revival_steps"] = list(report.revival_steps)
        meta["revival_threshold"] = report.threshold
        columns = [
            ("step", np.arange(len(traj_a))),
            ("t", traj_a.times),
            ("excited_population_a", traj_a.observables["excited_population"]),
            ("excited_population_b", traj_b.observables["excited_population"]),
            ("trace_distance_a_vs_b", report.distances),
        ]
        return columns, meta

    report = scenarios.convergence_study(field, cfg.n_list, fixed_g=cfg.fixed_g)
    meta["fitted_slope"] = report.slope
    if cfg.fixed_g is not None:
        meta["fixed_g"] = cfg.fixed_g
    columns = [
        ("n_steps", np.array([row.n_steps for row in report.rows])),
        ("dt", np.array([row.dt for row in report.rows])),
        ("max_state_error", np.array([row.max_state_error for row in report.rows])),
        ("endpoint_observable_error",
         np.array([row.endpoint_observable_error for row in report.rows])),
    ]
    return columns, meta


def run(cfg: RunConfig, out_path: str | None = None, output: str | None = None) -> str:
    """Execute the configured scenario and write the artifact file.

    Returns the path written.  Raises ConfigError / ValidationError for
    input problems and PropagationError for numeric failures.
    """
    path = out_path or cfg.out_path
    if path is None:
        raise ConfigError("no output path: set 'out_path' in the config or pass --out")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory does not exist: {parent}")
    fmt = output or cfg.output

    columns, meta = _execute(cfg)  # a failed run never opens, so never truncates, the file
    with open(path, "w", newline="\n") as handle:
        handle.writelines(render.WRITERS[fmt](cfg, columns, meta))
    return path


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="collisim",
                                     description="Collision-model simulation runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--out", help="output file path (overrides config)")
    p_run.add_argument("--format", choices=render.WRITERS, help="output format (overrides config)")
    p_val = sub.add_parser("validate", help="parse and validate a config only")
    p_val.add_argument("--config", required=True, help="path to a JSON config")
    return parser


_PARSER = _parser()  # built once per process: each parse_args call fills a new namespace


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not UTF-8 ({exc.reason})") from None
        cfg = parse_config(text)
        if args.command == "validate":
            print(f"config OK: scenario {cfg.scenario}")
            return 0
        with warnings.catch_warnings():  # the generator's accuracy warning, under any filter
            warnings.filterwarnings("always", "system frequency scale", UserWarning)
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            path = run(cfg, out_path=args.out, output=args.format)
        print(f"wrote {path}")
        return 0
    except (ConfigError, ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PropagationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
