"""Configuration ingestion, scenario dispatch, and result emission.

Configs are strict JSON documents (unknown keys are rejected); results are
written as CSV or JSON with the full config echoed for provenance.  The
rows are rendered and written ROW_BLOCK at a time, so the memory that
writing an artifact takes does not grow with the step count; the bytes
are those of rendering the whole text at once.  A column whose cells all
hold the same bits is written once into the row that every block starts
from.  A CSV block is one uint8 array of NUL-padded cells, and its text
is the array's bytes other than NUL: a float cell's 17 digits of %.16e
come from an exact vectorized kernel (_scientific), an int cell's digits
from the same digit routine, and Python's % formats only the cells the
kernel leaves undecided, or every cell of a block too small to pay for
the vector math.  A JSON block fills its columns into one flat list of
cells and is formatted by one % of the row template.  All runs are
deterministic: identical configs produce byte-identical files.

Exit codes: 0 success, 1 configuration or filesystem problem (or a run whose
arrays cannot be allocated), 2 numeric or invariant failure during a run.  No
run has a size cap: a single-photon field runs as the system and one source
qubit, at a cost linear in the step count.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from . import __version__, qcore, scenarios
from .errors import PropagationError, ValidationError
from .qcore import DensityMatrix, Operator
from .scenarios import FieldConfig, GaussianEnvelope, TabulatedSpectrum

SCENARIOS = ("spontaneous_emission", "bloch", "single_photon", "convergence")
FORMATS = ("csv", "json")
ROW_BLOCK = 256  # rows rendered and written at a time, so the memory held does not grow with N
_SLOT = 25  # bytes of a CSV cell: its text, at most 24 bytes, NUL-padded, then , or newline
_PYTHON_BELOW = 160  # a block of fewer cells to fill formats them faster in Python, as measured
_E0 = 300  # _POWERS column e + _E0 holds decimal exponent e
_TIE = 1e-6  # a fraction this near 1/2 is left to Python: the kernel's error is below 1e-14
_DEKKER = 134217729.0  # 2**27 + 1: splits a double into two halves of at most 26 bits
_HEAD = np.uint64(2**64 - 2**27)  # keeps a double's sign, exponent and top 26 bits
_INT_KEEP = np.array([10**16] * 2 + [10**j for j in range(15, 0, -1)] + [0])  # see _fill_digits
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
    if output not in FORMATS:
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


def _constant(col: np.ndarray) -> bool:
    """Whether every cell of a non-empty column holds its first cell's bits: a float column is
    compared as unsigned integers, so -0.0 beside +0.0, or NaNs of different payloads, are not
    constant."""
    if col.dtype.kind == "f":
        col = col.view(f"u{col.itemsize}")
    return len(col) > 0 and bool(col[0] == col[-1] and (col == col[0]).all())


def _row_template(parts: list) -> tuple[str, list]:
    """The % template of one row and the (column, cells) slots it leaves to fill, from
    ``parts``: text, escaped for %, or a (spec, column, cells) slot.  A constant column's one
    cell is written into the template once, as spec % cells(its first cell), escaped for %;
    every other slot keeps its spec."""
    row, slots = [], []
    for part in parts:
        if isinstance(part, str):
            row.append(part.replace("%", "%%"))
        elif _constant(part[1]):
            spec, col, cells = part
            row.append((spec % cells(col[:1])[0]).replace("%", "%%"))
        else:
            row.append(part[0])
            slots.append(part[1:])
    return "".join(row), slots


def _row_blocks(row: str, slots: list, n: int) -> Iterator[str]:
    """The n rows of a table, ROW_BLOCK at a time, from ``_row_template``'s row and slots: slot
    j's cells(block of its column) fill places j, j + k, j + 2k, ... of one flat list, and a
    block's m rows are one % of row * m.  The row count is the table's, so a row whose every
    column is constant still renders n times."""
    k = len(slots)
    for lo in range(0, n, ROW_BLOCK):
        m = min(ROW_BLOCK, n - lo)
        flat = [None] * (k * m)
        for j, (col, cells) in enumerate(slots):
            flat[j::k] = cells(col[lo:lo + m])
        yield row * m % tuple(flat)


def _render_csv(cfg: RunConfig, columns, meta) -> Iterator[str]:
    """Yield the CSV text, the comment and header lines first, then ROW_BLOCK rows at a time.
    Integer cells as %d and real cells as %.16e, to the bytes that format()ting each cell's numpy
    scalar writes; a complex column becomes two, _re and _im."""
    header, cols = [], []
    for name, values in columns:
        arr = np.asarray(values)
        parts = {"_re": arr.real, "_im": arr.imag} if np.iscomplexobj(arr) else {"": arr}
        for suffix, col in parts.items():
            header.append(name + suffix)
            cols.append(col)
    head = [f"# collisim {__version__}", "# config: " + json.dumps(cfg.echo, sort_keys=True),
            "# meta: " + json.dumps(meta, sort_keys=True), ",".join(header)]
    yield "\n".join(head) + "\n"
    yield from _csv_blocks(cols)


def _csv_blocks(cols: list[np.ndarray]) -> Iterator[str]:
    """The rows of a table's columns, ROW_BLOCK at a time.  A block is one (rows, columns, _SLOT)
    uint8 array whose slots hold the int columns, then the float ones, then the _constant ones;
    it is taken into the columns' order, and its text is its bytes other than NUL.  Every block
    starts from one row: the separators, a float slot's ".", and a constant column's one cell.
    A block of at least _PYTHON_BELOW other cells takes their text from _fill_digits, and from
    _python_cells only for the cells that it leaves undecided; a smaller block, where the vector
    math costs more than it saves, takes every cell's text from _python_cells."""
    n, k = len(cols[0]), len(cols)
    const = [c for c in range(k) if _constant(cols[c])]
    ints = [c for c in range(k) if cols[c].dtype.kind in "iu" and c not in const]
    floats = [c for c in range(k) if c not in ints and c not in const]
    order, ni, nv = ints + floats + const, len(ints), len(ints) + len(floats)
    row = []
    for c in order:
        text = b"\0\0." if c in floats else b""
        if c in const:
            text = (b"%d" if cols[c].dtype.kind in "iu" else b"%.16e") % cols[c][:1].tolist()[0]
        row.append(text.ljust(_SLOT - 1, b"\0") + (b"\n" if c == k - 1 else b","))
    row = np.frombuffer(b"".join(row), np.uint8).reshape(k, _SLOT)
    inverse = None if order == sorted(order) else [order.index(c) for c in range(k)]
    for lo in range(0, n, ROW_BLOCK):
        m = min(ROW_BLOCK, n - lo)
        block = np.empty((m, k, _SLOT), np.uint8)
        block[...] = row
        z = [cols[c][lo:lo + m] for c in ints]
        x = np.empty((m, len(floats)))
        for j, c in enumerate(floats):
            x[:, j] = cols[c][lo:lo + m]
        if m * nv < _PYTHON_BELOW:
            for j, v in enumerate(z):
                _python_cells(block, slice(None), j, v, b"%-24d")
            _python_cells(block, slice(None), slice(ni, nv), x, b"%-24.16e")
        else:
            todo = ~_fill_digits(block, z, x)
            for j, v in enumerate(z):
                i = np.flatnonzero(todo[:, j])
                _python_cells(block, i, j, v[i], b"%-24d")
            i, j = np.nonzero(todo[:, ni:])
            _python_cells(block, i, ni + j, x[i, j], b"%-24.16e")
        if inverse is not None:
            block = block.take(inverse, axis=1)
        yield block.tobytes().translate(None, b"\0").decode("ascii")


def _python_cells(block: np.ndarray, rows, slots, values: np.ndarray, spec: bytes) -> None:
    """Write spec % value, padded by spec with spaces to _SLOT - 1 bytes and the spaces made
    NUL, into the cells block[rows, slots], one per value of the same shape, by one % for all."""
    if values.size:
        text = (spec * values.size) % tuple(values.ravel().tolist())
        block[rows, slots, :_SLOT - 1] = np.frombuffer(text.replace(b" ", b"\0"), np.uint8
                                                       ).reshape(values.shape + (_SLOT - 1,))


def _fill_digits(block: np.ndarray, z: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Write the text of a block's cells into its first len(z) + x.shape[1] slots, from z, one
    array per int column, and x, (rows, float columns); return the (rows, slots) mask of the
    cells written.  A float gets its sign, digits and exponent from _scientific, an int v with
    |v| < 10**17 its sign and digits, leading zeros NUL.  The other cells are left to the caller."""
    (m, nf), ni = x.shape, len(z)
    digits, negative = np.empty((m, ni + nf), np.int64), np.empty((m, ni + nf), bool)
    good = np.empty((m, ni + nf), bool)
    for j, v in enumerate(z):
        good[:, j] = (v > -10**17) & (v < 10**17)
        digits[:, j] = np.where(good[:, j], v, 0)
        negative[:, j] = digits[:, j] < 0
        np.abs(digits[:, j], out=digits[:, j])
    if nf:
        digits[:, ni:], exponent, good[:, ni:] = _scientific(x)
        negative[:, ni:] = np.signbit(x)
        block[:, ni:ni + nf, 19:24] = _POWERS.text.take(exponent, axis=0)
    lead, groups = _digit_groups(digits.ravel())
    block[:, :ni + nf, 0] = np.where(negative, ord("-"), 0)
    block[:, :ni + nf, 1] = lead.reshape(m, -1)
    block[:, :ni + nf, 3:19].view(np.uint32)[...] = groups.reshape(4, m, -1).transpose(1, 2, 0)
    if ni:  # an int's leading zeros become NUL: slot byte 3 + j is its digit 10**(15 - j)
        block[:, :ni, 1:19] *= digits[:, :ni, None] >= _INT_KEEP
    return good


class _PowersOfTen:
    """Column e + _E0 of ``values`` holds 10**(16 - e) as hi + lo, hi the double nearest it and
    lo the double nearest the rest, with hi's two Dekker halves between them; ``text[e + _E0]``
    is the exponent's text, e+05 or e-123.  A column is computed from Python ints the first
    time a block needs it."""

    def __init__(self) -> None:
        self.lo = self.hi = _E0  # the columns [lo, hi) are filled
        self.values = self.text = None

    def fill(self, lo: int, hi: int) -> np.ndarray:
        if lo < self.lo or hi > self.hi:
            if self.values is None:
                self.values = np.zeros((4, 2 * _E0 + 1))
                self.text = np.zeros((2 * _E0 + 1, 5), np.uint8)
            for col in [*range(lo, self.lo), *range(self.hi, hi)]:
                k = 16 - (col - _E0)
                num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
                big = num / den  # int / int is correctly rounded
                p, q = big.as_integer_ratio()
                c = big * _DEKKER
                head = c - (c - big)
                self.values[:, col] = big, head, big - head, (num * q - p * den) / (den * q)
                text = b"e%+03d" % (col - _E0)
                self.text[col, :len(text)] = np.frombuffer(text, np.uint8)
            self.lo, self.hi = min(lo, self.lo), max(hi, self.hi)
        return self.values


_POWERS = _PowersOfTen()


def _scientific(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each double of x, the 17 digits of %.16e as one integer in [10**16, 10**17), the
    column e + _E0 of _POWERS of its decimal exponent e, and whether the two are decided.

    With e the estimate floor(log10 |x|), |x| 10**(16 - e) = |x| (hi + lo) is formed as p + r:
    p = |x| hi, and r the exact error of that product by Dekker's split (Numer. Math. 18, 224
    (1971)) plus |x| lo.  p is an integer, since it is at least 2**53, and r is off by under
    1e-14, so I = p + floor(r) is the integer part, f = r - floor(r) the fraction, and I + (f >
    1/2) the correctly rounded mantissa unless f lies within _TIE of 1/2.  A cell is undecided
    there; where I lies outside [10**16, 10**17 - 1), as it does when e is one off, next to a
    power of ten, or when the rounding would carry into an 18th digit; and where |x| is 0, not
    finite, or outside 1e-280..1e280, where the product's parts could overflow or lose bits."""
    a = np.abs(x)
    finite = (a > 1e-280) & (a < 1e280)
    a = np.where(finite, a, 1.0)
    exponent = (np.log10(a) + _E0).astype(np.intp)  # positive, so truncation is floor
    big, head, tail, lo = _POWERS.fill(int(exponent.min()), int(exponent.max()) + 1).take(
        exponent, axis=1)
    p = a * big
    ah = (a.view(np.uint64) & _HEAD).view(np.float64)  # the top 26 bits of a
    al = a - ah
    r = ((ah * head - p) + ah * tail + al * head) + al * tail + a * lo
    whole = np.floor(r)
    fraction = r - whole
    low = p.astype(np.int64) + whole.astype(np.int64)  # the integer part of |x| 10**(16 - e)
    good = finite & (np.abs(fraction - 0.5) > _TIE)
    good &= (low - 10**16).view(np.uint64) < 9 * 10**16 - 1
    return low + (fraction > 0.5), exponent, good


def _digit_groups(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 decimal digits of each integer of digits in [0, 10**17): the ASCII code of the
    first, and the other 16 as (4, n) four-byte groups of _quads(), from integer quotients."""
    high, low = np.divmod(digits, 10**8)
    lead = high // 10**8
    eights = np.stack((high - lead * 10**8, low))
    groups = np.empty((2, 2, len(digits)), np.intp)
    np.floor_divide(eights, 10**4, out=groups[:, 0])
    np.subtract(eights, groups[:, 0] * 10**4, out=groups[:, 1])
    return (lead + ord("0")).astype(np.uint8), _quads().take(groups.reshape(4, -1))


@functools.cache
def _quads() -> np.ndarray:
    """The groups "0000" .. "9999", four ASCII bytes each held as one uint32, built on first use."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    quads = np.empty((100, 100, 4), np.uint8)
    quads[..., :2] = pairs[:, None]
    quads[..., 2:] = pairs
    quads.flags.writeable = False  # one table shared by every call
    return quads.view(np.uint32).reshape(-1)


def _json_cells(col: np.ndarray):
    """The cells of a real column's blocks for %s, chosen once per column: their Python scalars,
    whose str is what json writes, or, in a column that holds a NaN or an infinity anywhere,
    json's text of each (NaN, Infinity, -Infinity)."""
    if col.dtype.kind == "f" and not np.isfinite(col).all():
        return lambda block: list(map(json.dumps, block.tolist()))
    return np.ndarray.tolist


def _render_json(cfg: RunConfig, columns, meta) -> Iterator[str]:
    """Yield json.dumps(doc, sort_keys=True, indent=2) + "\n" of doc = {"version", "config",
    "meta", "rows": [{name: cell, ...} per row]}, complex cells as {"re", "im"}, to the byte,
    ROW_BLOCK rows at a time, without building the rows: the blocks of the row template are
    spliced into json.dumps of the rest of the document."""
    parts = [",\n    {\n"]  # the first row drops its ",\n"
    for name, values in sorted(columns, key=lambda column: column[0]):
        arr = np.asarray(values)
        parts.append(f"      {json.dumps(name)}: ")
        if np.iscomplexobj(arr):
            parts += ['{\n        "im": ', ("%s", arr.imag, _json_cells(arr.imag)),
                      ',\n        "re": ', ("%s", arr.real, _json_cells(arr.real)), "\n      }"]
        else:
            parts.append(("%s", arr, _json_cells(arr)))
        parts.append(",\n")
    parts[-1] = "\n    }"
    n = len(columns[0][1])
    doc = {"version": __version__, "config": cfg.echo, "meta": meta, "rows": []}
    head, empty, tail = json.dumps(doc, sort_keys=True, indent=2).rpartition('"rows": []')
    if not n:
        yield head + empty + tail + "\n"
        return
    yield head + '"rows": [\n'
    blocks = _row_blocks(*_row_template(parts), n)
    yield next(blocks)[2:]
    yield from blocks
    yield "\n  ]" + tail + "\n"


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
    render = _render_csv if fmt == "csv" else _render_json
    with open(path, "w", newline="\n") as handle:
        handle.writelines(render(cfg, columns, meta))
    return path


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="collisim",
                                     description="Collision-model simulation runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--out", help="output file path (overrides config)")
    p_run.add_argument("--format", choices=FORMATS, help="output format (overrides config)")
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
