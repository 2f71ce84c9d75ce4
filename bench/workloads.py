"""The benchmark's workloads: seeded config documents and artifact checks.

Each workload is one `collisim run` config.  The seed varies only inputs
that leave the amount of work unchanged: the phase of the coherent
amplitude z, the photon envelope center within +-0.5, and gamma within
+-10%.  Step counts, ancilla truncation, horizon and output format are
fixed.  Seed 0 is the nominal config, unperturbed.

Why these three (a `convergence` workload would only repeat the static
generator and product path that `vacuum_decay` already covers):

- vacuum_decay: the RK4 master-equation reference dominates (10,000
  substeps for 1,001 kept grid points); one static collision unitary; a
  small CSV artifact.
- bloch_drive: the only step-dependent bath and Hamiltonian, so 4,000
  displacement expm calls, 4,001 per-step collision unitaries, 12,003
  trace distances and a 1.3 MB JSON artifact, next to a 40,000-substep ME.
- photon_memory: no master equation at all; the dense 4096-dimensional
  correlated joint state dominates time and memory.  N = 11 keeps the
  peak near 1.1 GiB; N = 12 needs about 4 GiB.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("vacuum_decay", "bloch_drive", "photon_memory")

# Criterion-1 and criterion-5 bounds of the acceptance suite.
VACUUM_POPULATION_TOL = 5e-3
BLOCH_PAIRWISE_TOL = 1e-2
# Populations and distances at seed 0 must match the recorded dense-path
# values this closely; a faster exact propagator agrees to ~1e-16.
REFERENCE_TOL = 1e-10
REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "photon_memory_seed0.json"
REFERENCE_COLUMNS = ("excited_population_a_re", "excited_population_b_re", "trace_distance_a_vs_b")


def make_config(name: str, seed: int) -> dict:
    """The workload's config document for `seed` (no out_path: passed as --out)."""
    rng = random.Random(seed)
    nominal = seed == 0
    gamma = 1.0 if nominal else rng.uniform(0.9, 1.1)
    if name == "vacuum_decay":
        field = {"kind": "vacuum", "gamma": gamma, "t_final": 1.0, "n_steps": 1000}
        return {"scenario": "spontaneous_emission", "field": field, "output": "csv"}
    if name == "bloch_drive":
        phase = 0.0 if nominal else rng.uniform(0.0, 2.0 * math.pi)
        z = {"re": 3.0 * math.cos(phase), "im": 3.0 * math.sin(phase)}
        field = {"kind": "coherent", "gamma": gamma, "t_final": 2.0, "n_steps": 4000,
                 "z": z, "d_anc": 12}
        return {"scenario": "bloch", "field": field, "output": "json"}
    if name == "photon_memory":
        center = 3.0 if nominal else rng.uniform(2.5, 3.5)
        field = {"kind": "single_photon", "gamma": gamma, "t_final": 6.0, "n_steps": 11,
                 "envelope": {"type": "gaussian", "center": center, "width": 3.0}}
        return {"scenario": "single_photon", "field": field, "output": "csv"}
    raise ValueError(f"unknown workload {name!r}")


@dataclass(frozen=True)
class Check:
    ok: bool
    detail: str
    model_error: float | None = None


def _read_csv(path: Path) -> tuple[dict, dict[str, list[float]]]:
    meta: dict = {}
    body = []
    with open(path, newline="") as handle:
        for line in handle:
            if line.startswith("# meta: "):
                meta = json.loads(line[len("# meta: "):])
            elif not line.startswith("#"):
                body.append(line)
    rows = list(csv.reader(body))
    header, values = rows[0], rows[1:]
    columns = {name: [float(row[i]) for row in values] for i, name in enumerate(header)}
    return meta, columns


def _read_json(path: Path) -> tuple[dict, list[dict]]:
    with open(path) as handle:
        doc = json.load(handle)
    return doc["meta"], doc["rows"]


def check_artifact(name: str, config: dict, seed: int, path: Path) -> Check:
    """Correctness gate of one artifact; raises nothing for a bad artifact."""
    try:
        return _check(name, config, seed, path)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Check(False, f"unreadable artifact {path.name}: {exc!r}")


def _check(name: str, config: dict, seed: int, path: Path) -> Check:
    field = config["field"]
    n_rows = field["n_steps"] + 1
    if name == "vacuum_decay":
        _, cols = _read_csv(path)
        pop = cols["excited_population_re"]
        if len(pop) != n_rows:
            return Check(False, f"{len(pop)} rows, expected {n_rows}")
        err = abs(pop[-1] - math.exp(-field["gamma"] * field["t_final"]))
        ok = err < VACUUM_POPULATION_TOL
        return Check(ok, f"|rho_ee(T) - exp(-gamma T)| = {err:.3e}", err)
    if name == "bloch_drive":
        meta, rows = _read_json(path)
        if len(rows) != n_rows:
            return Check(False, f"{len(rows)} rows, expected {n_rows}")
        dist = float(meta["max_pairwise_trace_distance"])
        ok = dist < BLOCH_PAIRWISE_TOL
        return Check(ok, f"max pairwise trace distance = {dist:.3e}", dist)
    meta, cols = _read_csv(path)
    if len(cols["step"]) != n_rows:
        return Check(False, f"{len(cols['step'])} rows, expected {n_rows}")
    if not meta["revival_steps"]:
        return Check(False, "no trace-distance revival")
    pops = cols["excited_population_a_re"] + cols["excited_population_b_re"]
    if not all(0.0 <= p <= 1.0 for p in pops):
        return Check(False, f"population outside [0, 1]: min {min(pops)}, max {max(pops)}")
    detail = f"{len(meta['revival_steps'])} revival step(s)"
    if seed == 0:
        with open(REFERENCE_FILE) as handle:
            reference = json.load(handle)
        dev = max(abs(a - b) for col in REFERENCE_COLUMNS
                  for a, b in zip(cols[col], reference[col], strict=True))
        if dev > REFERENCE_TOL:
            return Check(False, f"deviates from the recorded dense path by {dev:.3e}")
        detail += f", max deviation from recorded dense path {dev:.1e}"
    return Check(True, detail)
