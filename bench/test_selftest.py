"""Self-test of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest bench -q -p no:cacheprovider

It checks that tracing does not change what it measures (traced and
untraced runs write byte-identical artifacts, child spans never outlast
their parent), that BENCHMARK.json agrees with the runner, that seeds vary
only cost-neutral inputs, and that the runner refuses a checkout without
the program.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as runner
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _resolve(module: str, path: str):
    target = importlib.import_module(module)
    for part in path.split("."):
        target = getattr(target, part)
    return target


@pytest.fixture(scope="module")
def cli():
    return runner.import_program()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_leaves_artifacts_identical_and_spans_nested(cli, name, tmp_path):
    seed = 5
    config = workloads.make_config(name, seed)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    plain = tmp_path / f"plain.{config['output']}"
    traced = tmp_path / f"traced.{config['output']}"
    assert cli.main(["run", "--config", str(cfg), "--out", str(plain)]) == 0

    tracer = tracing.Tracer()
    before = [_resolve(module, path) for module, path, *_ in tracing.TARGETS]
    with tracing.instrument(tracer):
        assert cli.main(["run", "--config", str(cfg), "--out", str(traced)]) == 0
    after = [_resolve(module, path) for module, path, *_ in tracing.TARGETS]
    assert all(a is b for a, b in zip(before, after)), "instrument() did not restore a target"

    assert plain.read_bytes() == traced.read_bytes()
    assert workloads.check_artifact(name, config, seed, plain).ok
    assert tracer.missing == []
    total, _, calls, violations = tracing.span_table(tracer)
    assert violations == 0
    assert calls["cli.run"] == 1 and calls["scenarios.run"] == 1
    assert total["scenarios.run"] <= total["cli.run"]


def test_benchmark_json_matches_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [entry[:3] for entry in tracing.LAYER_METRICS]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_varies_only_cost_neutral_inputs(name):
    nominal = workloads.make_config(name, 0)
    assert workloads.make_config(name, 7) == workloads.make_config(name, 7)
    for seed in range(1, 30):
        config = workloads.make_config(name, seed)
        field, base = config["field"], nominal["field"]
        assert {k: v for k, v in config.items() if k != "field"} == \
            {k: v for k, v in nominal.items() if k != "field"}
        varied = {key for key in base if field[key] != base[key]}
        assert varied <= {"gamma", "z", "envelope"}
        assert 0.9 <= field["gamma"] <= 1.1
        if "z" in field:
            assert math.isclose(math.hypot(field["z"]["re"], field["z"]["im"]), 3.0)
        if "envelope" in field:
            assert abs(field["envelope"]["center"] - 3.0) <= 0.5
            assert field["envelope"]["width"] == base["envelope"]["width"]


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "vacuum_decay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
