"""collisim benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload bloch_drive --seed 3 --seconds 25 --trace 0

The program is imported from `src/` of the checkout that holds this file;
without it the runner exits with code 2 and prints no result.

With `--trace 0` the run reports the end-to-end metrics:

- run_s: median time of one warm in-process `collisim.cli.main(["run",
  ...])` call, artifact write included, repeated for `--seconds`;
- setup_s: median time of fresh `python -m collisim.cli validate`
  processes (import, strict parse, validation);
- peak_rss_mib: peak resident memory of one fresh `python -m collisim.cli
  run` process, read from its own rusage so no other process masks it.

Both times are wall times scaled to a fixed machine speed (see
`SpeedProbe`); the raw wall times are kept in the results file.

With `--trace 1` it alternates untraced and traced calls and reports the
per-layer metrics of `tracer.LAYER_METRICS`, plus trace.overhead_s.

Every artifact goes through the workload's correctness gate; `failed`
counts CLI calls that exit non-zero or write a failing artifact.  The
last line of standard output is the JSON result; the lines before it
give each metric with its unit, the machine and the thread settings.  A
copy of the full result goes to `.bench_out/results/`.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread (<= nproc): on a shared 2-vCPU machine a single
# thread is steadier, and the artifacts do not depend on the thread count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
SETUP_REPEATS = 7
MIN_SAMPLES = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120

# Spawns argv[1:], waits for it and prints its ru_maxrss; exits with its code.
_RSS_SPAWNER = """import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""

# On a shared machine the same code runs up to ~2x slower for tens of
# seconds at a time, so raw wall times of two runs differ by more than any
# bound worth keeping.  A fixed probe unrelated to collisim is timed before
# and after every sample: many small numpy calls (interpreter and call
# overhead, which dominate the vacuum and Bloch workloads) plus copies of
# a 32 MB array (memory bandwidth, which dominates the dense photon
# workload).  Each sample is scaled to the speed at which the probe takes
# PROBE_REF_S, about its uncontended time on a 2-vCPU x86-64 VM.  Work the
# program adds or removes still scales the result one for one.
PROBE_CALLS = 4000
PROBE_COPIES = 4
PROBE_REF_S = 0.035


class Timed(NamedTuple):
    scaled: float   # wall * PROBE_REF_S / probe
    wall: float
    probe: float    # mean probe time before and after the sample
    result: Any


class SpeedProbe:
    """Times calls and scales them by the adjacent probe times."""

    def __init__(self) -> None:
        self._small = np.array([[1.0, 0.2j], [-0.2j, 0.5]])
        self._src = np.ones(2_000_000, dtype=complex)
        self._dst = np.empty_like(self._src)
        self.last = self.probe()

    def probe(self) -> float:
        eigvalsh = np.linalg.eigvalsh
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            eigvalsh(self._small)
        for _ in range(PROBE_COPIES):
            np.copyto(self._dst, self._src)
        return time.perf_counter() - start

    def timed(self, fn) -> Timed:
        before = self.last
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.last = self.probe()
        probe = 0.5 * (before + self.last)
        return Timed(wall * PROBE_REF_S / probe, wall, probe, result)


def machine_info() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Session:
    """State of one benchmark run: config, counters, artifact checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = workloads.make_config(workload, seed)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.ext = self.config["output"]
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.model_error: float | None = None

    def artifact(self, tag: str) -> Path:
        return self.work / f"{tag}.{self.ext}"

    def record(self, what: str, rc: int, artifact: Path | None) -> bool:
        """Count one CLI call; check its artifact; return whether it passed."""
        self.attempted += 1
        ok = rc == 0
        detail = f"exit code {rc}"
        if ok and artifact is not None:
            check = workloads.check_artifact(self.workload, self.config, self.seed, artifact)
            ok, detail = check.ok, check.detail
            if check.model_error is not None:
                self.model_error = check.model_error
        if not ok:
            self.failed += 1
            self.messages.append(f"{what}: {detail}")
        return ok

    def child_env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(SRC))

    def fresh_validate(self) -> None:
        try:
            rc = subprocess.run(
                [sys.executable, "-m", "collisim.cli", "validate", "--config",
                 str(self.config_path)],
                cwd=self.work, env=self.child_env(), capture_output=True,
                timeout=CHILD_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            rc = -1
        self.record("validate", rc, None)

    def fresh_run_peak_rss_mib(self) -> float:
        """Peak RSS of one fresh `collisim run` process.

        Linux carries the spawning process's peak RSS over into its child's
        ru_maxrss across exec, so a small interpreter spawns the run and
        reports the run's own ru_maxrss; this process's memory cannot mask it.
        """
        path = self.artifact("fresh")
        proc = subprocess.Popen(
            [sys.executable, "-S", "-c", _RSS_SPAWNER, sys.executable, "-m", "collisim.cli",
             "run", "--config", str(self.config_path), "--out", str(path)],
            cwd=self.work, env=self.child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
        self.record("fresh run", proc.returncode, path)
        if proc.returncode != 0:
            return 0.0
        return int(out.split()[-1]) / 1024.0  # the spawner's last line: KiB on Linux

    def cli_run(self, cli, config_path: Path, out: Path) -> int:
        """One in-process `collisim run`; returns its exit code."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(["run", "--config", str(config_path), "--out", str(out)])
        except Exception:  # an uncaught error is a failed run, not a crashed benchmark
            rc = -1
            sink.write(traceback.format_exc())
        if rc != 0:
            self.messages.append(sink.getvalue().strip()[-500:])
        return rc

    def warm_up(self, cli) -> None:
        """One untimed full run, so memory pools and lazy imports are warm."""
        out = self.artifact("warmup")
        self.record("warm-up run", self.cli_run(cli, self.config_path, out), out)


def import_program():
    sys.path.insert(0, str(SRC))
    from collisim import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"collisim imported from {cli.__file__}, not from {SRC}")
    return cli


def repeat_for(seconds: float, minimum: int, once) -> list:
    """Call `once` until the next call would end past `seconds`, at least `minimum` times."""
    start = time.perf_counter()
    results, walls = [], []
    while True:
        t0 = time.perf_counter()
        results.append(once())
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed + statistics.median(walls) > seconds:
            return results


def _samples(timed: list[Timed]) -> dict:
    return {"scaled": [t.scaled for t in timed], "wall": [t.wall for t in timed],
            "probe": [t.probe for t in timed]}


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    speed = SpeedProbe()
    setup = [speed.timed(session.fresh_validate) for _ in range(SETUP_REPEATS)]
    rss = session.fresh_run_peak_rss_mib()
    cli = import_program()
    session.warm_up(cli)
    out = session.artifact("run")

    def once():
        run = speed.timed(lambda: session.cli_run(cli, session.config_path, out))
        session.record("warm run", run.result, out)
        return run

    runs = repeat_for(seconds, MIN_SAMPLES, once)
    metrics = {"run_s": statistics.median(t.scaled for t in runs),
               "setup_s": statistics.median(t.scaled for t in setup),
               "peak_rss_mib": rss}
    samples = {"run_s": _samples(runs), "setup_s": _samples(setup), "peak_rss_mib": [rss]}
    return metrics, samples


def traced(session: Session, seconds: float) -> tuple[dict, dict]:
    cli = import_program()
    session.warm_up(cli)
    speed = SpeedProbe()
    plain, traced_out = session.artifact("untraced"), session.artifact("traced")
    tracer = tracing.Tracer()
    kept = session.config["field"]["n_steps"] + 1

    def pair():
        untraced_run = speed.timed(lambda: session.cli_run(cli, session.config_path, plain))
        session.record("untraced run", untraced_run.result, plain)
        tracer.reset()
        with tracing.instrument(tracer):
            traced_run = speed.timed(lambda: session.cli_run(cli, session.config_path, traced_out))
        if session.record("traced run", traced_run.result, traced_out) and plain.is_file() and \
                plain.read_bytes() != traced_out.read_bytes():
            session.failed += 1
            session.messages.append("traced and untraced artifacts differ")
        if tracing.span_table(tracer)[3]:
            session.failed += 1
            session.messages.append("a child span outlasts its parent")
        size = traced_out.stat().st_size if traced_out.is_file() else 0
        return untraced_run, traced_run, tracing.layer_metrics(tracer, kept, size)

    pairs = repeat_for(seconds, MIN_TRACED_PAIRS, pair)
    metrics = {name: statistics.median(p[2][name] for p in pairs)
               for name, *_ in tracing.LAYER_METRICS if name != "trace.overhead_s"}
    untraced_s = statistics.median(p[0].scaled for p in pairs)
    traced_s = statistics.median(p[1].scaled for p in pairs)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if tracer.missing:
        session.messages.append(f"not traced (absent): {', '.join(tracer.missing)}")
    samples = {"trace.overhead_s": {"untraced": _samples([p[0] for p in pairs]),
                                    "traced": _samples([p[1] for p in pairs])}}
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="collisim benchmark runner")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "collisim" / "__init__.py").is_file():
        print(f"error: no collisim package under {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(args.workload, args.seed, work)
    try:
        if args.trace:
            metrics, samples = traced(session, args.seconds)
            units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        else:
            metrics, samples = end_to_end(session, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_info()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(session.config['field'], sort_keys=True)}")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    for name, value in metrics.items():
        n = f"  (median of {len(samples[name]['wall'])})" if name in ("run_s", "setup_s") else ""
        print(f"  {name:34s} {value:.6g} {units[name]}{n}")
    print(f"  {'failed_frac':34s} {session.failed / session.attempted:.6g} "
          f"({session.failed} of {session.attempted} CLI calls)")
    if session.model_error is not None:
        print(f"  {'model_error':34s} {session.model_error:.6g}")
    for message in session.messages:
        print(f"  note: {message}")

    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  config=session.config, machine=machine, samples=samples,
                  model_error=session.model_error, messages=session.messages)
    (OUT / "results" / f"{work.name}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
