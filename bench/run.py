#!/usr/bin/env python3
"""aibmon benchmark: end-to-end workloads through ``aibmon.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload sim_long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with no hooks installed:

* ``setup_s``: median time for a fresh interpreter to import ``aibmon.cli``.
* ``wall_ref``: median cost of one workload iteration, after setup, in
  reference units. Each ``aibmon.cli.main`` call's wall time is divided by
  the mean wall time of the fixed reference computation (``reference.py``)
  timed right before and right after it; an iteration's cost is the sum over
  its calls. The host's speed swings by up to 2x within a run, and the
  ratio cancels most of that swing; raw seconds are printed and recorded.
* ``items_per_ref``: work items per reference unit of ``wall_ref``; an item
  is one replication on ``sim_long`` and ``table1`` and one limit
  calibration on ``calibrate``.
* ``peak_rss_mb``: peak resident memory of the benchmark process.

``--trace 1`` runs untraced iterations for half of ``--seconds``, then one
iteration with the hooks of ``layers.py`` installed, and reports that
iteration's per-layer metrics plus the tracing overhead.

Every iteration's outputs are checked (exit codes, output digests, Monte
Carlo ARL against the analytic oracle, the grid's tolerance rule on every
cell, calibration residuals); ``failed / attempted`` is the failed fraction.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Provenance and
per-iteration detail go to ``.bench_run/results/``.

The program is built from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result. Workloads run with
default thread settings: no ``--threads`` flag and ``AIBMON_THREADS`` unset.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from layers import LAYER_UNITS, Tracer
from reference import time_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
DIGESTS = BENCH_DIR / "digests.json"

# Fresh-interpreter imports per run; setup_s is their median.
SETUP_SAMPLES = 7
# Calls and replications per simulate iteration (see Simulate).
SIM_CALLS = 5
SIM_REPS = 2_000
# Smallest replication count reproduce_table1 accepts, so that the cells
# rebuild its output: one grid is one iteration of about 40 s.
TABLE1_REPS = 10_000
TABLE1_CELLS = 60
# Reference units timed after each call: about a tenth of a call's time.
REF_ENGINE_SIM = 2
REF_ENGINE_CELL = 5
REF_ORACLE_CALIBRATION = 3
CALIBRATE_LAMBDAS = (0.05, 0.1, 0.2, 0.5)
CALIBRATE_TARGETS = (100.0, 200.0, 370.0, 500.0, 1000.0)
ORACLE_SE = 4.0
CALIBRATION_RESIDUAL = 0.1

# Untimed calls before measuring: lazy imports, allocator arenas, BLAS threads.
WARMUP_ENGINE = ("simulate", "--chart", "ewma", "--L", "2.454", "--reps", "2000",
                 "--seed", "0")
WARMUP_ORACLE = ("calibrate", "--chart", "ewma", "--lambda", "0.5", "--target-arl0", "50")

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "items_per_ref": "1/ref", "peak_rss_mb": "MB"}


@dataclass
class Call:
    """One ``aibmon.cli.main`` invocation and what it produced."""

    argv: list[str]
    code: object = None
    stdout: str = ""
    stderr: str = ""


@dataclass
class Iteration:
    walls: list[float]  # wall seconds of each call
    first_ref: int  # index in Runner.refs of the reference timing before the first call
    calls: list[Call]
    rel: float = 0.0  # cost in reference units
    traced: bool = False
    digest: str = ""
    items: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls)


def call_cli(cli, argv: list[str]) -> Call:
    """Run ``cli.main(argv)`` in-process with its output captured."""
    call = Call(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            call.code = cli.main(argv)
        except SystemExit as exc:
            call.code = exc.code
        except Exception:  # a crash is a failed check, not a failed benchmark
            call.code = "exception"
            traceback.print_exc()
    call.stdout, call.stderr = out.getvalue(), err.getvalue()
    return call


@dataclass(frozen=True)
class Simulate:
    """``aibmon simulate`` of an EWMA chart: library defaults but the replication count.

    One iteration is ``SIM_CALLS`` calls of ``SIM_REPS`` replications, call
    ``k`` at master seed ``seed * SIM_CALLS + k``: short calls keep the
    reference timings close to the work they normalise, and their sum keeps
    the seed-to-seed change in work small (the run lengths' total varies
    like one over the square root of all the replications).
    """

    name: str
    L: float
    rho: float
    lam: float
    delta_x: float = 0.0
    warmup = WARMUP_ENGINE
    reference = ("engine", REF_ENGINE_SIM)

    def config(self) -> dict:
        return {"command": "simulate", "chart": "ewma", "calls": SIM_CALLS,
                "reps": SIM_REPS, "lambda": self.lam, "L": self.L, "rho": self.rho,
                "delta_x": self.delta_x}

    def argvs(self, seed: int, work_dir: Path) -> list[list[str]]:
        argv = ["simulate", "--chart", "ewma", "--L", repr(self.L), "--rho", repr(self.rho),
                "--lambda", repr(self.lam)]
        if self.delta_x:
            argv += ["--delta-x", repr(self.delta_x)]
        return [argv + ["--reps", str(SIM_REPS), "--seed", str(seed * SIM_CALLS + k),
                        "--out", str(work_dir / f"summary{k}.json")]
                for k in range(SIM_CALLS)]

    def digest_key(self, seed: int) -> str:
        return str(seed)

    def oracle_arl(self, oracles) -> float:
        s = -self.rho * self.delta_x / math.sqrt(1.0 - self.rho**2)
        return oracles.ewma_arl_markov(self.lam, self.L, s)

    def output(self, calls: list[Call], work_dir: Path) -> bytes:
        return b"".join(call.stdout.encode() + (work_dir / f"summary{k}.json").read_bytes()
                        for k, call in enumerate(calls))

    def evaluate(self, it: Iteration, work_dir: Path, oracles, cache: dict) -> None:
        if "oracle" not in cache:
            cache["oracle"] = self.oracle_arl(oracles)
        it.items = 0
        for k in range(len(it.calls)):
            summary = json.loads((work_dir / f"summary{k}.json").read_text())
            gap = abs(summary["arl"] - cache["oracle"]) / summary["se_arl"]
            it.checks.append((f"oracle_within_4se[{k}]", gap <= ORACLE_SE,
                              f"|arl - oracle| = {gap:.2f} SE"))
            it.items += int(summary["reps"])


@dataclass(frozen=True)
class Table1:
    """The 60-cell grid of ``aibmon table1``, one ``aibmon simulate`` call per cell.

    Every cell uses the one master seed, so the replication keys repeat from
    cell to cell (common random numbers) exactly as in ``table1``, and the
    cells' summaries rebuild ``table1``'s CSV byte for byte (same digests).
    Cell by cell, each call is normalised by its own adjacent reference
    timings; the ``table1`` command is one 40 s call, within which the host's
    speed drifts too far for timings at its two ends to correct.
    """

    name: str
    warmup = WARMUP_ENGINE
    reference = ("engine", REF_ENGINE_CELL)

    def config(self) -> dict:
        return {"command": "simulate per table1 cell", "reps": TABLE1_REPS,
                "cells": TABLE1_CELLS}

    def argvs(self, seed: int, work_dir: Path) -> list[list[str]]:
        experiments = importlib.import_module("aibmon.experiments")
        argvs = []
        for i, (rho, delta_x, kind, lam, limit, _) in enumerate(experiments.table1_grid()):
            argv = ["simulate", "--chart", kind.value, "--L", repr(limit)]
            if kind.value == "ewma":
                argv += ["--lambda", repr(lam)]
            argvs.append(argv + ["--rho", repr(rho), "--delta-x", repr(delta_x),
                                 "--reps", str(TABLE1_REPS), "--seed", str(seed),
                                 "--out", str(work_dir / f"cell{i}.json")])
        return argvs

    def digest_key(self, seed: int) -> str:
        return str(seed)

    def cells(self, work_dir: Path) -> list:
        """``Table1Cell`` of every grid cell, from the calls' summary files."""
        experiments = importlib.import_module("aibmon.experiments")
        runlength = importlib.import_module("aibmon.runlength")
        cells = []
        for i, (rho, delta_x, kind, lam, limit, ref) in enumerate(experiments.table1_grid()):
            doc = json.loads((work_dir / f"cell{i}.json").read_text())
            summary = runlength.RunLengthSummary(
                arl=doc["arl"], sdrl=doc["sdrl"], se_arl=doc["se_arl"], reps=doc["reps"],
                percentiles={int(k): v for k, v in doc["percentiles"].items()},
                censored=doc["censored"])
            cells.append(experiments.Table1Cell(rho, delta_x, kind, lam, limit, summary, ref))
        return cells

    def output(self, calls: list[Call], work_dir: Path) -> bytes:
        experiments = importlib.import_module("aibmon.experiments")
        return ("\n".join(experiments.table1_csv_lines(self.cells(work_dir))) + "\n").encode()

    def evaluate(self, it: Iteration, work_dir: Path, oracles, cache: dict) -> None:
        cells = self.cells(work_dir)
        passed = sum(c.within_tolerance for c in cells)
        it.checks.append(("cells_pass_60_of_60",
                          len(cells) == TABLE1_CELLS and passed == TABLE1_CELLS,
                          f"{passed}/{len(cells)} cells pass"))
        it.items = len(cells) * TABLE1_REPS


@dataclass(frozen=True)
class Calibrate:
    """A grid of EWMA limit calibrations; the seed sets the order of the calls."""

    name: str
    warmup = WARMUP_ORACLE
    reference = ("oracle", REF_ORACLE_CALIBRATION)

    def grid(self, seed: int) -> list[tuple[float, float]]:
        grid = [(lam, target) for lam in CALIBRATE_LAMBDAS for target in CALIBRATE_TARGETS]
        random.Random(seed).shuffle(grid)
        return grid

    def config(self) -> dict:
        return {"command": "calibrate", "chart": "ewma",
                "lambdas": CALIBRATE_LAMBDAS, "targets": CALIBRATE_TARGETS}

    def argvs(self, seed: int, work_dir: Path) -> list[list[str]]:
        return [["calibrate", "--chart", "ewma", "--lambda", repr(lam),
                 "--target-arl0", repr(target)] for lam, target in self.grid(seed)]

    def digest_key(self, seed: int) -> str:
        return "*"  # the seed only reorders the calls

    def output(self, calls: list[Call], work_dir: Path) -> bytes:
        # Canonical order, so that every seed has the same digest.
        return "".join(sorted(" ".join(c.argv) + "\n" + c.stdout for c in calls)).encode()

    def evaluate(self, it: Iteration, work_dir: Path, oracles, cache: dict) -> None:
        for call in it.calls:
            lam = float(call.argv[call.argv.index("--lambda") + 1])
            target = float(call.argv[call.argv.index("--target-arl0") + 1])
            fields = call.stdout.split()
            try:
                limit = float(fields[fields.index("L") + 1])
                residual = abs(oracles.ewma_arl_markov(lam, limit, 0.0) - target)
            except (ValueError, IndexError):
                residual = math.inf
            it.checks.append((f"residual[{lam},{target:g}]",
                              residual < CALIBRATION_RESIDUAL, f"{residual:.3g}"))
        it.items = len(it.calls)


# Why each workload exists, and the layer it stresses, is in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Simulate("sim_long", L=2.454, rho=0.5, lam=0.1),
        Table1("table1"),
        Calibrate("calibrate"),
    )
}


class Runner:
    """Runs one workload at one seed and checks every iteration's outputs."""

    def __init__(self, workload, seed: int, work_dir: Path, cli, oracles, digests: dict):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.cli = cli
        self.oracles = oracles
        self.expected = digests.get(workload.name, {})
        self.iterations: list[Iteration] = []
        self._cache: dict = {}
        self.refs: list[float] = []  # reference timings, in the order they were taken

    def execute(self) -> Iteration:
        """Time one iteration of the workload; outputs are checked separately.

        A reference timing is taken before the run's first call and after
        every call, and each call's wall time is divided by the mean of the
        two timings next to it: its cost in reference units.
        """
        argvs = self.workload.argvs(self.seed, self.work_dir)
        if not self.refs:
            self.refs.append(time_reference(*self.workload.reference))
        it = Iteration(walls=[], first_ref=len(self.refs) - 1, calls=[])
        for argv in argvs:
            start = time.perf_counter()
            it.calls.append(call_cli(self.cli, argv))
            it.walls.append(time.perf_counter() - start)
            self.refs.append(time_reference(*self.workload.reference))
            it.rel += it.walls[-1] / (0.5 * (self.refs[-2] + self.refs[-1]))
        return it

    def evaluate(self, it: Iteration) -> Iteration:
        for i, call in enumerate(it.calls):
            it.checks.append((f"exit_code[{i}]", call.code == 0,
                              f"{call.code} {call.stderr.strip()[-200:]}"))
        try:
            it.digest = hashlib.sha256(self.workload.output(it.calls, self.work_dir)).hexdigest()
            self.workload.evaluate(it, self.work_dir, self.oracles, self._cache)
        except (OSError, ValueError, KeyError) as exc:
            it.checks.append(("outputs_readable", False, repr(exc)))
        expected = self.expected.get(self.workload.digest_key(self.seed))
        if expected is not None:
            it.checks.append(("digest_recorded", it.digest == expected, it.digest))
        if self.iterations:
            first = self.iterations[0].digest
            it.checks.append(("digest_repeats", it.digest == first, it.digest))
        self.iterations.append(it)
        return it

    def run_for(self, seconds: float) -> list[Iteration]:
        """Untraced iterations until ``seconds`` have passed (at least one)."""
        its = []
        start = time.perf_counter()
        while not its or time.perf_counter() - start < seconds:
            its.append(self.evaluate(self.execute()))
        return its

    def traced(self, tracer) -> Iteration:
        with tracer:
            it = self.execute()
        it.traced = True
        return self.evaluate(it)

    def check_counts(self) -> tuple[int, int]:
        checks = [c for it in self.iterations for c in it.checks]
        return len(checks), sum(not ok for _, ok, _ in checks)


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh interpreters importing ``aibmon.cli``.

    No timeout: waiting with one polls the child every 50 ms, which rounds
    every sample up to the next poll.
    """
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import aibmon.cli"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload, args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "aibmon_threads": os.environ.get("AIBMON_THREADS"),
        "workload": workload.name,
        "config": workload.config(),
        "argv": workload.argvs(args.seed, Path("<work_dir>")),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_program():
    """Import ``aibmon`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("aibmon.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"aibmon imported from {cli.__file__}, not {SRC}")
    return cli, importlib.import_module("aibmon.oracles")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    os.environ.pop("AIBMON_THREADS", None)
    compileall.compile_dir(str(SRC), quiet=1)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup = [] if args.trace else measure_setup(env)
    cli, oracles = import_program()
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    RUN_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUN_DIR))
    tracer = Tracer() if args.trace else None
    try:
        call_cli(cli, workload.warmup)
        runner = Runner(workload, args.seed, work_dir, cli, oracles, digests)
        if tracer is None:
            its = runner.run_for(args.seconds)
        else:
            its = runner.run_for(args.seconds / 2)
            traced = runner.traced(tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = runner.check_counts()
    rel = statistics.median(it.rel for it in its)
    items = runner.iterations[0].items
    if tracer is None:
        units = E2E_UNITS
        values = {
            "setup_s": statistics.median(setup),
            "wall_ref": rel,
            "items_per_ref": items / rel,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        units = LAYER_UNITS
        values = tracer.layer_metrics()
        values["trace_overhead_frac"] = traced.rel / rel - 1.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {
        "provenance": provenance(workload, args),
        "result": result,
        "setup_samples_s": setup,
        "reference_s": runner.refs,
        "iterations": [
            {"wall_s": it.wall, "wall_ref": it.rel, "traced": it.traced, "items": it.items,
             "call_wall_s": it.walls, "first_ref": it.first_ref, "digest": it.digest,
             "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in it.checks]}
            for it in runner.iterations
        ],
        "trace": tracer.dump() if tracer else None,
    }
    results_dir = RUN_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for it in runner.iterations:
        for name, ok, detail in it.checks:
            if not ok:
                print(f"check failed: {name}: {detail}", file=sys.stderr)
    if tracer and tracer.absent:
        print(f"layers absent: {', '.join(tracer.absent)}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed}: {len(its)} untraced iterations, "
          f"median wall_s {statistics.median(it.wall for it in its):.4g} s")
    print(f"  wall_s samples   {[round(it.wall, 4) for it in its]}")
    print(f"  wall_ref samples {[round(it.rel, 4) for it in its]}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {failed / attempted:.6g} ({failed}/{attempted} checks)")
    print(f"provenance written to {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so peak RSS is its own."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            totals["metrics"][f"{name}.{metric_name}"] = m
            rows.append((name, metric_name, m["value"], m["unit"]))
        rows.append((name, "fail_frac", result["failed"] / result["attempted"],
                     f"of {result['attempted']} checks"))
    print(f"{'workload':10s} {'metric':34s} {'value':>14s} unit")
    for name, metric_name, value, unit in rows:
        print(f"{name:10s} {metric_name:34s} {value:14.6g} {unit}")
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed handed to the workload (>= 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to measure; whole iterations, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced iteration")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds >= 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aibmon" / "__init__.py").is_file():
        print(f"error: no aibmon sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
