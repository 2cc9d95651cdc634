"""Tests of the benchmark itself (stdlib unittest; about a minute).

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CLI, ORACLES = run.import_program()
EXPERIMENTS = sys.modules["aibmon.experiments"]
RUNLENGTH = sys.modules["aibmon.runlength"]
run.RUN_DIR.mkdir(exist_ok=True)


def bench_result(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestSpec(unittest.TestCase):
    def test_spec_matches_the_code(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, layers.LAYER_UNITS)
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"]))


class TestEmittedMetrics(unittest.TestCase):
    def check_result(self, result: dict, spec: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in spec},
        )
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_metrics_emitted_with_units(self):
        result = bench_result("--workload", "sim_long", "--seed", "3",
                              "--seconds", "0", "--trace", "0")
        self.check_result(result, SPEC["end_to_end"])
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_per_layer_metrics_emitted_with_units(self):
        result = bench_result("--workload", "calibrate", "--seed", "3",
                              "--seconds", "0", "--trace", "1")
        self.check_result(result, SPEC["per_layer"])
        solves = result["metrics"]["oracles.markov_solves"]["value"]
        self.assertGreaterEqual(solves, 10 * len(run.WORKLOADS["calibrate"].grid(3)))


class TestTracer(unittest.TestCase):
    def test_counts_reconcile_on_a_reduced_grid(self):
        grid = EXPERIMENTS.table1_grid()[:3]
        tracer = layers.Tracer()
        with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp, \
                mock.patch("aibmon.experiments.table1_grid", return_value=grid):
            with tracer:
                call = run.call_cli(CLI, ["table1", "--reps", "10000", "--seed", "5",
                                          "--out", str(Path(tmp) / "t.csv")])
        self.assertEqual(call.code, 0)
        m = tracer.layer_metrics()
        self.assertEqual(m["stochastics.streams_built"], 3 * 10_000)
        self.assertGreaterEqual(m["stochastics.subgroups_generated"],
                                m["runlength.subgroups_used"])
        self.assertGreater(m["runlength.subgroups_used"], 0)
        self.assertEqual(m["stochastics.word_bytes_computed"],
                         m["stochastics.subgroups_generated"] * 4 * 8)
        self.assertGreaterEqual(m["runlength.rounds"], 3)
        self.assertGreaterEqual(m["runlength.recursion_self_s"], 0.0)
        self.assertGreater(m["experiments.cell_s_p50"], 0.0)
        self.assertEqual(m["oracles.markov_solves"], 0)
        self.assertEqual(tracer.absent, [])
        # Hooks are gone once the tracer exits.
        self.assertIsInstance(RUNLENGTH.SubgroupStream, type)
        self.assertFalse(hasattr(CLI.main, "__wrapped__"))
        self.assertFalse(hasattr(RUNLENGTH.SubgroupStream.take_words, "__wrapped__"))

    def test_missing_hook_target_is_reported_absent(self):
        hooks = layers.HOOKS + (
            layers.Hook("aibmon.runlength", "no_such_function", "runlength.gone"),
            layers.Hook("aibmon.no_such_module", "f", "gone.module"),
        )
        tracer = layers.Tracer(hooks)
        with tracer:
            call = run.call_cli(CLI, ["calibrate", "--chart", "shewhart",
                                      "--target-arl0", "200"])
        self.assertEqual(call.code, 0)
        self.assertEqual(tracer.absent, ["aibmon.runlength.no_such_function",
                                         "aibmon.no_such_module.f"])
        self.assertGreater(tracer.layer_metrics()["cli.self_s"], 0.0)


class TestReference(unittest.TestCase):
    def test_each_call_is_divided_by_its_adjacent_references(self):
        workload = replace(run.WORKLOADS["sim_long"], delta_x=3.0)
        # Every two neighbouring timings average to 2.0.
        timings = iter([1.0, 3.0, 1.0, 3.0, 1.0, 3.0])
        walls = []
        real_call_cli = run.call_cli

        def timed_call(cli, argv):
            start = time.perf_counter()
            call = real_call_cli(cli, argv)
            walls.append(time.perf_counter() - start)
            return call

        work_dir = Path(tempfile.mkdtemp(dir=run.RUN_DIR))
        try:
            with mock.patch("run.time_reference", lambda kind, repeats: next(timings)), \
                    mock.patch("run.call_cli", timed_call):
                runner = run.Runner(workload, 2, work_dir, CLI, ORACLES, {})
                it = runner.execute()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        # One reference before the first call and one after every call.
        self.assertEqual(len(it.calls), run.SIM_CALLS)
        self.assertEqual(len(runner.refs), run.SIM_CALLS + 1)
        self.assertLessEqual(sum(walls), it.wall)
        self.assertAlmostEqual(it.rel, sum(walls) / 2.0, delta=1e-3 * it.wall)

    def test_reference_work_is_fixed(self):
        self.assertEqual(reference.engine_unit(), reference.engine_unit())
        self.assertGreater(reference.oracle_unit(), 1.0)
        self.assertGreater(reference.time_reference("engine", 1), 0.0)


class TestTable1Cells(unittest.TestCase):
    def test_cells_rebuild_the_table1_output(self):
        grid = EXPERIMENTS.table1_grid()[8:11]
        workload = run.WORKLOADS["table1"]
        with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp, \
                mock.patch("aibmon.experiments.table1_grid", return_value=grid):
            call = run.call_cli(CLI, ["table1", "--reps", "10000", "--seed", "6",
                                      "--out", str(Path(tmp) / "t.csv")])
            expected = (Path(tmp) / "t.csv").read_bytes()
            runner = run.Runner(workload, 6, Path(tmp), CLI, ORACLES, {})
            it = runner.evaluate(runner.execute())
            self.assertEqual(workload.output(it.calls, Path(tmp)), expected)
        self.assertEqual(call.code, 0)
        self.assertEqual(len(it.calls), 3)
        self.assertEqual(it.items, 3 * run.TABLE1_REPS)
        # The workload insists on the whole grid.
        self.assertEqual([n for n, ok, _ in it.checks if not ok], ["cells_pass_60_of_60"])


class TestChecks(unittest.TestCase):
    def test_corrupted_digest_counts_as_failure(self):
        # A large shift keeps the runs short; the checks are the same.
        workload = replace(run.WORKLOADS["sim_long"], delta_x=3.0)
        work_dir = Path(tempfile.mkdtemp(dir=run.RUN_DIR))
        try:
            honest = run.Runner(workload, 4, work_dir, CLI, ORACLES, {})
            digest = honest.evaluate(honest.execute()).digest
            honest.evaluate(honest.execute())
            self.assertEqual(honest.check_counts()[1], 0)

            corrupted = digest[:-1] + ("0" if digest[-1] != "0" else "1")
            runner = run.Runner(workload, 4, work_dir, CLI, ORACLES,
                                {workload.name: {"4": corrupted}})
            it = runner.evaluate(runner.execute())
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        self.assertEqual(it.digest, digest)
        self.assertEqual([n for n, ok, _ in it.checks if not ok], ["digest_recorded"])
        attempted, failed = runner.check_counts()
        self.assertEqual(failed, 1)
        self.assertGreater(attempted, failed)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload", "sim_long",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
