import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import aibmon


def test_public_names_resolve_and_star_import_works():
    # A stale __all__ entry breaks only `from aibmon import *`, which no
    # other test runs.
    missing = [name for name in aibmon.__all__ if not hasattr(aibmon, name)]
    assert not missing, missing
    assert len(set(aibmon.__all__)) == len(aibmon.__all__)
    namespace = {}
    exec("from aibmon import *", namespace)
    assert set(aibmon.__all__) <= set(namespace)


def test_readme_quick_start_runs_as_written():
    # The snippet prints the Monte Carlo ARL and its analytic cross-check; a
    # renamed or deleted name it imports fails here.
    src = Path(aibmon.__file__).parents[1]
    readme = (src.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    mc, oracle = map(float, run.stdout.split())
    assert abs(mc - oracle) <= 0.02 * oracle, (mc, oracle)


def test_readme_layout_names_every_module():
    # The Layout block lists each module once; a module added, renamed or
    # deleted without its line there fails here.
    package = Path(aibmon.__file__).parent
    readme = (package.parents[1] / "README.md").read_text()
    block = re.search(r"```\n(.*?)```", readme.split("## Layout", 1)[1], re.S).group(1)
    listed = re.findall(r"^\s+(\w+\.py)\s", block, re.M)
    modules = [p.name for p in package.glob("*.py") if p.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)


def test_source_parses_at_the_python_floor():
    # Syntax newer than requires-python (except* at a 3.10 floor) would
    # otherwise show only on CI's oldest leg.
    package = Path(aibmon.__file__).parent
    pyproject = (package.parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    version = tuple(map(int, floor.groups()))
    for path in sorted(package.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_every_benchmark_hook_resolves(monkeypatch):
    # The benchmark reports a hook whose target is gone as absent and its
    # layer as zero work, so a deleted or renamed name would pass unnoticed.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import layers

    assert len(layers.HOOKS) == 12
    absent = [f"{h.module}.{h.attr}" for h in layers.HOOKS if layers._resolve(h) is None]
    assert not absent, absent


def test_benchmark_stream_hooks_count_the_engines_reads(monkeypatch):
    # The stream hooks wrap the engine's live reader: one SubgroupStream per
    # chunk, and take_words's words are the bytes the engine drew. A change
    # to the reader's name or signature would otherwise show only as zeros
    # in the benchmark's per-layer report.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import layers
    import numpy as np
    from aibmon import ChartKind, ProcessModel, ShiftScenario, SimulationConfig
    from aibmon import make_limits, runlength

    model = ProcessModel.standard(0.5)
    spec = make_limits(ChartKind.EWMA, 0.2, 2.636, model)
    config = SimulationConfig(model, ShiftScenario(delta_x=0.5), spec, reps=5_000,
                              master_seed=9)
    untraced = runlength.simulate_run_lengths(config, threads=1)
    tracer = layers.Tracer()
    with tracer:
        traced = runlength.simulate_run_lengths(config, threads=1)
    assert np.array_equal(traced, untraced)
    assert tracer.absent == []
    assert isinstance(runlength.SubgroupStream, type)

    # Chunks of at most _CHUNK rows at n = 1; each round draws 64, then 128
    # subgroups of 4 words for the rows that have not signalled before it.
    chunks = np.array_split(untraced, -(-untraced.size // runlength._CHUNK))
    drawn = 0
    for rl in chunks:
        t0, count = 0, runlength._BLOCK_FIRST
        while (rl > t0).any():
            drawn += int((rl > t0).sum()) * count * 4 * 8
            t0, count = t0 + count, runlength._BLOCK_MAX
    metrics = tracer.layer_metrics()
    assert len(chunks) == 2
    assert metrics["stochastics.streams_built"] == len(chunks)
    assert metrics["stochastics.word_bytes_computed"] == drawn
