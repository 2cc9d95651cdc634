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


def test_every_benchmark_hook_resolves(monkeypatch):
    # The benchmark reports a hook whose target is gone as absent and its
    # layer as zero work, so a deleted or renamed name would pass unnoticed.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import layers

    assert len(layers.HOOKS) == 12
    absent = [f"{h.module}.{h.attr}" for h in layers.HOOKS if layers._resolve(h) is None]
    assert not absent, absent
