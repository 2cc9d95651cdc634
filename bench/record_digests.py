#!/usr/bin/env python3
"""Record the output digests the benchmark checks, into ``bench/digests.json``.

    python3 bench/record_digests.py --seeds 0-12

Runs each workload once per seed (untimed, all checks applied) and stores
the sha256 of its canonical output bytes. Record only at a commit whose
outputs are known good: later runs at a recorded seed then fail their
``digest_recorded`` check whenever the output bytes change. Existing entries
are kept unless recorded again.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-12")
    parser.add_argument("--workload", choices=list(run.WORKLOADS), action="append",
                        help="repeatable; default: every workload")
    args = parser.parse_args(argv)

    cli, oracles = run.import_program()
    digests = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    run.RUN_DIR.mkdir(exist_ok=True)
    for name in args.workload or run.WORKLOADS:
        workload = run.WORKLOADS[name]
        recorded = digests.setdefault(name, {})
        for seed in args.seeds:
            key = workload.digest_key(seed)
            work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.RUN_DIR))
            try:
                runner = run.Runner(workload, seed, work_dir, cli, oracles, {})
                it = runner.evaluate(runner.execute())
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            failed = [n for n, ok, _ in it.checks if not ok]
            if failed:
                print(f"error: {name} seed {seed} failed {failed}", file=sys.stderr)
                return 1
            recorded[key] = it.digest
            print(f"{name} {key} {it.digest} ({it.wall:.2f} s)", flush=True)
            if key == "*":
                break
        digests[name] = dict(sorted(recorded.items(), key=lambda kv: (len(kv[0]), kv[0])))
    digests = {name: digests[name] for name in run.WORKLOADS if name in digests}
    run.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
