"""Per-layer tracing for the benchmark: hooks installed from outside the package.

The tracer replaces module attributes of ``aibmon`` with timing wrappers for
one traced iteration and restores them afterwards. Nothing inside the package
changes, so an untraced run executes exactly the code a user runs.

Two kinds of hook exist:

* ``SPAN`` records one span per call (id, parent id, name, start, end).
  Used for calls that happen a few hundred times per iteration.
* ``AGGREGATE`` records one entry per (parent span, name) holding the call
  count and total seconds. Used for the per-replication calls
  (``SubgroupStream(...)`` and ``take_words``), which happen about 1.6 million
  times per ``table1`` iteration; one span each would not fit in memory.

Spans and aggregates stay in memory and are written out when the benchmark
ends. A span's self time is its duration minus the time of its direct
children. A hook whose target no longer exists is listed in ``absent`` and
its layer reports zero work instead of failing the run.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

SPAN = "span"
AGGREGATE = "aggregate"


def _count_take_words(counters, args, kwargs, result):
    count = args[1] if len(args) > 1 else kwargs["count"]
    counters["subgroups_generated"] += int(count)
    counters["word_bytes_computed"] += int(result.nbytes)


def _count_run_lengths(counters, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    # Each replication draws the changepoint's in-control subgroups and
    # then stops at its (possibly capped) run length.
    counters["subgroups_used"] += int(result.sum()) + (
        config.scenario.changepoint * int(result.size)
    )


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap: ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    name: str
    kind: str = SPAN
    count: Optional[Callable] = None


# Modules look up each other's functions through their own namespace
# (``from .runlength import estimate_runlength``), so a function is hooked
# under every module name that the workloads call it through.
HOOKS = (
    Hook("aibmon.cli", "main", "cli.main"),
    Hook("aibmon.cli", "calibrate_limit", "oracles.calibrate_limit"),
    Hook("aibmon.cli", "ewma_arl_markov", "oracles.ewma_arl_markov"),
    Hook("aibmon.oracles", "ewma_arl_markov", "oracles.ewma_arl_markov"),
    # One study cell is one estimate_runlength call, whether a grid in
    # experiments makes it or the benchmark issues the cell as a simulate call.
    Hook("aibmon.experiments", "estimate_runlength", "experiments.cell"),
    Hook("aibmon.cli", "estimate_runlength", "experiments.cell"),
    Hook("aibmon.runlength", "simulate_run_lengths", "runlength.simulate_run_lengths",
         count=_count_run_lengths),
    Hook("aibmon.runlength", "summarize_run_lengths", "runlength.summarize_run_lengths"),
    Hook("aibmon.runlength", "normals_from_words", "stochastics.normals_from_words"),
    Hook("aibmon.runlength", "pairs_from_normals", "stochastics.pairs_from_normals"),
    Hook("aibmon.runlength", "SubgroupStream", "stochastics.SubgroupStream", AGGREGATE),
    Hook("aibmon.stochastics", "SubgroupStream.take_words", "stochastics.take_words",
         AGGREGATE, _count_take_words),
)

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "stochastics.key_setup_s": "s",
    "stochastics.streams_built": "count",
    "stochastics.word_gen_s": "s",
    "stochastics.decode_s": "s",
    "stochastics.pairs_s": "s",
    "stochastics.subgroups_generated": "count",
    "stochastics.word_bytes_computed": "bytes",
    "runlength.engine_s": "s",
    "runlength.recursion_self_s": "s",
    "runlength.subgroups_used": "count",
    "runlength.waste_ratio": "ratio",
    "runlength.rounds": "count",
    "runlength.summary_s": "s",
    "oracles.markov_solves": "count",
    "oracles.markov_s": "s",
    "oracles.calibrate_self_s": "s",
    "experiments.cell_s_p50": "s",
    "experiments.cell_s_p80": "s",
    "cli.self_s": "s",
    "trace_overhead_frac": "fraction",
}


def _resolve(hook: Hook):
    """(owner object, attribute name) of a hook, or None if it is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, leaf = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf


class Tracer:
    """Collects spans, aggregates and counters while its hooks are installed."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[int, str], list] = {}
        self.counters: dict[str, int] = {
            "subgroups_generated": 0,
            "word_bytes_computed": 0,
            "subgroups_used": 0,
        }
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._next_id = 1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def _wrap(self, hook: Hook, original):
        tracer = self

        if hook.kind == AGGREGATE:
            def wrapper(*args, **kwargs):
                parent = tracer._stack()[-1]
                start = time.perf_counter()
                result = original(*args, **kwargs)
                elapsed = time.perf_counter() - start
                with tracer._lock:
                    entry = tracer.aggregates.setdefault((parent, hook.name), [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    if hook.count is not None:
                        hook.count(tracer.counters, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                with tracer._lock:
                    span_id = tracer._next_id
                    tracer._next_id += 1
                span = {"id": span_id, "parent": stack[-1], "name": hook.name}
                stack.append(span_id)
                span["start"] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span["end"] = time.perf_counter()
                    stack.pop()
                    with tracer._lock:
                        tracer.spans.append(span)
                if hook.count is not None:
                    with tracer._lock:
                        hook.count(tracer.counters, args, kwargs, result)
                return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        for hook in self.hooks:
            target = _resolve(hook)
            if target is None:
                self.absent.append(f"{hook.module}.{hook.attr}")
                continue
            owner, leaf = target
            original = getattr(owner, leaf)
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(hook, original))

    def remove(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time of its direct children."""
        self_s = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] in self_s:
                self_s[s["parent"]] -= s["end"] - s["start"]
        for (parent, _), (_, seconds) in self.aggregates.items():
            if parent in self_s:
                self_s[parent] -= seconds
        return self_s

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (overhead excluded)."""
        by_name: dict[str, list[dict]] = {}
        for s in self.spans:
            by_name.setdefault(s["name"], []).append(s)
        self_s = self.self_times()

        def total(name):
            return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

        def self_total(name):
            return sum(self_s[s["id"]] for s in by_name.get(name, ()))

        def aggregate(name, field):
            return sum(v[field] for (_, n), v in self.aggregates.items() if n == name)

        cells = sorted(
            s["end"] - s["start"] for s in by_name.get("experiments.cell", ())
        )
        if len(cells) >= 2:
            quartiles = statistics.quantiles(cells, n=10, method="inclusive")
            cell_p50, cell_p80 = statistics.median(cells), quartiles[7]
        else:
            cell_p50 = cell_p80 = cells[0] if cells else 0.0

        engine_ids = {s["id"] for s in by_name.get("runlength.simulate_run_lengths", ())}
        rounds = sum(
            1 for s in by_name.get("stochastics.normals_from_words", ())
            if s["parent"] in engine_ids
        )
        generated = self.counters["subgroups_generated"]
        used = self.counters["subgroups_used"]
        return {
            "stochastics.key_setup_s": aggregate("stochastics.SubgroupStream", 1),
            "stochastics.streams_built": aggregate("stochastics.SubgroupStream", 0),
            "stochastics.word_gen_s": aggregate("stochastics.take_words", 1),
            "stochastics.decode_s": total("stochastics.normals_from_words"),
            "stochastics.pairs_s": total("stochastics.pairs_from_normals"),
            "stochastics.subgroups_generated": generated,
            "stochastics.word_bytes_computed": self.counters["word_bytes_computed"],
            "runlength.engine_s": total("runlength.simulate_run_lengths"),
            "runlength.recursion_self_s": self_total("runlength.simulate_run_lengths"),
            "runlength.subgroups_used": used,
            "runlength.waste_ratio": generated / used if used else 0.0,
            "runlength.rounds": rounds,
            "runlength.summary_s": total("runlength.summarize_run_lengths"),
            "oracles.markov_solves": len(by_name.get("oracles.ewma_arl_markov", ())),
            "oracles.markov_s": total("oracles.ewma_arl_markov"),
            "oracles.calibrate_self_s": self_total("oracles.calibrate_limit"),
            "experiments.cell_s_p50": cell_p50,
            "experiments.cell_s_p80": cell_p80,
            "cli.self_s": self_total("cli.main"),
        }

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "absent": list(self.absent),
            "counters": dict(self.counters),
            "spans": self.spans,
            "aggregates": [
                {"parent": parent, "name": name, "calls": calls, "seconds": seconds}
                for (parent, name), (calls, seconds) in self.aggregates.items()
            ],
        }
