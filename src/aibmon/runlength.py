"""Monte Carlo run-length engine.

Drives a chart over scenario-generated subgroup streams until the first
signal and aggregates run-length statistics over independent replications.
Replication ``i`` of a study always uses the substream keyed
``substream_keys(master_seed, [i])``, so results are deterministic for a
fixed master seed no matter how replications are split into chunks or
spread over worker processes. Each chunk reads its substreams through one
``SubgroupStream``, the reader ``trace`` builds for one replication.

A study splits its replications into one contiguous share per worker, and
each share into equal chunks that run one after another. A chunk holds at
most ``_CHUNK`` rows at n <= 2 and proportionally fewer at larger n, so a
round's word block (at most ``_BLOCK_MAX`` subgroups a row, charted in
slices that widen as rows signal) does not grow with the subgroup size.
With more than one worker, the shares go to a pool of forked worker
processes that lives as long as the interpreter: the first study that
plans more than one worker forks it, a study that plans more grows it, and
every later study reuses it over pipes, so a process pays the fork, the
first-run page faults and the reaping once, not once per study. Each
message is one pickle, which marks its own end, read back as a stream.
The engine is bound by single-threaded C calls (Philox words, the ``ndtri``
decode) that hold the GIL, so threads would only queue behind each other.

Workers run the code as it was when they were forked: a later change to
this module's globals (a monkeypatched engine function, say) does not
reach them. Code that patches the engine must start from an empty pool
(``_shutdown_workers``). At exit the pool is killed and reaped; if the
process dies without running its exit hooks, each worker exits by itself
at EOF on its request pipe. A forked child of this process (a worker, or a
user's ``multiprocessing`` child) starts with an empty pool of its own.

The monitored party never learns of the shift: the chart statistic and
limits always use the in-control parameters, while the data-generating
means switch at the changepoint. Run lengths are 1-based and counted from
the changepoint-adjusted start (the first shifted subgroup); with a
changepoint of 0 that is simply the first subgroup.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import threading
import traceback
from dataclasses import dataclass
from signal import SIGKILL
from typing import BinaryIO, NoReturn

import numpy as np

from . import charts
from .charts import ChartSpec, difference_estimate
from .stochastics import (
    ProcessModel,
    ShiftScenario,
    SubgroupStream,
    check_int,
    load_engine_code,
    normals_from_words,
    pairs_from_normals,
    shifted_means,
    words_per_subgroup,
)

PERCENTILE_LEVELS = (5, 25, 50, 75, 95)

# Subgroups drawn per replication per round: 64, then 128 a round, which
# keeps a round's word block small and wastes few words on a long run. The
# schedule depends only on the round number, so per-replication consumption
# is identical however replications are chunked. A round is charted slice by
# slice, so a replication that signals early in a round never has the rest
# of its words decoded. A slice is _SLICE subgroups wide, or as wide as
# _SLICE_NORMALS decoded normals (rows x width x 2n) allow for fewer rows.
_BLOCK_FIRST = 64
_BLOCK_MAX = 128
_SLICE = 16
_SLICE_NORMALS = 4096
_CHUNK = 4096
# A process's first parallel study forks the pool and pays each worker's
# first-run page faults (about 3,000, 3-4 us each); later studies reuse it.
# Serial against two workers on 2 vCPUs, medians of 11 fresh processes, in
# ms, as serial -> first study / later study:
#   replications      1,000            2,000            4,000
#   ARL 200       45 -> 39 / 28    77 -> 63 / 44    137 -> 103 / 79
#   ARL 21        11 -> 17 / 7     17 -> 24 / 11     28 -> 34 / 18
#   ARL 7          8 -> 14 / 5     15 -> 21 / 9      29 -> 34 / 15
# (in-control EWMA, lambda 0.1; Shewhart at rho 0.75, delta_x 1 and 1.5).
# Warm workers beat serial everywhere, but a first study below ARL 200
# loses up to 4,000 replications, so a 1,000-replication study still runs
# serially.
_MIN_REPS_PER_WORKER = 1_000
_MAX_CENSORED_FRACTION = 0.001


class ExcessCensoring(Exception):
    """Too many replications hit the run-length cap for the summary to be trusted."""


@dataclass(frozen=True)
class RunLengthSummary:
    """Aggregate of one run-length study."""

    arl: float
    sdrl: float
    se_arl: float
    reps: int
    percentiles: dict[int, float]
    censored: int


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one run-length study needs."""

    model: ProcessModel
    scenario: ShiftScenario
    spec: ChartSpec
    reps: int = 50_000
    master_seed: int = 0
    rl_cap: int = 10_000_000

    def __post_init__(self):
        for name in ("reps", "rl_cap"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        # Run lengths, and the changepoint they are counted from, are int64.
        int64_max = int(np.iinfo(np.int64).max)
        if self.rl_cap > int64_max:
            raise ValueError(f"rl_cap must be <= {int64_max}, got {self.rl_cap}")
        if self.scenario.changepoint + self.rl_cap > int64_max:
            raise ValueError(
                f"changepoint + rl_cap must be <= {int64_max}, got "
                f"{self.scenario.changepoint} + {self.rl_cap}"
            )
        # Bounds the in-control subgroups each replication draws first.
        if self.scenario.changepoint > self.rl_cap:
            raise ValueError(
                f"changepoint must be <= rl_cap, got {self.scenario.changepoint} "
                f"> {self.rl_cap}"
            )
        object.__setattr__(
            self, "master_seed", check_int("master_seed", self.master_seed, 0, 2**64)
        )
        # A mean that overflows to inf makes a NaN statistic that never
        # signals, so every replication would run to rl_cap.
        means = shifted_means(self.model, self.scenario)
        if not np.isfinite(means).all():
            raise ValueError(f"shifted means (mu_y1, mu_x1) must be finite, got {means}")
        # The oracles read only the spec's lam and L and assume the limits
        # make_limits gives them for this model, so a spec built for another
        # model would make them disagree with the engine.
        spec, model = self.spec, self.model
        if spec != charts.make_limits(spec.kind, spec.lam, spec.limit_multiplier, model):
            raise ValueError("spec must be make_limits(kind, lam, L, model) for this model")


def _subgroup_statistics(
    model: ProcessModel, mu_y: float, mu_x: float, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subgroup means and chart statistic of a block of word slots.

    ``words`` has shape (rows, count, words_per_subgroup(n)); every subgroup
    of the block is drawn at the means ``mu_y`` and ``mu_x``. The statistic,
    the difference estimator, always uses the in-control auxiliary mean.
    Returns (x_bar, y_bar, z), each of shape (rows, count).
    """
    zx, ze = normals_from_words(model.n, words)
    y, x = pairs_from_normals(model, mu_y, mu_x, zx, ze)
    # ndarray.mean's own sum and divide, without its overhead.
    ybar, xbar = np.add.reduce(y, axis=2), np.add.reduce(x, axis=2)
    if model.n > 1:
        ybar /= model.n
        xbar /= model.n
    z = difference_estimate(ybar, xbar, model)
    return xbar, ybar, z


def _chunk_run_lengths(config: SimulationConfig, rep_indices: np.ndarray) -> np.ndarray:
    """Run lengths for a batch of replications, vectorized across the batch.

    Each replication consumes its own substream block by block; a block is
    decoded and charted slice by slice, and a replication that signals is
    dropped before the next slice. A slice that starts before the
    changepoint ends at it, so each slice is drawn at one pair of means. A
    censored replication reports the cap itself. Values are bit-identical
    to a scalar walk (sample_subgroup, the statistic, the EWMA recursion)
    over the same keys.
    """
    model, scenario, spec = config.model, config.scenario, config.spec
    changepoint, used = scenario.changepoint, 2 * model.n
    in_control, shifted = (model.mu_y0, model.mu_x0), shifted_means(model, scenario)
    source = SubgroupStream(model.n, config.master_seed, rep_indices)
    total = len(rep_indices)
    rl = np.zeros(total, dtype=np.int64)
    w = np.full(total, spec.center, dtype=np.float64)
    alive = np.arange(total)
    horizon = changepoint + config.rl_cap
    t0 = 0
    block = _BLOCK_FIRST
    while alive.size and t0 < horizon:
        count = min(block, horizon - t0)
        block = min(2 * block, _BLOCK_MAX)
        words = source.take_words(count, t0, alive)
        # Rows of ``words`` that belong to the replications still alive.
        sub = np.arange(alive.size)
        s = 0
        while s < count and alive.size:
            t = t0 + s
            width = max(_SLICE, _SLICE_NORMALS // (used * alive.size))
            if t < changepoint:
                width = min(width, changepoint - t)
            slice_words = words[sub, s : s + width, :used]
            means = in_control if t < changepoint else shifted
            _, _, z = _subgroup_statistics(model, *means, slice_words)
            path, signal = charts.ewma_path(spec, z, w)
            # Signals before the changepoint do not count.
            done = signal.any(axis=1) & (t >= changepoint)
            if done.any():
                rl[alive[done]] = t + 1 - changepoint + signal[done].argmax(axis=1)
                alive, sub, w = alive[~done], sub[~done], path[~done, -1]
            else:
                w = path[:, -1]
            s += width
        t0 += count

    rl[alive] = config.rl_cap
    return rl


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _plan(reps: int, requested: int, cpus: int) -> int:
    """Worker count for ``reps`` replications.

    Workers are capped by the request, the usable CPUs and
    ``_MIN_REPS_PER_WORKER``; one worker means no child.
    """
    return max(1, min(requested, cpus, reps // _MIN_REPS_PER_WORKER))


def simulate_run_lengths(
    config: SimulationConfig, threads: int = 1
) -> np.ndarray:
    """Run lengths of replications 0..reps-1; deterministic for a master seed.

    ``threads`` is the number of worker processes to use at most (see
    ``_plan``), each running one contiguous share in chunks (``_run_share``).
    A replication's run length depends only on its key, so shares and chunks
    change no value. Where the platform cannot fork, one share runs here.
    """
    threads = check_int("threads", threads, 1)
    indices = np.arange(config.reps, dtype=np.uint64)
    workers = _plan(config.reps, threads, usable_cpus())
    if workers > 1 and hasattr(os, "fork"):
        return _run_forked(config, np.array_split(indices, workers))
    return _run_share(config, indices)


def _run_share(config: SimulationConfig, share: np.ndarray) -> np.ndarray:
    """Run lengths of ``share``, in equal chunks of at most ``_CHUNK`` rows at
    n <= 2; larger subgroups get the same word budget in fewer rows."""
    rows = max(1, _CHUNK * words_per_subgroup(1) // words_per_subgroup(config.model.n))
    chunks = np.array_split(share, -(-share.size // rows))
    return np.concatenate([_chunk_run_lengths(config, c) for c in chunks])


def _run_forked(config: SimulationConfig, shares: list[np.ndarray]) -> np.ndarray:
    """Run lengths of the shares in order, one pool worker per share.

    Not spawn: a spawned worker imports aibmon, numpy and scipy afresh
    (0.26 s, median of 11 fresh ``import aibmon.cli`` on 2 vCPUs), three
    times a whole serial 10,000-replication study at ARL 21 (0.09 s) and
    most of one at ARL 200 (0.36 s). The workers persist between calls
    (``_pool``); the caller sends every share, then reads the replies in
    order. A worker's exception is raised here. If a worker fails or dies,
    or this call leaves by any exception while the workers are busy, the
    whole pool is killed and reaped with every pipe end closed, and the
    next call forks a new one. So the workers are idle whenever the lock is
    free, and killing them at exit (``_shutdown_workers``) loses nothing.
    """
    with _workers_lock:
        workers = _pool(len(shares))
        pid = 0
        try:
            for (pid, request_fd, _), share in zip(workers, shares):
                _send(request_fd, (config, share))
            results = []
            for pid, _, replies in workers:
                run_lengths, failure = _recv(replies)
                if failure:
                    break
                results.append(run_lengths)
        except (BrokenPipeError, EOFError, pickle.UnpicklingError):
            status = _kill_workers()[pid]
            raise RuntimeError(f"worker process {pid} died, wait status {status}") from None
        except BaseException:
            _kill_workers()
            raise
        if failure:
            _kill_workers()
            exc, text = failure
            raise exc from RuntimeError(f"in worker process {pid}:\n{text}")
    return np.concatenate(results)


# The pool: (pid, request write fd, reply reader) per worker. Guarded by
# _workers_lock; emptied in every forked child by _forget_workers.
_workers: list[tuple[int, int, BinaryIO]] = []
_workers_lock = threading.Lock()


def _pool(size: int) -> list[tuple[int, int, BinaryIO]]:
    """The first ``size`` workers, forking those missing.

    A worker that died while idle (a Ctrl-C reaches the whole process
    group) is reaped and replaced.
    """
    # Loaded here, workers inherit what the engine loads at its first use.
    load_engine_code()
    for worker in [w for w in _workers if os.waitpid(w[0], os.WNOHANG)[0]]:
        _workers.remove(worker)
        _close(worker)
    while len(_workers) < size:
        request_read, request_write = os.pipe()
        reply_read, reply_write = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                os.close(request_write)
                os.close(reply_read)
                _serve(request_read, reply_write)
            _workers.append((pid, request_write, open(reply_read, "rb")))
        except BaseException:
            os.close(request_write)
            os.close(reply_read)
            raise
        finally:
            os.close(request_read)
            os.close(reply_write)
    return _workers[:size]


def _serve(request_fd: int, reply_fd: int) -> NoReturn:
    """Body of a pool worker; it never returns.

    Answers each request, a (config, share), with (run lengths, None) or, if
    the share raised, (None, (exception, traceback text)). It exits at EOF
    (the caller closed the pipe, or died without running its exit hooks), on
    a failed reply write and on any exception outside a share.
    """
    try:
        requests = open(request_fd, "rb")
        while True:
            config, share = _recv(requests)
            try:
                reply = (_run_share(config, share), None)
            except BaseException as exc:
                reply = (None, _picklable_failure(exc))
            _send(reply_fd, reply)
    finally:
        os._exit(0)


def _picklable_failure(exc: BaseException) -> tuple[BaseException, str]:
    """``exc`` and its traceback text, with a RuntimeError in place of an
    ``exc`` that won't pickle."""
    text = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(
            f"worker process {os.getpid()} raised {type(exc).__name__}, "
            "which cannot be pickled"
        )
    return exc, text


def _send(fd: int, obj: object) -> None:
    """Writes ``obj`` as one pickle, unbuffered: a forked child must not
    inherit unflushed bytes and write them again."""
    view = memoryview(pickle.dumps(obj))
    while view:
        view = view[os.write(fd, view) :]


def _recv(reader: BinaryIO) -> object:
    """The object of one ``_send`` message; EOFError if the writer closes
    first, UnpicklingError if it closes mid-message. ``reader`` must be
    buffered: pickle takes an unbuffered pipe's short reads for truncation."""
    return pickle.load(reader)


def _close(worker: tuple[int, int, BinaryIO]) -> None:
    """Closes this process's two pipe ends of ``worker``; the reader through
    its raw file, since in a forked child a parent thread that was reading
    may hold the buffered reader's lock, and ``close`` would wait forever."""
    os.close(worker[1])
    worker[2].raw.close()


def _kill_workers() -> dict[int, int]:
    """SIGKILL, reap and forget every worker; returns their wait statuses."""
    statuses = {}
    while _workers:
        worker = _workers.pop()
        _close(worker)
        os.kill(worker[0], SIGKILL)
        statuses[worker[0]] = os.waitpid(worker[0], 0)[1]
    return statuses


def _shutdown_workers() -> None:
    """Kill and reap the pool once no study is using it.

    Runs at exit; the next parallel study forks a new pool.
    """
    with _workers_lock:
        _kill_workers()


def _forget_workers() -> None:
    """In a forked child: drop the parent's pool, which is not the child's."""
    global _workers_lock
    _workers_lock = threading.Lock()
    for worker in _workers:
        _close(worker)
    _workers.clear()


atexit.register(_shutdown_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def summarize_run_lengths(rl: np.ndarray, rl_cap: int) -> RunLengthSummary:
    """Aggregate a run-length sample; refuses samples with heavy censoring."""
    reps = rl.size
    censored = int((rl >= rl_cap).sum())
    if censored / reps >= _MAX_CENSORED_FRACTION:
        raise ExcessCensoring(
            f"{censored}/{reps} replications hit the run-length cap {rl_cap}"
        )
    arl = float(rl.mean())
    sdrl = float(rl.std(ddof=1)) if reps > 1 else 0.0
    pcts = np.percentile(rl, PERCENTILE_LEVELS)
    return RunLengthSummary(
        arl=arl,
        sdrl=sdrl,
        se_arl=sdrl / math.sqrt(reps),
        reps=reps,
        percentiles={lv: float(p) for lv, p in zip(PERCENTILE_LEVELS, pcts)},
        censored=censored,
    )


def estimate_runlength(config: SimulationConfig, threads: int = 1) -> RunLengthSummary:
    """Monte Carlo ARL/SDRL/percentiles over ``config.reps`` replications."""
    return summarize_run_lengths(simulate_run_lengths(config, threads), config.rl_cap)


@dataclass(frozen=True)
class TracePoint:
    """One emitted subgroup of a full chart path."""

    t: int
    x_bar: float
    y_bar: float
    z: float
    w: float
    lcl: float
    ucl: float
    signal: bool
    regime: str


def trace(
    config: SimulationConfig, replication: int, n_subgroups: int
) -> list[TracePoint]:
    """Chart path over ``n_subgroups`` subgroups, not stopping at signals, of
    the replication the engine keys ``substream_keys(master_seed,
    [replication])``. Subgroups up to the changepoint are drawn at the
    in-control means, the rest at the shifted ones."""
    n_subgroups = check_int("n_subgroups", n_subgroups, 1)
    model, scenario, spec = config.model, config.scenario, config.spec
    in_control, shifted = (model.mu_y0, model.mu_x0), shifted_means(model, scenario)
    shifted_label = "out-of-control" if shifted != in_control else "in-control"
    stream = SubgroupStream(model.n, config.master_seed, [replication])
    words = stream.take_words(n_subgroups)
    k = min(scenario.changepoint, n_subgroups)
    parts = zip(
        _subgroup_statistics(model, *in_control, words[:, :k]),
        _subgroup_statistics(model, *shifted, words[:, k:]),
    )
    xbar, ybar, z = (np.concatenate(part, axis=1) for part in parts)
    path, signal = charts.ewma_path(spec, z, spec.center)
    return [
        TracePoint(
            t=t,
            x_bar=x_bar,
            y_bar=y_bar,
            z=z_t,
            w=w,
            lcl=spec.lcl,
            ucl=spec.ucl,
            signal=sig,
            regime="in-control" if t <= scenario.changepoint else shifted_label,
        )
        for t, x_bar, y_bar, z_t, w, sig in zip(
            range(1, n_subgroups + 1),
            xbar[0].tolist(),
            ybar[0].tolist(),
            z[0].tolist(),
            path[0].tolist(),
            signal[0].tolist(),
        )
    ]
