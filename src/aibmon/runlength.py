"""Monte Carlo run-length engine.

Drives a chart over scenario-generated subgroup streams until the first
signal and aggregates run-length statistics over independent replications.
Replication ``i`` of a study always uses the substream addressed by
``StreamKey(master_seed, i)``, so results are deterministic for a fixed
master seed no matter how replications are split into chunks or spread
over worker processes.

A study splits its replications into one contiguous share per worker, and
each share into equal chunks of at most ``_CHUNK`` rows that run one after
another. With more than one worker, the shares go to a pool of forked
worker processes that lives as long as the interpreter: the first study
that plans more than one worker forks it, a study that plans more grows
it, and every later study reuses it over pipes, so a process pays the
fork, the first-run page faults and the reaping once, not once per study.
The engine is bound by single-threaded C calls (Philox words, the ``ndtri``
decode) that hold the GIL, so threads would only queue behind each other.

Workers run the code as it was when they were forked: a later change to
this module's globals (a monkeypatched engine function, say) does not
reach them. Code that patches the engine must start from an empty pool
(``_shutdown_workers``). The pool is shut down at exit, and a forked
child of this process (a worker, or a user's ``multiprocessing`` child)
starts with an empty pool of its own.

The monitored party never learns of the shift: the chart statistic and
limits always use the in-control parameters, while the data-generating
means switch at the changepoint. Run lengths are 1-based and counted from
the changepoint-adjusted start (the first shifted subgroup); with a
changepoint of 0 that is simply the first subgroup.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import traceback
from dataclasses import dataclass
from signal import SIGKILL
from typing import NoReturn

import numpy as np

from . import charts
from .charts import ChartSpec
from .errors import ExcessCensoring
from .estimators import SampleMoments, difference_estimate
from .stochastics import (
    ProcessModel,
    ShiftScenario,
    StreamKey,
    SubgroupStream,
    SubstreamWords,
    check_u64,
    normals_from_words,
    pairs_from_normals,
    shifted_means,
    substream_keys,
)

PERCENTILE_LEVELS = (5, 25, 50, 75, 95)

# Subgroups drawn per replication per round: geometric growth keeps short
# runs cheap without many Python-level rounds for long ones. The schedule
# depends only on the round number, so per-replication consumption is
# identical however replications are chunked. A round's words are decoded
# and charted _SLICE subgroups at a time, so a replication that signals
# early in a round never has the rest of its words decoded.
_BLOCK_FIRST = 64
_SLICE = 16
_BLOCK_MAX = 1024
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
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
        check_u64("master_seed", self.master_seed)


def _subgroup_statistics(
    model: ProcessModel, scenario: ShiftScenario, words: np.ndarray, t0: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subgroup means and chart statistic of a block of word slots.

    ``words`` has shape (rows, count, words_per_subgroup(n)) and holds the
    subgroups that follow the first ``t0`` of each row. Subgroups up to the
    changepoint are drawn at the in-control means, the rest at the shifted
    ones; the statistic, the difference estimator, always uses the
    in-control auxiliary mean. Returns (x_bar, y_bar, z), each of shape
    (rows, count).
    """
    rows, count = words.shape[:2]
    zx, ze = normals_from_words(model.n, words)
    mu_y1, mu_x1 = shifted_means(model, scenario)
    ybar = np.empty((rows, count))
    xbar = np.empty((rows, count))
    split = min(max(scenario.changepoint - t0, 0), count)
    for sl, mu_y, mu_x in (
        (slice(0, split), model.mu_y0, model.mu_x0),
        (slice(split, count), mu_y1, mu_x1),
    ):
        if sl.start == sl.stop:
            continue
        y, x = pairs_from_normals(model, mu_y, mu_x, zx[:, sl], ze[:, sl])
        ybar[:, sl] = y.mean(axis=2)
        xbar[:, sl] = x.mean(axis=2)
    z = difference_estimate(SampleMoments(ybar, xbar, None, None, None), model)
    return xbar, ybar, z


def _chunk_run_lengths(config: SimulationConfig, rep_indices: np.ndarray) -> np.ndarray:
    """Run lengths for a batch of replications, vectorized across the batch.

    Each replication consumes its own substream block by block; a block is
    decoded and charted slice by slice, and a replication that signals is
    dropped before the next slice. A censored replication reports the cap
    itself. Values are bit-identical to a scalar walk (sample_subgroup, the
    statistic, the EWMA recursion) over the same keys.
    """
    model, scenario, spec = config.model, config.scenario, config.spec
    changepoint = scenario.changepoint
    source = SubstreamWords(model.n, substream_keys(config.master_seed, rep_indices))
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
        words = source.take(alive, t0, count)
        # Rows of ``words`` that belong to the replications still alive.
        sub = np.arange(alive.size)
        for s in range(0, count, _SLICE):
            if not alive.size:
                break
            t = t0 + s
            slice_words = words[sub, s : s + _SLICE]
            _, _, z = _subgroup_statistics(model, scenario, slice_words, t)
            path, signal = charts.ewma_path(spec, z, w[alive])
            w[alive] = path[:, -1]
            # Signals up to the changepoint do not count.
            signal[:, : max(changepoint - t, 0)] = False
            done = signal.any(axis=1)
            rl[alive[done]] = t + 1 - changepoint + signal[done].argmax(axis=1)
            alive, sub = alive[~done], sub[~done]
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
    indices = np.arange(config.reps, dtype=np.uint64)
    workers = _plan(config.reps, threads, usable_cpus())
    if workers > 1 and hasattr(os, "fork"):
        return _run_forked(config, np.array_split(indices, workers))
    return _run_share(config, indices)


def _run_share(config: SimulationConfig, share: np.ndarray) -> np.ndarray:
    """Run lengths of ``share``, in equal chunks of at most ``_CHUNK`` rows."""
    chunks = np.array_split(share, -(-share.size // _CHUNK))
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
    next call forks a new one.
    """
    with _workers_lock:
        workers = _pool(len(shares))
        pid = 0
        try:
            for (pid, request_fd, _), share in zip(workers, shares):
                _write_all(request_fd, _frame(_OK, pickle.dumps((config, share))))
            results = []
            for pid, _, reply_fd in workers:
                ok, payload = _read_reply(reply_fd)
                if not ok:
                    break
                results.append(np.frombuffer(payload, dtype=np.int64))
        except (BrokenPipeError, EOFError):
            status = _kill_workers()[pid]
            raise RuntimeError(f"worker process {pid} died, wait status {status}") from None
        except BaseException:
            _kill_workers()
            raise
        if not ok:
            _kill_workers()
            exc, text = pickle.loads(payload)
            raise exc from RuntimeError(f"in worker process {pid}:\n{text}")
    return np.concatenate(results)


# The pool: (pid, request write fd, reply read fd) per worker. Guarded by
# _workers_lock; emptied in every forked child by _forget_workers.
_workers: list[tuple[int, int, int]] = []
_workers_lock = threading.Lock()
# A message is a status byte, the payload's length and the payload.
_OK, _FAILED = 0, 1
_HEADER = 9
# How long shutdown waits for the workers to exit before killing them.
_SHUTDOWN_WAIT_S = 5.0


def _pool(size: int) -> list[tuple[int, int, int]]:
    """The first ``size`` workers, forking those missing.

    A worker that died while idle (a Ctrl-C reaches the whole process
    group) is reaped and replaced.
    """
    for worker in [w for w in _workers if os.waitpid(w[0], os.WNOHANG)[0]]:
        _workers.remove(worker)
        os.close(worker[1])
        os.close(worker[2])
    while len(_workers) < size:
        request_read, request_write = os.pipe()
        reply_read, reply_write = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                os.close(request_write)
                os.close(reply_read)
                _serve(request_read, reply_write)
            _workers.append((pid, request_write, reply_read))
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

    Answers each request, a pickled (config, share), with the share's int64
    run lengths or, if the share raised, the pickled (exception, traceback
    text). It exits at EOF (the caller closed the pipe or died), on a failed
    reply write and on any exception outside a share.
    """
    try:
        while True:
            _, request = _read_message(request_fd)
            try:
                reply = _frame(_OK, _run_share(*pickle.loads(request)).tobytes())
            except BaseException as exc:
                reply = _frame(_FAILED, _pickled_failure(exc))
            _write_all(reply_fd, reply)
    finally:
        os._exit(0)


def _pickled_failure(exc: BaseException) -> bytes:
    """``exc`` and its traceback text, or a RuntimeError if ``exc`` won't pickle."""
    text = traceback.format_exc()
    try:
        payload = pickle.dumps((exc, text))
        pickle.loads(payload)
    except Exception:
        substitute = RuntimeError(
            f"worker process {os.getpid()} raised {type(exc).__name__}, "
            "which cannot be pickled"
        )
        payload = pickle.dumps((substitute, text))
    return payload


def _frame(status: int, payload: bytes) -> bytes:
    return bytes([status]) + len(payload).to_bytes(_HEADER - 1, "little") + payload


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _read_exact(fd: int, size: int) -> bytearray:
    """``size`` bytes from ``fd``; EOFError if the writer closes first."""
    data = bytearray(size)
    view = memoryview(data)
    got = 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            raise EOFError(f"pipe closed after {got} of {size} bytes")
        got += n
    return data


def _read_message(fd: int) -> tuple[int, bytearray]:
    header = _read_exact(fd, _HEADER)
    return header[0], _read_exact(fd, int.from_bytes(header[1:], "little"))


def _read_reply(fd: int) -> tuple[bool, bytearray]:
    """A worker's reply: (True, run-length bytes) or (False, pickled failure)."""
    status, payload = _read_message(fd)
    return status == _OK, payload


def _kill_workers() -> dict[int, int]:
    """SIGKILL, reap and forget every worker; returns their wait statuses."""
    statuses = {}
    while _workers:
        pid, request_fd, reply_fd = _workers.pop()
        os.close(request_fd)
        os.close(reply_fd)
        os.kill(pid, SIGKILL)
        statuses[pid] = os.waitpid(pid, 0)[1]
    return statuses


def _shutdown_workers() -> None:
    """Close the pool's pipes and reap its workers, which exit at EOF.

    A worker still running after ``_SHUTDOWN_WAIT_S`` is killed. Runs at
    exit; the next parallel study forks a new pool.
    """
    with _workers_lock:
        workers = _workers[:]
        _workers.clear()
        for _, request_fd, reply_fd in workers:
            os.close(request_fd)
            os.close(reply_fd)
        deadline = time.monotonic() + _SHUTDOWN_WAIT_S
        for pid, _, _ in workers:
            while not os.waitpid(pid, os.WNOHANG)[0]:
                if time.monotonic() > deadline:
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.001)


def _forget_workers() -> None:
    """In a forked child: drop the parent's pool, which is not the child's."""
    global _workers_lock
    _workers_lock = threading.Lock()
    for _, request_fd, reply_fd in _workers:
        os.close(request_fd)
        os.close(reply_fd)
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
        se_arl=sdrl / np.sqrt(reps),
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
    the replication the engine keys ``StreamKey(master_seed, replication)``."""
    if n_subgroups < 1:
        raise ValueError("n_subgroups must be >= 1")
    model, scenario, spec = config.model, config.scenario, config.spec
    mu_y1, mu_x1 = shifted_means(model, scenario)
    shifted_label = (
        "out-of-control"
        if (mu_y1, mu_x1) != (model.mu_y0, model.mu_x0)
        else "in-control"
    )
    key = StreamKey(config.master_seed, replication)
    words = SubgroupStream(model.n, key).take_words(n_subgroups)
    xbar, ybar, z = _subgroup_statistics(model, scenario, words[None], 0)
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
