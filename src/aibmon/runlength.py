"""Monte Carlo run-length engine.

Drives a chart over scenario-generated subgroup streams until the first
signal and aggregates run-length statistics over independent replications.
Replication ``i`` of a study always uses the substream addressed by
``StreamKey(master_seed, i)``, so results are deterministic for a fixed
master seed no matter how replications are split into chunks or spread
over worker processes.

A study splits its replications into one contiguous share per worker, and
each share into equal chunks of at most ``_CHUNK`` rows that run one after
another. With more than one worker, each worker is a child process forked
for that call alone: it runs its share, writes its run lengths to a pipe
and exits, and the caller reaps every child before it returns. The engine
is bound by single-threaded C calls (Philox words, the ``ndtri`` decode)
that hold the GIL, so threads would only queue behind each other.

The monitored party never learns of the shift: the chart statistic and
limits always use the in-control parameters, while the data-generating
means switch at the changepoint. Run lengths are 1-based and counted from
the changepoint-adjusted start (the first shifted subgroup); with a
changepoint of 0 that is simply the first subgroup.
"""

from __future__ import annotations

import os
import pickle
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
# A child costs about 3 ms to fork, and its first allocations copy the
# parent's heap pages (about 2,700 page faults, 10-15 ms). Serial against
# two children on 2 vCPUs, medians of 9 alternating calls, at 2,000 and
# 4,000 replications: in-control EWMA (ARL 200) 78 -> 70 and 161 -> 124 ms;
# Shewhart at ARL 200 87 -> 77 and 132 -> 113 ms; Shewhart at ARL 21
# 14 -> 24 and 31 -> 43 ms; EWMA at ARL 7 11 -> 20 and 30 -> 38 ms. So a
# second child pays from 2,000 replications at ARL 200 but not below 4,000
# at ARL 21 or less, and 1,000 replications split in two lose at every ARL.
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
    """Run lengths of the shares in order, one forked child per share.

    Not spawn: a spawned worker imports aibmon, numpy and scipy afresh
    (0.26 s, median of 11 fresh ``import aibmon.cli`` on 2 vCPUs), three
    times a whole serial 10,000-replication study at ARL 21 (0.09 s) and
    most of one at ARL 200 (0.36 s). The caller only waits. A child's
    exception is raised here; whatever way this function leaves, no child
    is left running or unreaped and no pipe end open.
    """
    running: list[int] = []
    fds: list[int] = []
    try:
        for share in shares:
            read_fd, write_fd = os.pipe()
            fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(config, share, write_fd, fds)
            finally:
                # Closed before the next fork, or no read would see EOF.
                os.close(write_fd)
            running.append(pid)
        results = []
        for pid, fd in zip(running[:], fds):
            data = _read_all(fd)
            status = os.waitpid(pid, 0)[1]
            running.remove(pid)
            if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
                results.append(np.frombuffer(data, dtype=np.int64))
            elif os.WIFEXITED(status) and os.WEXITSTATUS(status) == 1 and data:
                exc, text = pickle.loads(data)
                raise exc from RuntimeError(f"in worker process {pid}:\n{text}")
            else:
                raise RuntimeError(f"worker process {pid} failed, wait status {status}")
        return np.concatenate(results)
    finally:
        for pid in running:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _child(
    config: SimulationConfig, share: np.ndarray, fd: int, read_fds: list[int]
) -> NoReturn:
    """Body of a forked worker; it never returns.

    Writes the share's int64 run lengths to ``fd`` and exits 0, or writes
    the pickled (exception, traceback text) and exits 1. It first closes
    the read ends it inherited, so that if the caller dies its write fails
    instead of blocking forever.
    """
    code = 2
    try:
        for read_fd in read_fds:
            os.close(read_fd)
        try:
            payload, ok = _run_share(config, share).tobytes(), True
        except BaseException as exc:
            payload, ok = _pickled_failure(exc), False
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        code = 0 if ok else 1
    finally:
        os._exit(code)


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


def _read_all(fd: int) -> bytes:
    """Everything written to the pipe ``fd`` until its last writer exits."""
    with open(fd, "rb", closefd=False) as pipe:
        return pipe.read()


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
