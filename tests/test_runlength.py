import dataclasses
import math
import os
import pickle
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from signal import SIGKILL

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aibmon import (
    ChartKind,
    ExcessCensoring,
    ProcessModel,
    ShiftMode,
    ShiftScenario,
    SimulationConfig,
    analytic_arl,
    estimate_runlength,
    make_limits,
    trace,
)
from aibmon import charts, runlength, sample_subgroup, shifted_means
from aibmon.runlength import (
    simulate_run_lengths,
    summarize_run_lengths,
    usable_cpus,
)
from aibmon.stochastics import (
    SubgroupStream,
    normals_from_words,
    pairs_from_normals,
    words_per_subgroup,
)


def shewhart_config(rho=0.0, reps=1000, seed=7, **scenario_kwargs):
    model = ProcessModel.standard(rho)
    return SimulationConfig(
        model=model,
        scenario=ShiftScenario(**scenario_kwargs),
        spec=make_limits(ChartKind.SHEWHART, 1.0, 2.807, model),
        reps=reps,
        master_seed=seed,
    )


def test_zero_half_width_always_signals():
    # At rho = 0 and n = 1 the statistic is the residual normal itself, which
    # is never 0 (no uniform is exactly 1/2), so every subgroup signals.
    model = ProcessModel.standard(0.0)
    config = SimulationConfig(
        model=model,
        scenario=ShiftScenario(),
        spec=make_limits(ChartKind.SHEWHART, 1.0, 1e-300, model),
        reps=50,
        master_seed=1,
    )
    rl = simulate_run_lengths(config)
    assert (rl == 1).all()


def test_in_control_shewhart_run_length_is_geometric():
    # ARL within 3 SE of the closed form and SDRL/ARL near sqrt(1 - p).
    config = shewhart_config(reps=50_000, seed=11)
    s = estimate_runlength(config)
    exact = analytic_arl(config)
    assert abs(s.arl - exact) < 3 * s.se_arl
    p = 1.0 / exact
    assert s.sdrl / s.arl == pytest.approx(math.sqrt(1 - p), rel=0.03)
    assert s.censored == 0
    assert set(s.percentiles) == {5, 25, 50, 75, 95}
    # geometric quantiles: median ~ ARL * ln 2
    assert s.percentiles[50] == pytest.approx(exact * math.log(2), rel=0.08)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rho=st.floats(-0.9, 0.9), delta_x=st.floats(-1.0, 1.0), L=st.floats(1.5, 2.5),
       changepoint=st.integers(0, 40), seed=st.integers(0, 2**32))
def test_shewhart_arl_matches_closed_form_over_random_cells(rho, delta_x, L, changepoint,
                                                           seed):
    # 4 standard errors of the exact geometric law, sd sqrt(1 - p) / p, so
    # the bound does not lean on the sample's own spread. The law holds at
    # every changepoint: a Shewhart run length has no memory.
    reps = 2000
    model = ProcessModel.standard(rho)
    scenario = ShiftScenario(delta_x=delta_x, changepoint=changepoint)
    config = SimulationConfig(model, scenario, make_limits(ChartKind.SHEWHART, 1.0, L, model),
                              reps=reps, master_seed=seed)
    exact = analytic_arl(config)
    p = 1.0 / exact
    se = math.sqrt(1.0 - p) / p / math.sqrt(reps)
    assert abs(estimate_runlength(config, threads=1).arl - exact) < 4.0 * se


def test_masking_mode_run_lengths_match_in_control():
    # Not just the ARL: the whole run-length distribution is unchanged.
    from scipy.stats import ks_2samp

    model = ProcessModel.standard(0.5)
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, model)

    def run_lengths(scenario, seed):
        return simulate_run_lengths(
            SimulationConfig(model, scenario, spec, reps=20_000, master_seed=seed)
        )

    in_control = run_lengths(ShiftScenario(), 13)
    masked = run_lengths(ShiftScenario(delta_y=2.0, mode=ShiftMode.MASKING), 14)
    joint_se = math.hypot(
        in_control.std(ddof=1) / math.sqrt(in_control.size),
        masked.std(ddof=1) / math.sqrt(masked.size),
    )
    assert abs(masked.mean() - in_control.mean()) < 3 * joint_se
    assert ks_2samp(in_control, masked).pvalue > 0.01


def test_detection_delay_after_changepoint():
    # A delta_y = 2 shift at subgroup 25 with the auxiliary in control is
    # caught about 3.3 subgroups later (absolute time ~28).
    model = ProcessModel.standard(0.5)
    config = SimulationConfig(
        model=model,
        scenario=ShiftScenario(delta_y=2.0, changepoint=25),
        spec=make_limits(ChartKind.EWMA, 0.1, 2.454, model),
        reps=10_000,
        master_seed=37,
    )
    delay = estimate_runlength(config).arl
    assert 2.9 < delay < 3.7


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _stat(pid):
    """Fields of /proc/<pid>/stat after the command name: state, ppid, ..."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def _children():
    """Pids whose parent is this process, zombies included; None without /proc."""
    if not os.path.isdir("/proc/self"):
        return None
    pids = set()
    for entry in os.listdir("/proc"):
        try:
            if entry.isdigit() and int(_stat(entry)[1]) == os.getpid():
                pids.add(int(entry))
        except OSError:  # it has gone
            continue
    return pids


def _is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def _pool_pids():
    return [pid for pid, _, _ in runlength._workers]


@contextmanager
def no_child_or_fd_left():
    """Asserts, at the OS level, that the block leaves no child and no fd.

    Pool workers count: the block starts from an empty pool and must end
    with one.
    """
    runlength._shutdown_workers()
    before = _open_fds()
    yield
    assert _pool_pids() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _children() in (None, set())
    assert _open_fds() == before


@contextmanager
def nothing_left_beyond_the_pool():
    """Asserts that the block leaves no child beyond the pool's workers and
    no fd beyond their pipes (two per worker it added)."""
    before, pool_before = _open_fds(), len(_pool_pids())
    yield
    pool = _pool_pids()
    assert _children() in (None, set(pool))
    if pool:
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)
    if before is not None:
        assert _open_fds() == before + 2 * (len(pool) - pool_before)


@pytest.fixture(autouse=True)
def _own_pool_for_patched_engine(request):
    # Workers run the code they were forked with: a test that patches the
    # engine must fork its own workers and leave none behind.
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    runlength._shutdown_workers()
    yield
    runlength._shutdown_workers()


def test_run_lengths_independent_of_threading_and_chunking():
    # Requests above the usable CPUs are capped, so no more workers start.
    config = shewhart_config(rho=0.3, delta_x=0.5, reps=9001, seed=23)
    serial = simulate_run_lengths(config, threads=1)
    for workers in (2, 3):
        with nothing_left_beyond_the_pool():
            assert np.array_equal(simulate_run_lengths(config, threads=workers), serial)
    a = estimate_runlength(config, threads=1)
    b = estimate_runlength(config, threads=3)
    assert a == b


@pytest.mark.parametrize("threads", [0, -3, 1.5, 2.5, True])
def test_threads_must_be_a_positive_int(threads):
    config = shewhart_config(rho=0.3, delta_x=0.5, reps=10, seed=23)
    with pytest.raises(ValueError, match="threads must be an integer"):
        estimate_runlength(config, threads=threads)


@pytest.mark.parametrize("reps", [1999, 2000, 2001])
def test_run_lengths_independent_of_workers_at_the_floor(reps):
    # 1999 replications run serially, 2000 and 2001 on two workers (one
    # per _MIN_REPS_PER_WORKER); the split changes no byte.
    config = shewhart_config(rho=0.5, delta_x=0.5, reps=reps, seed=29)
    serial = simulate_run_lengths(config, threads=1)
    assert serial.dtype == np.int64 and serial.shape == (reps,)
    for workers in (2, 3):
        with nothing_left_beyond_the_pool():
            rl = simulate_run_lengths(config, threads=workers)
        assert rl.dtype == np.int64 and rl.tobytes() == serial.tobytes()


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_messages_larger_than_the_pipe_buffer():
    # Each request and each reply carries 10,000 rows, about 80 KB, more than
    # Linux's 64 KiB pipe buffer, so each is read back from partial reads.
    config = shewhart_config(rho=0.5, delta_x=1.5, reps=20_000, seed=61)
    serial = simulate_run_lengths(config, threads=1)
    with nothing_left_beyond_the_pool():
        rl = simulate_run_lengths(config, threads=2)
    assert rl.tobytes() == serial.tobytes()


def _next_study_reforks(dead_pids):
    # After a failure the pool is gone; the next study forks new workers
    # and its run lengths match a serial run byte for byte.
    config = shewhart_config(rho=0.5, delta_x=1.0, reps=2000, seed=31)
    with nothing_left_beyond_the_pool():
        rl = simulate_run_lengths(config, threads=2)
    assert len(_pool_pids()) == 2 and not set(_pool_pids()) & set(dead_pids)
    assert rl.tobytes() == simulate_run_lengths(config, threads=1).tobytes()


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_studies_reuse_the_pool():
    runlength._shutdown_workers()
    config = shewhart_config(rho=0.5, delta_x=0.5, reps=2000, seed=37)
    serial = simulate_run_lengths(config, threads=1)
    with nothing_left_beyond_the_pool():
        first = simulate_run_lengths(config, threads=2)
    pool = _pool_pids()
    assert len(pool) == 2
    with nothing_left_beyond_the_pool():
        second = simulate_run_lengths(config, threads=2)
        # Serial studies leave the pool alone.
        simulate_run_lengths(config, threads=1)
    assert _pool_pids() == pool
    assert first.tobytes() == second.tobytes() == serial.tobytes()


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_pool_grows_when_a_study_plans_more_workers(monkeypatch):
    # Three workers need three usable CPUs; the plan only reads the count.
    monkeypatch.setattr(runlength, "usable_cpus", lambda: 3)
    config = shewhart_config(rho=0.5, delta_x=0.5, reps=3000, seed=41)
    serial = simulate_run_lengths(config, threads=1)
    with nothing_left_beyond_the_pool():
        simulate_run_lengths(config, threads=2)
        pool = _pool_pids()
        assert simulate_run_lengths(config, threads=3).tobytes() == serial.tobytes()
        assert len(_pool_pids()) == 3 and _pool_pids()[:2] == pool
        # A smaller study uses the first workers and keeps the rest.
        assert simulate_run_lengths(config, threads=2).tobytes() == serial.tobytes()
    assert len(_pool_pids()) == 3 and _pool_pids()[:2] == pool


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_shutdown_leaves_no_child_or_fd():
    config = shewhart_config(reps=2000, seed=43)
    with no_child_or_fd_left():
        simulate_run_lengths(config, threads=2)
        assert len(_pool_pids()) == 2
        runlength._shutdown_workers()
    runlength._shutdown_workers()  # an empty pool is a no-op


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_workers_exit_at_eof():
    # What ends the workers of a caller that dies without its exit hooks: no
    # process but the caller holds a worker's request pipe open.
    config = shewhart_config(reps=2000, seed=43)
    with no_child_or_fd_left():
        simulate_run_lengths(config, threads=2)
        with runlength._workers_lock:
            workers = list(runlength._workers)
            runlength._workers.clear()
        statuses = {}
        try:
            for _, request_fd, _ in workers:
                os.close(request_fd)
            deadline = time.monotonic() + 5
            while len(statuses) < len(workers) and time.monotonic() < deadline:
                for pid, _, _ in workers:
                    if pid in statuses:  # reaped already: waitpid would raise
                        continue
                    done, status = os.waitpid(pid, os.WNOHANG)
                    if done:
                        statuses[pid] = status
                time.sleep(0.01)
        finally:
            for pid, _, replies in workers:
                replies.close()
                if pid not in statuses:
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
        assert statuses == {pid: 0 for pid, _, _ in workers}


@pytest.mark.skipif(usable_cpus() < 2 or not os.path.isdir("/proc/self"),
                    reason="two workers need two usable CPUs; a worker's state is read in /proc")
def test_worker_that_died_while_idle_is_replaced():
    # A Ctrl-C reaches the whole process group and ends idle workers.
    config = shewhart_config(rho=0.5, delta_x=0.5, reps=2000, seed=47)
    simulate_run_lengths(config, threads=2)
    dead, alive = _pool_pids()
    os.kill(dead, SIGKILL)
    deadline = time.monotonic() + 30
    while _stat(dead)[0] != "Z":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    with nothing_left_beyond_the_pool():
        rl = simulate_run_lengths(config, threads=2)
    assert alive in _pool_pids() and dead not in _pool_pids() and len(_pool_pids()) == 2
    assert rl.tobytes() == simulate_run_lengths(config, threads=1).tobytes()


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_forked_child_runs_its_own_workers():
    config = shewhart_config(rho=0.5, delta_x=0.5, reps=2000, seed=53)
    serial = simulate_run_lengths(config, threads=1)
    simulate_run_lengths(config, threads=2)
    parent_workers = list(runlength._workers)
    parent_pool = _pool_pids()
    parent_fds = [fd for _, request_fd, replies in parent_workers
                  for fd in (request_fd, replies.fileno())]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            # The parent's pipe ends, open here, would keep its workers
            # from seeing EOF.
            inherited = list(runlength._workers) + [fd for fd in parent_fds if _is_open(fd)]
            inherited += [r.fileno() for _, _, r in parent_workers if not r.closed]
            rl = simulate_run_lengths(config, threads=2)
            report = (inherited, _pool_pids(), rl.tobytes())
            runlength._shutdown_workers()
            with open(write_fd, "wb") as pipe:
                pickle.dump(report, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        inherited, child_pool, child_rl = pickle.load(pipe)
    assert os.waitpid(pid, 0)[1] == 0
    assert inherited == []
    assert len(child_pool) == 2 and not set(child_pool) & set(parent_pool)
    assert child_rl == serial.tobytes()
    with nothing_left_beyond_the_pool():
        assert simulate_run_lengths(config, threads=2).tobytes() == serial.tobytes()
    assert _pool_pids() == parent_pool


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_threads_sharing_the_pool_get_identical_results():
    config = shewhart_config(rho=0.5, delta_x=0.5, reps=4000, seed=59)
    serial = simulate_run_lengths(config, threads=1)
    results = [None] * 4

    def study(i):
        results[i] = simulate_run_lengths(config, threads=2).tobytes()

    # More threads than CPUs, switching often, so that unserialised pipe
    # traffic would interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with nothing_left_beyond_the_pool():
            threads = [threading.Thread(target=study, args=(i,)) for i in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial.tobytes()] * len(results)


_TWO_STUDIES = """
from aibmon import ChartKind, ProcessModel, ShiftScenario, SimulationConfig, make_limits
from aibmon import runlength
model = ProcessModel.standard(0.5)
spec = make_limits(ChartKind.EWMA, 0.1, 2.454, model)
config = SimulationConfig(model, ShiftScenario(), spec, reps=2000, master_seed=5)
runlength.simulate_run_lengths(config, threads=2)
runlength.simulate_run_lengths(config, threads=2)
print(*(pid for pid, _, _ in runlength._workers))
"""


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_no_worker_outlives_its_interpreter():
    # subprocess.run returns only once every holder of the child's stdout has
    # exited, and the workers hold it: the exit hook must reap them.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _TWO_STUDIES], stdout=subprocess.PIPE,
                          env=env, text=True, timeout=120, check=True)
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _decode_fails(n, words):
    raise RuntimeError(f"decode failed in process {os.getpid()}")


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_worker_exception_reaches_the_caller(monkeypatch):
    # Forked workers inherit the patched module global.
    monkeypatch.setattr(runlength, "normals_from_words", _decode_fails)
    with no_child_or_fd_left():
        with pytest.raises(RuntimeError, match="decode failed in process") as exc:
            simulate_run_lengths(shewhart_config(reps=6000), threads=2)
    worker = int(str(exc.value).split()[-1])
    assert worker != os.getpid()
    # The worker's traceback rides along as the cause.
    assert "_decode_fails" in str(exc.value.__cause__)
    monkeypatch.undo()
    _next_study_reforks([worker])


def _first_share_fails_second_hangs(config, rep_indices):
    if rep_indices[0] == 0:
        raise ValueError(f"first share failed in process {os.getpid()}")
    time.sleep(600)


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_failing_worker_has_its_running_sibling_killed(monkeypatch):
    monkeypatch.setattr(runlength, "_chunk_run_lengths", _first_share_fails_second_hangs)
    start = time.monotonic()
    with no_child_or_fd_left():
        with pytest.raises(ValueError, match="first share failed in process"):
            simulate_run_lengths(shewhart_config(reps=2000), threads=2)
    assert time.monotonic() - start < 60


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


def _raise_unpicklable(config, rep_indices):
    raise _Unpicklable("local state")


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_unpicklable_worker_exception_becomes_runtime_error(monkeypatch):
    monkeypatch.setattr(runlength, "_chunk_run_lengths", _raise_unpicklable)
    with no_child_or_fd_left():
        with pytest.raises(RuntimeError, match=r"worker process \d+ raised _Unpicklable"):
            simulate_run_lengths(shewhart_config(reps=2000), threads=2)


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_caller_interrupted_while_reading_kills_and_reaps_workers(monkeypatch):
    monkeypatch.setattr(runlength, "_chunk_run_lengths", _first_share_fails_second_hangs)
    busy = []

    def interrupted(reader):
        busy.extend(_pool_pids())
        raise KeyboardInterrupt

    with no_child_or_fd_left():
        # The workers read their requests with _recv too: fork them first.
        with runlength._workers_lock:
            runlength._pool(2)
        monkeypatch.setattr(runlength, "_recv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            simulate_run_lengths(shewhart_config(reps=2000), threads=2)
    assert len(busy) == 2
    monkeypatch.undo()
    _next_study_reforks(busy)


def _share_hangs(config, rep_indices):
    time.sleep(600)


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_worker_killed_mid_share_fails_the_study(monkeypatch):
    monkeypatch.setattr(runlength, "_chunk_run_lengths", _share_hangs)
    recv = runlength._recv
    killed = []

    def kill_then_read(reader):
        # Both workers are inside their share, which never ends.
        if not killed:
            killed.append(_pool_pids()[0])
            os.kill(killed[0], SIGKILL)
        return recv(reader)

    start = time.monotonic()
    with no_child_or_fd_left():
        # The workers read their requests with _recv too: fork them first.
        with runlength._workers_lock:
            runlength._pool(2)
        monkeypatch.setattr(runlength, "_recv", kill_then_read)
        with pytest.raises(RuntimeError, match=r"^worker process \d+ died") as exc:
            simulate_run_lengths(shewhart_config(reps=2000), threads=2)
    assert time.monotonic() - start < 60
    assert str(exc.value) == f"worker process {killed[0]} died, wait status {int(SIGKILL)}"
    monkeypatch.undo()
    _next_study_reforks(killed)


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_reply_cut_short_fails_the_study(monkeypatch):
    caller, write = os.getpid(), os.write

    def write_half_then_exit(fd, data):
        if os.getpid() == caller:
            return write(fd, data)
        write(fd, memoryview(data)[: len(data) // 2])
        os._exit(3)

    with no_child_or_fd_left():
        # Forked after the patch, the workers write half of each reply.
        monkeypatch.setattr(os, "write", write_half_then_exit)
        with runlength._workers_lock:
            pool = [pid for pid, _, _ in runlength._pool(2)]
        with pytest.raises(RuntimeError, match=r"^worker process \d+ died") as exc:
            simulate_run_lengths(shewhart_config(reps=2000), threads=2)
    assert str(exc.value) == f"worker process {pool[0]} died, wait status {3 << 8}"
    monkeypatch.undo()
    _next_study_reforks(pool)


@pytest.mark.skipif(usable_cpus() < 2, reason="two workers need two usable CPUs")
def test_fork_while_another_thread_reads_a_reply(monkeypatch):
    # That thread holds its reply reader's lock while it waits, and the
    # forked child, which has no such thread, must still drop the pool.
    monkeypatch.setattr(runlength, "_chunk_run_lengths", _share_hangs)
    recv, reading, failures = runlength._recv, threading.Event(), []

    def signal_then_read(reader):
        reading.set()
        return recv(reader)

    def study():
        try:
            simulate_run_lengths(shewhart_config(reps=2000), threads=2)
        except RuntimeError as exc:
            failures.append(str(exc))

    with no_child_or_fd_left():
        # The workers read their requests with _recv too: fork them first.
        with runlength._workers_lock:
            pool = [pid for pid, _, _ in runlength._pool(2)]
        monkeypatch.setattr(runlength, "_recv", signal_then_read)
        thread = threading.Thread(target=study)
        thread.start()
        assert reading.wait(timeout=60)
        time.sleep(0.2)  # into pickle.load, which blocks: the shares never end
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        try:
            deadline = time.monotonic() + 30
            while not os.waitpid(pid, os.WNOHANG)[0]:
                if time.monotonic() > deadline:
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child hung while dropping the pool")
                time.sleep(0.01)
        finally:
            # The study then fails, and kills and reaps its pool.
            for worker in pool:
                os.kill(worker, SIGKILL)
            thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(failures) == 1 and failures[0].startswith(f"worker process {pool[0]} died")


@pytest.mark.parametrize(
    "reps, requested, cpus, workers, chunks",
    [
        (9001, 1, 2, 1, 3),
        (9001, 2, 2, 2, 4),
        (9001, 3, 2, 2, 4),
        (9001, 3, 3, 3, 3),
        (5000, 2, 2, 2, 2),
        (4999, 2, 2, 2, 2),
        (1999, 2, 2, 1, 1),
        (2000, 2, 2, 2, 2),
        (2000, 8, 8, 2, 2),
        (2999, 8, 8, 2, 2),
        (3000, 8, 8, 3, 3),
        (50_000, 2, 2, 2, 14),
        (50_000, 10**6, 64, 50, 50),
        (50_000, 10**6, 10**6, 50, 50),
        (1, 10**6, 10**6, 1, 1),
        (10_000, 0, 2, 1, 3),
    ],
)
def test_worker_and_chunk_plan(reps, requested, cpus, workers, chunks):
    # Pure arithmetic: no process starts here. ``chunks`` counts the chunks of
    # at most _CHUNK rows that the workers cut from their shares.
    assert runlength._plan(reps, requested, cpus) == workers
    shares = np.array_split(np.arange(reps), workers)
    assert sum(-(-share.size // runlength._CHUNK) for share in shares) == chunks


def test_share_runs_in_chunks_of_at_most_chunk_rows(monkeypatch):
    # At n = 1 a chunk holds at most _CHUNK rows. At n = 3 a subgroup takes
    # twice the words, so a chunk holds at most half as many rows.
    calls = []
    chunk_run_lengths = runlength._chunk_run_lengths

    def spy(config, rep_indices):
        calls.append(rep_indices)
        return chunk_run_lengths(config, rep_indices)

    monkeypatch.setattr(runlength, "_chunk_run_lengths", spy)
    share = np.arange(9001, dtype=np.uint64)
    for n, sizes in [(1, [3001, 3000, 3000]), (3, [1801, 1800, 1800, 1800, 1800])]:
        model = ProcessModel.standard(0.5, n=n)
        config = SimulationConfig(
            model,
            ShiftScenario(delta_x=1.0),
            make_limits(ChartKind.SHEWHART, 1.0, 2.807, model),
            reps=9001,
            master_seed=13,
        )
        one_chunk = chunk_run_lengths(config, share)
        calls.clear()
        rl = runlength._run_share(config, share)
        assert [c.size for c in calls] == sizes
        assert all(c.size * words_per_subgroup(n) <= 4 * runlength._CHUNK for c in calls)
        assert np.array_equal(np.concatenate(calls), share)
        assert rl.tobytes() == one_chunk.tobytes()


@pytest.mark.parametrize(
    "slice_width, slice_normals, block_first, block_max, chunk, slices",
    [
        (1, 0, 1, 1, 7, "fixed"),
        (7, 0, 3, 5, 100, "fixed"),
        # Rounds doubling up to 1,024 subgroups, each charted 16 at a time.
        (16, 0, 64, 1024, 4096, "fixed"),
        (4096, 0, 16, 4096, 4096, "whole"),
        (16, 10**9, 64, 128, 4096, "whole"),
        # 2 subgroups wide at 300 rows (2n = 6), wider as rows signal.
        (2, 3600, 60, 60, 100, "widening"),
    ],
)
def test_run_lengths_independent_of_block_schedule(
    monkeypatch, slice_width, slice_normals, block_first, block_max, chunk, slices
):
    # Subgroup t always reads the same word slot of its replication's
    # substream, so the slice widths, the round sizes and the chunking
    # cannot move a result.
    model = ProcessModel(0.2, -0.4, 1.1, 0.9, rho=0.55, n=3)
    config = SimulationConfig(
        model,
        ShiftScenario(delta_y=0.8, delta_x=0.2, changepoint=6),
        make_limits(ChartKind.EWMA, 0.2, 2.636, model),
        reps=300,
        master_seed=2**40 + 3,
    )
    default = simulate_run_lengths(config)
    monkeypatch.setattr(runlength, "_SLICE", slice_width)
    monkeypatch.setattr(runlength, "_SLICE_NORMALS", slice_normals)
    monkeypatch.setattr(runlength, "_BLOCK_FIRST", block_first)
    monkeypatch.setattr(runlength, "_BLOCK_MAX", block_max)
    monkeypatch.setattr(runlength, "_CHUNK", chunk)
    # Each round's take_words (start, count), then its slices' widths, in
    # call order; a round's slices run on from its start.
    events = []
    take_words = SubgroupStream.take_words
    subgroup_statistics = runlength._subgroup_statistics

    def take_words_spy(self, count, start, rows):
        events.append((start, count))
        return take_words(self, count, start, rows)

    def statistics_spy(model, mu_y, mu_x, words):
        events.append(words.shape[1])
        return subgroup_statistics(model, mu_y, mu_x, words)

    monkeypatch.setattr(SubgroupStream, "take_words", take_words_spy)
    monkeypatch.setattr(runlength, "_subgroup_statistics", statistics_spy)
    assert np.array_equal(simulate_run_lengths(config), default)
    charted = []
    for event in events:
        if isinstance(event, tuple):
            t, round_end = event[0], event[0] + event[1]
        else:
            assert t + event <= round_end
            charted.append((t, event))
            t += event

    def round_of(t):
        start, block = 0, block_first
        while t >= start + block:
            start, block = start + block, min(2 * block, block_max)
        return start, start + block

    changepoint = config.scenario.changepoint
    # Widths of the slices that end before their round does, per round.
    inner = {}
    for t, width in charted:
        start, end = round_of(t)
        assert t + width <= end
        # Each slice is drawn at one process state.
        assert not t < changepoint < t + width
        stop = min(end, changepoint) if t < changepoint else end
        if slices == "fixed":
            assert width == min(slice_width, stop - t)
        elif slices == "whole":
            assert t in (start, changepoint) and t + width == stop
        else:
            assert width >= min(slice_width, stop - t)
        if t + width < stop:
            inner.setdefault(start, set()).add(width)
    if slices == "widening":
        assert any(len(widths) > 1 for widths in inner.values())


def test_decode_leaves_the_callers_words_unchanged(monkeypatch):
    # The decode works in place on its own temporaries; the word block it
    # is given must come back untouched.
    model = ProcessModel(0.2, -0.4, 1.1, 0.9, rho=0.55, n=3)
    scenario = ShiftScenario(delta_y=0.8, changepoint=5)
    words = SubgroupStream(3, 5, [0, 1, 2]).take_words(12)
    before = words.copy()
    zx, ze = normals_from_words(3, words)
    zx_before, ze_before = zx.copy(), ze.copy()
    pairs_from_normals(model, 1.0, -1.0, zx, ze)
    runlength._subgroup_statistics(model, 1.0, -1.0, words)
    assert np.array_equal(words, before)
    assert np.array_equal(zx, zx_before) and np.array_equal(ze, ze_before)

    handed_out = []
    take_words = SubgroupStream.take_words

    def spy(self, *args):
        raw = take_words(self, *args)
        handed_out.append((raw, raw.copy()))
        return raw

    monkeypatch.setattr(SubgroupStream, "take_words", spy)
    spec = make_limits(ChartKind.EWMA, 0.2, 2.636, model)
    trace(SimulationConfig(model, scenario, spec, master_seed=5), 1, 40)
    assert handed_out and all(np.array_equal(a, b) for a, b in handed_out)


def scalar_walk(config, replication, n_subgroups):
    """Independent reference: one subgroup at a time through sample_subgroup,
    the difference estimator and the EWMA recursion written out.

    Yields (t, x_bar, y_bar, z, w, signal) for t = 1..n_subgroups.
    """
    model, scenario, spec = config.model, config.scenario, config.spec
    mu_y1, mu_x1 = shifted_means(model, scenario)
    lam = spec.lam
    w = spec.center
    for t in range(1, n_subgroups + 1):
        mu = (model.mu_y0, model.mu_x0) if t <= scenario.changepoint else (mu_y1, mu_x1)
        y, x = sample_subgroup(model, *mu, config.master_seed, replication, t - 1)
        y_bar, x_bar = float(y.mean()), float(x.mean())
        z = charts.difference_estimate(y_bar, x_bar, model)
        w = lam * z + (1 - lam) * w
        yield t, x_bar, y_bar, z, w, abs(w - spec.center) > spec.half_width


# The shift at subgroup 0, inside the first 16-subgroup slice, on either
# side of that slice's edge, and inside the second round of 128 subgroups.
@pytest.mark.parametrize("changepoint", [0, 4, 15, 16, 17, 70])
def test_run_to_signal_matches_scalar_chart_walk(changepoint):
    # Engine values replicate the sample_subgroup -> statistic -> EWMA path.
    model = ProcessModel(0.2, -0.4, 1.1, 0.9, rho=0.55, n=3)
    scenario = ShiftScenario(delta_y=0.8, delta_x=0.2, changepoint=changepoint)
    spec = make_limits(ChartKind.EWMA, 0.2, 2.636, model)
    config = SimulationConfig(model, scenario, spec, reps=6, master_seed=41)
    rl = simulate_run_lengths(config)
    for rep in range(6):
        walked = next(
            t - scenario.changepoint
            for t, *_, sig in scalar_walk(config, rep, 20_000)
            if sig and t > scenario.changepoint
        )
        assert walked == rl[rep]


def test_pre_changepoint_signals_are_not_counted():
    # A degenerate always-signal chart still reports the first post-shift
    # subgroup as run length 1.
    model = ProcessModel.standard(0.0)
    config = SimulationConfig(
        model=model,
        scenario=ShiftScenario(delta_y=1.0, changepoint=5),
        spec=make_limits(ChartKind.SHEWHART, 1.0, 1e-300, model),
        reps=20,
        master_seed=3,
    )
    assert (simulate_run_lengths(config) == 1).all()


def test_cap_censors_and_summary_rejects_heavy_censoring():
    config = shewhart_config(reps=400, seed=17)
    config = SimulationConfig(
        model=config.model,
        scenario=config.scenario,
        spec=config.spec,
        reps=400,
        master_seed=17,
        rl_cap=50,
    )
    rl = simulate_run_lengths(config)
    assert rl.max() == 50
    assert (rl >= 1).all()
    with pytest.raises(ExcessCensoring):
        estimate_runlength(config)


def test_summary_of_single_replication():
    s = summarize_run_lengths(np.array([7], dtype=np.int64), rl_cap=10**7)
    assert s.arl == 7.0 and s.sdrl == 0.0 and s.se_arl == 0.0 and s.reps == 1
    # Python floats, not np.float64, so the summary's repr reads plainly.
    floats = (s.arl, s.sdrl, s.se_arl, *s.percentiles.values())
    assert all(type(v) is float for v in floats)


def test_config_validation():
    model = ProcessModel.standard(0.0)
    spec = make_limits(ChartKind.SHEWHART, 1.0, 2.807, model)
    with pytest.raises(ValueError):
        SimulationConfig(model, ShiftScenario(), spec, reps=0)
    with pytest.raises(ValueError):
        SimulationConfig(model, ShiftScenario(), spec, reps=10, rl_cap=0)
    for seed in (-1, 2**64, True):
        with pytest.raises(ValueError):
            SimulationConfig(model, ShiftScenario(), spec, reps=10, master_seed=seed)


def test_numpy_integer_counts_give_the_same_study():
    plain_model = ProcessModel.standard(0.5, n=2)
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, plain_model)
    plain = SimulationConfig(
        plain_model, ShiftScenario(delta_y=1.0, changepoint=5), spec,
        reps=300, master_seed=11, rl_cap=10**6,
    )
    config = SimulationConfig(
        ProcessModel.standard(0.5, n=np.int64(2)),
        ShiftScenario(delta_y=1.0, changepoint=np.int64(5)),
        spec,
        reps=np.int64(300),
        master_seed=np.uint64(11),
        rl_cap=np.int32(10**6),
    )
    assert config == plain
    for value in (config.reps, config.master_seed, config.rl_cap,
                  config.model.n, config.scenario.changepoint):
        assert type(value) is int
    assert estimate_runlength(config) == estimate_runlength(plain)
    assert trace(config, np.int64(5), np.int64(9)) == trace(plain, 5, 9)


def test_changepoint_plus_cap_is_bounded_without_int64_wraparound():
    model = ProcessModel.standard(0.0)
    spec = make_limits(ChartKind.SHEWHART, 1.0, 2.807, model)
    scenario = ShiftScenario(changepoint=np.int64(2**62))
    with pytest.raises(ValueError, match=r"changepoint \+ rl_cap must be"):
        SimulationConfig(model, scenario, spec, reps=1, rl_cap=np.int64(2**63 - 1))


@pytest.mark.parametrize("value", [True, np.True_, 2.0, np.float64(2.0)], ids=repr)
def test_study_counts_refuse_bools_and_floats(value):
    model = ProcessModel.standard(0.0)
    spec = make_limits(ChartKind.SHEWHART, 1.0, 2.807, model)
    for name in ("reps", "rl_cap", "master_seed"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimulationConfig(model, ShiftScenario(), spec, **{name: value})
    config = SimulationConfig(model, ShiftScenario(), spec, reps=10)
    with pytest.raises(ValueError, match="replication_index must be an integer"):
        trace(config, value, 3)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(ChartKind),
    lam=st.floats(0.01, 1.0),
    limit=st.floats(0.5, 4.0),
    mu_y0=st.floats(-5.0, 5.0),
    sigma_y=st.floats(0.1, 10.0),
    rho=st.floats(-0.9, 0.9),
    n=st.integers(1, 10),
    field=st.sampled_from(["mu_y0", "sigma_y", "rho", "n"]),
)
def test_config_takes_only_its_own_models_limits(
    kind, lam, limit, mu_y0, sigma_y, rho, n, field
):
    # The oracles assume the limits make_limits gives the config's model, so
    # a spec built for a model with another center or statistic sd is refused.
    model = ProcessModel(mu_y0, 0.0, sigma_y, 1.0, rho, n)
    spec = make_limits(kind, lam, limit, model)
    SimulationConfig(model, ShiftScenario(), spec)
    moved = {"mu_y0": mu_y0 + 1.0, "sigma_y": 2.0 * sigma_y,
             "rho": 0.95 if abs(rho) < 0.5 else 0.0, "n": n + 1}[field]
    other = dataclasses.replace(model, **{field: moved})
    with pytest.raises(ValueError, match="make_limits"):
        SimulationConfig(other, ShiftScenario(), spec)


@pytest.mark.parametrize(
    "changepoint, rl_cap, message",
    [(0, 2**63, "rl_cap"), (0, 2 * 10**19, "rl_cap"), (2 * 10**19, 10**7, "changepoint"),
     (2**63 - 1, 1, "changepoint"), (2**62, 2**62, "changepoint")],
)
def test_config_rejects_counts_beyond_int64(changepoint, rl_cap, message):
    # Run lengths are int64: caught here, before any work starts.
    model = ProcessModel.standard(0.0)
    spec = make_limits(ChartKind.SHEWHART, 1.0, 2.807, model)
    with pytest.raises(ValueError, match=f"^{message}"):
        SimulationConfig(model, ShiftScenario(changepoint=changepoint), spec, rl_cap=rl_cap)


def test_config_accepts_counts_at_the_int64_limit():
    model = ProcessModel.standard(0.0)
    spec = make_limits(ChartKind.SHEWHART, 1.0, 2.807, model)
    SimulationConfig(model, ShiftScenario(), spec, rl_cap=2**63 - 1)
    half = (2**63 - 1) // 2
    SimulationConfig(model, ShiftScenario(changepoint=half), spec, rl_cap=half)


def test_config_rejects_changepoint_beyond_rl_cap():
    # Each replication draws its in-control subgroups before any run length
    # counts, so the changepoint is bounded like the run length itself.
    model = ProcessModel.standard(0.0)
    spec = make_limits(ChartKind.SHEWHART, 1.0, 2.807, model)
    SimulationConfig(model, ShiftScenario(changepoint=50), spec, rl_cap=50)
    with pytest.raises(ValueError, match="^changepoint must be <= rl_cap, got 51 > 50$"):
        SimulationConfig(model, ShiftScenario(changepoint=51), spec, rl_cap=50)


@pytest.mark.parametrize(
    "field, value", [("reps", True), ("rl_cap", True), ("reps", 2000.0), ("rl_cap", 1e7)]
)
def test_config_rejects_non_integer_counts(field, value):
    # Caught here, not as a TypeError inside a worker process.
    model = ProcessModel.standard(0.0)
    spec = make_limits(ChartKind.SHEWHART, 1.0, 2.807, model)
    with pytest.raises(ValueError, match=field):
        SimulationConfig(model, ShiftScenario(), spec, **{field: value})


@pytest.mark.parametrize(
    "model, scenario",
    [(ProcessModel(0.0, 0.0, 1.0, 10.0, 0.0), ShiftScenario(delta_x=1e308)),
     (ProcessModel.standard(1e-10), ShiftScenario(delta_y=1e300, mode=ShiftMode.MASKING)),
     (ProcessModel.standard(0.0), ShiftScenario(delta_y=1.0, mode=ShiftMode.MASKING))],
)
def test_config_rejects_an_undefined_shifted_regime(model, scenario):
    # An infinite shifted mean makes a NaN statistic that never signals, so
    # every replication would run to rl_cap: caught here, before any work.
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, model)
    with pytest.raises(ValueError, match="finite|beta = 0"):
        SimulationConfig(model, scenario, spec)


# --------------------------------------------------------------------- trace


def test_trace_single_in_control_subgroup():
    model = ProcessModel.standard(0.5)
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, model)
    config = SimulationConfig(model, ShiftScenario(), spec, reps=1, master_seed=5)
    points = trace(config, 0, 1)
    assert len(points) == 1
    p = points[0]
    y, x = sample_subgroup(model, 0.0, 0.0, 5, 0, 0)
    z1 = charts.difference_estimate(float(y.mean()), float(x.mean()), model)
    assert p.t == 1
    assert p.z == z1
    assert p.w == spec.lam * z1 + (1 - spec.lam) * spec.center
    assert p.regime == "in-control"  # zero shift: nothing moved


@pytest.mark.parametrize("n_subgroups", [0, True, 2.5])
def test_trace_needs_a_whole_subgroup_count(n_subgroups):
    model = ProcessModel.standard(0.5)
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, model)
    config = SimulationConfig(model, ShiftScenario(), spec, reps=1, master_seed=5)
    with pytest.raises(ValueError, match="n_subgroups"):
        trace(config, 0, n_subgroups)


def test_trace_regime_labels_and_limits():
    model = ProcessModel.standard(0.5)
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, model)
    config = SimulationConfig(
        model,
        ShiftScenario(delta_y=2.0, mode=ShiftMode.MASKING, changepoint=25),
        spec,
        reps=1,
        master_seed=5,
    )
    points = trace(config, 0, 60)
    assert [p.regime for p in points[:25]] == ["in-control"] * 25
    assert all(p.regime == "out-of-control" for p in points[25:])
    assert all(p.lcl == spec.lcl and p.ucl == spec.ucl for p in points)
    assert [p.t for p in points] == list(range(1, 61))


def test_trace_does_not_stop_at_signals():
    model = ProcessModel.standard(0.0)
    spec = make_limits(ChartKind.SHEWHART, 1.0, 1e-300, model)
    config = SimulationConfig(model, ShiftScenario(), spec, reps=1, master_seed=9)
    points = trace(config, 0, 30)
    assert len(points) == 30
    assert all(p.signal for p in points)


def test_trace_matches_run_to_signal():
    model = ProcessModel.standard(0.25)
    spec = make_limits(ChartKind.EWMA, 0.2, 2.636, model)
    config = SimulationConfig(
        model, ShiftScenario(delta_y=1.0), spec, reps=5, master_seed=29
    )
    rl = int(simulate_run_lengths(config)[4])
    points = trace(config, 4, rl + 10)
    first_signal = next(p.t for p in points if p.signal)
    assert first_signal == rl
    # zero changepoint with a real shift: shifted regime from the start
    assert all(p.regime == "out-of-control" for p in points)


def test_trace_matches_scalar_walk_point_by_point():
    # Every emitted point equals the scalar reference walk, across a masked
    # shift and with a chart tight enough to signal often. The shift comes
    # at the first subgroup (no in-control part), inside the trace, at its
    # last subgroup and past it (no shifted part).
    model = ProcessModel(0.2, -0.4, 1.1, 0.9, rho=0.55, n=3)
    spec = make_limits(ChartKind.EWMA, 0.2, 1.2, model)
    for changepoint in (0, 70, 200, 250):
        scenario = ShiftScenario(delta_y=1.5, mode=ShiftMode.MASKING, changepoint=changepoint)
        config = SimulationConfig(model, scenario, spec, reps=1, master_seed=2**40 + 1)
        points = trace(config, 3, 200)
        assert len(points) == 200
        reference = list(scalar_walk(config, 3, 200))
        assert any(sig for *_, sig in reference) and not all(sig for *_, sig in reference)
        for p, (t, x_bar, y_bar, z, w, sig) in zip(points, reference):
            assert (p.t, p.x_bar, p.y_bar, p.z, p.w, p.signal) == (t, x_bar, y_bar, z, w, sig)
            assert p.regime == ("in-control" if t <= changepoint else "out-of-control")
