"""A caller-owned WorkerPool: workers outlive each map, yet every map sees
them as fresh forks (re-armed fault plan, CPU budget from the map's start)
and dead workers are replaced before they cost a cell.

Worker functions live at module level: a borrowed pool's running workers
receive the cell function through their task pipes, so it must pickle.
"""

import os
import signal
import sys
import time

import pytest

from repro.engine import Counters
from repro.exceptions import CellFailedError
from repro.guard.resources import RLIMITS_AVAILABLE
from repro.runtime import RuntimePolicy, WorkerPool, clear_injector, supervised_map


@pytest.fixture(autouse=True)
def _clean_global_injector():
    clear_injector()
    yield
    clear_injector()


@pytest.fixture
def pool():
    with WorkerPool(1) as p:
        yield p


def _square(x):
    return x * x


def _pid(_x):
    return os.getpid()


def _burn_cpu(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    return seconds


def _brute_min_alpha(n):
    from repro.core.bruteforce import brute_force_min_alpha
    from repro.graphs import ring

    return brute_force_min_alpha(ring([1.0] * n))


def _wait_dead(pid):
    # A SIGKILLed child stays a zombie until its parent reaps it; wait
    # for the kernel to finish killing it, not for the reap.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as f:
            if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} did not die")


def test_pool_validates_size():
    with pytest.raises(ValueError):
        WorkerPool(0)


def test_single_cell_runs_in_the_borrowed_worker(pool):
    [pid] = pool.pids()
    assert supervised_map(_pid, [0], pool=pool) == [pid]
    assert pid != os.getpid()


def test_borrowed_workers_outlive_each_map(pool):
    pids = pool.pids()
    for _ in range(3):
        c = Counters()
        assert supervised_map(_square, [1, 2, 3], pool=pool, counters=c) == [1, 4, 9]
        assert pool.pids() == pids
        assert c.worker_respawns == 0


def test_cell_fault_fires_on_every_map_like_a_fresh_fork(pool):
    policy = RuntimePolicy(retries=1, backoff_base=0.0, faults="cell:exc@0")
    fresh = Counters()
    assert supervised_map(_square, [2, 3], processes=1, policy=policy,
                          counters=fresh) == [4, 9]
    assert fresh.cell_retries == 1
    pids = pool.pids()
    for _ in range(3):
        c = Counters()
        assert supervised_map(_square, [2, 3], policy=policy, counters=c,
                              pool=pool) == [4, 9]
        assert c.cell_retries == fresh.cell_retries
        assert c.worker_respawns == 0
    assert pool.pids() == pids


def test_worker_kill_fault_recurs_per_map_and_is_replaced(pool):
    policy = RuntimePolicy(retries=1, backoff_base=0.0, faults="worker:kill@0")
    for _ in range(2):
        c = Counters()
        assert supervised_map(_square, [5], policy=policy, counters=c,
                              pool=pool) == [25]
        assert c.worker_respawns == 1 and c.cell_retries == 1


def test_worker_that_died_idle_is_replaced_without_a_retry(pool):
    [pid] = pool.pids()
    os.kill(pid, signal.SIGKILL)
    _wait_dead(pid)
    c = Counters()
    assert supervised_map(_square, [7], pool=pool, counters=c) == [49]
    assert c.worker_respawns == 1
    assert c.cell_retries == 0
    assert pool.pids() != [pid]


def test_map_with_other_limits_starts_on_fresh_workers(pool):
    # The brute-force cap is process-wide: a worker that took one map's
    # cap must not carry it into a map without one.
    capped = RuntimePolicy(max_bruteforce_n=4)
    [pid] = pool.pids()
    with pytest.raises(CellFailedError):
        supervised_map(_brute_min_alpha, [6], policy=capped, pool=pool)
    assert supervised_map(_brute_min_alpha, [6], pool=pool) == [1]
    assert pool.pids() != [pid]


def test_close_stops_every_worker():
    p = WorkerPool(2).open()
    pids = p.pids()
    assert len(pids) == 2
    p.close()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.skipif(
    not RLIMITS_AVAILABLE or not sys.platform.startswith("linux"),
    reason="POSIX rlimits unavailable",
)
def test_cpu_budget_counts_from_each_map(pool):
    # Each map uses about half the 1 s budget; together they use more than
    # a limit armed once at spawn would allow, yet the worker is never
    # killed, because every map re-arms the budget from its own start.
    policy = RuntimePolicy(max_cpu_seconds=1)
    pids = pool.pids()
    for _ in range(5):
        c = Counters()
        assert supervised_map(_burn_cpu, [0.45], policy=policy, counters=c,
                              pool=pool) == [0.45]
        assert c.worker_respawns == 0
    assert pool.pids() == pids
