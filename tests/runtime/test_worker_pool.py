"""A caller-owned WorkerPool: workers outlive each map, yet every map sees
them as fresh forks (re-armed fault plan, CPU budget from the map's start)
and dead workers are replaced before they cost a cell.

Every pooled map here runs under both drivers of the one state machine:
the blocking :func:`supervised_map` and the event-loop
:func:`supervised_map_async`.  They must agree on results and counters
through timeouts, worker deaths, retries with backoff, deadline expiry,
escalation and degradation; the event-loop driver must in addition never
solve or sleep on the loop's thread.

Worker functions live at module level: a borrowed pool's running workers
receive the cell function through their task pipes, so it must pickle.
"""

import asyncio
import os
import signal
import sys
import threading
import time

import pytest

from repro.engine import Counters
from repro.exceptions import ConvergenceError
from repro.guard.resources import RLIMITS_AVAILABLE
from repro.runtime import (
    RuntimePolicy,
    WorkerPool,
    clear_injector,
    supervised_map,
    supervised_map_async,
)


def _blocking(fn, items, pool, **kwargs):
    return supervised_map(fn, items, pool=pool, **kwargs)


def _event_loop(fn, items, pool, **kwargs):
    return asyncio.run(supervised_map_async(fn, items, pool, **kwargs))


DRIVERS = (_blocking, _event_loop)


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


def _diverges(x):
    raise ConvergenceError("synthetic non-convergence", residual=1.0)


def _where(x):
    """Where a cell ran: this process and thread, tagged with ``x``."""
    return (x, os.getpid(), threading.current_thread().name)


def _marker(x):
    return ("expired", x)


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
    for run_map in DRIVERS:
        assert run_map(_pid, [0], pool) == [pid]
    assert pid != os.getpid()


def test_borrowed_workers_outlive_each_map(pool):
    pids = pool.pids()
    for run_map in DRIVERS * 2:
        c = Counters()
        assert run_map(_square, [1, 2, 3], pool, counters=c) == [1, 4, 9]
        assert pool.pids() == pids
        assert c.worker_respawns == 0


def test_cell_fault_fires_on_every_map_like_a_fresh_fork(pool):
    policy = RuntimePolicy(retries=1, backoff_base=0.0, faults="cell:exc@0")
    fresh = Counters()
    assert supervised_map(_square, [2, 3], processes=1, policy=policy,
                          counters=fresh) == [4, 9]
    assert fresh.cell_retries == 1
    pids = pool.pids()
    for run_map in DRIVERS * 2:
        c = Counters()
        assert run_map(_square, [2, 3], pool, policy=policy,
                       counters=c) == [4, 9]
        assert c.cell_retries == fresh.cell_retries
        assert c.worker_respawns == 0
    assert pool.pids() == pids


def test_worker_kill_fault_recurs_per_map_and_is_replaced(pool):
    policy = RuntimePolicy(retries=1, backoff_base=0.0, faults="worker:kill@0")
    for run_map in DRIVERS * 2:
        c = Counters()
        assert run_map(_square, [5], pool, policy=policy, counters=c) == [25]
        assert c.worker_respawns == 1 and c.cell_retries == 1


def test_worker_that_died_idle_is_replaced_without_a_retry(pool):
    for run_map in DRIVERS:
        [pid] = pool.pids()
        os.kill(pid, signal.SIGKILL)
        _wait_dead(pid)
        c = Counters()
        assert run_map(_square, [7], pool, counters=c) == [49]
        assert c.worker_respawns == 1
        assert c.cell_retries == 0
        assert pool.pids() != [pid]


def test_map_with_other_limits_starts_on_fresh_workers(pool):
    # Rlimits are process-wide and arming never lifts them: a worker that
    # took one map's memory envelope must not carry it into a map without
    # one.
    capped = RuntimePolicy(max_memory_mb=4096)
    for run_map in DRIVERS:
        [pid] = pool.pids()
        assert run_map(_square, [6], pool, policy=capped) == [36]
        assert run_map(_square, [6], pool) == [36]
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
    for run_map in DRIVERS * 3:
        c = Counters()
        assert run_map(_burn_cpu, [0.45], pool, policy=policy,
                       counters=c) == [0.45]
        assert c.worker_respawns == 0
    assert pool.pids() == pids


# -- supervision parity: the same recovery under both drivers ---------------

def test_hung_cell_is_killed_and_retried(pool):
    # The timeout binds every cell, and a respawned worker's first cell
    # is timed from its send, before the fresh fork runs: 2 s leaves a
    # loaded host room to start it (the injected hang is 60 s).
    policy = RuntimePolicy(timeout=2.0, retries=1, backoff_base=0.0,
                           faults="cell:hang@1:60")
    for run_map in DRIVERS:
        c = Counters()
        t0 = time.monotonic()
        assert run_map(_square, [1, 2, 3], pool, policy=policy,
                       counters=c) == [1, 4, 9]
        assert time.monotonic() - t0 < 30.0  # nowhere near the 60 s hang
        assert c.cell_timeouts == 1 and c.cell_retries == 1
        assert c.worker_respawns == 1
        assert len(pool.pids()) == 1


def test_worker_death_mid_map_requeues_the_cell(pool):
    policy = RuntimePolicy(retries=1, backoff_base=0.0,
                           faults="worker:kill@2")
    for run_map in DRIVERS:
        c = Counters()
        assert run_map(_square, [1, 2, 3, 4], pool, policy=policy,
                       counters=c) == [1, 4, 9, 16]
        assert c.worker_respawns == 1 and c.cell_retries == 1


def test_retry_waits_out_its_backoff(pool):
    policy = RuntimePolicy(retries=2, backoff_base=0.2, faults="cell:exc@0")
    for run_map in DRIVERS:
        c = Counters()
        t0 = time.monotonic()
        assert run_map(_square, [6, 7], pool, policy=policy,
                       counters=c) == [36, 49]
        assert time.monotonic() - t0 >= 0.2
        assert c.cell_retries == 1 and c.worker_respawns == 0


def test_expired_budgets_settle_through_on_deadline(pool):
    # Cell 0's budget is gone at dispatch; cell 1 hangs in the worker past
    # its budget, which kills the worker without counting against the pool.
    policy = RuntimePolicy(faults="cell:hang@1:60")
    for run_map in DRIVERS:
        c = Counters()
        t0 = time.monotonic()
        out = run_map(_square, [2, 3, 4], pool, policy=policy, counters=c,
                      budgets=[0.0, 0.3, None], on_deadline=_marker)
        assert out == [("expired", 2), ("expired", 3), 16]
        assert time.monotonic() - t0 < 30.0
        assert c.cell_deadline_expired == 2
        assert c.cell_timeouts == 0 and c.cell_retries == 0
        assert len(pool.pids()) == 1


def test_escalation_solves_in_this_process_off_the_loop(pool):
    for run_map in DRIVERS:
        c = Counters()
        [(x, pid, thread)] = run_map(_diverges, [5], pool, counters=c,
                                     escalate_fn=_where)
        assert (x, pid) == (5, os.getpid())
        assert c.precision_escalations == 1
        # The event-loop driver runs on this (the main) thread, so its
        # escalation must have run on an executor thread.
        assert (thread == threading.main_thread().name) == (
            run_map is _blocking)


def test_unrecoverable_pool_degrades_to_serial_off_the_loop(pool,
                                                            monkeypatch):
    monkeypatch.setattr(pool, "spawn", lambda: None)
    for run_map in DRIVERS:
        for pid in pool.pids():
            os.kill(pid, signal.SIGKILL)
            _wait_dead(pid)
        c = Counters()
        out = run_map(_where, [1, 2], pool, counters=c)
        assert [(x, pid) for x, pid, _ in out] == [(1, os.getpid()),
                                                  (2, os.getpid())]
        assert all((thread == threading.main_thread().name)
                   == (run_map is _blocking) for _, _, thread in out)
        assert pool.pids() == []


def test_event_loop_keeps_running_through_a_map(pool):
    """A map awaited on the loop leaves it free: a ticker keeps ticking
    through a worker's solve and a retry's backoff."""
    policy = RuntimePolicy(retries=1, backoff_base=0.3, faults="cell:exc@0")

    async def main():
        ticks = 0

        async def ticker():
            nonlocal ticks
            while True:
                await asyncio.sleep(0.01)
                ticks += 1

        task = asyncio.ensure_future(ticker())
        try:
            out = await supervised_map_async(_burn_cpu, [0.2], pool,
                                             policy=policy)
        finally:
            task.cancel()
        return out, ticks

    out, ticks = asyncio.run(main())
    assert out == [0.2]
    assert ticks >= 20  # 0.3 s of backoff plus 0.2 s of solve, 10 ms ticks
