"""Persistent shard workers: one long-lived worker process per shard.

Every normal-mode cell solves in its shard's worker, which serves flush
after flush; a worker that dies while idle is replaced on the next
dispatch without costing the request; and shutdown leaves no worker
behind.  ``stats()["workers"]`` maps each shard to its worker's pid.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.analysis import parallel
from repro.graphs import ring
from repro.io import graph_to_dict
from repro.serve import ServeConfig, start_in_thread

from .client import Client, client_for, serving


def _ring(i: int):
    return ring([1.25 + i, 2.5, 3.0 + 0.5 * (i % 3), 4.75, 1.0 + 0.25 * i])


def _solve(c, i: int, g=None) -> dict:
    return c.rpc({"op": "solve", "id": i,
                  "graph": graph_to_dict(g if g is not None else _ring(i))})


def _local_decompositions(spec) -> int:
    # Solves this (the server's) process ran on the shard's context.
    ctx = parallel._WORKER_CONTEXTS.get(spec)
    return 0 if ctx is None else ctx.counters.decompositions


def _wait_dead(pid: int) -> None:
    # A SIGKILLed worker stays a zombie until the server reaps it.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as f:
            if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} did not die")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_consecutive_flushes_share_one_worker():
    with serving(shards=1, cache_size=0) as handle:
        spec = handle.server.shard_specs[0]
        local_before = _local_decompositions(spec)
        pid = handle.server.stats()["workers"]["0"]
        assert pid is not None and pid != os.getpid()
        with client_for(handle) as c:
            for i in range(5):
                assert _solve(c, i)["status"] == "ok"
                assert handle.server.stats()["workers"] == {"0": pid}
        stats = handle.server.stats()
        # The work was done -- in the worker, not in the server process.
        assert stats["decompositions"] == 5
        assert _local_decompositions(spec) == local_before
        assert stats["worker_respawns"] == 0


def test_fault_free_load_spawns_exactly_one_worker_per_shard():
    seen: set = set()
    with serving(shards=2, cache_size=0, batch_max=4) as handle:
        seen.update(handle.server.stats()["workers"].values())
        errors: list = []

        def client_run(k: int) -> None:
            try:
                with client_for(handle) as c:
                    for i in range(6):
                        assert _solve(c, 10 * k + i)["status"] == "ok"
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client_run, args=(k,))
                   for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors and not any(t.is_alive() for t in threads)
        stats = handle.server.stats()
        seen.update(stats["workers"].values())
    assert len(seen) == 2 and None not in seen
    assert stats["worker_respawns"] == 0
    assert stats["cell_retries"] == 0


def test_worker_killed_idle_is_replaced_on_next_dispatch():
    with serving(shards=1, cache_size=0) as handle:
        with client_for(handle) as c:
            assert _solve(c, 0)["status"] == "ok"
            pid = handle.server.stats()["workers"]["0"]
            os.kill(pid, signal.SIGKILL)
            _wait_dead(pid)
            resp = _solve(c, 1)
        stats = handle.server.stats()
    assert resp["status"] == "ok"
    assert stats["worker_respawns"] == 1
    assert stats["cell_retries"] == 0
    assert stats["workers"]["0"] not in (None, pid)


def test_stop_leaves_no_worker_alive():
    handle = start_in_thread(ServeConfig(shards=2, cache_size=0))
    pids = set(handle.server.stats()["workers"].values())
    try:
        with client_for(handle) as c:
            for i in range(4):
                assert _solve(c, i)["status"] == "ok"
        pids.update(handle.server.stats()["workers"].values())
    finally:
        handle.stop()
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


def test_concurrent_handler_spans_do_not_nest_under_dispatch():
    # The first cell of every flush stalls in the worker, holding the
    # batcher's serve/dispatch span open while another connection's lines
    # are accepted; their spans must stay top-level.
    cfg = ServeConfig(shards=1, cache_size=0, faults="cell:delay@0:0.3")
    handle = start_in_thread(cfg)
    try:
        results: list = []

        def slow() -> None:
            c = Client(handle.port)
            try:
                results.append(_solve(c, 0)["status"])
            finally:
                c.close()

        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.1)
        with client_for(handle) as c:
            for i in range(5):
                assert c.rpc({"op": "ping", "id": 100 + i})["status"] == "ok"
        t.join(timeout=60)
        assert not t.is_alive() and results == ["ok"]
        spans = handle.server.stats()["spans"]
    finally:
        handle.stop()
    assert "serve/accept" in spans and "serve/dispatch" in spans
    assert not [p for p in spans if "serve/dispatch/serve/" in p]


def test_served_miss_reports_the_worker_spans():
    # The shard specs trace, so the worker's spans drain back with its
    # counters and land in the server's span tree at top level.
    with serving(shards=1, cache_size=0) as handle:
        with client_for(handle) as c:
            assert _solve(c, 0)["status"] == "ok"
        spans = handle.server.stats()["spans"]
    assert {"serve/solve", "serve/solve/decompose",
            "serve/solve/allocate"} <= set(spans)
    assert spans["serve/solve"]["count"] == 1
