"""One pass and one hop per served request.

A cache hit is decode, guard, key, cache and map back: it builds no
canonical graph and no canonical payload.  A normal-mode miss is awaited
on the event loop, in the shard's worker, without crossing the executor
thread; what solves in the server process -- an escalation to the exact
backend -- runs on the executor, so ``ping`` and cache hits keep being
answered while a map is in flight and while an escalation runs.  The
latency phases a cell records add up to its server-side time.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np

from repro.graphs.builders import random_ring, ring
from repro.io import graph_to_dict
from repro.serve import server as server_mod
from repro.serve import solver as solver_mod

from .client import Client, client_for, serving


def _ring(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return graph_to_dict(random_ring(n, rng, "loguniform", 0.1, 10.0))


def _rotated(graph: dict, k: int) -> dict:
    weights = graph["weights"][k:] + graph["weights"][:k]
    return graph_to_dict(ring([1.0] * len(weights))) | {"weights": weights}


def _count_calls(monkeypatch, module, name: str) -> list:
    calls: list = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_executor_calls(loop) -> list:
    calls: list = []
    real = loop.run_in_executor

    def counted(executor, func, *args):
        calls.append(getattr(func, "__name__", repr(func)))
        return real(executor, func, *args)

    loop.run_in_executor = counted
    return calls


def _solve(c, req_id, graph: dict) -> dict:
    return c.rpc({"op": "solve", "id": req_id, "graph": graph})


def _timed(c, obj: dict) -> tuple[dict, float]:
    t0 = time.monotonic()
    resp = c.rpc(obj)
    return resp, time.monotonic() - t0


def test_cache_hit_builds_no_canonical_graph_or_payload(monkeypatch):
    payloads = _count_calls(monkeypatch, server_mod, "canonical_dict")
    graphs = _count_calls(monkeypatch, solver_mod, "canonical_graph")
    g = _ring(9, seed=1)
    with serving(shards=1) as handle:
        with client_for(handle) as c:
            assert _solve(c, 0, g)["status"] == "ok"
            assert (len(payloads), len(graphs)) == (1, 1)
            for k in range(1, 9):
                assert _solve(c, k, _rotated(g, k))["status"] == "ok"
        stats = handle.server.stats()
    assert stats["serve_cache_hits"] == 8
    assert (len(payloads), len(graphs)) == (1, 1)


def test_normal_mode_miss_makes_no_executor_call():
    with serving(shards=1) as handle:
        calls = _count_executor_calls(handle.loop)
        with client_for(handle) as c:
            for i in range(3):
                assert _solve(c, i, _ring(6 + i, seed=i))["status"] == "ok"
        assert handle.server.stats()["cell_phases_ms"]["solve"]["count"] == 3
    assert calls == []


def test_serial_mode_miss_still_solves_on_the_executor():
    # The contrast case: shards=0 solves in the server process, so its map
    # must leave the loop.
    with serving(shards=0) as handle:
        calls = _count_executor_calls(handle.loop)
        with client_for(handle) as c:
            assert _solve(c, 0, _ring(6, seed=0))["status"] == "ok"
    assert len(calls) == 1


def _assert_loop_answers(handle, hit_graph: dict, busy) -> None:
    """While ``busy()`` holds, a ping and a cache hit each answer fast."""
    with client_for(handle) as c:
        for i in range(5):
            assert busy()
            pong, ping_s = _timed(c, {"op": "ping", "id": f"p{i}"})
            hit, hit_s = _timed(c, {"op": "solve", "id": f"h{i}",
                                    "graph": _rotated(hit_graph, i + 1)})
            assert pong["status"] == hit["status"] == "ok"
            assert ping_s < 0.1 and hit_s < 0.1, (ping_s, hit_s)
        assert busy()


def _solve_in_thread(handle, graph: dict, box: dict) -> threading.Thread:
    def run() -> None:
        c = Client(handle.port)
        try:
            box["resp"] = _solve(c, "slow", graph)
        finally:
            c.close()

    t = threading.Thread(target=run)
    t.start()
    return t


def _wait_until(pred, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not pred():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.002)


def test_ping_and_hits_answer_while_a_map_is_in_flight():
    # Every map's first cell sleeps 1 s in the shard's worker.
    seed_graph = _ring(8, seed=2)
    box: dict = {}
    with serving(shards=1, faults="cell:delay@0:1.0") as handle:
        counters = handle.server.ctx.counters
        with client_for(handle) as c:
            assert _solve(c, 0, seed_graph)["status"] == "ok"
        t = _solve_in_thread(handle, _ring(10, seed=3), box)
        _wait_until(lambda: counters.serve_batches == 2)
        _assert_loop_answers(handle, seed_graph, lambda: "resp" not in box)
        t.join(timeout=60)
    assert box["resp"]["status"] == "ok"


def test_ping_and_hits_answer_while_an_escalation_runs(monkeypatch):
    # A NaN flow value fails each map's float solve in the worker; with no
    # retries left the cell escalates to the exact backend, which runs in
    # the server process and is held open here for a second first (a
    # sleep, so only an escalation run on the loop could block it).
    started, held = threading.Event(), threading.Event()
    real = server_mod.solve_cell_exact
    loop_threads: list = []

    def slow_exact(item):
        loop_threads.append(threading.current_thread().name)
        started.set()
        time.sleep(1.0)
        held.set()
        return real(item)

    monkeypatch.setattr(server_mod, "solve_cell_exact", slow_exact)
    seed_graph = _ring(8, seed=4)
    box: dict = {}
    with serving(shards=1, faults="flow:nan@1") as handle:
        with client_for(handle) as c:
            assert _solve(c, 0, seed_graph)["status"] == "ok"
        started.clear()
        held.clear()
        t = _solve_in_thread(handle, _ring(10, seed=5), box)
        assert started.wait(30)
        _assert_loop_answers(handle, seed_graph, lambda: not held.is_set())
        t.join(timeout=60)
        stats = handle.server.stats()
    assert box["resp"]["status"] == "ok"
    assert stats["precision_escalations"] == 2
    assert "repro-serve" not in loop_threads  # never on the loop's thread


def test_cell_phases_add_up_to_the_server_side_latency(monkeypatch):
    """Queue, handoff, map and respond tile a miss's server-side time,
    from reading its line until its response is written, up to the
    intake before admission.  Sequential misses on one shard, each a ring
    large enough that its solve dominates that intake.  The server shares
    this process's heap, so a collector pass over the whole test session
    could land in the intake; collection is off meanwhile."""
    entered: list = []
    written: list = []
    real_responded = server_mod._Cell.responded

    def responded(cell, now):
        written.append(now)
        real_responded(cell, now)

    monkeypatch.setattr(server_mod._Cell, "responded", responded)
    with serving(shards=1) as handle:
        server = handle.server
        real_line = server._handle_line

        async def timed_line(line):
            entered.append(time.monotonic())
            return await real_line(line)

        server._handle_line = timed_line
        gc.disable()
        try:
            with client_for(handle) as c:
                for i in range(4):
                    graph = _ring(200, seed=10 + i)
                    assert _solve(c, i, graph)["status"] == "ok"
        finally:
            gc.enable()
    rows = list(server._phases)
    assert len(rows) == len(entered) == len(written) == 4
    for (queue, handoff, map_s, solve, respond), t0, t1 in zip(
            rows, entered, written):
        assert 0.0 < solve <= map_s
        total = queue + handoff + map_s + respond
        latency = t1 - t0
        assert abs(total - latency) <= 0.05 * latency, (total, latency)
