"""Per-shard dispatch lanes: each shard dispatches on its own, at once.

A lane takes its first queued cell as soon as its previous map has
landed, plus whatever queued behind it, and settles only its own cells.
So a miss on an idle shard never waits on another shard's solve, and
misses that arrive while a lane is busy leave together in its next map.
Every dispatched cell's latency split lands in ``stats()``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.graphs.builders import random_ring
from repro.io import graph_to_dict
from repro.serve import ServeConfig
from repro.serve.load import SOAK_BENCH_NAME, Leg, LoadConfig, run_legs
from repro.serve.server import shard_of
from repro.serve.solver import canonical_request

from .client import Client, client_for, serving


def _ring(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return graph_to_dict(random_ring(n, rng, "loguniform", 0.1, 10.0))


def _shard(graph: dict, shards: int) -> int:
    return shard_of(canonical_request(graph)[0], shards)


def _timed_solve(port: int, graph: dict, box: dict, name) -> None:
    """One solve on a fresh connection; files ``(response, seconds)``."""
    c = Client(port)
    try:
        t0 = time.monotonic()
        resp = c.rpc({"op": "solve", "id": str(name), "graph": graph})
        box[name] = (resp, time.monotonic() - t0)
    finally:
        c.close()


def _solve_in_thread(port: int, graph: dict, box: dict,
                     name) -> threading.Thread:
    t = threading.Thread(target=_timed_solve, args=(port, graph, box, name))
    t.start()
    return t


def _wait_until(pred, timeout: float = 30.0) -> None:
    t0 = time.monotonic()
    while not pred():
        if time.monotonic() - t0 > timeout:
            raise AssertionError("condition not reached within the window")
        time.sleep(0.002)


def test_idle_shard_answers_while_the_other_shard_solves():
    """A 6-vertex miss on an idle shard is answered while a 400-vertex
    solve still holds the other shard."""
    big = _ring(400, seed=0)
    small = next(g for g in (_ring(6, seed=s) for s in range(1, 100))
                 if _shard(g, 2) != _shard(big, 2))
    box: dict = {}
    with serving(shards=2) as handle:
        counters = handle.server.ctx.counters
        t = _solve_in_thread(handle.port, big, box, "big")
        _wait_until(lambda: counters.serve_batches == 1)
        _timed_solve(handle.port, small, box, "small")
        t.join(timeout=120)
    (big_resp, big_s), (small_resp, small_s) = box["big"], box["small"]
    assert big_resp["status"] == small_resp["status"] == "ok"
    assert small_s < 0.25 * big_s, (small_s, big_s)


def test_misses_queued_behind_a_busy_lane_leave_together():
    """Every map's first cell sleeps 2 s; misses sent during the first
    map all leave in the second."""
    graphs = [_ring(4 + i, seed=10 + i) for i in range(4)]
    box: dict = {}
    with serving(shards=1, faults="cell:delay@0:2") as handle:
        counters = handle.server.ctx.counters
        threads = [_solve_in_thread(handle.port, graphs[0], box, 0)]
        _wait_until(lambda: counters.serve_batches == 1)
        threads += [_solve_in_thread(handle.port, g, box, i)
                    for i, g in enumerate(graphs[1:], start=1)]
        # The precondition, checked instead of raced: all three follow-up
        # misses are queued while the first map still sleeps.
        _wait_until(lambda: counters.serve_cache_misses == 4)
        assert counters.serve_batches == 1
        for t in threads:
            t.join(timeout=60)
        batches = counters.serve_batches
    assert batches == 2
    assert [box[i][0]["status"] for i in range(len(graphs))] == ["ok"] * 4


def test_cell_phases_count_every_dispatched_miss():
    k = 5
    with serving(shards=2) as handle:
        with client_for(handle) as c:
            idle = c.rpc({"op": "stats", "id": "s0"})["result"]
            for i in range(k):
                resp = c.rpc({"op": "solve", "id": i,
                              "graph": _ring(4 + i, seed=i)})
                assert resp["status"] == "ok"
            phases = c.rpc({"op": "stats", "id": "s1"})["result"][
                "cell_phases_ms"]
    assert [s["count"] for s in idle["cell_phases_ms"].values()] == [0] * 5
    assert list(phases) == ["queue", "handoff", "map", "solve", "respond"]
    for summary in phases.values():
        assert summary["count"] == k
        assert 0.0 <= summary["p50"] <= summary["p95"]


def test_soak_report_carries_the_phase_split():
    load = LoadConfig(requests=20, clients=2, seed=1, malformed_rate=0.0,
                      audit_rate=0.0)
    report = run_legs(SOAK_BENCH_NAME,
                      [Leg("soak", load, ServeConfig(shards=1))], "lanes")
    assert report["_problems"] == []
    phases = report["benchmarks"][SOAK_BENCH_NAME]["cell_phases_ms"]
    assert phases["map"]["count"] >= 1
