"""Overload semantics end-to-end: shedding, deadlines, breakers, the soak.

These tests drive the real wire path (sockets against a server on a
background loop) and pin the overload contract from the outside: typed
``overloaded`` envelopes with hints at capacity, typed
``deadline_exceeded`` envelopes when budgets run out anywhere on the
request path, the breaker's degraded ladder down to cache-only
fast-fail, and the exactly-one-typed-outcome accounting that the chaos
soak asserts at scale.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.graphs import ring
from repro.graphs.builders import random_ring
from repro.io import graph_to_dict
from repro.runtime import RuntimePolicy
from repro.serve import ServeConfig, start_in_thread
from repro.serve.load import (
    OVERLOAD_BENCH_NAME,
    LoadConfig,
    OverloadConfig,
    build_chaos_spec,
    build_requests,
    run_overload,
)

from .client import Client, client_for, serving


def _graphs(count, seed=0, n_min=4, n_max=10):
    rng = np.random.default_rng(seed)
    return [random_ring(int(rng.integers(n_min, n_max + 1)), rng,
                        "loguniform", 0.1, 10.0) for _ in range(count)]


def _solve(client, req_id, g, **extra):
    req = {"op": "solve", "id": req_id, "graph": graph_to_dict(g)}
    req.update(extra)
    return client.rpc(req)


def _terminal_tiling(stats: dict) -> None:
    """Every request exactly one typed terminal outcome, by counters."""
    assert stats["serve_requests"] == (
        stats["serve_responses"] + stats["serve_errors"]
        + stats["serve_shed"] + stats["serve_deadline_exceeded"])


# -- admission control ------------------------------------------------------


def test_sheds_typed_envelope_at_capacity():
    """queue_cap=1 with slow flushes and concurrent misses must shed, and
    a shed is a typed envelope with a hint on a live connection.  Every
    map's first cell sleeps 0.3 s, so the lane stays busy while the
    burst arrives."""
    graphs = _graphs(12, seed=1)
    cfg = ServeConfig(shards=1, batch_max=2, cache_size=0, queue_cap=1,
                      faults="cell:delay@0:0.3",
                      policy=RuntimePolicy(retries=1, timeout=60.0))
    handle = start_in_thread(cfg)
    try:
        responses = []
        lock = threading.Lock()

        def one(i, g):
            c = Client(handle.port)
            try:
                resp = _solve(c, i, g)
                # The connection survived the shed: a ping still answers.
                pong = c.rpc({"op": "ping", "id": f"after-{i}"})
                with lock:
                    responses.append((resp, pong))
            finally:
                c.close()

        threads = [threading.Thread(target=one, args=(i, g))
                   for i, g in enumerate(graphs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        assert len(responses) == len(graphs)
        shed = [r for r, _ in responses
                if r["status"] == "error"
                and r["error"]["type"] == "OverloadedError"]
        ok = [r for r, _ in responses if r["status"] == "ok"]
        assert shed, "no request was shed at queue_cap=1 under a burst"
        assert ok, "every request was shed -- admission never admitted"
        for r in shed:
            assert r["error"]["retry_after_ms"] > 0
        for _, pong in responses:
            assert pong["status"] == "ok"
        stats = handle.server.stats()
        _terminal_tiling(stats)
        assert stats["serve_shed"] == len(shed)
        assert stats["admission"]["peak_depth"] <= 1
    finally:
        handle.stop()


def test_no_shed_below_capacity_and_stats_shape():
    with serving(shards=1, queue_cap=64, cache_size=0) as handle:
        with client_for(handle) as c:
            for i, g in enumerate(_graphs(6, seed=2)):
                assert _solve(c, i, g)["status"] == "ok"
            stats = c.rpc({"op": "stats", "id": "s"})["result"]
    assert stats["serve_shed"] == 0
    assert stats["admission"]["queue_cap"] == 64
    assert stats["admission"]["peak_depth"] <= 64
    assert "0" in stats["breakers"]
    assert stats["breakers"]["0"]["state"] == "closed"
    _terminal_tiling(stats)


# -- deadlines --------------------------------------------------------------


def test_deadline_exceeded_is_typed_and_counted():
    """A microscopic budget cannot outlast a busy lane (every map's first
    cell sleeps 0.3 s): the response is a typed deadline_exceeded
    envelope, counted under its own counter."""
    with serving(shards=0, cache_size=0,
                 faults="cell:delay@0:0.3") as handle:
        with client_for(handle) as c:
            resp = _solve(c, 1, ring([1.0, 2.0, 3.0]), deadline_ms=1.0)
            assert resp["status"] == "error"
            assert resp["error"]["type"] == "DeadlineExceededError"
            # The connection survived; a generous budget succeeds.
            resp2 = _solve(c, 2, ring([1.0, 2.0, 3.0, 4.0]),
                           deadline_ms=30_000.0)
            assert resp2["status"] == "ok"
        stats = handle.server.stats()
        assert stats["serve_deadline_exceeded"] >= 1
        _terminal_tiling(stats)


def test_default_deadline_applies_when_request_has_none():
    with serving(shards=0, cache_size=0, default_deadline_ms=1.0,
                 faults="cell:delay@0:0.3") as handle:
        with client_for(handle) as c:
            resp = _solve(c, 1, ring([1.0, 2.0, 3.0]))
            assert resp["status"] == "error"
            assert resp["error"]["type"] == "DeadlineExceededError"


def test_invalid_deadline_rejected_as_malformed():
    with serving(shards=0) as handle:
        with client_for(handle) as c:
            for bad in (0, -5, "soon", True, float("nan")):
                resp = c.rpc({"op": "solve", "id": 1,
                              "graph": graph_to_dict(ring([1, 2, 3])),
                              "deadline_ms": bad})
                assert resp["status"] == "error"
                assert resp["error"]["type"] == "MalformedInputError"


def test_generous_deadline_result_identical_to_undeadlined():
    g = ring([3.0, 1.0, 4.0, 1.0, 5.0])
    with serving(shards=0, cache_size=0) as handle:
        with client_for(handle) as c:
            with_deadline = _solve(c, 1, g, deadline_ms=60_000.0)
            without = _solve(c, 2, g)
    assert with_deadline["status"] == without["status"] == "ok"
    assert with_deadline["result"] == without["result"]


# -- circuit breaker --------------------------------------------------------


def test_breaker_walks_ladder_to_cache_only_fastfail():
    """A persistently sick shard (worker killed every flush) trips, walks
    serial -> exact via failed probes, and lands in cache-only brownout
    where a miss fast-fails with a typed CircuitOpenError."""
    graphs = _graphs(16, seed=3)
    cfg = ServeConfig(shards=1, batch_max=4, cache_size=0,
                      faults="worker:kill@0",
                      breaker_threshold=1, breaker_cooldown_s=0.05,
                      breaker_cooldown_cap_s=0.4,
                      policy=RuntimePolicy(retries=2, timeout=60.0))
    handle = start_in_thread(cfg)
    try:
        types = []
        lock = threading.Lock()

        def one(i, g):
            c = Client(handle.port)
            try:
                resp = _solve(c, i, g)
                with lock:
                    types.append(resp["error"]["type"]
                                 if resp["status"] == "error" else "ok")
            finally:
                c.close()

        # Two concurrent requests per round.  Every normal-mode cell, a
        # lone one included, solves in the shard's worker, so the kill
        # fault -- and hence the breaker's bad-dispatch signal -- engages
        # on every flush, whether it batches one cell or both.
        for r in range(0, len(graphs), 2):
            pair = [threading.Thread(target=one, args=(r + j, graphs[r + j]))
                    for j in range(2)]
            for t in pair:
                t.start()
            for t in pair:
                t.join(timeout=60)
            if handle.server.ctx.counters.breaker_trips < 3:
                # Outlast the cooldown so the next round opens with the
                # half-open probe (which the kill fails again, walking the
                # ladder serial -> exact -> cache-only) ...
                time.sleep(0.45)
            # ... and once cache-only is reached, dispatch immediately --
            # inside the open window -- to observe the fast-fail path.
        stats = handle.server.stats()
        assert stats["breaker_trips"] >= 3
        assert stats["breaker_probes"] >= 1
        assert stats["breaker_fastfails"] >= 1
        assert "CircuitOpenError" in types
        # Degraded rungs still answered: serial/exact dispatches solve.
        assert "ok" in types
        _terminal_tiling(stats)
    finally:
        handle.stop()


def test_healthy_traffic_never_trips_breaker():
    with serving(shards=1, cache_size=0, breaker_threshold=1) as handle:
        with client_for(handle) as c:
            for i, g in enumerate(_graphs(5, seed=4)):
                assert _solve(c, i, g)["status"] == "ok"
        stats = handle.server.stats()
    assert stats["breaker_trips"] == 0
    assert stats["breakers"]["0"]["state"] == "closed"


# -- the chaos soak ---------------------------------------------------------


def test_chaos_spec_is_seed_deterministic():
    assert build_chaos_spec(7) == build_chaos_spec(7)
    assert build_chaos_spec(7) != build_chaos_spec(8)
    for clause in build_chaos_spec(7).split(";"):
        site = clause.split(":")[0]
        assert site in ("worker", "cell", "flow", "exp")


def test_overload_soak_smoke():
    """The full two-leg soak at small scale: zero contract violations,
    overload genuinely engaged, report in the repro-bench shape."""
    ocfg = OverloadConfig(warm_requests=12, warm_clients=2,
                          burst_requests=96, burst_clients=48,
                          pipeline=2, seed=0)
    report = run_overload(None, ocfg, tag="test")
    assert report["_problems"] == []
    bench = report["benchmarks"][OVERLOAD_BENCH_NAME]
    assert bench["warm_outcomes"]["ok"] == 12
    assert bench["warm_outcomes"]["overloaded"] == 0
    assert bench["outcomes"]["overloaded"] > 0
    assert sum(bench["outcomes"].values()) == 96
    inv = bench["invariants"]["burst"]
    assert inv["peak_depth"] <= inv["queue_cap"]
    assert inv["counters"]["serve_requests"] == inv["terminal_outcomes"]
    assert report["format"] == "repro-bench/1"
    assert report["totals"]["counters"]["serve_requests"] == 12 + 96


def test_build_requests_deadline_entries_never_audited():
    cfg = LoadConfig(requests=60, seed=5, malformed_rate=0.0,
                     audit_rate=1.0, deadline_ms=100.0, deadline_rate=0.5)
    script = build_requests(cfg)
    deadlined = [e for e in script if e["deadline"]]
    assert deadlined, "deadline_rate=0.5 produced no deadline entries"
    assert all(e["expect"] is None for e in deadlined)
    assert all(b'"deadline_ms"' in e["line"] for e in deadlined)
    plain = [e for e in script if not e["deadline"]]
    assert all(e["expect"] is not None for e in plain)
