"""Integration tests: the daemon as a black box over a real socket.

Covers the full lifecycle contract (start / serve / drain / shutdown),
the input boundary (malformed bytes get a typed error response on a live
connection, never a drop or a crash), metrics integrity under concurrent
batches, and supervised-recovery: a worker killed mid-batch retries to a
bit-identical response.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.graphs import ring
from repro.io import graph_to_dict
from repro.runtime import RuntimePolicy
from repro.serve import PROTOCOL_VERSION
from repro.serve.solver import single_shot_response

from .client import Client, client_for, serving


def _solve(client, req_id, g):
    return client.rpc({"op": "solve", "id": req_id, "graph": graph_to_dict(g)})


# -- lifecycle --------------------------------------------------------------

def test_lifecycle_start_serve_drain_shutdown():
    with serving(shards=1) as handle:
        with client_for(handle) as c:
            assert c.rpc({"op": "ping", "id": 1}) == {
                "id": 1, "status": "ok",
                "result": {"protocol": PROTOCOL_VERSION},
            }
            resp = _solve(c, 2, ring([1.0, 2.0, 3.0, 4.0]))
            assert resp["status"] == "ok"
            drained = c.rpc({"op": "drain", "id": 3})
            assert drained["status"] == "ok"
            stats = drained["result"]
            assert stats["serve_requests"] == 1
            assert stats["serve_responses"] == 1
            bye = c.rpc({"op": "shutdown", "id": 4})
            assert bye == {"id": 4, "status": "ok",
                           "result": {"stopping": True}}
        # The listener is gone after a graceful shutdown.
        handle.thread.join(timeout=30)
        assert not handle.thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", handle.port), timeout=0.5)


def test_handle_stop_is_idempotent_after_inband_shutdown():
    with serving(shards=0) as handle:
        with client_for(handle) as c:
            c.rpc({"op": "shutdown", "id": 0})
        handle.stop()  # must not raise against the already-closed loop
        handle.stop()


def test_stop_returns_promptly_between_loop_stop_and_loop_close():
    """An in-band shutdown has stopped the loop, but the server thread is
    held before it closes the loop: ``stop()`` must join the thread, not
    queue a shutdown on a loop that will never run it."""
    import time

    release = threading.Event()
    with serving(shards=0) as handle:
        close = handle.loop.close

        def held_close():
            release.wait(10.0)
            close()

        handle.loop.close = held_close
        with client_for(handle) as c:
            c.rpc({"op": "shutdown", "id": 0})
        deadline = time.monotonic() + 10.0
        while handle.loop.is_running() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert not handle.loop.is_running() and handle.thread.is_alive()
        threading.Timer(0.2, release.set).start()
        t0 = time.monotonic()
        handle.stop(timeout=5.0)
        assert time.monotonic() - t0 < 2.0
        assert not handle.thread.is_alive()


# -- input boundary ---------------------------------------------------------

MALFORMED_LINES = [
    b"{nope\n",                                   # not JSON
    b"\xff\xfe\n",                                # not UTF-8
    b"[1, 2, 3]\n",                               # not an object
    b'{"op": "frobnicate"}\n',                    # unknown op
    b'{"op": "solve", "id": 1}\n',                # solve without graph
    b'{"op": "solve", "id": true, "graph": {}}\n',  # bool id
]


def test_malformed_lines_get_typed_errors_connection_survives():
    with serving(shards=0) as handle:
        with client_for(handle) as c:
            for line in MALFORMED_LINES:
                resp = c.send_raw(line)
                assert resp["status"] == "error"
                assert resp["error"]["type"] == "MalformedInputError"
                assert resp["error"]["message"]
            # Bad graph *payloads* echo the request id with the guard's
            # typed error; the connection is still live afterwards.
            bad_graph = {"op": "solve", "id": 9,
                         "graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]],
                                   "weights": [1.0, -2.0, 1.0]}}
            resp = c.rpc(bad_graph)
            assert resp["id"] == 9
            assert resp["status"] == "error"
            assert resp["error"]["type"] in (
                "MalformedInputError", "InvalidWeightError")
            ok = _solve(c, 10, ring([1.0, 1.0, 2.0]))
            assert ok["status"] == "ok"
            stats = c.rpc({"op": "stats", "id": 11})["result"]
            assert stats["serve_errors"] == len(MALFORMED_LINES) + 1
            assert stats["serve_responses"] == 1


def test_oversized_line_is_rejected_not_fatal():
    with serving(shards=0) as handle:
        with client_for(handle) as c:
            c.sock.sendall(b"x" * (9 * 1024 * 1024))
            c.sock.sendall(b"\n")
            resp = json.loads(c.file.readline())
            assert resp["status"] == "error"
        # The server survives to serve a fresh connection.
        with client_for(handle) as c2:
            assert c2.rpc({"op": "ping", "id": 1})["status"] == "ok"


# -- concurrent batches and metrics ----------------------------------------

def test_concurrent_batches_do_not_double_count():
    """Many clients, many distinct instances, several shards: after drain,
    every counter total equals the request arithmetic exactly -- the
    cross-thread merge never double-reports a shard's work."""
    # Weights unique to this test: shard worker contexts are memoized per
    # spec for the life of the process, so an instance another test already
    # solved would hit the worker-side decomposition cache and break the
    # decompositions == misses arithmetic below.
    instances = [ring([1.0 + i, 2.125, 3.375, 4.0 + i]) for i in range(12)]
    with serving(shards=3, batch_max=4) as handle:
        errors: list = []

        def run_client(offset: int) -> None:
            try:
                with client_for(handle) as c:
                    for j, g in enumerate(instances):
                        resp = _solve(c, offset * 100 + j, g)
                        assert resp["status"] == "ok"
            except Exception as exc:  # surfaced below on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run_client, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        with client_for(handle) as c:
            stats = c.rpc({"op": "drain", "id": 0})["result"]
        assert stats["serve_requests"] == 4 * len(instances)
        assert stats["serve_responses"] == 4 * len(instances)
        assert stats["serve_errors"] == 0
        # Every request either hit the cache, coalesced onto an in-flight
        # solve, or was a miss that went to the pool: the three must tile
        # the request count exactly (no lost or double-counted requests).
        assert (stats["serve_cache_hits"] + stats["serve_coalesced"]
                + stats["serve_cache_misses"]) == 4 * len(instances)
        # Solved work happened once per miss, regardless of which shard or
        # batch carried it: decompositions equal misses.
        assert stats["decompositions"] == stats["serve_cache_misses"]


# -- supervised recovery ----------------------------------------------------

def test_killed_worker_mid_batch_retries_bit_identical():
    """``worker:kill@0`` kills the first shard-worker attempt; the retry
    must transparently produce the same bytes an unfaulted server serves."""
    g = ring([3.0, 1.0, 4.0, 1.5, 5.0])
    expected = single_shot_response(g)
    policy = RuntimePolicy(retries=2, timeout=30.0)
    with serving(shards=1, cache_size=0, policy=policy,
                 faults="worker:kill@0") as handle:
        with client_for(handle) as c:
            resp = _solve(c, 1, g)
            assert resp["status"] == "ok"
            assert resp["result"] == expected
            stats = c.rpc({"op": "stats", "id": 2})["result"]
            # Single-cell flushes take the serial supervised path, where the
            # kill is simulated and retried in-process; either way exactly
            # the recovery ladder ran (a retry happened).
            assert stats["cell_retries"] + stats["worker_respawns"] >= 1
    # Control: the same solve without faults is byte-for-byte the same.
    with serving(shards=1, cache_size=0) as handle:
        with client_for(handle) as c:
            assert _solve(c, 1, g)["result"] == expected
