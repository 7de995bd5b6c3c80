"""Lifecycle under pressure: drain/shutdown racing an active flush.

The drain contract is "every accepted solve has a resolved result" and
the shutdown contract layers "no new connections" on top -- both must
hold *while a flush is in flight on the executor* with more work queued
and shedding underway, not just on an idle server.  These tests force
that interleaving with slow injected cells and assert the exactly-one
typed-terminal-outcome accounting across it, then pin the typed
:class:`~repro.exceptions.ShutdownTimeoutError` on a wedged stop and the
CLI's signal-driven graceful exit.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import ShutdownTimeoutError
from repro.graphs.builders import random_ring
from repro.io import graph_to_dict
from repro.runtime import RuntimePolicy
from repro.serve import ServeConfig, start_in_thread

from .client import Client

import numpy as np

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _graphs(count, seed=0):
    rng = np.random.default_rng(seed)
    return [random_ring(int(rng.integers(4, 9)), rng, "loguniform", 0.1, 10.0)
            for _ in range(count)]


def _slow_config(**overrides) -> ServeConfig:
    """One shard whose every flush crawls: the first two cells of each
    dispatch sleep 0.4s in the worker, so the flush window is wide enough
    to race ops against deterministically."""
    base = dict(shards=1, batch_max=2, cache_size=0,
                queue_cap=2, faults="cell:delay@0:0.4;cell:delay@1:0.4",
                policy=RuntimePolicy(retries=1, timeout=60.0))
    base.update(overrides)
    return ServeConfig(**base)


def _spawn_solvers(port, graphs, outcomes, lock):
    """One thread per graph; records each response's terminal type."""

    def one(i, g):
        c = Client(port)
        try:
            resp = c.rpc({"op": "solve", "id": i,
                          "graph": graph_to_dict(g)})
            with lock:
                outcomes.append(resp["error"]["type"]
                                if resp["status"] == "error" else "ok")
        finally:
            c.close()

    threads = [threading.Thread(target=one, args=(i, g))
               for i, g in enumerate(graphs)]
    for t in threads:
        t.start()
    return threads


def _wait_for_flush(handle, timeout=10.0) -> None:
    """Block until at least one flush has started dispatching."""
    t0 = time.monotonic()
    while handle.server.ctx.counters.serve_batches == 0:
        if time.monotonic() - t0 > timeout:
            raise AssertionError("no flush started within the wait window")
        time.sleep(0.01)


def _assert_tiling(stats: dict) -> None:
    assert stats["serve_requests"] == (
        stats["serve_responses"] + stats["serve_errors"]
        + stats["serve_shed"] + stats["serve_deadline_exceeded"])


def test_drain_during_active_flush_settles_every_future():
    """``drain`` issued mid-flush -- slow dispatch on the executor, more
    cells queued behind it, sheds happening -- returns only at quiescence,
    and every concurrent solve still lands exactly one typed outcome."""
    handle = start_in_thread(_slow_config())
    outcomes: list = []
    lock = threading.Lock()
    try:
        threads = _spawn_solvers(handle.port, _graphs(8, seed=11),
                                 outcomes, lock)
        _wait_for_flush(handle)

        drainer = Client(handle.port)
        try:
            resp = drainer.rpc({"op": "drain", "id": "d"})
        finally:
            drainer.close()
        assert resp["status"] == "ok"
        drained_stats = resp["result"]
        # Quiescent at the moment drain returned: nothing queued, nothing
        # in flight.
        assert drained_stats["admission"]["depth"] == 0

        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 8
        assert "ok" in outcomes
        # queue_cap=2 against 8 concurrent misses over 0.8s flushes must
        # shed; a shed during an active drain is still a typed envelope.
        assert "OverloadedError" in outcomes

        stats = handle.server.stats()
        _assert_tiling(stats)
        assert stats["serve_requests"] == 8
    finally:
        handle.stop()


def test_shutdown_during_active_flush_answers_inflight():
    """A ``shutdown`` op racing an active flush acks immediately, lets
    every in-flight solve finish with its typed outcome, then refuses new
    connections once the thread exits."""
    handle = start_in_thread(_slow_config(queue_cap=8))
    outcomes: list = []
    lock = threading.Lock()
    threads = _spawn_solvers(handle.port, _graphs(4, seed=12),
                             outcomes, lock)
    _wait_for_flush(handle)

    stopper = Client(handle.port)
    try:
        ack = stopper.rpc({"op": "shutdown", "id": "s"})
    finally:
        stopper.close()
    assert ack["status"] == "ok"
    assert ack["result"]["stopping"] is True

    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(outcomes) == 4
    assert all(o == "ok" for o in outcomes), outcomes

    handle.thread.join(timeout=30)
    assert not handle.thread.is_alive()
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", handle.port), timeout=2.0)
    # stop() after an in-band shutdown is a documented no-op, not an error.
    handle.stop()


def test_stop_raises_typed_error_when_shutdown_wedges():
    """A drain that never completes must surface as ShutdownTimeoutError,
    not a silent return that leaks a live server thread."""
    handle = start_in_thread(ServeConfig(shards=0))
    try:
        async def _wedged():
            await asyncio.sleep(0.6)  # outlives the stop timeout, then ends

        handle.server.shutdown = _wedged
        with pytest.raises(ShutdownTimeoutError):
            handle.stop(timeout=0.2)
        assert handle.thread.is_alive()  # the wedge really did leak it
    finally:
        del handle.server.shutdown  # restore the real bound method
        time.sleep(0.6)  # let the wedge coroutine finish on its loop
        handle.stop()
    assert not handle.thread.is_alive()


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_cli_serve_stops_gracefully_on_signal(signum):
    """``repro-serve serve`` drains and exits 0 on the first signal."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", "serve",
         "--port", "0", "--shards", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env)
    try:
        banner = proc.stdout.readline()
        assert "listening on" in banner, (banner, proc.stderr.read())
        port = int(banner.split("listening on ")[1].split()[0].split(":")[1])

        c = Client(port)
        try:
            assert c.rpc({"op": "ping", "id": 1})["status"] == "ok"
        finally:
            c.close()

        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, (out, err)
        assert "stopped" in out
        assert "graceful stop" in err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
