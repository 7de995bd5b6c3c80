"""Multi-endpoint failover in :class:`~repro.serve.client.ResilientClient`.

Two real in-thread servers; the client's contract is that an endpoint
list behaves like one reliable server under a single deadline budget --
dead endpoints are skipped at connect, a mid-flight endpoint death
rotates to the survivor, and the idempotent canonical-fingerprint solve
makes every blind retry safe.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.graphs.builders import random_ring
from repro.io import graph_to_dict
from repro.serve import ServeConfig, start_in_thread
from repro.serve.client import ResilientClient


def _graph(seed=0):
    rng = np.random.default_rng(seed)
    return graph_to_dict(random_ring(6, rng, "loguniform", 0.1, 10.0))


def _dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _serve():
    return start_in_thread(ServeConfig(shards=1, batch_max=4))


def test_dead_first_endpoint_is_skipped_at_connect():
    handle = _serve()
    client = ResilientClient(
        endpoints=[("127.0.0.1", _dead_port()), ("127.0.0.1", handle.port)],
        max_attempts=4, backoff_base_ms=5.0, seed=3)
    try:
        result = client.solve(_graph())
        assert result["n"] == 6
        assert client.failovers >= 1
        assert client.port == handle.port  # rotation landed on the live one
    finally:
        client.close()
        handle.stop()


def test_midflight_endpoint_death_fails_over_to_survivor():
    primary, backup = _serve(), _serve()
    client = ResilientClient(
        endpoints=[("127.0.0.1", primary.port), ("127.0.0.1", backup.port)],
        max_attempts=6, backoff_base_ms=5.0, seed=4)
    try:
        g = _graph(1)
        first = client.solve(g)
        assert client.failovers == 0  # primary was healthy
        primary.stop()
        again = client.solve(g)
        # Idempotency across endpoints: the survivor's solve is the same
        # result the dead primary returned.
        assert again == first
        assert client.failovers >= 1
        assert client.port == backup.port
    finally:
        client.close()
        backup.stop()


def test_all_endpoints_dead_raises_after_connect_cycles():
    client = ResilientClient(
        endpoints=[("127.0.0.1", _dead_port()), ("127.0.0.1", _dead_port())],
        max_attempts=2, backoff_base_ms=1.0, connect_cycles=2,
        connect_backoff_ms=1.0, seed=5)
    try:
        with pytest.raises((ConnectionError, OSError)):
            client.solve(_graph())
    finally:
        client.close()


def test_single_endpoint_never_rotates():
    handle = _serve()
    client = ResilientClient(handle.port, max_attempts=3, seed=6)
    try:
        client.solve(_graph(2))
        assert client.failovers == 0
        assert client.endpoints == [("127.0.0.1", handle.port)]
    finally:
        client.close()
        handle.stop()
