"""Regression: ``cache_size=0`` turns off *every* caching layer at once.

The PR-6 template-cache fix established the contract that the
``cache_size=0`` knob means deterministic work accounting; the serving
layer extends it: the canonical-fingerprint response cache AND request
coalescing must also disable, so serve counter totals are a pure function
of the request stream -- identical across shard counts and timing."""

from __future__ import annotations

import threading

import pytest

from repro.graphs import ring
from repro.io import graph_to_dict
from repro.serve import ResponseCache, ServeConfig

from .client import client_for, serving


def test_response_cache_maxsize_zero_disables():
    cache = ResponseCache(0)
    assert not cache.enabled
    cache.put(b"k", {"n": 1})
    assert cache.get(b"k") is None
    assert len(cache) == 0
    assert ResponseCache(-5).enabled is False
    assert ResponseCache(2).enabled is True


def test_effective_spec_threads_cache_size_to_workers():
    """One knob, all layers: the worker decomposition cache follows."""
    cfg = ServeConfig(cache_size=0)
    assert cfg.effective_spec().cache_size == 0
    assert ServeConfig(cache_size=7).effective_spec().cache_size == 7


def _drive(shards: int, repeats: int) -> dict:
    instances = [ring([1.5 + i, 2.75, 3.125, 4.5]) for i in range(6)]
    with serving(shards=shards, cache_size=0, batch_max=4) as handle:
        errors: list = []

        def client_run() -> None:
            try:
                with client_for(handle) as c:
                    for rep in range(repeats):
                        for j, g in enumerate(instances):
                            resp = c.rpc({"op": "solve",
                                          "id": rep * 100 + j,
                                          "graph": graph_to_dict(g)})
                            assert resp["status"] == "ok"
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client_run) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors
        with client_for(handle) as c:
            return c.rpc({"op": "drain", "id": 0})["result"]


@pytest.mark.parametrize("shards", [0, 1, 2])
def test_cache_zero_counter_totals_are_shard_independent(shards):
    """Every request is a fresh solve: no hits, no coalescing, no misses
    (cache accounting is off entirely), and the solved work equals the
    request count exactly -- for any shard layout."""
    repeats = 2
    stats = _drive(shards, repeats)
    total = 3 * repeats * 6
    assert stats["serve_requests"] == total
    assert stats["serve_responses"] == total
    assert stats["serve_errors"] == 0
    assert stats["serve_cache_hits"] == 0
    assert stats["serve_cache_misses"] == 0
    assert stats["serve_coalesced"] == 0
    # With every cache off (front-end, coalescing, worker decomposition),
    # each request decomposes afresh: work scales with requests, not with
    # distinct instances -- and identically so for 0, 1, or 2 shards.
    assert stats["decompositions"] == total
    assert stats["response_cache"] == {"size": 0, "maxsize": 0}
