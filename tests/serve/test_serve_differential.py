"""Differential tests: served responses vs fresh single-shot solves.

The service's correctness contract is *bit-identity with the library*:
whatever batching, coalescing, sharding, caching, and canonical-form
plumbing did in between, the bytes a client receives must equal a fresh,
unbatched, uncached :func:`repro.serve.solver.single_shot_response` of the
same instance -- which is itself canonicalize + plain :mod:`repro.core`
solve + permutation map-back, the semantics README documents.  The
isomorphism leg additionally pins the whole point of the canonical cache:
relabelled copies of one economy are front-end cache hits, and each
labelling still gets *its own* correctly-mapped bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import bd_allocation, bottleneck_decomposition
from repro.engine import EngineContext
from repro.graphs import canonical_form, ring
from repro.graphs.builders import random_ring
from repro.io import graph_to_dict, scalar_to_json
from repro.serve.solver import single_shot_response

from .client import client_for, serving


def _mixed_instances():
    rng = np.random.default_rng(20260809)
    out = [random_ring(int(n), rng, "loguniform", 0.1, 10.0)
           for n in (3, 4, 5, 7, 9, 12, 16)]
    # Degenerate-but-legal weights ride along: zeros and subnormals.
    out.append(ring([0.0, 1.0, 5e-324, 2.0]))
    out.append(ring([1e-300, 1e16, 1.0, 1.0, 0.0]))
    return out


def test_single_shot_matches_raw_core_on_canonical_instances():
    """On an instance already in canonical position, the reference
    semantics reduce to a plain bd_allocation -- no mapping in the way."""
    for g in _mixed_instances():
        key, order = canonical_form(g)
        cg = ring([g.weights[v] for v in order])
        ctx = EngineContext(cache_size=0)
        decomp = bottleneck_decomposition(cg, None, ctx)
        alloc = bd_allocation(cg, decomp, None, ctx)
        resp = single_shot_response(cg)
        assert resp["utilities"] == [scalar_to_json(u) for u in alloc.utilities]
        assert resp["alphas"] == [
            scalar_to_json(decomp.alpha_of(v)) for v in range(cg.n)]


@pytest.mark.parametrize("shards", [0, 1, 3])
def test_served_bit_identical_to_single_shot(shards):
    instances = _mixed_instances()
    expected = [single_shot_response(g) for g in instances]
    with serving(shards=shards, batch_max=8) as handle:
        with client_for(handle) as c:
            for i, (g, exp) in enumerate(zip(instances, expected)):
                resp = c.rpc({"op": "solve", "id": i,
                              "graph": graph_to_dict(g)})
                assert resp["status"] == "ok"
                assert resp["result"] == exp
            # Second pass: every instance is now a cache hit, and the
            # bytes are still identical.
            for i, (g, exp) in enumerate(zip(instances, expected)):
                resp = c.rpc({"op": "solve", "id": 100 + i,
                              "graph": graph_to_dict(g)})
                assert resp["result"] == exp
            stats = c.rpc({"op": "stats", "id": 999})["result"]
            assert stats["serve_cache_hits"] >= len(instances)


def test_isomorphic_relabellings_hit_cache_and_map_back():
    """All 2n relabellings of one economy: one solve, 2n - 1 front-end
    hits, and each labelling's response equals its own single-shot
    solve bit-for-bit."""
    base = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0]
    n = len(base)
    labellings = []
    for reflect in (False, True):
        seq = list(reversed(base)) if reflect else list(base)
        for r in range(n):
            labellings.append(seq[r:] + seq[:r])
    with serving(shards=2) as handle:
        with client_for(handle) as c:
            for i, ws in enumerate(labellings):
                g = ring(ws)
                resp = c.rpc({"op": "solve", "id": i,
                              "graph": graph_to_dict(g)})
                assert resp["status"] == "ok"
                assert resp["result"] == single_shot_response(g)
            stats = c.rpc({"op": "drain", "id": 99})["result"]
    # One canonical economy: exactly one miss went to the pool; every
    # other labelling was answered from the canonical entry (a hit, or a
    # coalesce if it raced the first solve).
    assert stats["serve_cache_misses"] == 1
    assert (stats["serve_cache_hits"] + stats["serve_coalesced"]
            == 2 * n - 1)
    assert stats["serve_responses"] == 2 * n


def test_utilities_permute_with_the_labelling():
    """The mapped response is not merely cached-and-replayed: vertex v's
    utility follows vertex v through the relabelling."""
    base = [2.0, 7.0, 1.0, 8.0, 2.5]
    g1 = ring(base)
    rot = 2
    g2 = ring(base[rot:] + base[:rot])  # g2's vertex i is g1's vertex i+rot
    r1 = single_shot_response(g1)
    r2 = single_shot_response(g2)
    n = len(base)
    assert [r2["utilities"][i] for i in range(n)] == [
        r1["utilities"][(i + rot) % n] for i in range(n)]
    with serving(shards=1) as handle:
        with client_for(handle) as c:
            s1 = c.rpc({"op": "solve", "id": 1, "graph": graph_to_dict(g1)})
            s2 = c.rpc({"op": "solve", "id": 2, "graph": graph_to_dict(g2)})
    assert s1["result"] == r1
    assert s2["result"] == r2
