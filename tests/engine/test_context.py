"""EngineContext: defaults, dispatch, spec round-trips, stats."""

import pickle

import pytest

from repro.engine import (
    DEFAULT_CACHE_SIZE,
    INT_COUNTER_FIELDS,
    EngineContext,
    EngineSpec,
    default_context,
    resolve_context,
)
from repro.exceptions import EngineError
from repro.flow import FlowNetwork
from repro.graphs import ring
from repro.numeric import EXACT, FLOAT
from repro.obs import Tracer


def _diamond():
    net = FlowNetwork(4)
    net.add_edge(0, 1, 3.0)
    net.add_edge(0, 2, 2.0)
    net.add_edge(1, 3, 2.0)
    net.add_edge(2, 3, 3.0)
    return net


def test_default_context_matches_historic_config():
    ctx = EngineContext()
    assert ctx.backend is FLOAT
    assert ctx.zero_tol == 0.0
    assert ctx.workers == 0
    assert ctx.cache.enabled and ctx.cache.maxsize == DEFAULT_CACHE_SIZE


def test_resolve_context_shares_one_default():
    assert resolve_context(None) is default_context()
    ctx = EngineContext()
    assert resolve_context(ctx) is ctx


def test_unknown_solver_fails_fast():
    # Max flow is always Dinic and there is one engine: neither a context
    # nor a spec can be given a solver or an engine.
    with pytest.raises(TypeError):
        EngineContext(solver="simplex")
    with pytest.raises(TypeError):
        EngineContext(engine="classic")
    with pytest.raises(TypeError):
        EngineSpec(engine="classic")
    with pytest.raises(EngineError):
        EngineContext(workers=-1)


def test_max_flow_counts_calls():
    ctx = EngineContext()
    assert ctx.max_flow(_diamond(), 0, 3) == pytest.approx(4.0)
    assert ctx.max_flow(_diamond(), 0, 3) == pytest.approx(4.0)
    assert ctx.counters.flow_calls == 2


def test_spec_round_trip_and_pickling():
    ctx = EngineContext(backend=EXACT, zero_tol=0.0, cache_size=16,
                        workers=3)
    spec = ctx.spec()
    assert spec == EngineSpec(backend=EXACT, cache_size=16, workers=3)
    revived = pickle.loads(pickle.dumps(spec))
    assert revived == spec
    assert hash(revived) == hash(spec)
    rebuilt = revived.build()
    assert rebuilt.backend == EXACT  # pickling copies the Backend value
    assert rebuilt.cache.maxsize == 16
    assert rebuilt.workers == 3
    assert spec.with_cache(0).cache_size == 0


def test_cache_size_zero_disables_cache():
    ctx = EngineContext(cache_size=0)
    assert not ctx.cache.enabled
    from repro.core import bottleneck_decomposition

    g = ring([1.0, 2.0, 3.0, 4.0])
    bottleneck_decomposition(g, ctx=ctx)
    bottleneck_decomposition(g, ctx=ctx)
    assert ctx.counters.cache_hits == 0
    assert ctx.counters.decompositions == 2


def test_stats_shape_and_reset():
    ctx = EngineContext(tracer=Tracer())
    ctx.max_flow(_diamond(), 0, 3)
    with ctx.span("decompose"):
        pass
    # Counters hold integers only; wall time lives in the span tree.
    assert set(ctx.counters.snapshot()) == set(INT_COUNTER_FIELDS)
    s = ctx.stats()
    assert s["backend"] == FLOAT.name
    assert s["flow_calls"] == 1
    assert "decompose" in s["spans"]
    assert set(s["cache"]) == {"size", "maxsize", "hits", "misses", "evictions"}
    ctx.reset_stats()
    s2 = ctx.stats()
    assert s2["flow_calls"] == 0
    assert s2["spans"] == {}
    assert s2["cache"]["hits"] == 0


def test_using_context_installs_and_restores_default():
    from repro.engine import using_context

    before = default_context()
    override = EngineContext(cache_size=0)
    with using_context(override):
        assert resolve_context(None) is override
    assert resolve_context(None) is before


def test_resolve_backend_and_workers():
    ctx = EngineContext(backend=EXACT, workers=2)
    assert ctx.resolve_backend(None) is EXACT
    assert ctx.resolve_backend(FLOAT) is FLOAT
    assert ctx.resolve_workers(None) == 2
    assert ctx.resolve_workers(0) == 0
