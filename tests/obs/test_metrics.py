"""The cross-process metrics drain protocol: register/drain/absorb."""

import numpy as np
import pytest

from repro.engine import EngineContext, EngineSpec
from repro.graphs import random_ring
from repro.obs import Tracer
from repro.obs.metrics import (
    absorb_metrics,
    diff_counter_snapshots,
    drain_worker_metrics,
    register_worker_context,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts and ends with drained (empty-delta) sources."""
    drain_worker_metrics()
    yield
    drain_worker_metrics()


def _work(ctx):
    from repro.core import bottleneck_decomposition

    g = random_ring(6, np.random.default_rng(0))
    return bottleneck_decomposition(g, ctx=ctx)


def test_drain_reports_only_new_work():
    ctx = EngineContext(cache_size=0)
    register_worker_context(ctx)
    drain_worker_metrics()
    _work(ctx)
    delta = drain_worker_metrics()
    assert delta is not None
    assert delta["counters"]["decompositions"] == 1
    assert delta["counters"]["flow_calls"] >= 1
    # A second drain with no new work reports nothing.
    assert drain_worker_metrics() is None


def test_register_is_idempotent():
    ctx = EngineContext(cache_size=0)
    register_worker_context(ctx)
    register_worker_context(ctx)
    drain_worker_metrics()
    _work(ctx)
    delta = drain_worker_metrics()
    assert delta["counters"]["decompositions"] == 1  # not double-counted


def test_drain_includes_tracer_spans():
    ctx = EngineContext(cache_size=0)
    ctx.tracer = Tracer()
    register_worker_context(ctx)
    drain_worker_metrics()
    _work(ctx)
    delta = drain_worker_metrics()
    assert "decompose" in delta["spans"]
    assert delta["spans"]["decompose"]["count"] == 1


def test_absorb_into_parent_context():
    worker = EngineContext(cache_size=0)
    worker.tracer = Tracer()
    register_worker_context(worker)
    drain_worker_metrics()
    _work(worker)
    delta = drain_worker_metrics()

    parent = EngineContext()
    parent.tracer = Tracer()
    absorb_metrics(delta, counters=parent.counters, tracer=parent.tracer)
    assert parent.counters.decompositions == 1
    assert parent.counters.flow_calls == worker.counters.flow_calls
    assert parent.tracer.snapshot()["decompose"]["count"] == 1


def test_absorb_none_is_noop():
    parent = EngineContext()
    absorb_metrics(None, counters=parent.counters)
    assert parent.counters.decompositions == 0


def test_diff_counter_snapshots_drops_zeros_and_diffs_phases():
    cur = {"flow_calls": 5, "decompositions": 0}
    last = {"flow_calls": 2, "decompositions": 0}
    d = diff_counter_snapshots(cur, last)
    assert d == {"flow_calls": 3}


def test_spec_rebuild_registers_for_draining():
    # The worker-side path: a context rebuilt from a spec inside
    # _context_for must participate in the drain protocol.
    from repro.analysis.parallel import _WORKER_CONTEXTS, _context_for

    spec = EngineContext(cache_size=0).spec()
    _WORKER_CONTEXTS.pop(spec, None)
    ctx = _context_for(spec)
    drain_worker_metrics()
    _work(ctx)
    delta = drain_worker_metrics()
    assert delta is not None and delta["counters"]["decompositions"] == 1
    _WORKER_CONTEXTS.pop(spec, None)


def _square(x):
    return x * x


def test_forked_worker_does_not_report_parent_work():
    # A sibling map's session is open and its in-process cell did work it
    # has not drained yet when this map forks its worker.  That work is
    # the parent's to report, once: the worker must not ship it again.
    from repro.engine import Counters
    from repro.obs.metrics import begin_metrics_session, end_metrics_session
    from repro.runtime import supervised_map

    ctx = EngineContext(cache_size=0)
    register_worker_context(ctx)
    drain_worker_metrics()
    begin_metrics_session()
    try:
        _work(ctx)
        pending = ctx.counters.decompositions
        counters = Counters()
        assert supervised_map(_square, [2, 3], processes=1,
                              counters=counters) == [4, 9]
    finally:
        end_metrics_session()
    assert counters.decompositions == pending == 1
