"""EngineSpec across a real process boundary.

``EngineSpec`` exists so process pools can ship engine *configuration*
(not mutable caches or counters) to workers.  These tests exercise the
actual mechanism: the spec is pickled into a genuine worker process --
pool task arguments go through pickle even under the fork start method --
which rebuilds an equivalent context and solves with it.
"""

import multiprocessing as mp

import pytest

from repro.engine import EngineContext, EngineSpec
from repro.numeric import EXACT


def _worker_probe(spec: EngineSpec) -> dict:
    """Runs inside the worker: rebuild the context and do real work."""
    from fractions import Fraction

    from repro.core import bottleneck_decomposition
    from repro.graphs import ring

    ctx = spec.build()
    g = ring([Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    d = bottleneck_decomposition(g, ctx.backend, ctx)
    return {
        "backend": ctx.backend.name,
        "cache_maxsize": ctx.cache.maxsize,
        "workers": ctx.workers,
        "audit": getattr(ctx.auditor, "level_name", "off"),
        "first_alpha": str(d.pairs[0].alpha),
        "flow_calls": ctx.counters.flow_calls,
    }


@pytest.mark.parametrize("audit", ["off", "cheap"])
def test_spec_rebuilds_equivalent_context_in_worker_process(audit):
    parent = EngineContext(backend=EXACT, cache_size=7, workers=2)
    if audit != "off":
        from repro.oracle import attach_auditor

        attach_auditor(parent, level=audit, corpus_dir=None)
    spec = parent.spec()

    with mp.get_context("fork").Pool(1) as pool:
        probe = pool.apply(_worker_probe, (spec,))

    assert probe["backend"] == EXACT.name
    assert probe["cache_maxsize"] == 7
    assert probe["workers"] == 2
    assert probe["audit"] == audit
    assert probe["flow_calls"] > 0  # the rebuilt context actually solved
    # same config, same instance => same answer as solving in this process
    local = _worker_probe(spec)
    assert local["first_alpha"] == probe["first_alpha"]
