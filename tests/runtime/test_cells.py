"""The one cell runner: serial on the caller's context, supervised on
per-process worker contexts, and one exact escalation for every cell.

The sweep (``_best_ratio``), the simulator (``_run_cell``) and the server
(``solve_cell``) share the cell shape ``fn(*args, ctx, backend=...)``;
these tests pin what :func:`repro.runtime.run_cells` promises each of
them.
"""

import pytest

from repro.analysis.parallel import _best_ratio
from repro.core import bottleneck_decomposition
from repro.engine import EngineContext
from repro.graphs import ring
from repro.io import graph_to_dict
from repro.numeric import EXACT
from repro.runtime import (
    RuntimePolicy,
    cells,
    clear_injector,
    install_injector,
    parse_fault_spec,
    run_cells,
)
from repro.serve.solver import canonical_request, solve_cell
from repro.sim.runner import _run_cell

_WEIGHTS = [(1.0, 2.0, 3.5, 1.25), (4.0, 1.0, 1.0, 2.5, 0.5), (2.0, 2.0, 1.0)]
_SEEN: list = []


def _alphas(weights, ctx, backend=None):
    """A cell that leaves one decomposition's work on its context."""
    _SEEN.append(ctx)
    decomp = bottleneck_decomposition(ring(list(weights)), backend, ctx)
    return [p.alpha for p in decomp.pairs]


@pytest.fixture(autouse=True)
def _clean_global_injector():
    clear_injector()
    yield
    clear_injector()


def test_serial_run_cells_share_the_callers_context(monkeypatch):
    def no_worker_context(spec):
        raise AssertionError("a serial run built a worker context")

    monkeypatch.setattr(cells, "worker_context", no_worker_context)
    _SEEN.clear()
    ctx = EngineContext()
    items = [(w,) for w in _WEIGHTS] + [(_WEIGHTS[0],)]
    out = run_cells(_alphas, items, ctx)
    assert out[0] == out[-1]
    assert len(_SEEN) == len(items) and all(c is ctx for c in _SEEN)
    # The caller's counters and cache saw every cell, the repeat as a hit.
    assert ctx.counters.decompositions == len(_WEIGHTS)
    assert ctx.counters.cache_hits == 1 and ctx.cache.hits == 1


def test_supervised_run_cells_match_serial_and_merge_worker_totals():
    items = [(w,) for w in _WEIGHTS]
    serial_ctx = EngineContext(cache_size=0)
    serial = run_cells(_alphas, items, serial_ctx)
    for processes, policy in ((2, None), (0, RuntimePolicy(retries=1))):
        ctx = EngineContext(cache_size=0)
        assert run_cells(_alphas, items, ctx, policy=policy,
                         processes=processes) == serial
        # The cells ran on worker contexts; their drained work is ctx's.
        assert ctx.counters.decompositions == len(items)
        assert ctx.counters.flow_calls == serial_ctx.counters.flow_calls


def _served_canon():
    _key, _order, canon = canonical_request(
        graph_to_dict(ring([1.0, 2.0, 3.5, 1.25, 0.75])))
    return canon


@pytest.mark.parametrize("fn,args", [
    (_best_ratio, (ring([1.0, 2.0, 3.5, 1.25]), 0, 8)),
    (_run_cell, (ring([1.0, 2.0, 3.5, 1.25]), 1, 7, "sybil", 8, None, None,
                 ("escalation", 0, 7))),
    (solve_cell, (_served_canon(),)),
], ids=["sweep", "scenario", "serve"])
def test_forced_escalation_equals_a_direct_exact_call(fn, args):
    # The first flow value of the cell comes back NaN; with no retries
    # left the supervisor escalates the cell to the exact backend.
    ctx = EngineContext(cache_size=0)
    install_injector(parse_fault_spec("flow:nan@1"), counters=ctx.counters)
    [value] = run_cells(fn, [args], ctx, policy=RuntimePolicy(timeout=60.0))
    clear_injector()
    assert ctx.counters.injected_faults == 1
    assert ctx.counters.precision_escalations == 1
    assert value == fn(*args, ctx=EngineContext(cache_size=0), backend=EXACT)
