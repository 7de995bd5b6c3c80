"""Crash/resume: killed runs resumed from a checkpoint are bit-identical.

Two of the three granularities where journals attach in the stack:
incentive-sweep cells (``parallel_incentive_sweep``) and whole
experiments (``run_experiment``).  Scenario cells (``run_scenario``),
resumed after a *real* SIGKILL mid-run in a subprocess, are
``tests/sim/test_resume_kill.py``.  Plus the chaos property: a single
injected fault under ``retries >= 1`` never changes results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Counters, EngineContext
from repro.exceptions import CellFailedError
from repro.graphs import random_ring
from repro.runtime import (
    RuntimePolicy,
    clear_injector,
    install_injector,
    parse_fault_spec,
    supervised_map,
)


@pytest.fixture(autouse=True)
def _clean_global_injector():
    clear_injector()
    yield
    clear_injector()


def _rings(count=3, n=4, seed=7):
    rng = np.random.default_rng(seed)
    return [random_ring(n, rng) for _ in range(count)]


# -- incentive-sweep granularity ------------------------------------------

def test_sweep_resume_after_cell_failure_is_bit_identical(tmp_path):
    from repro.analysis import parallel_incentive_sweep

    graphs = _rings()
    baseline = parallel_incentive_sweep(graphs, grid=8)

    path = str(tmp_path / "sweep.ckpt")
    # First run: cell 4 of 12 blows up with no retry budget, killing the
    # sweep partway through -- but every completed cell is already durable.
    install_injector(parse_fault_spec("cell:exc@4"))
    with pytest.raises(CellFailedError):
        parallel_incentive_sweep(
            graphs, grid=8, checkpoint=path, policy=RuntimePolicy(retries=0)
        )
    clear_injector()

    # Resume, fault-free: replays cells 0-3, computes the rest.
    ctx = EngineContext(cache_size=0)
    resumed = parallel_incentive_sweep(graphs, grid=8, ctx=ctx, checkpoint=path)
    assert resumed == baseline
    assert ctx.counters.checkpoint_hits == 4


def test_sweep_checkpoint_refuses_a_different_sweep(tmp_path):
    from repro.analysis import parallel_incentive_sweep
    from repro.exceptions import CheckpointError

    path = str(tmp_path / "sweep.ckpt")
    graphs = _rings()
    parallel_incentive_sweep(graphs, grid=8, checkpoint=path)
    with pytest.raises(CheckpointError, match="refusing to resume"):
        parallel_incentive_sweep(graphs, grid=16, checkpoint=path)


def test_completed_sweep_resume_recomputes_nothing(tmp_path):
    from repro.analysis import parallel_incentive_sweep

    graphs = _rings(count=2)
    path = str(tmp_path / "sweep.ckpt")
    first = parallel_incentive_sweep(graphs, grid=8, checkpoint=path)
    ctx = EngineContext(cache_size=0)
    again = parallel_incentive_sweep(graphs, grid=8, ctx=ctx, checkpoint=path)
    assert again == first
    assert ctx.counters.checkpoint_hits == sum(g.n for g in graphs)
    assert ctx.counters.flow_calls == 0  # pure replay: the engine never ran


# -- experiment granularity -----------------------------------------------

def test_experiment_checkpoint_replays_whole_experiment(tmp_path):
    from repro.experiments.base import encode_output
    from repro.experiments.registry import run_experiment

    path = str(tmp_path / "exp.ckpt")
    ctx1 = EngineContext(cache_size=0)
    out1 = run_experiment("EXP-F1", seed=0, scale="smoke", ctx=ctx1, checkpoint=path)

    ctx2 = EngineContext(cache_size=0)
    out2 = run_experiment("EXP-F1", seed=0, scale="smoke", ctx=ctx2, checkpoint=path)
    assert ctx2.counters.checkpoint_hits == 1
    assert ctx2.counters.flow_calls == 0  # nothing recomputed
    # Tables/checks/data are bit-identical; engine_stats intentionally
    # differ (they describe each invocation: real work vs. one replay).
    e1, e2 = encode_output(out1), encode_output(out2)
    e1.pop("engine_stats", None)
    e2.pop("engine_stats", None)
    assert e2 == e1
    assert out2.render() == out1.render()
    assert all(c.ok for c in out2.checks)


# -- chaos property: one fault + retries >= 1 never changes results --------

def _cube(x):
    return x**3


@settings(max_examples=25, deadline=None)
@given(
    items=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8),
    fault_index=st.integers(min_value=0, max_value=7),
    kind=st.sampled_from(["exc", "delay"]),
)
def test_single_cell_fault_with_retry_is_invisible(items, fault_index, kind):
    param = ":0.001" if kind == "delay" else ""
    install_injector(parse_fault_spec(f"cell:{kind}@{fault_index}{param}"))
    try:
        out = supervised_map(
            _cube, items, policy=RuntimePolicy(retries=1, backoff_base=0.0)
        )
    finally:
        clear_injector()
    assert out == [x**3 for x in items]
