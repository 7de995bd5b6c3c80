"""Tests for the process-parallel sweep executor."""

import numpy as np
import pytest

from repro.analysis import parallel_incentive_sweep, sweep_fingerprint
from repro.analysis.parallel import _ratio_cell, _ratio_cell_exact
from repro.engine import EngineContext
from repro.graphs import random_ring
from repro.runtime import RuntimePolicy


def test_ratio_cell_picklable_and_correct():
    g = random_ring(4, np.random.default_rng(0), "integer", 1, 9)
    r = _ratio_cell((g, 0, 12))
    assert 1.0 - 1e-9 <= r <= 2.0 + 1e-6


def test_parallel_incentive_sweep_matches_serial():
    rng = np.random.default_rng(1)
    graphs = [random_ring(int(rng.integers(3, 6)), rng, "loguniform", 0.1, 10)
              for _ in range(3)]
    serial = parallel_incentive_sweep(graphs, grid=12, processes=0)
    par = parallel_incentive_sweep(graphs, grid=12, processes=2)
    assert serial == par
    assert all(1.0 - 1e-9 <= z <= 2.0 + 1e-6 for z in serial)


def _graphs(count=3):
    rng = np.random.default_rng(1)
    return [random_ring(int(rng.integers(3, 6)), rng, "loguniform", 0.1, 10)
            for _ in range(count)]


def test_supervised_sweep_matches_legacy_bit_for_bit():
    graphs = _graphs()
    legacy = parallel_incentive_sweep(graphs, grid=12, processes=0)
    supervised_serial = parallel_incentive_sweep(
        graphs, grid=12, processes=0, policy=RuntimePolicy(retries=1)
    )
    supervised_parallel = parallel_incentive_sweep(
        graphs, grid=12, processes=2,
        policy=RuntimePolicy(retries=1, timeout=60.0),
    )
    assert supervised_serial == legacy
    assert supervised_parallel == legacy


def test_sweep_policy_resolves_from_context():
    graphs = _graphs(count=2)
    legacy = parallel_incentive_sweep(graphs, grid=12)
    ctx = EngineContext(cache_size=0)
    ctx.runtime = RuntimePolicy(retries=2)
    via_ctx = parallel_incentive_sweep(graphs, grid=12, ctx=ctx)
    assert via_ctx == legacy


def test_ratio_cell_exact_agrees_with_float_cell():
    g = random_ring(4, np.random.default_rng(0), "integer", 1, 9)
    assert _ratio_cell_exact((g, 0, 12)) == pytest.approx(_ratio_cell((g, 0, 12)))


def test_sweep_fingerprint_sensitivity():
    graphs = _graphs(count=2)
    cells = [(g, v) for g in graphs for v in g.vertices()]
    fp = sweep_fingerprint(cells, 12, None)
    assert fp == sweep_fingerprint(cells, 12, None)  # deterministic
    assert fp != sweep_fingerprint(cells, 13, None)  # grid matters
    assert fp != sweep_fingerprint(cells[:-1], 12, None)  # cells matter
    spec = EngineContext(cache_size=0).spec()
    assert fp != sweep_fingerprint(cells, 12, spec)  # engine config matters
