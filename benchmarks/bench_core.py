"""Micro-benchmarks of the core machinery.

These time the primitives every experiment is built from: the parametric
bottleneck decomposition (float and exact), the BD allocation, one best
response, and the vectorized dynamics -- at sizes bracketing the experiment
sweeps, so harness-cost regressions show up here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack import best_split, incentive_ratio
from repro.core import bd_allocation, bottleneck_decomposition, proportional_response
from repro.engine import EngineContext
from repro.flow import FlowNetwork, dinic_max_flow
from repro.graphs import random_ring
from repro.numeric import EXACT, FLOAT


def _ring(n: int, seed: int = 0):
    return random_ring(n, np.random.default_rng(seed), "loguniform", 0.1, 10)


@pytest.mark.parametrize("n", [8, 32, 128])
def bench_decomposition_float(benchmark, n):
    g = _ring(n)
    d = benchmark(bottleneck_decomposition, g, FLOAT)
    assert d.k >= 1


@pytest.mark.parametrize("n", [8, 32])
def bench_decomposition_exact(benchmark, n):
    g = random_ring(n, np.random.default_rng(0), "integer", 1, 100)
    d = benchmark(bottleneck_decomposition, g, EXACT)
    assert d.k >= 1


@pytest.mark.parametrize("n", [8, 32, 128])
def bench_allocation(benchmark, n):
    g = _ring(n)
    d = bottleneck_decomposition(g, FLOAT)
    alloc = benchmark(bd_allocation, g, d, FLOAT)
    assert len(alloc.utilities) == n


@pytest.mark.parametrize("n", [16, 64, 256])
def bench_dynamics(benchmark, n):
    # mixing on a ring is diffusive (~n^2 steps), so the budget scales with n
    g = random_ring(n, np.random.default_rng(1), "uniform", 0.5, 2.0)
    res = benchmark(proportional_response, g, 40 * n * n, 1e-8, 0.3)
    assert res.converged


@pytest.mark.parametrize("n", [6, 12])
def bench_best_response(benchmark, n):
    g = _ring(n, seed=2)
    r = benchmark(best_split, g, 0, 24)
    assert r.ratio <= 2.0 + 1e-6


@pytest.mark.parametrize("cache", [0, 1024], ids=["uncached", "cached"])
def bench_best_response_cache(benchmark, cache):
    """Steady-state cached vs uncached best-response sweeps.

    One long-lived context serves repeated ``incentive_ratio`` queries --
    the sweep-resume / interactive usage pattern.  Within a single query the
    cache only absorbs the per-vertex truthful re-decompositions, but across
    queries every split decomposition repeats, so the cached rows should sit
    far below the uncached ones while producing identical zeta values.
    """
    g = _ring(8, seed=3)
    ctx = EngineContext(cache_size=cache)

    def sweep():
        return incentive_ratio(g, grid=16, ctx=ctx)

    inst = benchmark(sweep)
    assert inst.zeta <= 2.0 + 1e-6
    stats = ctx.stats()
    assert (stats["cache"]["hits"] > 0) == bool(cache)


def _bipartite_net(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    net = FlowNetwork(2 + 2 * n)
    for i in range(n):
        net.add_edge(0, 2 + i, float(rng.uniform(0.5, 2)))
        net.add_edge(2 + n + i, 1, float(rng.uniform(0.5, 2)))
        for j in range(n):
            if rng.random() < 0.2:
                net.add_edge(2 + i, 2 + n + j, float("inf"))
    return net


def bench_maxflow(benchmark):
    base = _bipartite_net(40)

    def solve():
        net = base.clone()
        return dinic_max_flow(net, 0, 1)

    value = benchmark(solve)
    assert value >= 0
