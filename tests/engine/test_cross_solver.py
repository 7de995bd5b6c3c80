"""Cross-solver agreement on the decomposition's own auxiliary networks.

Dinic and the Edmonds-Karp reference must agree on the networks the engine
solves: identical max-flow *values* and -- because the maximal bottleneck is
read off the residual min cut -- identical maximal source sides.  We check
exactly the parametric networks :func:`maximal_bottleneck` solves, over
random rings and a sweep of lambda values including the critical
``alpha_min`` where the minimizer changes.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import bottleneck_decomposition
from repro.core.bottleneck import _instantiate_parametric
from repro.engine import EngineContext
from repro.flow import dinic_max_flow, edmonds_karp_max_flow
from repro.flow.mincut import max_source_side
from repro.graphs import random_ring
from repro.numeric import EXACT, FLOAT

SOLVERS = {"dinic": dinic_max_flow, "edmonds_karp": edmonds_karp_max_flow}


def _solve_all(g, active, lam, backend):
    """(value, source_side) per solver on fresh copies of the same network."""
    out = {}
    ctx = EngineContext()
    for name, solver in SOLVERS.items():
        net, _ = _instantiate_parametric(g, active, lam, backend, ctx)
        value = solver(net, 0, 1, 0.0)
        out[name] = (value, max_source_side(net, 1, 0.0))
    return out

def test_cross_solver_agreement_random_rings_float():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        g = random_ring(n, rng, "uniform", 0.5, 5.0)
        active = list(g.vertices())
        for lam in (0.1, 0.5, 1.0, float(rng.uniform(0.05, 1.5))):
            results = _solve_all(g, active, lam, FLOAT)
            ref_value, ref_side = results["dinic"]
            for name, (value, side) in results.items():
                assert value == pytest.approx(ref_value, abs=1e-9), (trial, name, lam)
                assert side == ref_side, (trial, name, lam)


def test_cross_solver_agreement_exact_backend():
    """With Fraction arithmetic the agreement must be literal equality."""
    rng = np.random.default_rng(11)
    for trial in range(8):
        n = int(rng.integers(3, 7))
        weights = [float(x) for x in rng.integers(1, 12, size=n)]
        from repro.graphs import ring

        g = ring(weights)
        active = list(g.vertices())
        for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            results = _solve_all(g, active, lam, EXACT)
            ref_value, ref_side = results["dinic"]
            for name, (value, side) in results.items():
                assert value == ref_value, (trial, name, lam)
                assert side == ref_side, (trial, name, lam)


def test_cross_solver_agreement_on_proper_subsets():
    """Later Dinkelbach stages solve induced subgraphs; check those too."""
    rng = np.random.default_rng(3)
    g = random_ring(8, rng, "loguniform", 1e-2, 1e2)
    decomp = bottleneck_decomposition(g)
    # replay each stage's active set across solvers
    remaining = list(g.vertices())
    for pair in decomp.pairs:
        if len(remaining) < 2:
            break
        results = _solve_all(g, remaining, 0.7, FLOAT)
        ref_value, ref_side = results["dinic"]
        for name, (value, side) in results.items():
            assert value == pytest.approx(ref_value, abs=1e-9), name
            assert side == ref_side, name
        remaining = [v for v in remaining if v not in pair.B and v not in pair.C]
