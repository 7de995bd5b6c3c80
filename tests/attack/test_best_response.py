"""Tests for best-response search and incentive ratios (Theorem 8)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.attack import (
    best_split,
    incentive_ratio,
    incentive_ratio_of_vertex,
    lower_bound_ratio,
    lower_bound_ring,
    lower_bound_series,
    search_worst_ring,
    utility_of_split_curve,
)
from repro.exceptions import AttackError
from repro.graphs import path, random_ring, ring
from repro.numeric import EXACT, FLOAT


def test_best_split_at_least_honest():
    """The split search can never do worse than truthful play (it includes
    the honest split as a candidate; Lemma 9 makes that split neutral)."""
    rng = np.random.default_rng(3)
    for _ in range(6):
        g = random_ring(int(rng.integers(3, 8)), rng, "uniform", 0.2, 5.0)
        for v in range(g.n):
            r = best_split(g, v, grid=24)
            assert r.ratio >= 1.0 - 1e-9


def test_uniform_ring_no_gain():
    g = ring([1.0] * 6)
    r = incentive_ratio(g, grid=32)
    assert r.zeta == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", range(12))
def test_theorem8_upper_bound_random_rings(seed):
    """Theorem 8: zeta <= 2 on rings (random instances, heavy spread)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    g = random_ring(n, rng, "loguniform", 1e-3, 1e3)
    r = incentive_ratio(g, grid=32)
    assert r.zeta <= 2.0 + 1e-6


def test_lower_bound_family_approaches_two():
    pts = lower_bound_series([10, 100, 1000, 1e5])
    zetas = [p.zeta for p in pts]
    assert zetas == sorted(zetas)  # monotone in H
    assert zetas[0] > 1.8
    assert zetas[-1] > 1.9999
    assert all(p.zeta <= 2.0 + 1e-9 for p in pts)
    # first-order prediction 2 - 2/H matches to O(1/H^2)
    for p in pts:
        assert p.zeta == pytest.approx(p.predicted, abs=20.0 / p.H**2 + 1e-9)


def test_lower_bound_family_structure():
    g = lower_bound_ring(100.0)
    assert g.is_ring() and g.n == 5
    r = lower_bound_ratio(100.0)
    assert r.vertex == 1
    assert 1.9 < r.ratio <= 2.0
    # the optimal second weight is ~ 1/H^2
    assert r.w2 == pytest.approx(1e-4, rel=0.5)
    # Theorem 8 on the exact backend, H = 50: every candidate is solved in
    # Fractions, and the ratio is already near 2 (1.9612 at grid 24)
    F = Fraction
    g = ring([F(1), F(1), F(1, 50), F(1, 50), F(50)])
    r = best_split(g, 1, grid=24, backend=EXACT)
    assert 1.7 < r.ratio <= 2.0


def test_lower_bound_ring_validates_H():
    with pytest.raises(AttackError):
        lower_bound_ring(0.5)


def test_best_split_rejects_non_ring():
    with pytest.raises(Exception):
        best_split(path([1.0, 1.0, 1.0]), 0)


def test_best_split_rejects_tiny_grid():
    g = ring([1.0, 1.0, 1.0])
    with pytest.raises(AttackError):
        best_split(g, 0, grid=1)


def test_zero_weight_attacker_ratio_is_one():
    for g, backend in (
        (ring([0.0, 1.0, 2.0, 1.0]), FLOAT),
        (ring([Fraction(0), Fraction(1), Fraction(2)]), EXACT),
    ):
        r = best_split(g, 0, grid=8, backend=backend)
        assert r.utility == 0.0
        assert r.ratio == 1.0


def test_incentive_ratio_of_vertex_matches_instance_entry():
    g = ring([1.0, 3.0, 0.5, 2.0])
    inst = incentive_ratio(g, grid=24)
    single = incentive_ratio_of_vertex(g, inst.worst, grid=24)
    assert single.ratio == pytest.approx(inst.zeta, rel=1e-12)


def test_utility_of_split_curve_matches_best():
    g = lower_bound_ring(50.0)
    w1s = np.linspace(0, 1, 33)
    curve = utility_of_split_curve(g, 1, w1s)
    r = best_split(g, 1, grid=32)
    assert max(curve) <= r.utility + 1e-12


def test_search_worst_ring_finds_significant_gain():
    rng = np.random.default_rng(0)
    result = search_worst_ring(5, rng, restarts=2, sweeps=3, grid=24)
    assert result.zeta > 1.3
    assert result.zeta <= 2.0 + 1e-6
    assert result.evaluations > 0
    assert result.graph.is_ring()


def test_search_worst_ring_rejects_small_n():
    rng = np.random.default_rng(0)
    with pytest.raises(AttackError):
        search_worst_ring(2, rng)
