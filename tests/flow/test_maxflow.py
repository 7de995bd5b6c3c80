"""Cross-checked tests for Dinic and the Edmonds-Karp reference.

Every network is solved with both, and (for the random batch) against
networkx as an external oracle.
"""

import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import FlowError
from repro.flow import (
    FlowNetwork,
    assert_valid_flow,
    cut_value,
    dinic_max_flow,
    edmonds_karp_max_flow,
    max_source_side,
    min_source_side,
)

SOLVERS = [dinic_max_flow, edmonds_karp_max_flow]


def small_diamond():
    # s=0, t=3; two routes with a cross edge
    net = FlowNetwork(4)
    net.add_edge(0, 1, 3)
    net.add_edge(0, 2, 2)
    net.add_edge(1, 2, 1)
    net.add_edge(1, 3, 2)
    net.add_edge(2, 3, 3)
    return net


@pytest.mark.parametrize("solver", SOLVERS)
def test_diamond_value(solver):
    net = small_diamond()
    assert solver(net, 0, 3) == 5


@pytest.mark.parametrize("solver", SOLVERS)
def test_diamond_flow_is_valid(solver):
    net = small_diamond()
    solver(net, 0, 3)
    assert_valid_flow(net, 0, 3)


@pytest.mark.parametrize("solver", SOLVERS)
def test_disconnected_sink_gives_zero(solver):
    net = FlowNetwork(3)
    net.add_edge(0, 1, 5)
    assert solver(net, 0, 2) == 0


@pytest.mark.parametrize("solver", SOLVERS)
def test_single_edge(solver):
    net = FlowNetwork(2)
    net.add_edge(0, 1, 7)
    assert solver(net, 0, 1) == 7


@pytest.mark.parametrize("solver", SOLVERS)
def test_fraction_capacities_exact(solver):
    net = FlowNetwork(4)
    net.add_edge(0, 1, Fraction(1, 3))
    net.add_edge(0, 2, Fraction(1, 6))
    net.add_edge(1, 3, Fraction(1, 4))
    net.add_edge(2, 3, Fraction(1, 2))
    val = solver(net, 0, 3)
    assert val == Fraction(1, 4) + Fraction(1, 6)
    assert isinstance(val, Fraction)


@pytest.mark.parametrize("solver", SOLVERS)
def test_infinite_middle_edges(solver):
    # bipartite-style network with inf middle arcs, as built by Definition 5
    net = FlowNetwork(6)
    net.add_edge(0, 1, 2.0)
    net.add_edge(0, 2, 3.0)
    net.add_edge(1, 3, math.inf)
    net.add_edge(1, 4, math.inf)
    net.add_edge(2, 4, math.inf)
    net.add_edge(3, 5, 1.0)
    net.add_edge(4, 5, 4.0)
    assert solver(net, 0, 5) == pytest.approx(5.0)
    assert_valid_flow(net, 0, 5, tol=1e-12)


@pytest.mark.parametrize("solver", SOLVERS)
def test_source_equals_sink_rejected(solver):
    net = FlowNetwork(2)
    net.add_edge(0, 1, 1)
    with pytest.raises(FlowError):
        solver(net, 0, 0)


def test_network_validation():
    net = FlowNetwork(3)
    with pytest.raises(FlowError):
        net.add_edge(0, 0, 1)
    with pytest.raises(FlowError):
        net.add_edge(0, 5, 1)
    with pytest.raises(FlowError):
        net.add_edge(0, 1, -2)
    with pytest.raises(FlowError):
        FlowNetwork(1)


def test_reset_restores_capacities():
    net = small_diamond()
    dinic_max_flow(net, 0, 3)
    net.reset()
    assert net.cap == net.orig_cap
    assert dinic_max_flow(net, 0, 3) == 5


def test_clone_is_independent():
    net = small_diamond()
    other = net.clone()
    dinic_max_flow(net, 0, 3)
    assert other.cap == other.orig_cap


def test_flow_on_requires_forward_arc():
    net = small_diamond()
    with pytest.raises(FlowError):
        net.flow_on(1)


def test_min_and_max_source_side_are_min_cuts():
    net = small_diamond()
    val = dinic_max_flow(net, 0, 3)
    lo = min_source_side(net, 0)
    hi = max_source_side(net, 3)
    assert 0 in lo and 3 not in lo
    assert 0 in hi and 3 not in hi
    assert lo <= hi
    assert cut_value(net, lo) == val
    assert cut_value(net, hi) == val


def _random_network(rng, n, p, integral=True):
    net = FlowNetwork(n)
    G = nx.DiGraph()
    G.add_nodes_from(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                c = int(rng.integers(1, 20)) if integral else float(rng.uniform(0.1, 5))
                net.add_edge(u, v, c)
                G.add_edge(u, v, capacity=c)
    return net, G


@pytest.mark.parametrize("seed", range(12))
def test_random_networks_agree_with_networkx(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    net, G = _random_network(rng, n, p=0.3)
    expected = nx.maximum_flow_value(G, 0, n - 1) if G.has_node(0) else 0
    for solver in SOLVERS:
        fresh = net.clone()
        assert solver(fresh, 0, n - 1) == expected


@pytest.mark.parametrize("seed", range(6))
def test_random_networks_min_cut_matches_flow(seed):
    rng = np.random.default_rng(100 + seed)
    net, _ = _random_network(rng, 8, p=0.4)
    val = dinic_max_flow(net, 0, 7)
    assert cut_value(net, min_source_side(net, 0)) == val
    assert cut_value(net, max_source_side(net, 7)) == val
    assert_valid_flow(net, 0, 7)


def test_float_tolerance_path():
    net = FlowNetwork(3)
    net.add_edge(0, 1, 0.1 + 0.2)  # 0.30000000000000004
    net.add_edge(1, 2, 0.3)
    val = dinic_max_flow(net, 0, 2, zero_tol=1e-12)
    assert val == pytest.approx(0.3)
