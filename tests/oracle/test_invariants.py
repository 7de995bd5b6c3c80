"""The invariant predicates: clean instances pass, seeded corruption fails.

Each predicate is pure and re-runnable (replay calls the same functions),
so the tests drive them directly: compute an honest artifact, assert no
problems; corrupt one field, assert the corruption is named.
"""

from dataclasses import replace
from fractions import Fraction

from repro.core import bd_allocation, bottleneck_decomposition
from repro.core.allocation import Allocation
from repro.core.bottleneck import BottleneckDecomposition
from repro.attack import best_split
from repro.attack.best_response import BestResponse
from repro.engine import EngineContext
from repro.flow import dinic_max_flow
from repro.flow.network import FlowNetwork
from repro.graphs import path, ring
from repro.numeric import EXACT, FLOAT
from repro.oracle import (
    allocation_problems,
    best_response_problems,
    decomposition_problems,
    fixed_point_problems,
    flow_certificate_problems,
)


def _solved_diamond():
    net = FlowNetwork(4)
    net.add_edge(0, 1, 3.0)
    net.add_edge(0, 2, 2.0)
    net.add_edge(1, 3, 2.0)
    net.add_edge(2, 3, 3.0)
    value = dinic_max_flow(net, 0, 3, 0.0)
    return net, value


# -- flow certificates ------------------------------------------------------

def test_honest_flow_has_no_problems():
    net, value = _solved_diamond()
    assert flow_certificate_problems(net, 0, 3, value, 0.0) == []


def test_wrong_value_breaks_both_cut_certificates():
    net, value = _solved_diamond()
    problems = flow_certificate_problems(net, 0, 3, value * 2, 0.0)
    assert problems
    assert any("cut" in p for p in problems)


# -- decomposition invariants ----------------------------------------------

def test_honest_decompositions_pass_both_backends():
    gf = ring([1.0, 2.0, 3.0, 4.0, 5.0])
    ge = ring([Fraction(k) for k in (1, 2, 3, 4, 5)])
    assert decomposition_problems(gf, bottleneck_decomposition(gf, FLOAT)) == []
    assert decomposition_problems(ge, bottleneck_decomposition(ge, EXACT)) == []


def test_corrupted_alpha_is_named():
    g = ring([Fraction(k) for k in (1, 2, 3, 4, 5)])
    d = bottleneck_decomposition(g, EXACT)
    pairs = list(d.pairs)
    pairs[0] = replace(pairs[0], alpha=pairs[0].alpha * 2)
    bad = BottleneckDecomposition(g, tuple(pairs), EXACT)
    problems = decomposition_problems(g, bad)
    assert any("w(C)/w(B)" in p for p in problems)


def test_swapped_pair_order_breaks_monotonicity():
    g = path([Fraction(k) for k in (1, 5, 2, 8, 1, 9)])
    d = bottleneck_decomposition(g, EXACT)
    assert len(d.pairs) >= 2
    pairs = list(d.pairs)
    pairs[0], pairs[1] = (replace(pairs[1], index=1), replace(pairs[0], index=2))
    bad = BottleneckDecomposition(g, tuple(pairs), EXACT)
    assert decomposition_problems(g, bad)


# -- allocation invariants --------------------------------------------------

def test_honest_allocation_passes():
    g = ring([Fraction(k) for k in (1, 2, 3, 4)])
    alloc = bd_allocation(g, backend=EXACT)
    assert allocation_problems(g, alloc, EXACT) == []
    assert fixed_point_problems(alloc) == []


def test_inflated_utility_breaks_market_clearing():
    g = ring([Fraction(k) for k in (1, 2, 3, 4)])
    alloc = bd_allocation(g, backend=EXACT)
    utils = list(alloc.utilities)
    utils[0] = utils[0] + 1
    bad = Allocation(graph=g, x=alloc.x, utilities=tuple(utils))
    assert allocation_problems(g, bad, EXACT)


# -- best-response invariants -----------------------------------------------

def test_honest_best_response_passes():
    g = ring([1.0, 2.0, 3.0, 4.0, 5.0])
    ctx = EngineContext(cache_size=0)
    br = best_split(g, 2, grid=12, ctx=ctx)
    assert best_response_problems(g, 2, br) == []


def test_theorem8_violation_and_bad_split_are_named():
    g = ring([1.0, 2.0, 3.0, 4.0, 5.0])
    fake = BestResponse(vertex=2, w1=1.0, w2=2.0, utility=9.0, honest_utility=3.0)
    problems = best_response_problems(g, 2, fake)
    assert any("ratio" in p or "2" in p for p in problems)

    torn = BestResponse(vertex=2, w1=5.0, w2=5.0, utility=3.0, honest_utility=3.0)
    assert best_response_problems(g, 2, torn)
