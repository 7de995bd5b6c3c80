"""Every search routed through the candidate evaluator equals its cold
reference (``cold_searches.py``) bit for bit.

The references solve each candidate cold and allocate it in full; the
production searches build each family's graph once, reconstruct
bracketed candidates, warm-start full solves and allocate only the
watched pairs.  Results must agree by ``float.hex`` (``repr`` for
``Fraction``), in fast and audited mode, on the float and exact backends,
on fixed rings and on hypothesis-drawn rings of up to ten vertices.
"""

from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attack import (
    attacker_utility,
    best_combined_split,
    best_general_split,
    best_multi_split,
    best_split,
    combined_attacker_utility,
    split_general,
    split_multi,
    utility_curve,
    utility_of_report,
    utility_of_split_curve,
)
from repro.attack.evaluator import CandidateEvaluator, subdivision_order
from repro.engine import EngineContext
from repro.exceptions import AttackError, InvalidWeightError
from repro.graphs import WeightedGraph, cut_ring_at, random_ring, ring
from repro.numeric import EXACT, FLOAT
from repro.sim.coalition import _eval_coalition, _eval_misreport

from ..core.test_incremental import audited_context
from . import cold_searches as cold

MODES = {"fast": EngineContext, "audited": audited_context}

FLOAT_RINGS = [
    ring([4.0, 1.0, 2.0, 3.0]),
    ring([0.1, 1.0, 2.0, 0.7, 1.3]),
    ring([0.0, 1.0, 2.0, 3.0, 1.5]),
    random_ring(7, np.random.default_rng(1), "loguniform", 0.05, 20),
    random_ring(10, np.random.default_rng(2), "uniform", 0.5, 5),
]
EXACT_RINGS = [
    ring([Fraction(4), Fraction(1), Fraction(2), Fraction(3)]),
    ring([Fraction(3, 2), Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5)]),
]
#: A general graph whose vertex 0 has degree 3 (m = 3 splits, bipartitions).
HUB = WeightedGraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)],
                    [5.0, 1.0, 2.0, 3.0, 1.5])
HUB_EXACT = WeightedGraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)],
                          [Fraction(5), Fraction(1), Fraction(2), Fraction(3),
                           Fraction(3, 2)])

CASES = ([(g, FLOAT) for g in FLOAT_RINGS] + [(g, EXACT) for g in EXACT_RINGS])
CASE_IDS = [f"float-n{g.n}-{i}" for i, g in enumerate(FLOAT_RINGS)] + [
    f"exact-n{g.n}-{i}" for i, g in enumerate(EXACT_RINGS)]


def bits(x):
    """Bit-level fingerprint: ``float.hex``, ``repr`` for anything else."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [bits(y) for y in x]
    if isinstance(x, frozenset):
        return sorted(x)
    return repr(x)


def same_result(a, b) -> bool:
    return type(a) is type(b) and all(
        bits(getattr(a, f.name)) == bits(getattr(b, f.name)) for f in fields(a))


def _grid(backend, fine):
    return fine if backend is FLOAT else 3


# -- fixed rings ------------------------------------------------------------

@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("g,backend", CASES, ids=CASE_IDS)
def test_coalition_sweep_equals_cold(g, backend, mode):
    grid = _grid(backend, 8)
    for v, partner in ((0, 1), (g.n - 1, 2)):
        got = _eval_coalition(g, v, grid, backend, MODES[mode](), partner)
        want = cold.eval_coalition(g, v, grid, backend, MODES[mode](), partner)
        assert bits(got) == bits(want)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("g,backend", CASES, ids=CASE_IDS)
def test_misreport_sweep_and_curve_equal_cold(g, backend, mode):
    grid = _grid(backend, 8)
    for v in (0, g.n // 2):
        got = _eval_misreport(g, v, grid, backend, MODES[mode]())
        want = cold.eval_misreport(g, v, grid, backend, MODES[mode]())
        assert bits(got) == bits(want)
    wv = g.weights[1]
    xs = [wv * t / 5 for t in (5, 0, 2, 1, 4, 3, 2)]  # unsorted, a repeat
    got = utility_curve(g, 1, xs, backend, MODES[mode]())
    want = cold.utility_curve(g, 1, xs, backend, MODES[mode]())
    assert bits(got) == bits(want)
    assert bits(utility_of_report(g, 1, xs[2], backend, MODES[mode]())) == bits(want[2])


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("g,backend", CASES, ids=CASE_IDS)
def test_split_curve_equals_one_cold_split_per_sample(g, backend, mode):
    # Quarters of w_v are dyadic, so each sample splits a Fraction w_v
    # exactly and the exact leg passes the budget check.
    wv = float(g.weights[0])
    w1s = [wv * t / 4 for t in (4, 0, 2, 1, 3, 2)]  # unsorted, a repeat
    got = utility_of_split_curve(g, 0, w1s, backend, MODES[mode]())
    want = [float(attacker_utility(g, 0, w1, wv - w1, backend, MODES[mode]()))
            for w1 in w1s]
    assert bits(got) == bits(want)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("g,backend", CASES[:4] + CASES[-1:],
                         ids=CASE_IDS[:4] + CASE_IDS[-1:])
def test_best_combined_split_equals_cold(g, backend, mode):
    grid = _grid(backend, 6)
    v = 1
    got = best_combined_split(g, v, grid=grid, refine=2, backend=backend,
                              ctx=MODES[mode]())
    want = cold.best_combined_split(g, v, grid, 2, backend, MODES[mode]())
    assert same_result(got, want)
    wv = float(g.weights[v])
    for w1, w2 in ((wv / 3, wv / 2), (0.0, wv / 4), (wv / 2, wv / 2)):
        assert bits(combined_attacker_utility(g, v, w1, w2, backend, MODES[mode]())) \
            == bits(cold.combined_attacker_utility(g, v, w1, w2, backend, MODES[mode]()))


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("g,backend", CASES, ids=CASE_IDS)
def test_best_multi_split_m2_equals_cold(g, backend, mode):
    steps = _grid(backend, 6)
    for v in (0, g.n - 1):
        got = best_multi_split(g, v, 2, steps=steps, refine_rounds=2,
                               backend=backend, ctx=MODES[mode]())
        want = cold.best_multi_split(g, v, 2, steps, 2, backend, MODES[mode]())
        assert same_result(got, want)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("g,backend", [(HUB, FLOAT), (HUB_EXACT, EXACT)],
                         ids=["float", "exact"])
def test_hub_searches_equal_cold(g, backend, mode):
    steps = 4 if backend is FLOAT else 3
    for m in (2, 3):
        got = best_multi_split(g, 0, m, steps=steps, refine_rounds=1,
                               backend=backend, ctx=MODES[mode]())
        want = cold.best_multi_split(g, 0, m, steps, 1, backend, MODES[mode]())
        assert same_result(got, want)
    # Golden-section points off the float grid do not split a Fraction w_v
    # exactly, so the exact leg skips the refinement (it raises AttackError
    # in the reference as well).
    grid, iters = (6, 6) if backend is FLOAT else (2, 0)
    got = best_general_split(g, 0, grid=grid, refine_iters=iters,
                             backend=backend, ctx=MODES[mode]())
    want = cold.best_general_split(g, 0, grid, iters, backend, MODES[mode]())
    assert same_result(got, want)
    wv = g.weights[0]
    ws = [wv / 2, wv / 3, wv - wv / 2 - wv / 3]
    assert bits(split_multi(g, 0, [[1], [2], [3]], ws, backend,
                            MODES[mode]()).utility) == \
        bits(cold.split_multi(g, 0, [[1], [2], [3]], ws, backend,
                              MODES[mode]()).utility)
    assert bits(split_general(g, 0, {3}, wv / 4, wv - wv / 4, backend,
                              MODES[mode]()).utility) == \
        bits(cold.split_general(g, 0, {3}, wv / 4, wv - wv / 4, backend,
                                MODES[mode]()).utility)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("g", FLOAT_RINGS[:3], ids=lambda g: f"n{g.n}")
def test_best_general_split_on_rings_equals_cold(g, mode):
    got = best_general_split(g, 0, grid=8, refine_iters=10, ctx=MODES[mode]())
    want = cold.best_general_split(g, 0, 8, 10, FLOAT, MODES[mode]())
    assert same_result(got, want)


# -- hypothesis-drawn rings -------------------------------------------------

weights_pool = st.sampled_from([0.05, 0.5, 1.0, 2.0, 3.5, 7.25, 0.0, 20.0, 1e-3])
rings_st = st.lists(weights_pool, min_size=3, max_size=10).map(
    lambda ws: ws if sum(ws) > 0 else ws[:-1] + [1.0])


@settings(max_examples=12, deadline=None)
@given(rings_st, st.integers(0, 9), st.integers(1, 9),
       st.sampled_from(sorted(MODES)))
def test_drawn_rings_every_search_equals_cold(ws, v_raw, p_raw, mode):
    g = ring(ws)
    v = v_raw % g.n
    partner = (v + p_raw % (g.n - 1) + 1) % g.n
    ctx = MODES[mode]
    assert bits(_eval_coalition(g, v, 4, FLOAT, ctx(), partner)) == \
        bits(cold.eval_coalition(g, v, 4, FLOAT, ctx(), partner))
    assert bits(_eval_misreport(g, v, 6, FLOAT, ctx())) == \
        bits(cold.eval_misreport(g, v, 6, FLOAT, ctx()))
    assert same_result(
        best_combined_split(g, v, grid=4, refine=1, ctx=ctx()),
        cold.best_combined_split(g, v, 4, 1, FLOAT, ctx()))
    assert same_result(
        best_multi_split(g, v, 2, steps=4, refine_rounds=2, ctx=ctx()),
        cold.best_multi_split(g, v, 2, 4, 2, FLOAT, ctx()))
    assert same_result(
        best_general_split(g, v, grid=4, refine_iters=4, ctx=ctx()),
        cold.best_general_split(g, v, 4, 4, FLOAT, ctx()))


@settings(max_examples=6, deadline=None)
@given(st.lists(st.integers(0, 12).map(Fraction), min_size=3, max_size=5)
       .map(lambda ws: ws if sum(ws) > 0 else ws[:-1] + [Fraction(1)]),
       st.integers(0, 4), st.sampled_from(sorted(MODES)))
def test_drawn_exact_rings_sweeps_equal_cold(ws, v_raw, mode):
    g = ring(ws)
    v = v_raw % g.n
    partner = (v + 1) % g.n
    ctx = MODES[mode]
    assert bits(_eval_coalition(g, v, 2, EXACT, ctx(), partner)) == \
        bits(cold.eval_coalition(g, v, 2, EXACT, ctx(), partner))
    assert bits(_eval_misreport(g, v, 4, EXACT, ctx())) == \
        bits(cold.eval_misreport(g, v, 4, EXACT, ctx()))
    assert same_result(
        best_multi_split(g, v, 2, steps=2, refine_rounds=1, backend=EXACT,
                         ctx=ctx()),
        cold.best_multi_split(g, v, 2, 2, 1, EXACT, ctx()))


# -- no state outlives a search ---------------------------------------------

SEARCHES = {
    "coalition": lambda g, ctx: _eval_coalition(g, 0, 8, FLOAT, ctx, 2),
    "misreport": lambda g, ctx: _eval_misreport(g, 1, 8, FLOAT, ctx),
    "combined": lambda g, ctx: best_combined_split(g, 1, grid=6, ctx=ctx),
    "multi": lambda g, ctx: best_multi_split(g, 2, 2, steps=6, ctx=ctx),
    "general": lambda g, ctx: best_general_split(g, 3, grid=6,
                                                 refine_iters=6, ctx=ctx),
    "sybil": lambda g, ctx: best_split(g, 0, grid=8, ctx=ctx),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_counters_repeat_across_runs(name):
    g = FLOAT_RINGS[3]
    first = EngineContext()
    SEARCHES[name](g, first)
    other = "combined" if name != "combined" else "coalition"
    SEARCHES[other](FLOAT_RINGS[1], EngineContext())
    SEARCHES[other](g, EngineContext())
    second = EngineContext()
    SEARCHES[name](g, second)
    assert first.counters.snapshot() == second.counters.snapshot()


# -- the evaluator itself ---------------------------------------------------

def test_evaluator_rejects_misuse():
    base, v1, v2 = cut_ring_at(FLOAT_RINGS[0], 0, 4.0, 0.0)
    with pytest.raises(AttackError):
        CandidateEvaluator(base, (v1, v2), (v1,), FLOAT)
    ev = CandidateEvaluator(base, (v1, v2), (v1, v2), FLOAT)
    with pytest.raises(InvalidWeightError):
        ev.utilities((-1.0, 5.0))
    with pytest.raises(InvalidWeightError):
        ev.utilities((float("nan"), 4.0))
    other, _, _ = cut_ring_at(FLOAT_RINGS[1], 0, 0.1, 0.0)
    with pytest.raises(AttackError):
        ev.new_family(other)


def test_subdivision_order_visits_every_index_once():
    assert subdivision_order(0) == [0]
    assert subdivision_order(1) == [0, 1]
    for k in (2, 5, 8, 13):
        order = subdivision_order(k)
        assert sorted(order) == list(range(k + 1))
        seen = set(order[:2])
        for i in order[2:]:  # each midpoint comes after indices around it
            assert any(j < i for j in seen) and any(j > i for j in seen)
            seen.add(i)
