"""Tests for statistics and sweep instrumentation."""

import numpy as np
import pytest

from repro.analysis import (
    PairEvent,
    censored_max,
    geometric_mean,
    summarize,
    trace_report_sweep,
)
from repro.graphs import random_ring, star


def test_summarize():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == pytest.approx(2.5)
    assert s.minimum == 1.0 and s.maximum == 4.0
    assert s.median == pytest.approx(2.5)
    assert len(s.as_row()) == 6


def test_summarize_single_point():
    s = summarize([7.0])
    assert s.std == 0.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_geometric_mean():
    assert geometric_mean([1, 4]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geometric_mean([1, -1])


def test_censored_max():
    mx, over = censored_max([1.0, 1.9, 2.2], 2.0)
    assert mx == 2.2 and over == 1


def test_trace_star_center_has_unit_crossing():
    g = star(10.0, [1.0, 1.0, 1.0])
    trace = trace_report_sweep(g, 0, samples=16, probes=17)
    assert trace.case_label() == "B-3"
    assert len(trace.xs) == 16
    kinds = {e.kind for e in trace.events}
    assert "unit-crossing" in kinds or "merge" in kinds or "split" in kinds


def test_trace_leaf_is_b1():
    g = star(10.0, [1.0, 1.0, 1.0])
    trace = trace_report_sweep(g, 1, samples=8, probes=9)
    assert trace.case_label() == "B-1"
    assert all(a <= b + 1e-12 for a, b in zip(trace.alphas, trace.alphas[1:]))


def test_trace_utilities_monotone():
    rng = np.random.default_rng(3)
    g = random_ring(5, rng, "integer", 1, 9)
    trace = trace_report_sweep(g, 0, samples=12, probes=9)
    assert all(u1 <= u2 + 1e-9 for u1, u2 in zip(trace.utilities, trace.utilities[1:]))
