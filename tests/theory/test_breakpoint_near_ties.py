"""Breakpoint endpoint handling at float near-ties, plus the corpus replay
that motivated it (decomposition-09f79b9c8cc3).

A breakpoint refined to within float noise of a probe point (or of the
interval ends) yields a sliver regime narrower than the bisection
resolution; its midpoint evaluation then flaps between the neighbors'
signatures.  ``sweep_regimes`` dedupes such cuts within ``zero_tol``
(default: the bisection ``gap``).  The corpus record is the same disease
one layer down: a true float decomposition whose adjacent alphas are
one-ulp *inverted*, which the strict-increase reconstruction check must
reject (sound fallback) while the decomposition itself remains valid.
"""

import json

from repro.core import bd_allocation, bottleneck_decomposition
from repro.core.incremental import reconstruct_decomposition
from repro.engine import EngineContext
from repro.exceptions import DecompositionError
from repro.io.serialization import graph_from_dict
from repro.numeric import EXACT, FLOAT
from repro.theory.breakpoints import sweep_regimes

import pytest

from ..flow.test_template import networks_checked_against_references


def _sliver_evaluate(width):
    """Signature function on [0, 1] with a sliver regime of ``width``
    hanging just inside the right endpoint."""
    b = 1.0 - width

    def evaluate(x):
        return ("A",) if float(x) < b else ("B",)

    return evaluate


def test_near_tie_cut_at_endpoint_is_deduped():
    # breakpoint one sliver-width inside hi: far below the bisection
    # resolution, so the dedupe folds it into the endpoint
    regimes = sweep_regimes(_sliver_evaluate(1e-12), 0.0, 1.0, probes=8)
    assert len(regimes) == 1
    assert float(regimes[0].lo) == 0.0 and float(regimes[0].hi) == 1.0


def test_zero_tol_widens_the_dedupe():
    # a breakpoint 1e-6 inside hi is comfortably resolvable, so by default
    # it is kept...
    regimes = sweep_regimes(_sliver_evaluate(1e-6), 0.0, 1.0, probes=8)
    assert [r.signature for r in regimes] == [("A",), ("B",)]
    assert float(regimes[1].hi - regimes[1].lo) == pytest.approx(1e-6, rel=1e-2)
    # ...and an explicit zero_tol above it folds it into the endpoint
    regimes = sweep_regimes(
        _sliver_evaluate(1e-6), 0.0, 1.0, probes=8, zero_tol=1e-5
    )
    assert len(regimes) == 1
    assert float(regimes[0].lo) == 0.0 and float(regimes[0].hi) == 1.0


def test_wide_regimes_are_untouched_and_contiguous():
    def evaluate(x):
        return ("A",) if float(x) < 0.4 else ("B",)

    regimes = sweep_regimes(evaluate, 0.0, 1.0, probes=16)
    assert [r.signature for r in regimes] == [("A",), ("B",)]
    assert float(regimes[0].lo) == 0.0
    assert float(regimes[-1].hi) == 1.0
    assert regimes[0].hi == regimes[1].lo  # no gap, no overlap
    assert abs(float(regimes[0].hi) - 0.4) < 1e-8


def test_exact_backend_drops_nothing_inexactly():
    from fractions import Fraction

    def evaluate(x):
        # breakpoint at 1 - 1/2**40: tiny but exactly representable
        return ("A",) if x < 1 - Fraction(1, 2**40) else ("B",)

    regimes = sweep_regimes(
        evaluate, 0, 1, probes=8, gap=1e-15, backend=EXACT
    )
    # exact sweeps keep even sliver regimes: rationals don't flap
    assert [r.signature for r in regimes] == [("A",), ("B",)]


# -- corpus replay ----------------------------------------------------------

def _corpus_graph():
    rec = json.load(open("corpus/decomposition-09f79b9c8cc3.json"))
    return graph_from_dict(rec["payload"]["graph"])


def test_corpus_09f79b9c8cc3_has_ulp_inverted_alphas():
    g = _corpus_graph()
    alphas = bottleneck_decomposition(g, FLOAT).alphas()
    assert len(alphas) == 2
    # adjacent alphas are equal-to-the-eye but one ulp *decreasing*: the
    # instance sits on a breakpoint closer than float resolution
    assert alphas[1] < alphas[0]
    assert alphas[0] - alphas[1] < 1e-15


def test_corpus_09f79b9c8cc3_reconstruction_falls_back_soundly():
    g = _corpus_graph()
    d = bottleneck_decomposition(g, FLOAT)
    # strict-increase check rejects the ulp inversion: a reconstruction
    # from this hint must never be accepted silently...
    with pytest.raises(DecompositionError, match="not increasing"):
        reconstruct_decomposition(g, d, FLOAT)
    # ...and the full solve (the sweep's fallback path) builds every network
    # bit-identically to its classic add_edge build, so the miss costs
    # time, never correctness
    with networks_checked_against_references() as checked:
        bd_allocation(g, backend=FLOAT, ctx=EngineContext())
    assert checked[0] > 0
