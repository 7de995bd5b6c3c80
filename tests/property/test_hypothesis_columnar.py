"""Property tests: the columnar engine agrees with the references it replaced.

Every solve takes one path -- flow templates, warm-started Dinkelbach,
vectorized dynamics arrays and, without an auditor, segment reuse in the
best-response search.  These properties pin it against references kept
outside production dispatch, on both the float and the exact backend:

* every network a decomposition or allocation solves is bit-identical to
  its classic ``add_edge`` build (``tests/flow/test_template.py``);
* exact decompositions equal the brute-force one, and exact utilities
  equal Proposition 6's closed form wherever it is defined;
* the dynamics' directed-edge arrays equal the scalar order reference
  (``tests/analysis/test_spectral.py``);
* the fast best-response search (reconstruction + endpoint utilities)
  equals the audited one (a full solve and a full allocation per
  candidate) bit for bit.

Weights deliberately include ``-0.0``, subnormals and zeros (the nastiest
float citizens), and relabeled-isomorphic rings pin that label
permutations commute with the whole pipeline.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.attack import best_split
from repro.core import (
    bd_allocation,
    bottleneck_decomposition,
    brute_force_decomposition,
    closed_form_utilities,
)
from repro.engine import EngineContext
from repro.graphs import ring
from repro.graphs.columnar import ColumnarGraph
from repro.numeric import EXACT, FLOAT
from repro.theory.breakpoints import decomposition_signature

from ..analysis.test_spectral import _edge_arrays
from ..core.test_incremental import audited_context
from ..flow.test_template import networks_checked_against_references


# -- strategies -------------------------------------------------------------

# A curated pool rather than st.floats(): every value is a legal weight,
# and the nasty cases (-0.0, the smallest subnormal, a near-underflow
# normal) are guaranteed to be drawn often instead of almost never.
float_pool = st.sampled_from(
    [1.0, 2.0, 3.5, 0.1, 7.25, 0.0, -0.0, 5e-324, 1e-300, 1e16]
)
float_weights_st = st.lists(float_pool, min_size=3, max_size=7).map(
    lambda ws: ws if sum(ws) > 0 else ws[:-1] + [1.0]
)
exact_weights_st = st.lists(
    st.integers(min_value=0, max_value=40).map(Fraction), min_size=3, max_size=7
).map(lambda ws: ws if sum(ws) > 0 else ws[:-1] + [Fraction(1)])


def _bits(xs):
    """repr-level fingerprint: equal iff equal as bit patterns / objects."""
    return [repr(x) for x in xs]


# -- decompose --------------------------------------------------------------

@given(float_weights_st)
def test_decompose_bit_identical_float(ws):
    g = ring(ws)
    with networks_checked_against_references() as checked:
        bottleneck_decomposition(g, FLOAT, EngineContext())
    assert checked[0] > 0


@given(exact_weights_st)
def test_decompose_identical_exact(ws):
    g = ring(ws)
    with networks_checked_against_references() as checked:
        d = bottleneck_decomposition(g, EXACT, EngineContext())
    assert checked[0] > 0
    bf = brute_force_decomposition(g, EXACT)
    assert decomposition_signature(d) == decomposition_signature(bf)
    assert d.alphas() == bf.alphas()


# -- allocate ---------------------------------------------------------------

@given(float_weights_st)
def test_allocation_bit_identical_float(ws):
    g = ring(ws)
    with networks_checked_against_references() as checked:
        bd_allocation(g, backend=FLOAT, ctx=EngineContext())
    assert checked[0] > 0


@given(exact_weights_st)
def test_allocation_identical_exact(ws):
    g = ring(ws)
    ctx = EngineContext()
    with networks_checked_against_references() as checked:
        alloc = bd_allocation(g, backend=EXACT, ctx=ctx)
    assert checked[0] > 0
    closed = closed_form_utilities(bottleneck_decomposition(g, EXACT, ctx))
    for u, c in zip(alloc.utilities, closed):
        assert c is None or u == c


# -- dynamics ---------------------------------------------------------------

@given(float_weights_st)
def test_dynamics_bit_identical(ws):
    # proportional_response iterates over these arrays; equal arrays in the
    # reference order make every bincount accumulate in the same order
    g = ring(ws)
    cols = ColumnarGraph.from_graph(g)
    src, dst, rev, index = cols.directed_arrays()
    rsrc, rdst, rrev, rindex = _edge_arrays(g)
    assert src.tobytes() == rsrc.tobytes()
    assert dst.tobytes() == rdst.tobytes()
    assert rev.tobytes() == rrev.tobytes()
    assert index == rindex
    w = np.asarray([float(x) for x in g.weights])
    assert cols.float_weights().tobytes() == w.tobytes()
    deg = np.asarray(cols.indptr[1:] - cols.indptr[:-1], dtype=np.float64)
    assert list(deg) == [g.degree(v) for v in g.vertices()]


# -- best response ----------------------------------------------------------

def _same_response(a, b):
    return (
        repr(a.w1) == repr(b.w1)
        and repr(a.w2) == repr(b.w2)
        and repr(a.utility) == repr(b.utility)
        and repr(a.honest_utility) == repr(b.honest_utility)
    )


@settings(max_examples=15)
@given(float_weights_st, st.integers(0, 6))
def test_best_response_bit_identical_float(ws, v_raw):
    g = ring(ws)
    v = v_raw % g.n
    rc = best_split(g, v, grid=8, refine_iters=12, ctx=audited_context())
    rk = best_split(g, v, grid=8, refine_iters=12, ctx=EngineContext())
    assert _same_response(rc, rk)


@settings(max_examples=10)
@given(exact_weights_st, st.integers(0, 6))
def test_best_response_identical_exact(ws, v_raw):
    g = ring(ws)
    v = v_raw % g.n
    rc = best_split(g, v, grid=6, refine_iters=8, backend=EXACT,
                    ctx=audited_context())
    rk = best_split(g, v, grid=6, refine_iters=8, backend=EXACT,
                    ctx=EngineContext())
    assert _same_response(rc, rk)


# -- relabeled-isomorphic rings ---------------------------------------------

# Positive integer-valued floats for the rotation property: rotation
# equivariance is only a *value*-level fact, never a bit-level one (flow
# augmenting paths are not rotation-symmetric, so utilities can move by an
# ulp; zero weights additionally hand the degenerate terminal pair out by
# vertex id).  What IS bit-level is the reference contract: the relabeled
# instance is walked exactly like its references walk it.
int_float_weights_st = st.lists(
    st.integers(min_value=1, max_value=40).map(float), min_size=3, max_size=7
)


@settings(max_examples=15)
@given(int_float_weights_st, st.integers(1, 6))
def test_rotation_isomorphism_commutes_with_engines(ws, shift):
    """Relabeled-isomorphic rings: the decomposition structure and alphas
    rotate exactly, utilities rotate up to float tolerance, and the
    relabeled instance still gets bit-identical treatment from the
    references (a relabeling must never make the fast search and the
    audited one disagree -- labels feed the cache key, not the
    arithmetic)."""
    import math

    from repro.core import bottleneck_decomposition as bd

    n = len(ws)
    k = shift % n
    g = ring(ws)
    h = ring(ws[k:] + ws[:k])  # vertex v of h == vertex (v + k) % n of g
    # structure and alphas are exact under rotation (integer arithmetic:
    # each alpha is a ratio of exact integer sums, identical either way)
    dg, dh = bd(g, FLOAT, EngineContext()), bd(h, FLOAT, EngineContext())

    def rot(S):  # g's vertex v appears in h as (v - k) % n
        return frozenset((v - k) % n for v in S)

    assert [(rot(p.B), rot(p.C), p.alpha) for p in dg.pairs] == [
        (p.B, p.C, p.alpha) for p in dh.pairs
    ]
    ug = bd_allocation(g, backend=FLOAT, ctx=EngineContext()).utilities
    # the cut orientation differs from g's, so this is a genuinely new
    # instance: its networks still match their classic builds
    with networks_checked_against_references() as checked:
        uh = bd_allocation(h, backend=FLOAT, ctx=EngineContext()).utilities
    assert checked[0] > 0
    for v in range(n):
        assert math.isclose(uh[v], ug[(v + k) % n], rel_tol=1e-12)
    rc = best_split(h, 0, grid=6, refine_iters=10, ctx=audited_context())
    rk = best_split(h, 0, grid=6, refine_iters=10, ctx=EngineContext())
    assert _same_response(rc, rk)
