"""Tests for incremental decomposition reuse (reconstruct + certify).

Two soundness properties matter and both are pinned here: a reconstruction
from a *correct* structural hint is bit-identical to a full solve, and a
reconstruction from a *wrong* hint is rejected (never silently accepted) --
including the 2-path ``(1, 3)`` counterexample where saturation alone
would pass a false pair.
"""

import pytest

from repro.core import (
    BottleneckDecomposition,
    BottleneckPair,
    bd_allocation,
    bottleneck_decomposition,
    certified_endpoint_utilities,
    endpoint_utilities,
    reconstruct_decomposition,
)
from repro.engine import EngineContext
from repro.exceptions import DecompositionError
from repro.graphs import cut_ring_at, path, ring
from repro.numeric import EXACT, FLOAT
from repro.theory.breakpoints import decomposition_signature


class _SilentAuditor:
    """Selects the best-response search's audited mode (full solves and
    full allocations for every candidate) without running any checks."""

    def on_flow(self, *args):
        pass

    on_decomposition = on_allocation = on_best_response = on_flow


def audited_context() -> EngineContext:
    ctx = EngineContext()
    ctx.auditor = _SilentAuditor()
    return ctx


def _split_path(w1):
    """The cut-ring path family the best-response sweep actually evaluates."""
    g = ring([4.0, 1.0, 2.0, 3.0, 5.0])
    p, v1, v2 = cut_ring_at(g, 0, w1, 4.0 - w1)
    return p, v1, v2


def test_reconstruction_is_bit_identical_to_full_solve():
    pa, _, _ = _split_path(1.5)
    pb, _, _ = _split_path(1.75)
    hint = bottleneck_decomposition(pa, FLOAT)
    full = bottleneck_decomposition(pb, FLOAT)
    # same combinatorial segment: reconstruction applies
    assert decomposition_signature(hint) == decomposition_signature(full)
    rec = reconstruct_decomposition(pb, hint, FLOAT)
    assert decomposition_signature(rec) == decomposition_signature(full)
    for rp, fp in zip(rec.pairs, full.pairs):
        assert rp.B == fp.B and rp.C == fp.C
        assert repr(rp.alpha) == repr(fp.alpha)  # bit-identical, not just close


def test_reconstruction_rejects_saturating_false_pair():
    # On path (1, 3) the pair ({0}, {1}, alpha=3) saturates both sides of
    # its Definition-5 network, so saturation alone cannot kill it; the
    # alpha <= 1 structural check must.
    g = path([1.0, 3.0])
    fake = BottleneckDecomposition(
        g, [BottleneckPair(1, frozenset([0]), frozenset([1]), 3.0)], FLOAT
    )
    with pytest.raises(DecompositionError, match="exceeds 1"):
        reconstruct_decomposition(g, fake, FLOAT)


def test_reconstruction_rejects_structural_mismatches():
    # A hint's structure is only ever borrowed, so it may come from any
    # graph -- which is exactly how pair-count mismatches arise.
    donor_graph = path([10.0, 1.0, 5.0, 4.0])
    donor = bottleneck_decomposition(donor_graph, FLOAT)
    assert len(donor.pairs) == 2
    # surplus: two donor pairs against a 2-vertex target (one pair covers it)
    with pytest.raises(DecompositionError, match="surplus"):
        reconstruct_decomposition(path([3.0, 1.0]), donor, FLOAT)
    # missing coverage: a single-pair hint against the 4-vertex target
    short = bottleneck_decomposition(path([10.0, 1.0]), FLOAT)
    assert len(short.pairs) == 1
    with pytest.raises(DecompositionError, match="cover"):
        reconstruct_decomposition(donor_graph, short, FLOAT)


def test_reconstruction_counts_on_context():
    pa, _, _ = _split_path(1.0)
    pb, _, _ = _split_path(1.25)
    ctx = EngineContext()
    hint = bottleneck_decomposition(pa, FLOAT, ctx)
    reconstruct_decomposition(pb, hint, FLOAT, ctx)
    assert ctx.counters.decomp_reconstructions == 1


@pytest.mark.parametrize("backend", [FLOAT, EXACT], ids=["float", "exact"])
def test_certified_utilities_match_full_allocation(backend):
    g = ring([backend.scalar(w) for w in (4, 1, 2, 3, 5)])
    w1 = backend.scalar(1)
    p, v1, v2 = cut_ring_at(g, 0, w1, backend.scalar(4) - w1)
    d = bottleneck_decomposition(p, backend)
    alloc = bd_allocation(p, d, backend)
    # plain endpoint utilities: same flows, only the two requested vertices
    u1, u2 = endpoint_utilities(p, d, (v1, v2), backend)
    assert u1 == alloc.utilities[v1] and u2 == alloc.utilities[v2]
    # certified against a bit-identical hint: every untouched pair is
    # certified analytically, and the answers still match exactly
    c1, c2 = certified_endpoint_utilities(p, d, d, (v1, v2), backend)
    assert c1 == alloc.utilities[v1] and c2 == alloc.utilities[v2]


def test_fast_sweep_reconstructs_and_matches_audited():
    # End-to-end: the fast best-response sweep actually exercises segment
    # reuse (reconstructions + warm starts, strictly fewer full solves) and
    # still lands on the audited sweep's answer (a full solve and a full
    # allocation per candidate) bit-for-bit.
    from repro.attack import best_split

    g = ring([4.0, 1.0, 2.0, 3.0, 5.0, 2.5, 1.5, 3.5])
    fast, audited = EngineContext(), audited_context()
    rk = best_split(g, 0, grid=24, ctx=fast)
    rc = best_split(g, 0, grid=24, ctx=audited)
    assert (rk.w1, rk.w2, rk.utility, rk.honest_utility) == (
        rc.w1, rc.w2, rc.utility, rc.honest_utility
    )
    assert fast.counters.decomp_reconstructions > 0
    assert fast.counters.warm_starts > 0
    assert audited.counters.decomp_reconstructions == 0
    assert fast.counters.decompositions < audited.counters.decompositions


def test_certified_utilities_resolve_touched_pairs():
    # A hint whose alphas differ from the decomposition's must not be
    # trusted: every pair falls back to the solve-and-check path.
    p, v1, v2 = _split_path(1.0)
    d = bottleneck_decomposition(p, FLOAT)
    stale = BottleneckDecomposition(
        p,
        [BottleneckPair(q.index, q.B, q.C, q.alpha * (1 + 1e-9)) for q in d.pairs],
        FLOAT,
    )
    alloc = bd_allocation(p, d, FLOAT)
    c1, c2 = certified_endpoint_utilities(p, d, stale, (v1, v2), FLOAT)
    assert c1 == alloc.utilities[v1] and c2 == alloc.utilities[v2]
