"""Exponential brute-force oracles (cross-checks for the fast paths).

These enumerate all ``2^n - 1`` subsets, so they are usable up to ~16
vertices -- exactly the regime where the test suite wants an independent
ground truth for the parametric machinery.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from ..exceptions import DecompositionError
from ..graphs import WeightedGraph
from ..guard.resources import check_bruteforce_size
from ..numeric import Backend, EXACT, Scalar
from .alpha import alpha_within
from .bottleneck import BottleneckDecomposition, BottleneckPair

__all__ = [
    "brute_force_min_alpha",
    "brute_force_maximal_bottleneck",
    "brute_force_decomposition",
]


def _subsets(verts: Sequence[int]):
    for r in range(1, len(verts) + 1):
        yield from combinations(verts, r)


def brute_force_min_alpha(
    g: WeightedGraph,
    active: Sequence[int] | None = None,
    backend: Backend = EXACT,
) -> Optional[Scalar]:
    """Minimum ``alpha(S)`` over nonempty subsets of ``active`` by enumeration."""
    if active is None:
        active = list(g.vertices())
    # Size guard (repro.guard.resources): refuse before the 2^n loop, with
    # the typed ResourceExhaustedError the supervisor knows how to handle.
    check_bruteforce_size(len(active), what="brute-force min-alpha")
    best = None
    for S in _subsets(active):
        a = alpha_within(g, S, active, backend)
        if a is not None and (best is None or a < best):
            best = a
    return best


def brute_force_maximal_bottleneck(
    g: WeightedGraph,
    active: Sequence[int] | None = None,
    backend: Backend = EXACT,
) -> tuple[frozenset[int], Scalar]:
    """Maximal bottleneck by enumeration: union of all minimizing subsets.

    The union of bottlenecks is itself a bottleneck (submodularity), which
    this oracle re-verifies as a built-in self-check.  Zero-weight subsets
    whose neighborhood also has zero weight are degenerate minimizers in the
    parametric formulation; to match the fast path they are unioned in as
    well when their neighborhood lies inside the union's neighborhood.
    """
    if active is None:
        active = list(g.vertices())
    active = list(active)
    best = brute_force_min_alpha(g, active, backend)
    if best is None:
        raise DecompositionError("no subset with positive weight")
    union: set[int] = set()
    for S in _subsets(active):
        a = alpha_within(g, S, active, backend)
        if a is not None and backend.eq(a, best):
            union |= set(S)
    check = alpha_within(g, union, active, backend)
    if check is None or not backend.eq(check, best):
        raise DecompositionError(
            f"union of bottlenecks is not a bottleneck: alpha={check!r} vs {best!r}"
        )
    # Absorb zero-weight freeloaders: a zero-weight vertex z joins the union
    # whenever the neighbors it would add to Gamma(union) carry zero weight,
    # because union ∪ {z} is then itself a bottleneck (same alpha).
    active_set = set(active)
    grown = True
    while grown:
        grown = False
        nbh = g.neighborhood(union) & active_set
        for v in active_set - union:
            added = (set(g.neighbors(v)) & active_set) - nbh
            if g.weights[v] == 0 and g.weight_of(added, backend) == 0:
                union.add(v)
                grown = True
    return frozenset(union), best


def brute_force_decomposition(
    g: WeightedGraph, backend: Backend = EXACT
) -> BottleneckDecomposition:
    """Full Definition-2 decomposition driven by the brute-force bottleneck."""
    pairs: list[BottleneckPair] = []
    active = sorted(g.vertices())
    index = 1
    while active:
        if g.weight_of(active, backend) == 0:
            alpha = pairs[-1].alpha if pairs else backend.scalar(1)
            pairs.append(BottleneckPair(index, frozenset(active), frozenset(active), alpha))
            break
        B, alpha = brute_force_maximal_bottleneck(g, active, backend)
        active_set = set(active)
        C = frozenset(g.neighborhood(B) & active_set)
        pairs.append(BottleneckPair(index, B, C, alpha))
        active = sorted(active_set - (B | C))
        index += 1
    return BottleneckDecomposition(g, pairs, backend)
