"""Sybil attack on a ring (Section II-D).

A manipulative agent ``v`` on a ring splits into ``m <= d_v = 2`` fictitious
nodes.  The only non-degenerate assignment connects one ring neighbor to
each of ``v^1`` and ``v^2``, turning the ring into the paper's path
``P_v(w_1, w_2)`` with ``v^1``/``v^2`` as the endpoints (the other
assignment wires both neighbors to a single node, which is exactly the
*misreporting* strategy of [7] and is handled by :mod:`.misreport`; by
Theorem 10 it can never gain).

This module provides the split itself, the attacker's post-split utility,
and the *honest split* ``(w_1^0, w_2^0)`` of Lemma 9 -- the amounts ``v``
sends to its two neighbors at the truthful equilibrium, whose split
provably leaves every utility unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Allocation, BottleneckDecomposition, bd_allocation, bottleneck_decomposition
from ..engine import EngineContext
from ..exceptions import AttackError
from ..graphs import WeightedGraph, cut_ring_at, ring_neighbors
from ..numeric import Backend, FLOAT, Scalar
from .evaluator import budget_holds

__all__ = [
    "SplitOutcome",
    "check_split_budget",
    "split_ring",
    "attacker_utility",
    "honest_split",
    "honest_split_from_allocation",
]


@dataclass(frozen=True)
class SplitOutcome:
    """Everything the analysis needs about one split ``P_v(w1, w2)``.

    ``v1``/``v2`` are the path ids of the fictitious endpoints; ``path`` is
    the split graph; utilities are read from the BD allocation of the path.
    """

    path: WeightedGraph
    v1: int
    v2: int
    w1: Scalar
    w2: Scalar
    decomposition: BottleneckDecomposition
    allocation: Allocation

    @property
    def utility_v1(self) -> Scalar:
        return self.allocation.utilities[self.v1]

    @property
    def utility_v2(self) -> Scalar:
        return self.allocation.utilities[self.v2]

    @property
    def attacker_utility(self) -> Scalar:
        """``U'_v = U_{v^1} + U_{v^2}`` (Section II-D)."""
        return self.utility_v1 + self.utility_v2

    def alpha_v1(self) -> Scalar:
        return self.decomposition.alpha_of(self.v1)

    def alpha_v2(self) -> Scalar:
        return self.decomposition.alpha_of(self.v2)


def split_ring(
    g: WeightedGraph,
    v: int,
    w1: Scalar,
    w2: Scalar,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> SplitOutcome:
    """Perform the Sybil split and solve the resulting path.

    ``w1 + w2`` must equal ``w_v`` (the attacker cannot mint resource) and
    both parts must be non-negative.
    """
    w1b = backend.scalar(w1)
    w2b = backend.scalar(w2)
    check_split_budget(g, v, w1b, w2b, backend)
    path, v1, v2 = cut_ring_at(g, v, w1b, w2b)
    decomp = bottleneck_decomposition(path, backend, ctx)
    alloc = bd_allocation(path, decomp, backend, ctx)
    return SplitOutcome(
        path=path, v1=v1, v2=v2, w1=w1b, w2=w2b,
        decomposition=decomp, allocation=alloc,
    )


def check_split_budget(
    g: WeightedGraph, v: int, w1: Scalar, w2: Scalar, backend: Backend = FLOAT
) -> None:
    """Raise :class:`AttackError` unless ``(w1, w2)`` splits ``w_v``: both
    parts non-negative and summing to ``w_v`` (the attacker cannot mint
    resource)."""
    if w1 < 0 or w2 < 0:
        raise AttackError(f"split weights must be non-negative, got ({w1!r}, {w2!r})")
    if not budget_holds(w1 + w2, backend.scalar(g.weights[v]), backend):
        raise AttackError(
            f"split weights ({w1!r}, {w2!r}) do not sum to w_v = {g.weights[v]!r}")


def attacker_utility(
    g: WeightedGraph,
    v: int,
    w1: Scalar,
    w2: Scalar,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> Scalar:
    """``U'_v(P_v(w1, w2))`` without keeping the full outcome."""
    return split_ring(g, v, w1, w2, backend, ctx).attacker_utility


def honest_split(
    g: WeightedGraph,
    v: int,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> tuple[Scalar, Scalar]:
    """The Lemma 9 honest split ``(w_1^0, w_2^0)``.

    ``w_1^0`` is what ``v`` sends to its smaller-id ring neighbor at the
    truthful equilibrium and ``w_2^0`` what it sends to the other one --
    matching the orientation convention of ``cut_ring_at`` (``v^1`` attaches
    to the smaller-id neighbor).
    """
    alloc = bd_allocation(g, backend=backend, ctx=ctx)
    return honest_split_from_allocation(g, v, alloc, backend)


def honest_split_from_allocation(
    g: WeightedGraph, v: int, alloc: Allocation, backend: Backend = FLOAT
) -> tuple[Scalar, Scalar]:
    """:func:`honest_split` from an already-computed truthful allocation.

    The best-response search computes the truthful allocation once for the
    utility denominator and reuses it here instead of solving ``g`` again.
    """
    u_a, u_b = ring_neighbors(g, v)
    zero = backend.scalar(0)
    w1 = alloc.x.get((v, u_a), zero)
    w2 = alloc.x.get((v, u_b), zero)
    # At equilibrium v spends exactly w_v; float round-off (or a degenerate
    # zero-alpha corner) can leave residue, which is folded into the first
    # side so the pair sums to w_v exactly (split_ring checks this).
    want = backend.scalar(g.weights[v])
    w1 = want - w2
    if w1 < 0:
        w1, w2 = backend.scalar(0), want
    return w1, w2
