"""The one candidate evaluator of every attack search.

Every search in this package sweeps a *family* of instances that share one
topology and differ only in the weights of a few ``moving`` vertices -- a
Sybil split's two identities, a misreported weight, an m-way split's
copies -- and reads the utilities of a few ``watched`` vertices off each
candidate.  :class:`CandidateEvaluator` evaluates every such candidate.
The family's base graph is built and validated once; a candidate swaps
its moving weights in (after the constructor's non-negative, finite
check) and is solved in one of two modes, chosen from the engine context:

* audited (an auditor attached): a full decomposition, warm-started from
  the previous candidate's, and a full audited allocation -- audit layers
  see full-fidelity work;
* fast: a candidate bracketed on its family's axis by two full solves
  sharing a decomposition signature is *reconstructed*
  (:mod:`repro.core.incremental`) and certified by its saturation checks
  (:func:`~repro.core.allocation.certified_endpoint_utilities`).  Any
  other candidate gets a full solve warm-started from the nearest solved
  candidate, and only the pairs holding the watched vertices are
  allocated (:func:`~repro.core.allocation.endpoint_utilities`).  A
  reconstruction that fails its checks falls back to a full solve.

Neither mode changes a value: a warm hint changes iteration counts only
(:func:`~repro.core.bottleneck.maximal_bottleneck`), a certified
reconstruction equals the full solve bit for bit, and the watched
utilities equal the full allocation's entries.  Reconstructed
decompositions are never recorded as bracketing evidence -- only full
solves vouch for later candidates, so one optimistic reconstruction
cannot vouch for the next.

One-parameter families (a split's ``w1``, a report ``x``) pass each
candidate's position ``at`` on the family axis and get bracketing; a
candidate without a position (a 2-D refinement stencil, an m >= 3 weight
simplex) gets warm hints only.  :meth:`CandidateEvaluator.new_family`
moves to a parallel family of the same topology (the next report, the
next triangle row): bracketing evidence resets, while every earlier full
solve stays a warm-hint source.  An evaluator lives inside one search
call, so no state outlives the search.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from ..core import (
    bd_allocation,
    bottleneck_decomposition,
    certified_endpoint_utilities,
    endpoint_utilities,
    reconstruct_decomposition,
)
from ..engine import EngineContext, decomposition_key, resolve_context
from ..exceptions import AttackError, DecompositionError, InfeasibleFlowError
from ..graphs import WeightedGraph
from ..graphs.weighted_graph import check_weight
from ..numeric import Backend, Scalar

__all__ = ["CandidateEvaluator", "budget_holds", "subdivision_order"]


class CandidateEvaluator:
    """Watched-vertex utilities across one search's candidate instances.

    ``base`` fixes the topology, labels and every weight outside
    ``moving``; ``watched`` must contain ``moving`` (the certificate of a
    reconstruction solves every pair whose weights moved only if those
    pairs hold a watched vertex).
    """

    def __init__(
        self,
        base: WeightedGraph,
        moving: Sequence[int],
        watched: Sequence[int],
        backend: Backend,
        ctx: EngineContext | None = None,
    ) -> None:
        self.moving = tuple(moving)
        self.watched = tuple(watched)
        if not set(self.moving) <= set(self.watched):
            raise AttackError("the watched vertices must include the moving ones")
        self.backend = backend
        self.ctx = resolve_context(ctx)
        self.fast = self.ctx.auditor is None
        self.base = base
        self._weights = list(base.weights)
        self._last = None
        # (moving weights as floats, decomposition) of every full solve.
        self._solved: list[tuple[tuple[float, ...], object]] = []
        self.new_family()

    def new_family(self, base: WeightedGraph | None = None) -> None:
        """Start a parallel family, on ``base`` if given (same topology).

        Bracketing evidence resets -- it vouches only for instances that
        differ from it in the moving weights -- while every full solve so
        far stays a warm-hint source for the new family's full solves.
        """
        if base is not None:
            if base.n != self.base.n or base.edges != self.base.edges:
                raise AttackError("a new family must keep the topology")
            self.base = base
            self._weights = list(base.weights)
        # Solved points on the family axis, as parallel sorted arrays of
        # position and signature for O(log k) bracket lookup.
        self._xs: list[float] = []
        self._sigs: list[tuple] = []
        self._by_sig: dict[tuple, object] = {}

    def graph(self, weights: Sequence[Scalar]) -> WeightedGraph:
        """The candidate instance: ``base`` with ``weights`` on the moving
        vertices, each checked as the graph constructor checks it."""
        ws = self._weights.copy()
        for vid, w in zip(self.moving, weights):
            check_weight(vid, w)
            ws[vid] = w
        return self.base._with_weights_unchecked(ws)

    def utilities(
        self, weights: Sequence[Scalar], at: float | None = None
    ) -> tuple[Scalar, ...]:
        """Utilities of the watched vertices, in ``watched`` order, for the
        candidate with ``weights`` on the moving vertices.  ``at`` is its
        position on the family axis (None: off any axis)."""
        g = self.graph(weights)
        ctx, backend = self.ctx, self.backend
        if not self.fast:
            d = bottleneck_decomposition(g, backend, ctx, hint=self._last)
            self._last = d
            alloc = bd_allocation(g, d, backend, ctx)
            return tuple(alloc.utilities[u] for u in self.watched)
        if at is not None:
            hint = self._bracketed_hint(at)
            if hint is not None:
                try:
                    with ctx.span("reconstruct"):
                        d = reconstruct_decomposition(g, hint, backend, ctx)
                        # Saturation certificate: pairs whose network moved
                        # relative to the ground-truth hint are re-solved
                        # and checked; bit-identical pairs are certified
                        # analytically (see certified_endpoint_utilities).
                        us = certified_endpoint_utilities(
                            g, d, hint, self.watched, backend, ctx)
                    ctx.cache.put(decomposition_key(g, backend), d)
                    self._last = d
                    return us
                except (DecompositionError, InfeasibleFlowError):
                    ctx.counters.reconstruction_fallbacks += 1
        key = tuple(float(w) for w in weights)
        d = bottleneck_decomposition(
            g, backend, ctx, hint=self._nearest_hint(at, key))
        self._last = d
        self._solved.append((key, d))
        if at is not None:
            # Lazy import: repro.theory imports best_split at package-init
            # time, so a top-level theory import here would cycle.
            from ..theory.breakpoints import decomposition_signature

            self._record(at, decomposition_signature(d), d)
        return endpoint_utilities(g, d, self.watched, backend, ctx)

    def _record(self, x: float, sig: tuple, d) -> None:
        i = bisect.bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return
        self._xs.insert(i, x)
        self._sigs.insert(i, sig)
        self._by_sig[sig] = d

    def _nearest_hint(self, x: float | None, key: tuple[float, ...]):
        """A warm-start hint for a full solve.

        Any decomposition of a same-topology instance is a *sound* hint
        (each stage seed ``alpha(H)`` upper-bounds that stage's true
        alpha); the nearest one is simply the most likely to share the
        structure and converge in one iteration.  On the family axis that
        is the nearest recorded position; otherwise (off the axis, or
        before the family's first solve) the full solve whose moving
        weights are nearest in L1; before any full solve, the last solve.
        """
        if x is not None and self._xs:
            i = bisect.bisect_left(self._xs, x)
            if i == 0:
                return self._by_sig[self._sigs[0]]
            if i == len(self._xs) or x - self._xs[i - 1] <= self._xs[i] - x:
                return self._by_sig[self._sigs[i - 1]]
            return self._by_sig[self._sigs[i]]
        if self._solved:
            return min(
                self._solved,
                key=lambda s: sum(abs(a - b) for a, b in zip(s[0], key)),
            )[1]
        return self._last

    def _bracketed_hint(self, x: float):
        """A solved decomposition bracketing ``x``, if the bracket agrees.

        Returns None for an exact repeat of a solved point -- the
        decomposition cache already holds that instance's full solve, so
        re-deriving it would only launder a reconstruction into the
        records' equality path.
        """
        i = bisect.bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return None
        if 0 < i < len(self._xs) and self._sigs[i - 1] == self._sigs[i]:
            return self._by_sig[self._sigs[i - 1]]
        return None


def subdivision_order(k: int) -> list[int]:
    """Indices ``0..k`` in bracket-first order: both endpoints, then
    breadth-first interval midpoints, so each index is visited only after
    two indices surrounding it.  A search evaluates a fixed lattice in
    this order and still selects its optimum in index order."""
    if k == 0:
        return [0]
    order = [0, k]
    queue = [(0, k)]
    while queue:
        lo, hi = queue.pop(0)
        if hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        order.append(mid)
        queue.append((lo, mid))
        queue.append((mid, hi))
    return order


def budget_holds(total: Scalar, want: Scalar, backend: Backend) -> bool:
    """Whether identity (or report) weights summing to ``total`` spend
    exactly the budget ``want``: equal on the exact backend, equal within
    the backend tolerance (relative above 1) in floats."""
    if backend.is_exact:
        return total == want
    return abs(float(total) - float(want)) <= backend.tol * max(1.0, float(want))
