"""Optimal Sybil weight split ``(w_1^*, w_2^*)`` on a ring.

The attacker maximizes ``U(w_1) = U_{v^1}(w_1) + U_{v^2}(w_v - w_1)`` over
``w_1 in [0, w_v]``.  ``U`` is piecewise smooth: inside an interval where
the path's bottleneck decomposition is combinatorially constant, each term
is either linear (``w * alpha`` with ``alpha`` a ratio of affine functions
of ``w_1``) or hyperbolic (``w / alpha``), so ``U`` is piecewise rational
with finitely many breakpoints.  The optimizer therefore:

1. samples a dense uniform grid (catching every regime of non-trivial
   width),
2. locally refines the best bracket by golden-section search (each regime
   piece is smooth; the refinement converges to the best point of the
   winning piece, including its endpoints, i.e. the breakpoints), and
3. always includes the exact endpoints ``0`` and ``w_v`` and the honest
   split.

An exhaustive-enumeration variant over *exact* rational breakpoints is
provided by :mod:`repro.theory.breakpoints` for small instances.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from ..engine import EngineContext, resolve_context
from ..exceptions import AttackError
from ..graphs import WeightedGraph, cut_ring_at, require_ring
from ..numeric import Backend, FLOAT, Scalar
from .sybil import attacker_utility, honest_split_from_allocation

__all__ = ["BestResponse", "best_split", "utility_of_split_curve"]


@dataclass(frozen=True)
class BestResponse:
    """Result of the best-response search for one attacker."""

    vertex: int
    w1: float
    w2: float
    utility: float
    honest_utility: float

    @property
    def ratio(self) -> float:
        """``zeta_v`` (Definition 7).  1 when the attacker owns nothing."""
        if self.honest_utility == 0:
            return 1.0
        return self.utility / self.honest_utility


def utility_of_split_curve(
    g: WeightedGraph, v: int, w1s, backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> list[float]:
    """``U(w_1)`` sampled on a grid of ``w_1`` values."""
    wv = float(g.weights[v])
    return [
        float(attacker_utility(g, v, float(w1), wv - float(w1), backend, ctx))
        for w1 in w1s
    ]


def best_split(
    g: WeightedGraph,
    v: int,
    grid: int = 64,
    refine_iters: int = 60,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> BestResponse:
    """Search for ``(w_1^*, w_2^*)`` maximizing the attacker's utility.

    Parameters
    ----------
    grid:
        Number of uniform samples of ``w_1`` (plus endpoints and the honest
        split).  Breakpoint regimes narrower than ``w_v / grid`` can be
        missed by the coarse pass; the golden refinement then recovers the
        optimum only if it lies in the best sampled bracket.  Experiments
        use ``grid >= 64`` which empirically saturates on rings up to
        ``n = 64`` (see EXP-T8 notes in EXPERIMENTS.md).
    refine_iters:
        Golden-section iterations inside the winning bracket (60 iterations
        shrink it by ~1e-12 relative).
    """
    require_ring(g)
    if grid < 2:
        raise AttackError("grid must have at least 2 points")
    ctx = resolve_context(ctx)
    with ctx.span("best_response"):
        result = _best_split_search(g, v, grid, refine_iters, backend, ctx)
    ctx.audit_best_response(g, v, result)
    return result


class _SplitEvaluator:
    """Evaluates ``U(w_1) = U_{v^1} + U_{v^2}`` for one attacker's sweep.

    The cut path graph is built once and weight-swapped per candidate, and
    each Dinkelbach solve is warm-started from a nearby candidate's
    decomposition.  Two operating modes, chosen once from the engine
    context:

    * audited (an auditor attached) -- every candidate gets a full solve
      and a full, audited allocation: auditors see full-fidelity work.
    * fast (no auditor) -- additionally, candidates bracketed by two
      already-solved points sharing a decomposition signature are
      *reconstructed* (see :mod:`repro.core.incremental`) and certified by
      their allocation's saturation checks, and full solves compute only
      the two attacker endpoint utilities instead of the whole allocation.
      Any reconstruction failure falls back to a full solve.

    Reconstructed decompositions are never added to the solved-point
    records: only full solves may serve as bracketing evidence, otherwise
    one optimistic reconstruction could vouch for the next (self-
    confirmation).  Solved points are kept as parallel sorted arrays of
    ``w_1`` and signature for O(log k) bracket lookup.
    """

    def __init__(
        self, g: WeightedGraph, v: int, backend: Backend, ctx: EngineContext
    ) -> None:
        self.backend = backend
        self.ctx = ctx
        self.fast = ctx.auditor is None
        base, v1, v2 = cut_ring_at(
            g, v, backend.scalar(g.weights[v]), backend.scalar(0)
        )
        self.base = base
        self.v1 = v1
        self.v2 = v2
        # cut_ring_at puts v^1 at id 0 and v^2 at id n; everything in
        # between is the ring interior, constant across candidates.
        self.interior = base.weights[1:-1]
        self.last = None
        self._xs: list[float] = []
        self._sigs: list[tuple] = []
        self._by_sig: dict[tuple, BottleneckDecomposition] = {}

    def utility(self, w1b: Scalar, w2b: Scalar) -> float:
        # Lazy imports: repro.theory imports best_split from this module at
        # package-init time, so a top-level theory import here would cycle.
        from ..core import bd_allocation, bottleneck_decomposition
        from ..core.allocation import (
            certified_endpoint_utilities,
            endpoint_utilities,
        )
        from ..core.incremental import reconstruct_decomposition
        from ..engine.cache import decomposition_key
        from ..exceptions import DecompositionError, InfeasibleFlowError
        from ..theory.breakpoints import decomposition_signature

        ctx, backend = self.ctx, self.backend
        path = self.base._with_weights_unchecked(
            (w1b,) + self.interior + (w2b,)
        )
        if self.fast:
            hint = self._bracketed_hint(float(w1b))
            if hint is not None:
                try:
                    d = reconstruct_decomposition(path, hint, backend, ctx)
                    # Saturation certificate: pairs whose network moved
                    # relative to the (ground-truth) hint are re-solved and
                    # checked; bit-identical pairs are certified
                    # analytically (see certified_endpoint_utilities).
                    u1, u2 = certified_endpoint_utilities(
                        path, d, hint, (self.v1, self.v2), backend, ctx
                    )
                    ctx.cache.put(decomposition_key(path, backend), d)
                    self.last = d
                    return float(u1 + u2)
                except (DecompositionError, InfeasibleFlowError):
                    ctx.counters.reconstruction_fallbacks += 1
        d = bottleneck_decomposition(
            path, backend, ctx, hint=self._nearest_hint(float(w1b))
        )
        self.last = d
        if self.fast:
            self._record(float(w1b), decomposition_signature(d), d)
            u1, u2 = endpoint_utilities(
                path, d, (self.v1, self.v2), backend, ctx
            )
            return float(u1 + u2)
        alloc = bd_allocation(path, d, backend, ctx)
        return float(alloc.utilities[self.v1] + alloc.utilities[self.v2])

    def _record(self, x: float, sig: tuple, d) -> None:
        i = bisect.bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return
        self._xs.insert(i, x)
        self._sigs.insert(i, sig)
        self._by_sig[sig] = d

    def _nearest_hint(self, x: float):
        """The recorded solve nearest to ``x`` on the w1 axis, as a warm-
        start hint for a full solve.  Any decomposition of a same-topology
        instance is a *sound* hint (each stage seed ``alpha(H)`` upper-
        bounds that stage's true alpha); the nearest one is simply the most
        likely to share the structure and converge in one iteration.  Falls
        back to the last solve of any kind (audited mode keeps no records).
        """
        if not self._xs:
            return self.last
        i = bisect.bisect_left(self._xs, x)
        if i == 0:
            return self._by_sig[self._sigs[0]]
        if i == len(self._xs) or x - self._xs[i - 1] <= self._xs[i] - x:
            return self._by_sig[self._sigs[i - 1]]
        return self._by_sig[self._sigs[i]]

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


def _subdivision_order(grid: int) -> list[int]:
    """Indices ``0..grid`` in bracket-first order: both endpoints, then
    breadth-first interval midpoints, so each index is visited only after
    two indices surrounding it."""
    order = [0, grid]
    queue = [(0, grid)]
    while queue:
        lo, hi = queue.pop(0)
        if hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        order.append(mid)
        queue.append((lo, mid))
        queue.append((mid, hi))
    return order


def _best_split_search(
    g: WeightedGraph,
    v: int,
    grid: int,
    refine_iters: int,
    backend: Backend,
    ctx: EngineContext,
) -> BestResponse:
    from ..core import bd_allocation

    wv = float(g.weights[v])
    # One truthful solve serves both the Definition 7 denominator and the
    # Lemma 9 honest-split candidate below (it used to be solved twice).
    truthful = bd_allocation(g, backend=backend, ctx=ctx)
    honest = float(truthful.utilities[v])

    if wv == 0:
        return BestResponse(vertex=v, w1=0.0, w2=0.0, utility=0.0, honest_utility=honest)

    evaluator = _SplitEvaluator(g, v, backend, ctx)

    def U(w1: float) -> float:
        w1 = min(max(w1, 0.0), wv)
        # Derive w2 through the backend: under EXACT, Fraction(w1) +
        # Fraction(wv - w1) can miss w_v by an ulp (the float subtraction
        # rounds), and split_ring rightly rejects a split that mints or
        # destroys resource.  w2b = scalar(wv) - scalar(w1) sums exactly by
        # construction and reduces to the old float arithmetic under FLOAT.
        w1b = backend.scalar(w1)
        w2b = backend.scalar(g.weights[v]) - w1b
        return evaluator.utility(w1b, w2b)

    # coarse pass -- evaluated in binary-subdivision order (endpoints
    # first, then recursive midpoints) rather than left to right: every
    # interior candidate is then bracketed by two already-evaluated
    # neighbors, which is exactly what the evaluator's segment-reuse path
    # needs to reconstruct instead of re-solve.  The candidate set and the
    # resulting values are identical either way; only the visit order (and
    # hence the solve/reconstruct split) changes.
    candidates = list(np.linspace(0.0, wv, grid + 1))
    h1, h2 = honest_split_from_allocation(g, v, truthful, backend)
    candidates.append(float(h1))
    values: list[float] = [0.0] * len(candidates)
    for i in _subdivision_order(grid):
        values[i] = U(candidates[i])
    values[grid + 1] = U(candidates[grid + 1])
    order = int(np.argmax(values))
    best_w1, best_val = candidates[order], values[order]

    # golden-section refinement around the best uniform-grid bracket
    step = wv / grid
    lo = max(0.0, best_w1 - step)
    hi = min(wv, best_w1 + step)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = U(c), U(d)
    for _ in range(refine_iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = U(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = U(d)
        if b - a < 1e-13 * max(1.0, wv):
            break
    for w1, val in ((c, fc), (d, fd)):
        if val > best_val:
            best_w1, best_val = w1, val

    return BestResponse(
        vertex=v,
        w1=float(best_w1),
        w2=float(wv - best_w1),
        utility=float(best_val),
        honest_utility=honest,
    )
