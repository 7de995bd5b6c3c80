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

from dataclasses import dataclass

import numpy as np

from ..engine import EngineContext, resolve_context
from ..exceptions import AttackError
from ..graphs import WeightedGraph, cut_ring_at, require_ring
from ..numeric import Backend, FLOAT
from .evaluator import CandidateEvaluator, subdivision_order
from .sybil import check_split_budget, honest_split_from_allocation

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
    """``U(w_1)`` sampled on a grid of ``w_1`` values.

    One family in ``w_1``: each sample is a :func:`split_ring` candidate
    (same budget checks), evaluated in bracket-first order.
    """
    wv = float(g.weights[v])
    evaluator = split_evaluator(g, v, backend, ctx)
    w1s = [float(w1) for w1 in w1s]
    out = [0.0] * len(w1s)
    for i in subdivision_order(len(w1s) - 1) if w1s else ():
        w1b, w2b = backend.scalar(w1s[i]), backend.scalar(wv - w1s[i])
        check_split_budget(g, v, w1b, w2b, backend)
        u1, u2 = evaluator.utilities((w1b, w2b), at=w1s[i])
        out[i] = float(u1 + u2)
    return out


def split_evaluator(
    g: WeightedGraph, v: int, backend: Backend, ctx: EngineContext | None
) -> CandidateEvaluator:
    """The evaluator of ``v``'s two-identity splits on a ring: the cut path,
    built once, with ``v^1``/``v^2`` moving and watched."""
    base, v1, v2 = cut_ring_at(
        g, v, backend.scalar(g.weights[v]), backend.scalar(0)
    )
    return CandidateEvaluator(base, (v1, v2), (v1, v2), backend, ctx)


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

    evaluator = split_evaluator(g, v, backend, ctx)

    def U(w1: float) -> float:
        w1 = min(max(w1, 0.0), wv)
        # Derive w2 through the backend: under EXACT, Fraction(w1) +
        # Fraction(wv - w1) can miss w_v by an ulp (the float subtraction
        # rounds), and split_ring rightly rejects a split that mints or
        # destroys resource.  w2b = scalar(wv) - scalar(w1) sums exactly by
        # construction and reduces to the old float arithmetic under FLOAT.
        w1b = backend.scalar(w1)
        w2b = backend.scalar(g.weights[v]) - w1b
        u1, u2 = evaluator.utilities((w1b, w2b), at=float(w1b))
        return float(u1 + u2)

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
    for i in subdivision_order(grid):
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
