"""Sybil attacks on general graphs (the paper's closing conjecture).

The conclusion conjectures an incentive ratio of two for general P2P
networks.  This module implements the full Section II-D attack model on an
arbitrary graph: the manipulator ``v`` splits into ``m <= d_v`` fictitious
nodes and chooses *which* of its neighbors connects to which node (every
neighbor must attach to exactly one); weights split arbitrarily across the
fictitious nodes.

For ``m = 2`` the strategy space is: a bipartition of ``Gamma(v)`` into
(A1, A2) -- ``2^{d_v - 1} - 1`` non-degenerate choices up to the copy
symmetry -- crossed with a weight split ``w_{v^1} + w_{v^2} = w_v``.  The
degenerate "all neighbors to one copy" assignment is the misreporting
strategy of [7] and never profits (Theorem 10), so it is skipped.
Higher ``m`` is supported by recursive bipartition on the copies, which is
sufficient for the conjecture experiments (splitting further never helps
in any instance we searched -- recorded by EXP-GEN).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..core import bd_allocation
from ..engine import EngineContext
from ..exceptions import AttackError
from ..graphs import WeightedGraph
from ..numeric import Backend, FLOAT, Scalar
from .evaluator import CandidateEvaluator, subdivision_order
from .multi_split import split_graph
from .sybil import check_split_budget

__all__ = [
    "GeneralSplit",
    "GeneralBestResponse",
    "split_general",
    "neighbor_bipartitions",
    "best_general_split",
    "general_incentive_ratio",
]


@dataclass(frozen=True)
class GeneralSplit:
    """One concrete general-graph Sybil strategy, solved.

    ``graph`` is the post-attack network: the original vertex ``v`` is
    reused as ``v^1`` (keeping its id) and a fresh vertex ``n`` is ``v^2``.
    """

    graph: WeightedGraph
    v1: int
    v2: int
    w1: Scalar
    w2: Scalar
    utility: Scalar


def split_general(
    g: WeightedGraph,
    v: int,
    side2: frozenset[int] | set[int],
    w1: Scalar,
    w2: Scalar,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> GeneralSplit:
    """Split ``v`` into two nodes; neighbors in ``side2`` rewire to ``v^2``.

    ``side2`` must be a proper nonempty subset of ``Gamma(v)`` (otherwise
    the attack degenerates to misreporting).
    """
    base = _split_graph(g, v, side2, backend)
    w1b, w2b = _split_weights(g, v, w1, w2, backend)
    evaluator = CandidateEvaluator(base, (v, g.n), (v, g.n), backend, ctx)
    u1, u2 = evaluator.utilities((w1b, w2b))
    return GeneralSplit(
        graph=evaluator.graph((w1b, w2b)), v1=v, v2=g.n, w1=w1b, w2=w2b,
        utility=u1 + u2,
    )


def _split_graph(
    g: WeightedGraph, v: int, side2, backend: Backend
) -> WeightedGraph:
    """The split graph of ``v`` (``v^1`` keeps id ``v``, ``v^2`` is id
    ``n``) with zero-weight identities; raises unless ``side2`` is a
    proper nonempty subset of ``Gamma(v)``.  It is the two-way
    :func:`~repro.attack.multi_split.split_graph` with ``side2`` on the
    second copy."""
    nbrs = set(g.neighbors(v))
    side2 = frozenset(side2)
    if not side2 or side2 == nbrs:
        raise AttackError("side2 must be a proper nonempty subset of Gamma(v)")
    if not side2 <= nbrs:
        raise AttackError(f"side2 {sorted(side2)} not a subset of Gamma(v)")
    base, _copies = split_graph(g, v, [sorted(nbrs - side2), sorted(side2)], 2,
                                backend)
    return base


def _split_weights(
    g: WeightedGraph, v: int, w1: Scalar, w2: Scalar, backend: Backend
) -> tuple[Scalar, Scalar]:
    """``(w1, w2)`` as backend scalars, if they split ``w_v``."""
    w1b, w2b = backend.scalar(w1), backend.scalar(w2)
    check_split_budget(g, v, w1b, w2b, backend)
    return w1b, w2b


def neighbor_bipartitions(g: WeightedGraph, v: int):
    """Proper bipartitions of ``Gamma(v)`` up to copy symmetry.

    Yields the ``side2`` subsets: all nonempty subsets not containing the
    smallest neighbor (fixing it on side 1 kills the v^1/v^2 relabelling
    symmetry), excluding the full set.
    """
    nbrs = sorted(g.neighbors(v))
    if len(nbrs) < 2:
        return
    rest = nbrs[1:]
    for r in range(1, len(rest) + 1):
        for combo in combinations(rest, r):
            yield frozenset(combo)


@dataclass(frozen=True)
class GeneralBestResponse:
    """Best strategy found for one attacker on a general graph."""

    vertex: int
    side2: frozenset[int]
    w1: float
    w2: float
    utility: float
    honest_utility: float
    strategies_tried: int

    @property
    def ratio(self) -> float:
        if self.honest_utility == 0:
            return 1.0
        return self.utility / self.honest_utility


def best_general_split(
    g: WeightedGraph,
    v: int,
    grid: int = 32,
    refine_iters: int = 50,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> GeneralBestResponse:
    """Search (bipartition x weight split) for the attacker's optimum.

    The weight-split inner search mirrors :func:`repro.attack.best_split`
    (uniform grid + golden refinement per bipartition), and so does its
    evaluation: each bipartition is one family in ``w1`` of the shared
    :class:`~repro.attack.evaluator.CandidateEvaluator`, its split graph
    built once, the grid evaluated in bracket-first order (the argmax
    still runs in grid order), bracketed candidates reconstructed.
    """
    if g.degree(v) < 2:
        raise AttackError("a degree-1 vertex cannot split non-degenerately")
    wv = float(g.weights[v])
    honest = float(bd_allocation(g, backend=backend, ctx=ctx).utilities[v])
    best = GeneralBestResponse(
        vertex=v, side2=frozenset(), w1=wv, w2=0.0,
        utility=honest, honest_utility=honest, strategies_tried=0,
    )
    tried = 0
    if wv == 0:
        return best

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    for side2 in neighbor_bipartitions(g, v):
        tried += 1
        base = _split_graph(g, v, side2, backend)
        evaluator = CandidateEvaluator(base, (v, g.n), (v, g.n), backend, ctx)

        def U(w1: float) -> float:
            w1 = min(max(w1, 0.0), wv)
            w1b, w2b = _split_weights(g, v, w1, wv - w1, backend)
            u1, u2 = evaluator.utilities((w1b, w2b), at=float(w1b))
            return float(u1 + u2)

        xs = list(np.linspace(0.0, wv, grid + 1))
        vals = [0.0] * len(xs)
        for i in subdivision_order(grid):
            vals[i] = U(xs[i])
        i = int(np.argmax(vals))
        w_best, v_best = xs[i], vals[i]
        a = max(0.0, w_best - wv / grid)
        b = min(wv, w_best + wv / grid)
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
        for w, val in ((c, fc), (d, fd)):
            if val > v_best:
                w_best, v_best = w, val
        if v_best > best.utility:
            best = GeneralBestResponse(
                vertex=v, side2=side2, w1=float(w_best), w2=float(wv - w_best),
                utility=float(v_best), honest_utility=honest, strategies_tried=tried,
            )
    return GeneralBestResponse(
        vertex=best.vertex, side2=best.side2, w1=best.w1, w2=best.w2,
        utility=best.utility, honest_utility=honest, strategies_tried=tried,
    )


def general_incentive_ratio(
    g: WeightedGraph, grid: int = 32, backend: Backend = FLOAT
) -> tuple[float, GeneralBestResponse]:
    """Worst ``zeta_v`` over all agents of degree >= 2 on a general graph."""
    best: GeneralBestResponse | None = None
    for v in g.vertices():
        if g.degree(v) < 2:
            continue
        r = best_general_split(g, v, grid=grid, backend=backend)
        if best is None or r.ratio > best.ratio:
            best = r
    if best is None:
        raise AttackError("no vertex of degree >= 2; Sybil attack undefined")
    return best.ratio, best
