"""Combined attacks: Sybil split plus weight under-reporting.

Definition 7 constrains the identities' weights to sum to ``w_v``.  A
natural stronger adversary could *also* under-report -- choose
``w_1 + w_2 < w_v``, hiding part of its endowment.  Theorem 10 says hiding
weight never helps an *unsplit* agent; whether it can help a split one is
not formally addressed by the paper, so the library answers empirically:
the EXP-CMB ablation optimizes over the full triangle

    {(w_1, w_2) : w_1, w_2 >= 0, w_1 + w_2 <= w_v}

and compares with the Definition 7 optimum on the diagonal edge.  On every
instance family we sweep, the unconstrained optimum sits on the diagonal
(hiding weight is never strictly profitable), extending the truthfulness
intuition to the split setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import bd_allocation
from ..engine import EngineContext
from ..exceptions import AttackError
from ..graphs import WeightedGraph, cut_index_map, cut_ring_at, require_ring
from ..numeric import Backend, FLOAT, Scalar
from .best_response import best_split, split_evaluator
from .evaluator import CandidateEvaluator, budget_holds, subdivision_order
from .misreport import report_weight
from .multi_split import split_multi

__all__ = [
    "CombinedBestResponse",
    "combined_attacker_utility",
    "best_combined_split",
    "ComposedAttack",
    "misreport_then_split",
    "misreport_then_cut",
    "best_misreport_split",
]


def combined_attacker_utility(
    g: WeightedGraph, v: int, w1: float, w2: float, backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> float:
    """Attacker utility for an arbitrary (possibly under-reporting) split."""
    evaluator = split_evaluator(g, v, backend, ctx)
    return _triangle_utility(evaluator, float(g.weights[v]), w1, w2, backend)


def _triangle_utility(
    evaluator: CandidateEvaluator, wv: float, w1: float, w2: float,
    backend: Backend, at: float | None = None,
) -> float:
    """``U_{v^1} + U_{v^2}`` of one point of the feasible triangle, as a
    candidate of ``v``'s split evaluator."""
    if w1 < 0 or w2 < 0 or w1 + w2 > wv * (1 + 1e-12):
        raise AttackError(f"({w1}, {w2}) outside the feasible triangle for w_v={wv}")
    u1, u2 = evaluator.utilities((backend.scalar(w1), backend.scalar(w2)), at=at)
    return float(u1 + u2)


@dataclass(frozen=True)
class CombinedBestResponse:
    """Optimum over the full (w1, w2) triangle vs the Definition 7 edge."""

    vertex: int
    w1: float
    w2: float
    utility: float
    diagonal_utility: float  # best with w1 + w2 = w_v (Definition 7)
    honest_utility: float
    evaluations: int

    @property
    def ratio(self) -> float:
        if self.honest_utility == 0:
            return 1.0
        return self.utility / self.honest_utility

    @property
    def hiding_gain(self) -> float:
        """How much strictly under-reporting beats the Definition 7 optimum
        (0 when the diagonal is optimal)."""
        return max(0.0, self.utility - self.diagonal_utility)


@dataclass(frozen=True)
class ComposedAttack:
    """One solved misreport-then-Sybil composition, with its index map.

    The composition first replaces ``v``'s weight by its report ``x``
    (:func:`repro.attack.misreport.report_weight`), then splits the
    reporting vertex into ``k`` identities.  The post-attack instance does
    **not** preserve vertex indices in general: a ring cut relabels every
    bystander, and a k-way ``split_multi`` mints ``k - 1`` fresh ids next
    to the reused one.  ``index_map`` is therefore the only sanctioned way
    to read a surviving original vertex's utility off ``allocation-like``
    data of ``graph`` -- reading by original index is exactly the stale-map
    bug this type exists to make impossible.  ``utility`` already sums the
    allocation over **all** ``copies`` (not just the identity that kept
    ``v``'s id, which under-counts every k > 2 attack).
    """

    graph: WeightedGraph
    vertex: int
    report: Scalar
    copies: tuple[int, ...]
    index_map: dict[int, int]
    utility: Scalar
    utilities: dict[int, Scalar]

    def utility_of(self, u: int) -> Scalar:
        """Post-attack utility of original vertex ``u`` (the attacker's
        identities are aggregated under ``u == vertex``)."""
        if u == self.vertex:
            return self.utility
        return self.utilities[u]


def misreport_then_split(
    g: WeightedGraph,
    v: int,
    x: Scalar,
    groups,
    weights,
    backend: Backend = FLOAT,
) -> ComposedAttack:
    """Compose a weight report ``x <= w_v`` with a k-way Sybil split.

    ``groups`` partitions ``Gamma(v)`` into ``k`` nonempty parts and
    ``weights`` (summing to ``x``) endows the ``k`` identities -- the
    Definition 7 constraint applied to the *reported* weight.  Works on any
    graph; ``split_multi`` keeps bystander ids, so here the index map is
    the identity on survivors, while the attacker maps to ``copies``
    ``[v, n, n+1, ...]`` whose utilities are all folded into ``utility``.
    """
    reported = report_weight(g, v, x, backend)
    ms = split_multi(reported, v, groups, weights, backend)
    alloc = bd_allocation(ms.graph, backend=backend)
    index_map = {u: u for u in g.vertices() if u != v}
    utilities = {u: alloc.utilities[u] for u in index_map}
    return ComposedAttack(
        graph=ms.graph, vertex=v, report=backend.scalar(x), copies=ms.copies,
        index_map=index_map, utility=ms.utility, utilities=utilities,
    )


def misreport_then_cut(
    g: WeightedGraph,
    v: int,
    x: Scalar,
    w1: Scalar,
    w2: Scalar,
    backend: Backend = FLOAT,
) -> ComposedAttack:
    """Ring specialisation: report ``x``, then cut the ring at ``v``.

    ``w1 + w2`` must equal the report ``x``.  Unlike
    :func:`misreport_then_split`, the cut *relabels every honest vertex*
    (see :func:`repro.graphs.cut_index_map`), so the returned
    ``index_map`` is non-trivial -- coalition evaluations that read a
    partner's post-attack utility must go through it.
    """
    require_ring(g)
    xs = backend.scalar(x)
    ws1, ws2 = backend.scalar(w1), backend.scalar(w2)
    if not budget_holds(ws1 + ws2, xs, backend):
        raise AttackError(f"split weights {w1!r} + {w2!r} must sum to the report {x!r}")
    reported = report_weight(g, v, xs, backend)
    p, v1, v2 = cut_ring_at(reported, v, ws1, ws2)
    alloc = bd_allocation(p, backend=backend)
    index_map = cut_index_map(g, v)
    utilities = {u: alloc.utilities[pu] for u, pu in index_map.items()}
    return ComposedAttack(
        graph=p, vertex=v, report=xs, copies=(v1, v2),
        index_map=index_map,
        utility=alloc.utilities[v1] + alloc.utilities[v2],
        utilities=utilities,
    )


def best_misreport_split(
    g: WeightedGraph,
    v: int,
    m: int = 2,
    x_steps: int = 6,
    w_steps: int = 6,
    backend: Backend = FLOAT,
) -> ComposedAttack:
    """Grid search over (report fraction) x (partition) x (weight simplex).

    Small exhaustive search for the combined misreport-then-Sybil strategy
    on general graphs; the simulator's ``combined`` role and the
    differential tests use it on ``n <= 8`` instances.  Reports sweep
    ``x = w_v * t/x_steps`` for ``t = 1..x_steps`` (a zero report on a
    positive-weight vertex makes the outcome trivially dominated).
    """
    from .multi_split import _simplex_grid, set_partitions

    if g.degree(v) < m:
        raise AttackError(f"vertex {v} has degree {g.degree(v)} < m = {m}")
    wv = float(g.weights[v])
    if wv == 0:
        return misreport_then_split(
            g, v, 0, [sorted(g.neighbors(v))], [0], backend)
    best: ComposedAttack | None = None
    nbrs = sorted(g.neighbors(v))
    for t in range(1, max(1, x_steps) + 1):
        x = wv * t / x_steps
        for groups in set_partitions(nbrs, m):
            for ws in _simplex_grid(x, m, w_steps):
                cand = misreport_then_split(g, v, x, groups, list(ws), backend)
                if best is None or cand.utility > best.utility:
                    best = cand
    assert best is not None
    return best


def best_combined_split(
    g: WeightedGraph,
    v: int,
    grid: int = 24,
    refine: int = 2,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> CombinedBestResponse:
    """Grid + local-refinement search over the feasible triangle.

    The triangle is scanned on a barycentric lattice; the incumbent's
    neighborhood is then re-scanned at half resolution ``refine`` times.
    The diagonal ``w1 + w2 = w_v`` is scanned at full resolution separately
    so the comparison against Definition 7 is not disadvantaged.

    Every point is a candidate of one
    :class:`~repro.attack.evaluator.CandidateEvaluator` on the cut path,
    built once.  Each lattice row (fixed ``w1``) is a family in ``w2``,
    evaluated in bracket-first order so bracketed points are
    reconstructed; the refinement stencil's points get warm hints only.
    The incumbent is still selected in row-major lattice order.
    """
    require_ring(g)
    wv = float(g.weights[v])
    honest = float(bd_allocation(g, backend=backend, ctx=ctx).utilities[v])
    evals = 0

    def U(w1: float, w2: float, on_row: bool = False) -> float:
        nonlocal evals
        evals += 1
        w1 = min(max(w1, 0.0), wv)
        w2 = min(max(w2, 0.0), wv - w1)
        return _triangle_utility(evaluator, wv, w1, w2, backend,
                                 at=w2 if on_row else None)

    if wv == 0:
        return CombinedBestResponse(vertex=v, w1=0.0, w2=0.0, utility=0.0,
                                    diagonal_utility=0.0, honest_utility=honest,
                                    evaluations=0)

    # diagonal (Definition 7) optimum via the dedicated refined search, so
    # the comparison is not skewed by resolution differences
    diag = best_split(g, v, grid=max(grid, 48), backend=backend, ctx=ctx)
    diag_best = diag.utility
    evaluator = split_evaluator(g, v, backend, ctx)

    # full triangle scan, one family per row
    best_w, best_val = (wv, 0.0), -np.inf
    for i in range(grid + 1):
        w1 = wv * i / grid
        evaluator.new_family()
        row = [0.0] * (grid + 1 - i)
        for j in subdivision_order(grid - i):
            row[j] = U(w1, wv * j / grid, on_row=True)
        for j, val in enumerate(row):
            if val > best_val:
                best_w, best_val = (w1, wv * j / grid), val
    step = wv / grid
    for _ in range(refine):
        step /= 2
        cx, cy = best_w
        for dx in (-2, -1, 0, 1, 2):
            for dy in (-2, -1, 0, 1, 2):
                w1 = min(max(cx + dx * step, 0.0), wv)
                w2 = min(max(cy + dy * step, 0.0), wv - w1)
                val = U(w1, w2)
                if val > best_val:
                    best_w, best_val = (w1, w2), val
    # the diagonal is part of the triangle: fold its (better-refined)
    # optimum into the incumbent so the reported optimum is the true max
    if diag_best > best_val:
        best_w, best_val = (diag.w1, diag.w2), diag_best
    return CombinedBestResponse(
        vertex=v, w1=best_w[0], w2=best_w[1], utility=float(best_val),
        diagonal_utility=float(diag_best), honest_utility=honest,
        evaluations=evals,
    )
