"""Sybil attacks with more than two identities (``2 <= m <= d_v``).

Definition 7 allows the manipulator to split into up to ``d_v`` fictitious
nodes.  On a ring ``d_v = 2`` caps the attack at two identities -- the case
the paper analyzes -- but on general graphs (Section IV's conjecture) a
star center, say, could spawn one identity per leaf.  This module
implements the general ``m``-way split: a set partition of ``Gamma(v)``
into ``m`` nonempty groups plus a weight vector on the ``m`` copies, and a
best-response search over both.

The EXP-GEN/EXP-MSP ablation uses it to test that extra identities never
push the ratio past the conjectured bound of 2 (and, empirically, rarely
beat the best 2-way split at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..core import bd_allocation
from ..engine import EngineContext
from ..exceptions import AttackError
from ..graphs import WeightedGraph
from ..numeric import Backend, FLOAT, Scalar
from .evaluator import CandidateEvaluator, budget_holds, subdivision_order

__all__ = [
    "MultiSplit",
    "MultiBestResponse",
    "split_multi",
    "set_partitions",
    "best_multi_split",
]


@dataclass(frozen=True)
class MultiSplit:
    """One solved m-way Sybil strategy."""

    graph: WeightedGraph
    copies: tuple[int, ...]
    weights: tuple[Scalar, ...]
    utility: Scalar


def split_multi(
    g: WeightedGraph,
    v: int,
    groups: Sequence[Sequence[int]],
    weights: Sequence[Scalar],
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> MultiSplit:
    """Split ``v`` into ``m = len(groups)`` identities.

    ``groups`` partitions ``Gamma(v)``; group ``i``'s neighbors rewire to
    copy ``i``.  Copy 0 reuses ``v``'s id; copies ``1..m-1`` get fresh ids
    ``n, n+1, ...``.  ``weights`` are the copies' endowments and must sum
    to ``w_v``.
    """
    base, copies = split_graph(g, v, groups, len(weights), backend)
    ws = _identity_weights(g, v, weights, backend)
    evaluator = CandidateEvaluator(base, copies, copies, backend, ctx)
    utility = backend.total(evaluator.utilities(ws))
    return MultiSplit(graph=evaluator.graph(ws), copies=copies,
                      weights=tuple(ws), utility=utility)


def split_graph(
    g: WeightedGraph,
    v: int,
    groups: Sequence[Sequence[int]],
    n_weights: int,
    backend: Backend,
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """The m-way split graph of ``v`` with zero-weight copies, and the
    copies' ids; raises unless ``groups`` partitions ``Gamma(v)`` into
    ``n_weights`` nonempty parts."""
    nbrs = set(g.neighbors(v))
    m = len(groups)
    if m < 1 or m > len(nbrs):
        raise AttackError(f"need 1 <= m <= d_v = {len(nbrs)}, got m = {m}")
    if n_weights != m:
        raise AttackError("one weight per identity required")
    flat: list[int] = [u for grp in groups for u in grp]
    if len(flat) != len(set(flat)) or set(flat) != nbrs or any(not grp for grp in groups):
        raise AttackError("groups must partition Gamma(v) into nonempty parts")

    n = g.n
    copy_id = [v] + [n + i for i in range(m - 1)]
    owner = {u: copy_id[i] for i, grp in enumerate(groups) for u in grp}
    edges = []
    for (a, b) in g.edges:
        if a == v:
            edges.append((owner[b], b))
        elif b == v:
            edges.append((a, owner[a]))
        else:
            edges.append((a, b))
    new_weights = list(g.weights) + [backend.scalar(0)] * (m - 1)
    new_weights[v] = backend.scalar(0)
    labels = list(g.labels) + [f"{g.labels[v]}^{i + 2}" for i in range(m - 1)]
    return WeightedGraph(n + m - 1, edges, new_weights, labels), tuple(copy_id)


def _identity_weights(
    g: WeightedGraph, v: int, weights: Sequence[Scalar], backend: Backend
) -> list[Scalar]:
    """``weights`` as backend scalars, if they are non-negative and spend
    exactly ``w_v``."""
    ws = [backend.scalar(x) for x in weights]
    if any(x < 0 for x in ws):
        raise AttackError("identity weights must be non-negative")
    if not budget_holds(backend.total(ws), backend.scalar(g.weights[v]), backend):
        raise AttackError(f"identity weights must sum to w_v = {g.weights[v]!r}")
    return ws


def set_partitions(items: Sequence[int], m: int) -> Iterator[list[list[int]]]:
    """All partitions of ``items`` into exactly ``m`` nonempty groups.

    Canonical form (first occurrence order) so copy-relabelling duplicates
    never appear; the weight search treats copies symmetrically anyway.
    """
    items = list(items)
    if m < 1 or m > len(items):
        return

    def rec(idx: int, groups: list[list[int]]):
        remaining = len(items) - idx
        if idx == len(items):
            if len(groups) == m:
                yield [list(grp) for grp in groups]
            return
        if len(groups) + remaining < m:
            return
        for grp in groups:
            grp.append(items[idx])
            yield from rec(idx + 1, groups)
            grp.pop()
        if len(groups) < m:
            groups.append([items[idx]])
            yield from rec(idx + 1, groups)
            groups.pop()

    yield from rec(0, [])


@dataclass(frozen=True)
class MultiBestResponse:
    """Best m-way strategy found."""

    vertex: int
    m: int
    groups: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    utility: float
    honest_utility: float
    strategies_tried: int

    @property
    def ratio(self) -> float:
        if self.honest_utility == 0:
            return 1.0
        return self.utility / self.honest_utility


def _compositions(units: int, m: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``units`` as an ordered sum of ``m`` non-negatives."""
    if m == 1:
        yield (units,)
        return
    for k in range(units + 1):
        for rest in _compositions(units - k, m - 1):
            yield (k, *rest)


def _simplex_grid(total: float, m: int, steps: int) -> Iterator[tuple[float, ...]]:
    """Lattice points of the weight simplex (compositions of ``steps``)."""
    if steps < 1:
        yield tuple([total] + [0.0] * (m - 1))
        return
    for comp in _compositions(steps, m):
        yield tuple(total * k / steps for k in comp)


def best_multi_split(
    g: WeightedGraph,
    v: int,
    m: int,
    steps: int = 12,
    refine_rounds: int = 2,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> MultiBestResponse:
    """Search partitions x weight simplex for the best m-way attack.

    The simplex is scanned on a composition lattice (``steps`` divisions),
    then locally refined by halving the lattice around the incumbent.
    Exhaustive enough for the small-degree instances the ablation uses.

    Each partition is one family of the shared
    :class:`~repro.attack.evaluator.CandidateEvaluator` over the copies'
    weights, with its split graph built once.  For ``m = 2`` the family
    is one-parameter (copy 0's weight): the lattice is evaluated in
    bracket-first order and bracketed candidates are reconstructed; for
    ``m >= 3`` every candidate is a full solve warm-started from the
    nearest solved one.  The optimum is still selected in lattice order.
    """
    if g.degree(v) < m:
        raise AttackError(f"vertex {v} has degree {g.degree(v)} < m = {m}")
    # Backend arithmetic keeps the lattice exact: on the Fraction backend
    # `wv * k / steps` sums back to w_v identically, which the exact-
    # equality budget check requires (float lattices don't).
    wv = backend.scalar(g.weights[v])
    honest = float(bd_allocation(g, backend=backend, ctx=ctx).utilities[v])
    best = MultiBestResponse(
        vertex=v, m=m, groups=(), weights=(), utility=honest,
        honest_utility=honest, strategies_tried=0,
    )
    if wv == 0:
        return best
    tried = 0
    for groups in set_partitions(sorted(g.neighbors(v)), m):
        tried += 1
        base, copies = split_graph(g, v, groups, m, backend)
        evaluator = CandidateEvaluator(base, copies, copies, backend, ctx)

        def U(ws: tuple[float, ...]) -> float:
            ws = _identity_weights(g, v, ws, backend)
            at = float(ws[0]) if m == 2 else None
            return float(backend.total(evaluator.utilities(ws, at=at)))

        lattice = list(_simplex_grid(wv, m, steps))
        order = (subdivision_order(len(lattice) - 1) if m == 2
                 else range(len(lattice)))
        vals = [0.0] * len(lattice)
        for i in order:
            vals[i] = U(lattice[i])
        inc_w, inc_val = None, -np.inf
        for ws, val in zip(lattice, vals):
            if val > inc_val:
                inc_w, inc_val = ws, val
        # local refinement: shrink the lattice around the incumbent
        span = wv / steps
        for _ in range(refine_rounds):
            span /= 2
            for delta in _simplex_grid(2 * span * (m - 1), m, 2 * (m - 1)):
                cand = tuple(max(0.0, x + d - span) for x, d in zip(inc_w, delta))
                s = sum(cand)
                if s == 0:
                    continue
                cand = tuple(x * wv / s for x in cand)
                val = U(cand)
                if val > inc_val:
                    inc_w, inc_val = cand, val
        if inc_val > best.utility:
            best = MultiBestResponse(
                vertex=v, m=m, groups=tuple(tuple(grp) for grp in groups),
                weights=tuple(inc_w), utility=float(inc_val),
                honest_utility=honest, strategies_tried=tried,
            )
    return MultiBestResponse(
        vertex=best.vertex, m=m, groups=best.groups, weights=best.weights,
        utility=best.utility, honest_utility=honest, strategies_tried=tried,
    )
