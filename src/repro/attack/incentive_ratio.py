"""Incentive ratios (Definition 7).

``zeta_v`` is the best Sybil utility over the truthful utility for one
agent; ``zeta`` of an instance maximizes over agents.  Theorem 8 asserts
``zeta <= 2`` on every ring, with the bound tight; EXP-T8 sweeps these
functions over instance families.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import EngineContext
from ..graphs import WeightedGraph, require_ring
from ..numeric import Backend, FLOAT
from .best_response import BestResponse, best_split

__all__ = ["InstanceRatio", "incentive_ratio_of_vertex", "incentive_ratio"]


@dataclass(frozen=True)
class InstanceRatio:
    """Worst-case ratio of one ring instance.

    ``per_vertex[v]`` is the full best response of agent ``v``; ``worst``
    indexes the maximizer.
    """

    graph: WeightedGraph
    per_vertex: tuple[BestResponse, ...]
    worst: int

    @property
    def zeta(self) -> float:
        return self.per_vertex[self.worst].ratio

    @property
    def worst_response(self) -> BestResponse:
        return self.per_vertex[self.worst]


def incentive_ratio_of_vertex(
    g: WeightedGraph,
    v: int,
    grid: int = 64,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> BestResponse:
    """``zeta_v``: best response of a single agent (Definition 7)."""
    return best_split(g, v, grid=grid, backend=backend, ctx=ctx)


def incentive_ratio(
    g: WeightedGraph,
    grid: int = 64,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> InstanceRatio:
    """``zeta`` of one ring instance: maximize ``zeta_v`` over agents."""
    require_ring(g)
    responses = tuple(
        best_split(g, v, grid=grid, backend=backend, ctx=ctx)
        for v in g.vertices()
    )
    worst = max(range(g.n), key=lambda v: responses[v].ratio)
    return InstanceRatio(graph=g, per_vertex=responses, worst=worst)
