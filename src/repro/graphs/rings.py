"""Ring- and path-specific helpers.

The Sybil analysis of the paper lives entirely on rings and on the paths
obtained by splitting one ring vertex.  This module provides the coordinate
bookkeeping for that world: ring order recovery, the canonical
"cut-at-vertex" path, and neighbor identification, so that the attack code
never re-derives adjacency by hand.
"""

from __future__ import annotations

from ..exceptions import GraphError
from .weighted_graph import WeightedGraph

__all__ = [
    "ring_order",
    "ring_neighbors",
    "path_order",
    "path_endpoints",
    "cut_ring_at",
    "cut_index_map",
]


def ring_order(g: WeightedGraph, start: int = 0) -> list[int]:
    """Vertices of a ring in cyclic order starting at ``start``.

    The direction is chosen so the second vertex is the smaller-id neighbor
    of ``start``, making the order deterministic.
    """
    if not g.is_ring():
        raise GraphError("ring_order requires a ring graph")
    order = [start]
    prev = start
    cur = min(g.neighbors(start))
    while cur != start:
        order.append(cur)
        nbrs = g.neighbors(cur)
        nxt = nbrs[0] if nbrs[1] == prev else nbrs[1]
        prev, cur = cur, nxt
    return order


def ring_neighbors(g: WeightedGraph, v: int) -> tuple[int, int]:
    """The two neighbors of ``v`` on a ring, as a sorted pair."""
    if not g.is_ring():
        raise GraphError("ring_neighbors requires a ring graph")
    a, b = g.neighbors(v)
    return (a, b)


def path_order(g: WeightedGraph) -> list[int]:
    """Vertices of a path graph from one endpoint to the other.

    Starts at the smaller-id endpoint for determinism.
    """
    if g.n == 1:
        return [0]
    if not g.is_path_graph():
        raise GraphError("path_order requires a path graph")
    start = min(v for v in g.vertices() if g.degree(v) == 1)
    order = [start]
    prev = -1
    cur = start
    while True:
        nxt = [u for u in g.neighbors(cur) if u != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order


def path_endpoints(g: WeightedGraph) -> tuple[int, int]:
    """The two degree-1 endpoints of a path graph (sorted)."""
    if not g.is_path_graph():
        raise GraphError("path_endpoints requires a path graph")
    ends = [v for v in g.vertices() if g.degree(v) == 1]
    return (ends[0], ends[1])


def cut_ring_at(g: WeightedGraph, v: int, w1, w2) -> tuple[WeightedGraph, int, int]:
    """Split ring vertex ``v`` into two path endpoints ``v1``/``v2``.

    Returns the path ``P_v(w1, w2)`` of the paper plus the new ids of
    ``v1`` (weight ``w1``) and ``v2`` (weight ``w2``).  ``v1`` attaches to
    the smaller-id neighbor of ``v`` and ``v2`` to the larger one; the
    interior of the path keeps the original vertices' weights and labels.

    Layout of the returned path, in path order::

        v1 -- u_a -- ... -- u_b -- v2

    where ``u_a < u_b`` are the ring neighbors of ``v``.  New ids: interior
    vertices come first in ring order starting from ``u_a``, then ``v1`` is
    id ``n-1`` and ``v2`` is id ``n``?  No -- we keep it simpler: id 0 is
    ``v1``, ids ``1..n-1`` are the ring vertices other than ``v`` in ring
    order from ``u_a`` to ``u_b``, and id ``n`` is ``v2``.
    """
    if not g.is_ring():
        raise GraphError("cut_ring_at requires a ring graph")
    u_a, u_b = ring_neighbors(g, v)
    # ring order starting at v heading toward u_a first:
    order = ring_order(g, start=v)
    if order[1] != u_a:
        order = [v] + order[1:][::-1]
    assert order[1] == u_a and order[-1] == u_b
    interior = order[1:]  # u_a ... u_b, the n-1 honest vertices
    n = g.n
    weights = [w1] + [g.weights[u] for u in interior] + [w2]
    labels = (
        [f"{g.labels[v]}^1"]
        + [g.labels[u] for u in interior]
        + [f"{g.labels[v]}^2"]
    )
    edges = [(i, i + 1) for i in range(n)]
    return WeightedGraph(n + 1, edges, weights, labels), 0, n


def cut_index_map(g: WeightedGraph, v: int) -> dict[int, int]:
    """Original-id -> path-id map for the path of :func:`cut_ring_at`.

    ``cut_ring_at`` relabels every honest vertex: the interior of the
    returned path is the ring order from ``v``'s smaller-id neighbor, so
    original id ``u`` generally does *not* keep its index.  Any caller that
    reads a bystander's utility off the post-split allocation must
    translate through this map; indexing the path by original ids silently
    reads some other vertex's utility (the stale-index bug the composed
    attacks in :mod:`repro.attack.combined` regression-test against).

    ``v`` itself is absent from the map -- it becomes the two endpoints
    ``0`` and ``n`` of the path.
    """
    if not g.is_ring():
        raise GraphError("cut_index_map requires a ring graph")
    u_a, _u_b = ring_neighbors(g, v)
    # Must mirror cut_ring_at's ordering exactly: ring order starting at v
    # heading toward the smaller-id neighbor first.
    order = ring_order(g, start=v)
    if order[1] != u_a:
        order = [v] + order[1:][::-1]
    return {u: i for i, u in enumerate(order[1:], start=1)}
