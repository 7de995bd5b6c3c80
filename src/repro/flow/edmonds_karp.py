"""Edmonds-Karp max flow (shortest augmenting paths).

Slower than Dinic (``O(V E^2)``) but much simpler; it exists only as an
independent reference: the differential auditor and the test suite solve
the same networks with Dinic, Edmonds-Karp, and networkx and require
identical values.  It is the only reference on the exact backend, because
networkx handles float capacities only.
"""

from __future__ import annotations

from collections import deque

from ..exceptions import FlowError
from .network import FlowNetwork

__all__ = ["edmonds_karp_max_flow"]


def edmonds_karp_max_flow(net: FlowNetwork, s: int, t: int, zero_tol: float = 0.0):
    """BFS augmenting-path max flow; returns the flow value."""
    if s == t:
        raise FlowError("source and sink must differ")
    n = net.n
    cap = net.cap
    head = net.head
    adj = net.adj
    total = None

    parent_arc = [-1] * n

    while True:
        for i in range(n):
            parent_arc[i] = -1
        parent_arc[s] = -2
        q = deque([s])
        reached = False
        while q and not reached:
            u = q.popleft()
            for arc in adj[u]:
                v = head[arc]
                if parent_arc[v] == -1 and cap[arc] > zero_tol:
                    parent_arc[v] = arc
                    if v == t:
                        reached = True
                        break
                    q.append(v)
        if not reached:
            break
        # walk back to find the bottleneck, then push
        bottleneck = None
        v = t
        while v != s:
            arc = parent_arc[v]
            c = cap[arc]
            bottleneck = c if bottleneck is None or c < bottleneck else bottleneck
            v = head[arc ^ 1]
        v = t
        while v != s:
            arc = parent_arc[v]
            net.push(arc, bottleneck)
            v = head[arc ^ 1]
        total = bottleneck if total is None else total + bottleneck

    if total is None:
        for c in net.orig_cap:
            try:
                return c - c
            except TypeError:  # pragma: no cover
                return 0.0
        return 0
    return total
