"""Dinic's max-flow algorithm (BFS level graph + iterative blocking flow).

This is the library's default solver: ``O(V^2 E)`` in general and
``O(E sqrt(V))`` on the unit-ish bipartite networks that Definition 5 and
the parametric bottleneck cut produce.  It is written iteratively (explicit
stack, ``iter`` pointers) so deep instances never hit the recursion limit,
and generically over the scalar type so the exact backend can decide cuts
with ``Fraction`` arithmetic.
"""

from __future__ import annotations

from collections import deque
from math import isinf

from ..exceptions import FlowError
from .network import FlowNetwork

__all__ = ["dinic_max_flow"]


def dinic_max_flow(net: FlowNetwork, s: int, t: int, zero_tol: float = 0.0):
    """Run Dinic's algorithm; returns the max-flow value.

    Parameters
    ----------
    net:
        Network with residual state (flow accumulates on top of whatever is
        already routed; call ``net.reset()`` first for a fresh solve).
    s, t:
        Source and sink ids.
    zero_tol:
        Residual capacities ``<= zero_tol`` are treated as saturated.  Pass
        0 with exact (Fraction) capacities.
    """
    if s == t:
        raise FlowError("source and sink must differ")
    n = net.n
    cap = net.cap
    head = net.head
    adj = net.adj
    total = None  # lazily typed from the first augmentation

    level = [0] * n
    it = [0] * n

    def bfs() -> bool:
        for i in range(n):
            level[i] = -1
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for arc in adj[u]:
                v = head[arc]
                if level[v] == -1 and cap[arc] > zero_tol:
                    level[v] = level[u] + 1
                    q.append(v)
        return level[t] != -1

    def dfs_blocking():
        """Send one augmenting path along the level graph; returns amount
        pushed (or None when the level graph is exhausted)."""
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[a] for a in path)
                # inlined net.push: infinite residuals stay infinite, the
                # paired reverse arc always gains (same rule, no dispatch)
                for a in path:
                    c = cap[a]
                    if not (isinstance(c, float) and isinf(c)):
                        cap[a] = c - bottleneck
                    cap[a ^ 1] = cap[a ^ 1] + bottleneck
                return bottleneck
            advanced = False
            adj_u = adj[u]
            next_level = level[u] + 1
            i = it[u]
            while i < len(adj_u):
                arc = adj_u[i]
                v = head[arc]
                if cap[arc] > zero_tol and level[v] == next_level:
                    it[u] = i
                    path.append(arc)
                    u = v
                    advanced = True
                    break
                i += 1
            if advanced:
                continue
            it[u] = i
            # dead end: retreat
            level[u] = -1
            if u == s:
                return None
            arc = path.pop()
            u = head[arc ^ 1]

    while bfs():
        for i in range(n):
            it[i] = 0
        while True:
            pushed = dfs_blocking()
            if pushed is None:
                break
            total = pushed if total is None else total + pushed

    if total is None:
        # zero max flow; produce a zero of the capacity scalar type if any
        for c in net.orig_cap:
            try:
                return c - c
            except TypeError:  # pragma: no cover - inf-only networks
                return 0.0
        return 0
    return total
