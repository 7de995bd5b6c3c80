"""Residual flow network shared by Dinic and the Edmonds-Karp reference.

Arcs are stored in flat parallel lists with the classic xor-pairing trick
(arc ``i`` and its reverse ``i ^ 1`` are adjacent), so the augmenting /
pushing loops touch contiguous small lists instead of nested dicts -- the
cheapest representation available in pure Python, per the HPC guides'
"vectorize or at least flatten your hot loops" advice.

Capacities are *generic scalars*: the exact backend feeds ``Fraction``
capacities (the parametric bottleneck cut must be decided exactly), the
float backend feeds ``float`` (including ``math.inf`` for the "infinite"
bipartite arcs of Definition 5).  All algorithms take a ``zero_tol`` so that
float residuals below tolerance count as saturated.
"""

from __future__ import annotations

import math

from ..exceptions import FlowError, NumericalInstabilityError

__all__ = ["FlowNetwork"]


class FlowNetwork:
    """Directed capacitated network with residual bookkeeping.

    Parameters
    ----------
    n:
        Number of nodes, ids ``0..n-1``.

    Notes
    -----
    ``add_edge(u, v, cap)`` creates the forward arc and a 0-capacity reverse
    arc.  Flow on arc ``i`` is recovered as the capacity currently sitting
    on its reverse arc ``i ^ 1`` minus that arc's original capacity; we store
    original capacities to report flows exactly.
    """

    __slots__ = ("n", "head", "cap", "orig_cap", "adj")

    def __init__(self, n: int) -> None:
        if n < 2:
            raise FlowError("a flow network needs at least a source and a sink")
        self.n = n
        self.head: list[int] = []      # arc i points to head[i]
        self.cap: list = []            # residual capacity of arc i
        self.orig_cap: list = []       # capacity at construction time
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap) -> int:
        """Add arc ``u -> v`` with the given capacity; returns the arc id."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise FlowError(f"arc ({u},{v}) out of range for n={self.n}")
        if u == v:
            raise FlowError("self-loop arcs are not allowed")
        try:
            negative = cap < 0
        except TypeError as exc:
            raise FlowError(f"capacity {cap!r} is not comparable") from exc
        if negative:
            raise FlowError(f"negative capacity {cap!r} on arc ({u},{v})")
        # NaN compares False against everything, so it sails past the
        # negativity check and then poisons every residual comparison the
        # solvers make (``+inf`` stays legal: Definition 5's bipartite arcs
        # are genuinely unbounded).  A NaN here means upstream float
        # arithmetic overflowed -- untrusted input is already screened by
        # repro.guard -- so raise the retryable instability error and let
        # the supervisor escalate the cell to the exact backend.
        if isinstance(cap, float) and math.isnan(cap):
            raise NumericalInstabilityError(
                f"NaN capacity on arc ({u},{v}); upstream arithmetic lost "
                f"the value"
            )
        arc = len(self.head)
        self.head.append(v)
        self.cap.append(cap)
        self.orig_cap.append(cap)
        self.adj[u].append(arc)
        # reverse arc with zero capacity of the *same scalar type*
        zero = cap - cap if not _is_inf(cap) else 0.0
        self.head.append(u)
        self.cap.append(zero)
        self.orig_cap.append(zero)
        self.adj[v].append(arc + 1)
        return arc

    # ------------------------------------------------------------------
    def flow_on(self, arc: int):
        """Flow currently routed through forward arc ``arc``."""
        if arc % 2 != 0:
            raise FlowError("flow_on expects a forward (even) arc id")
        rev = arc ^ 1
        return self.cap[rev] - self.orig_cap[rev]

    def residual(self, arc: int):
        return self.cap[arc]

    def push(self, arc: int, amount) -> None:
        """Route ``amount`` along ``arc`` (residuals updated both ways)."""
        if not _is_inf(self.cap[arc]):
            self.cap[arc] = self.cap[arc] - amount
        self.cap[arc ^ 1] = self.cap[arc ^ 1] + amount

    def reset(self) -> None:
        """Drop all routed flow, restoring construction-time capacities."""
        self.cap = list(self.orig_cap)

    def clone(self) -> "FlowNetwork":
        """Deep copy (used when one network must be solved at many lambdas)."""
        out = FlowNetwork.__new__(FlowNetwork)
        out.n = self.n
        out.head = list(self.head)
        out.cap = list(self.cap)
        out.orig_cap = list(self.orig_cap)
        out.adj = [list(a) for a in self.adj]
        return out

    @property
    def num_arcs(self) -> int:
        return len(self.head)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowNetwork(n={self.n}, arcs={self.num_arcs // 2})"


def _is_inf(x) -> bool:
    return isinstance(x, float) and math.isinf(x)
