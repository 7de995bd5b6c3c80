"""Proportional response dynamics (Definition 1), NumPy-vectorized.

The update is

    x_vu(t+1) = x_uv(t) / U_v(t) * w_v,      U_v(t) = sum_k x_kv(t),

with ``x_vu(0) = w_v / d_v``.  The state lives on *directed* edges; the hot
loop is three vectorized operations (a ``bincount`` for utilities, a gather
through the reverse-edge permutation, and a scale), per the HPC guides'
vectorize-the-inner-loop rule -- no Python-level per-edge work.

Wu-Zhang prove convergence of the dynamics to the BD allocation; on
*bipartite* graphs (even rings!) the raw iteration can settle into a
2-cycle whose odd/even subsequences each converge, so the simulator also
offers a damped update ``x <- (1-beta) x + beta PR(x)`` and detects
2-cycles explicitly, reporting the averaged orbit in that case.  The
EXP-CNV experiment quantifies where which mode converges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import EngineContext, instance_signature, resolve_context
from ..exceptions import ConvergenceError
from ..graphs import WeightedGraph
from ..graphs.columnar import ColumnarGraph

__all__ = ["DynamicsResult", "proportional_response", "dynamics_utilities"]


@dataclass(frozen=True)
class DynamicsResult:
    """Outcome of a proportional response run.

    Attributes
    ----------
    converged:
        True if the allocation reached a fixed point within tolerance.
    oscillating:
        True if a 2-cycle was detected instead (bipartite mode); the
        reported state is then the average of the two orbit points.
    iterations:
        Update steps performed.
    utilities:
        Per-vertex utilities of the final (or orbit-averaged) allocation.
    x:
        Final allocation on directed edges, aligned with ``edge_index``.
    edge_index:
        Mapping ``(v, u) -> position`` into ``x``.
    residual:
        Max absolute change in ``x`` over the last step (or orbit gap).
    """

    converged: bool
    oscillating: bool
    iterations: int
    utilities: np.ndarray
    x: np.ndarray
    edge_index: dict[tuple[int, int], int]
    residual: float

    def utility_of(self, v: int) -> float:
        return float(self.utilities[v])

    def allocation_of(self, v: int, u: int) -> float:
        return float(self.x[self.edge_index[(v, u)]])


def proportional_response(
    g: WeightedGraph,
    max_iters: int = 100_000,
    tol: float = 1e-10,
    damping: float = 0.0,
    raise_on_failure: bool = False,
    ctx: EngineContext | None = None,
) -> DynamicsResult:
    """Iterate Definition 1 until the allocation stabilizes.

    Parameters
    ----------
    damping:
        Fraction of the *old* state retained each step: the update becomes
        ``x <- damping * x + (1 - damping) * PR(x)``.  0 is the paper's raw
        update; any positive value kills bipartite 2-cycles.
    raise_on_failure:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    ctx:
        Engine context charged with the instrumentation: update steps land
        on ``counters.dynamics_steps`` and the whole run under a
        ``"dynamics"`` span (the per-step cost stays three vectorized ops
        -- steps are tallied once, after the loop).
    """
    rctx = resolve_context(ctx)
    if g.m == 0:
        raise ConvergenceError("dynamics undefined on an edgeless graph")
    if not (0.0 <= damping <= 1.0):
        raise ValueError(f"damping must be in [0, 1], got {damping}")

    n = g.n
    # Directed-edge arrays in (u,v),(v,u) order per sorted edge, cached on
    # the graph's CSR view; the float64 weight column is reused when the
    # weights are float-able.  Fraction weights take a per-element float()
    # conversion -- never an object-dtype array.
    cols = ColumnarGraph.from_graph(g)
    src, dst, rev, index = cols.directed_arrays()
    wf = cols.float_weights()
    w = wf if wf is not None else np.asarray([float(x) for x in g.weights])
    deg = np.asarray(cols.indptr[1:] - cols.indptr[:-1], dtype=np.float64)

    x = w[src] / deg[src]
    prev = x.copy()
    prev2 = np.full_like(x, np.nan)

    mix = damping > 0

    it = 0
    residual = np.inf
    oscillating = False
    scale = max(1.0, float(np.max(w))) if n else 1.0

    with rctx.span("dynamics"):
        for it in range(1, max_iters + 1):
            util = np.bincount(dst, weights=x, minlength=n)
            safe = util[src] > 0
            ratio = np.zeros_like(x)
            np.divide(x[rev], util[src], out=ratio, where=safe)
            new = np.where(safe, ratio * w[src], x)
            if mix:
                new = (1.0 - damping) * new + damping * x
            prev2, prev = prev, x
            x = new
            residual = float(np.max(np.abs(x - prev)))
            if residual <= tol * scale:
                break
            if it >= 2:
                orbit_gap = float(np.max(np.abs(x - prev2)))
                if orbit_gap <= tol * scale and residual > tol * scale:
                    oscillating = True
                    break
    rctx.counters.dynamics_steps += it

    converged = residual <= tol * scale
    if oscillating:
        x_report = 0.5 * (x + prev)
    else:
        x_report = x
    if not converged and not oscillating and raise_on_failure:
        raise ConvergenceError(
            f"proportional response did not settle in {it} iterations",
            signature=instance_signature(g),
            residual=residual,
            iterations=it,
        )
    utilities = np.bincount(dst, weights=x_report, minlength=n)
    return DynamicsResult(
        converged=converged,
        oscillating=oscillating,
        iterations=it,
        utilities=utilities,
        x=x_report,
        edge_index=index,
        residual=residual,
    )


def dynamics_utilities(g: WeightedGraph, **kwargs) -> np.ndarray:
    """Convenience wrapper returning only the utility vector."""
    return proportional_response(g, **kwargs).utilities
