"""Process-parallel incentive sweeps under the runtime cell runner.

Incentive-ratio sweeps are embarrassingly parallel: each (instance, agent)
cell is an independent best-response search taking milliseconds to seconds.
:func:`parallel_incentive_sweep` expands the instances into
``(graph, vertex, grid)`` cells of :func:`_best_ratio` and runs them
through :func:`repro.runtime.run_cells`: serially on the caller's context
by default, or under :func:`repro.runtime.supervised_map` -- where a hung
Dinkelbach iteration or an OOM-killed worker costs one retried cell, not
the whole sweep -- for parallel runs, a non-inert policy, or a
checkpoint.  Results come back in submission order, so every path is
bit-identical, and worker counters and spans flow back into the caller's
context (see :mod:`repro.obs.metrics`): a parallel sweep's ``--stats``
totals match the serial run's (bit-identically so when the per-process
decomposition cache is disabled, i.e. nothing scheduling-dependent can
change how much work each cell performs).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

from ..attack import best_split
from ..engine import (
    ENGINE_NAME,
    SOLVER_NAME,
    ZERO_TOL,
    EngineContext,
    EngineSpec,
    resolve_context,
)
from ..graphs import WeightedGraph
from ..numeric import FLOAT
from ..runtime import RuntimePolicy, run_cells

__all__ = ["parallel_incentive_sweep", "sweep_fingerprint"]


def _best_ratio(g: WeightedGraph, v: int, grid: int, ctx: EngineContext,
                backend=FLOAT) -> float:
    """One (graph, vertex) best-response cell: the vertex's ``zeta_v``."""
    return best_split(g, v, grid=grid, backend=backend, ctx=ctx).ratio


def sweep_fingerprint(
    cells: Sequence[tuple], grid: int, spec: EngineSpec | None
) -> str:
    """Content hash identifying one incentive sweep for checkpoint resume.

    Folds in every input that determines cell values -- the instances
    (weights by exact hex), the vertex per cell, the search grid, and the
    engine configuration -- so a journal can never be resumed against a
    different sweep without tripping the fingerprint check.
    """
    h = hashlib.sha256()
    h.update(f"grid={grid}".encode())
    if spec is not None:
        h.update(
            repr(
                (SOLVER_NAME, spec.backend.name, ZERO_TOL, ENGINE_NAME)
            ).encode()
        )
    for g, v in cells:
        h.update(f"|{v}|{g.n}".encode())
        for u, w in g.edges:
            h.update(f",{u},{w}".encode())
        for w in g.weights:
            h.update((w.hex() if isinstance(w, float) else repr(w)).encode())
    return h.hexdigest()[:16]


def parallel_incentive_sweep(
    graphs: Iterable[WeightedGraph],
    grid: int = 48,
    processes: Optional[int] = None,
    ctx: EngineContext | None = None,
    policy: Optional[RuntimePolicy] = None,
    checkpoint: Optional[str] = None,
) -> list[float]:
    """Worst ``zeta_v`` per instance, optionally across processes.

    Expands every (graph, vertex) pair into one work item so load balances
    even when instance sizes vary, then folds the per-vertex ratios back
    into per-instance maxima.  ``processes=None`` defers to ``ctx.workers``
    (serial for the default context); serial runs share ``ctx`` directly so
    its counters and cache see every cell, and parallel runs merge every
    worker's counter/span deltas back into ``ctx`` (see
    :mod:`repro.obs.metrics`), so ``--stats`` reports true totals either
    way.

    Supervision: parallel runs, and serial runs whose resolved policy
    (explicit ``policy`` argument, else ``ctx.runtime``, else the inert
    default) enables timeouts, retries or fault injection, or that pass a
    ``checkpoint``, run their cells under
    :func:`repro.runtime.supervised_map` -- per-cell wall-clock budgets,
    capped-backoff retries, worker respawn, serial degradation, and
    escalation of typed numeric failures to the exact backend.  Results
    remain bit-identical to a serial run on ``ctx``; a sweep resumed from
    ``checkpoint`` after a kill is bit-identical to an uninterrupted one.
    """
    rctx = resolve_context(ctx)
    graphs = list(graphs)
    cells: list[tuple[WeightedGraph, int]] = []
    offsets: list[int] = []
    for g in graphs:
        offsets.append(len(cells))
        cells.extend((g, v) for v in g.vertices())
    flat = run_cells(
        _best_ratio, [(g, v, grid) for g, v in cells], rctx,
        policy=policy, processes=processes, checkpoint=checkpoint,
        fingerprint=lambda spec: sweep_fingerprint(cells, grid, spec),
    )
    out: list[float] = []
    for i, g in enumerate(graphs):
        start = offsets[i]
        out.append(max(flat[start:start + g.n]))
    return out
