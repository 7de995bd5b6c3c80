"""Process-parallel sweep execution under the runtime supervisor.

Incentive-ratio sweeps are embarrassingly parallel: each (instance, agent)
cell is an independent best-response search taking milliseconds to seconds.
:func:`parallel_incentive_sweep` runs them with the library's sweep
contract:

* work items are (seed, payload) pairs; every worker re-derives its own RNG
  from the seed (never shares generator state across processes -- the same
  per-cell seeding discipline as :func:`repro.analysis.sweep.cell_rng`),
* results come back in submission order regardless of completion order, so
  parallel and serial runs are bit-identical,
* ``processes=0`` (the default) short-circuits to a serial loop on the
  caller's context, which keeps tests fast and avoids fork overhead for
  small sweeps.

Every parallel sweep, and every sweep whose resolved
:class:`~repro.runtime.RuntimePolicy` asks for timeouts, retries,
checkpointing, or fault injection, runs its cells through
:func:`repro.runtime.supervised_map`, where a hung Dinkelbach iteration or
an OOM-killed worker costs one retried cell, not the whole sweep.

Graphs and results cross process boundaries by pickling; everything in
:mod:`repro.graphs` is plain-data and pickles cheaply.  Engine
configuration crosses as a frozen :class:`~repro.engine.EngineSpec` --
never as a live :class:`~repro.engine.EngineContext`, whose cache and
counters are per-process state -- and each worker memoizes one rebuilt
context per spec so all of its cells share a decomposition cache.  Worker
counters and spans are *not* discarded: every rebuilt context registers
with the :mod:`repro.obs.metrics` drain protocol, each cell ships its
delta back on the supervisor's result messages, and the parent merges
them into the caller's context -- so a parallel sweep's ``--stats``
totals match the serial run's (bit-identically so when the per-process
decomposition cache is disabled, i.e. nothing scheduling-dependent can
change how much work each cell performs).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

from ..engine import ENGINE_NAME, SOLVER_NAME, EngineContext, EngineSpec, resolve_context
from ..graphs import WeightedGraph
from ..numeric import EXACT
from ..obs.metrics import register_worker_context
from ..runtime import RuntimePolicy, open_journal, resolve_policy, supervised_map

__all__ = ["parallel_incentive_sweep", "sweep_fingerprint"]


#: Per-process memo of contexts rebuilt from specs (one cache per worker).
_WORKER_CONTEXTS: dict[EngineSpec, EngineContext] = {}


def _context_for(spec: EngineSpec | None) -> EngineContext | None:
    if spec is None:
        return None
    ctx = _WORKER_CONTEXTS.get(spec)
    if ctx is None:
        ctx = _WORKER_CONTEXTS.setdefault(spec, spec.build())
        # Opt the rebuilt context into the cross-process metrics protocol:
        # the work its counters (and tracer) accumulate is drained as deltas
        # and merged back into whichever context owns the sweep.
        register_worker_context(ctx)
    return ctx


def _ratio_cell(args: tuple) -> float:
    """One (graph, vertex) best-response cell; 4th tuple slot (optional)
    is an :class:`EngineSpec` rebuilt into a per-worker context."""
    g, v, grid, *rest = args
    ctx = _context_for(rest[0] if rest else None)
    from ..attack import best_split

    return best_split(g, v, grid=grid, ctx=ctx).ratio


def _ratio_cell_exact(args: tuple) -> float:
    """Precision-escalated twin of :func:`_ratio_cell`: the same cell under
    the exact ``Fraction`` backend, where float overflow, NaN corruption,
    and rounding-induced non-convergence cannot occur.  Used by the
    supervisor after a typed numeric failure exhausts its float retries."""
    g, v, grid, *rest = args
    ctx = _context_for(rest[0] if rest else None)
    from ..attack import best_split

    return best_split(g, v, grid=grid, backend=EXACT, ctx=ctx).ratio


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
                (SOLVER_NAME, spec.backend.name, spec.zero_tol, ENGINE_NAME)
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
    default) enables timeouts, retries, fault injection, or a checkpoint,
    run their cells under :func:`repro.runtime.supervised_map` -- per-cell
    wall-clock budgets, capped-backoff retries, worker respawn, serial
    degradation, and escalation of typed numeric failures to the exact
    backend.  Results remain bit-identical to a serial run on ``ctx``; a
    sweep resumed from ``checkpoint`` after a kill is bit-identical to an
    uninterrupted one.
    """
    rctx = resolve_context(ctx)
    rpolicy = resolve_policy(rctx, policy)
    checkpoint = checkpoint if checkpoint is not None else rpolicy.checkpoint
    procs = rctx.resolve_workers(processes)
    graphs = list(graphs)
    cells: list[tuple[WeightedGraph, int]] = []
    offsets: list[int] = []
    for g in graphs:
        offsets.append(len(cells))
        cells.extend((g, v) for v in g.vertices())

    supervised = rpolicy.supervised or checkpoint is not None
    if not supervised and (procs <= 0 or len(cells) <= 1):
        from ..attack import best_split

        flat = [best_split(g, v, grid=grid, ctx=rctx).ratio for g, v in cells]
    else:
        spec = rctx.spec()
        items = [(g, v, grid, spec) for g, v in cells]
        fingerprint = sweep_fingerprint(cells, grid, spec)
        journal = open_journal(checkpoint, fingerprint)
        try:
            flat = supervised_map(
                _ratio_cell,
                items,
                processes=procs,
                policy=rpolicy,
                counters=rctx.counters,
                escalate_fn=_ratio_cell_exact,
                journal=journal,
                tracer=getattr(rctx, "tracer", None),
            )
        finally:
            if journal is not None:
                journal.close()
    out: list[float] = []
    for i, g in enumerate(graphs):
        start = offsets[i]
        out.append(max(flat[start:start + g.n]))
    return out
