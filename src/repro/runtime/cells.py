"""One cell runner for every list of independent cells.

The sweep, the population simulator and the server's shard dispatch all
solve lists of independent cells, in one shape: a module-level function
``fn(*args, ctx, backend=...)`` that crosses a process boundary as the
item ``(fn, args, spec)``.  :func:`spec_cell` runs an item on
:func:`worker_context` -- the one context each process memoizes per
:class:`~repro.engine.EngineSpec`, registered with the
:mod:`repro.obs.metrics` drain so its work reaches the caller -- and
:func:`spec_cell_exact` runs the same function under the exact backend,
the supervisor's escalation after typed numeric failures.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..engine import EngineContext, EngineSpec
from ..numeric import EXACT
from ..obs.metrics import register_worker_context
from .checkpoint import open_journal
from .policy import RuntimePolicy, resolve_policy
from .supervisor import supervised_map

__all__ = ["worker_context", "spec_cell", "spec_cell_exact", "run_cells"]

#: Per-process memo of contexts rebuilt from specs (one cache per worker).
_WORKER_CONTEXTS: dict[EngineSpec, EngineContext] = {}


def worker_context(spec: EngineSpec) -> EngineContext:
    """This process's context for ``spec``, built and registered for the
    metrics drain on first use."""
    ctx = _WORKER_CONTEXTS.get(spec)
    if ctx is None:
        ctx = _WORKER_CONTEXTS.setdefault(spec, spec.build())
        register_worker_context(ctx)
    return ctx


def spec_cell(item: tuple):
    """Run one ``(fn, args, spec)`` item on the memoized worker context."""
    fn, args, spec = item
    return fn(*args, ctx=worker_context(spec))


def spec_cell_exact(item: tuple):
    """:func:`spec_cell` under the exact ``Fraction`` backend, where float
    overflow, NaN corruption and rounding-induced non-convergence cannot
    occur."""
    fn, args, spec = item
    return fn(*args, ctx=worker_context(spec), backend=EXACT)


def run_cells(
    fn: Callable,
    cells: Sequence[tuple],
    ctx: EngineContext,
    policy: Optional[RuntimePolicy] = None,
    processes: Optional[int] = None,
    checkpoint: Optional[str] = None,
    fingerprint: Optional[Callable[[EngineSpec], str]] = None,
    key_fn: Optional[Callable[[int], str]] = None,
) -> list:
    """``fn(*args, ctx=...)`` for every ``args`` in ``cells``, in order.

    ``processes=None`` defers to ``ctx.workers``.  With no worker, an
    inert policy (``policy``, else ``ctx.runtime``) and no
    ``checkpoint``, the cells run serially on ``ctx`` itself, so its
    cache, counters, tracer and auditor see every one.  Otherwise they run
    under :func:`~repro.runtime.supervised_map` on worker contexts, with
    the journal at ``checkpoint`` opened under ``fingerprint(spec)`` and
    keyed by ``key_fn`` (default: the submission index).  Both paths give
    bit-identical values.
    """
    rpolicy = resolve_policy(ctx, policy)
    procs = ctx.resolve_workers(processes)
    supervised = rpolicy.supervised or checkpoint is not None
    if not supervised and (procs <= 0 or len(cells) <= 1):
        return [fn(*args, ctx=ctx) for args in cells]
    spec = ctx.spec()
    journal = (open_journal(checkpoint, fingerprint(spec))
               if checkpoint is not None else None)
    try:
        return supervised_map(
            spec_cell, [(fn, args, spec) for args in cells],
            processes=procs, policy=rpolicy, counters=ctx.counters,
            escalate_fn=spec_cell_exact, journal=journal, key_fn=key_fn,
            tracer=ctx.tracer,
        )
    finally:
        if journal is not None:
            journal.close()
