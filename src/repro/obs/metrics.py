"""One snapshot/merge protocol for every counter family, across processes.

The library already accumulates three integer counter families on one
:class:`~repro.engine.Counters` object (engine work, audit checks, runtime
recoveries) plus span statistics -- the one record of wall time -- on an
optional tracer.  What was missing is the *cross-process* half of the
story: contexts rebuilt inside worker processes
(:func:`repro.runtime.worker_context`) did all the work of a
parallel sweep, and their counters died with the worker -- ``--stats``
silently reported near-zero totals for any run with ``--workers N``.

This module closes that gap with a deliberately tiny protocol:

* a worker process **registers** every engine context it rebuilds from a
  spec (:func:`register_worker_context`);
* after each completed cell it **drains** the delta -- counters and spans
  accumulated since the previous drain -- as one plain picklable dict
  (:func:`drain_worker_metrics`) that rides the existing per-worker result
  queue next to the cell's value (never inside it, so checkpoint journals
  and result bit-identity are untouched);
* the supervisor / sweep layer **absorbs** each delta into the parent
  context (:func:`absorb_metrics`).

Deltas, not totals, are load-bearing: worker contexts are memoized for the
life of the process and serve many cells, so shipping totals would
multiply-count earlier cells.  The registry tracks the last-reported
snapshot per source and ships only the difference, which also makes the
protocol safe under ``fork`` -- a child inherits the parent's registry
*and* its last-reported marks, so parent-side work done before the fork is
never re-reported by the child.

Everything here is duck-typed (a source needs ``.counters.snapshot()`` and
optionally ``.tracer.snapshot()``) so ``repro.obs`` stays a leaf package:
``repro.runtime`` can import it without cycles.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

__all__ = [
    "register_worker_context",
    "begin_metrics_session",
    "end_metrics_session",
    "drain_worker_metrics",
    "absorb_metrics",
    "diff_counter_snapshots",
    "diff_span_snapshots",
]

#: Process-local registered sources (engine contexts rebuilt in this
#: process from an :class:`~repro.engine.EngineSpec`).
_SOURCES: list = []
#: ``id(source)`` -> last-drained counter / span snapshots.
_LAST_COUNTERS: dict[int, dict] = {}
_LAST_SPANS: dict[int, dict] = {}
#: Serializes snapshot-vs-mark sections so concurrent drains (the serving
#: layer runs one supervised batch per shard on executor threads) each see
#: a delta exactly once.  Two unguarded drains racing on the same source
#: would both diff against the same stale mark and double-report the work.
_DRAIN_LOCK = threading.Lock()

# Quiesce the lock across fork: the serving layer forks worker processes
# from executor threads while *other* threads may be inside a drain, and a
# child forked at that moment would inherit a locked _DRAIN_LOCK with no
# thread left to release it -- its first register_worker_context() would
# deadlock.  Holding the lock over the fork (the same discipline the
# logging module uses for its handler locks) guarantees every child starts
# with it released.
os.register_at_fork(
    before=_DRAIN_LOCK.acquire,
    after_in_parent=_DRAIN_LOCK.release,
    after_in_child=_DRAIN_LOCK.release,
)


def register_worker_context(ctx) -> None:
    """Make ``ctx``'s counters (and tracer, if any) eligible for draining.

    Idempotent per object.  The registry keeps a strong reference -- its
    intended sources are the per-process memoized spec contexts, which live
    for the process anyway.
    """
    with _DRAIN_LOCK:
        if any(src is ctx for src in _SOURCES):
            return
        _SOURCES.append(ctx)


def diff_counter_snapshots(cur: dict, last: Optional[dict]) -> dict:
    """``cur - last`` over a :meth:`~repro.engine.Counters.snapshot` dict.

    Zero entries are dropped so the result stays small on the wire; an
    all-zero delta collapses to ``{}``.
    """
    last = last or {}
    out: dict = {}
    for key, value in cur.items():
        d = value - last.get(key, 0)
        if d:
            out[key] = d
    return out


def diff_span_snapshots(cur: dict, last: Optional[dict]) -> dict:
    """``cur - last`` over a :meth:`~repro.obs.Tracer.snapshot` dict."""
    last = last or {}
    out: dict = {}
    for path, stats in cur.items():
        prev = last.get(path, {})
        d = {
            "count": stats["count"] - prev.get("count", 0),
            "total_s": stats["total_s"] - prev.get("total_s", 0.0),
            "self_s": stats["self_s"] - prev.get("self_s", 0.0),
        }
        if d["count"] or d["total_s"] or d["self_s"]:
            out[path] = d
    return out


def _merge_counter_deltas(into: dict, delta: dict) -> None:
    for key, value in delta.items():
        into[key] = into.get(key, 0) + value


def _merge_span_deltas(into: dict, delta: dict) -> None:
    for path, stats in delta.items():
        cur = into.get(path)
        if cur is None:
            into[path] = dict(stats)
        else:
            cur["count"] += stats["count"]
            cur["total_s"] += stats["total_s"]
            cur["self_s"] += stats["self_s"]


def drain_worker_metrics() -> Optional[dict]:
    """Everything registered sources accumulated since the last drain.

    Returns ``{"counters": {...}, "spans": {...}}`` with empty parts
    omitted, or ``None`` when nothing changed -- the common case for cells
    that never touch an engine context, which then cost one ``None`` on the
    result queue instead of a dict.

    Draining *advances the marks* whether or not the caller keeps the
    result, which is exactly what the sweep layer wants: draining once
    before spawning workers discards work that belongs to earlier,
    already-reported runs (and synchronizes the marks a ``fork`` child will
    inherit).
    """
    counters_delta: dict = {}
    spans_delta: dict = {}
    with _DRAIN_LOCK:
        for src in _SOURCES:
            key = id(src)
            cur = src.counters.snapshot()
            _merge_counter_deltas(
                counters_delta, diff_counter_snapshots(cur, _LAST_COUNTERS.get(key))
            )
            _LAST_COUNTERS[key] = cur
            tracer = getattr(src, "tracer", None)
            if tracer is not None:
                cur_spans = tracer.snapshot()
                _merge_span_deltas(
                    spans_delta, diff_span_snapshots(cur_spans, _LAST_SPANS.get(key))
                )
                _LAST_SPANS[key] = cur_spans
    out: dict = {}
    if counters_delta:
        out["counters"] = counters_delta
    if spans_delta:
        out["spans"] = spans_delta
    return out or None


#: Open drain sessions (supervised maps currently bracketed by
#: begin/end).  Guarded by its own lock; ordering is always session lock
#: -> drain lock, never the reverse.
_ACTIVE_SESSIONS = 0
_SESSION_LOCK = threading.Lock()

os.register_at_fork(
    before=_SESSION_LOCK.acquire,
    after_in_parent=_SESSION_LOCK.release,
    after_in_child=_SESSION_LOCK.release,
)


def begin_metrics_session() -> None:
    """Open one accounting session (a ``supervised_map``'s bracket).

    Only the session that takes the count from 0 to 1 discards pending
    deltas (the sweep-start baseline).  An overlapping session -- the
    serving layer dispatches several shards' maps concurrently -- must
    *not* reset the marks: a sibling session's cells may have incremented
    a source's counters without having drained them yet, and a mark reset
    here would silently swallow that work.  Skipping the reset is safe:
    marks only advance under :data:`_DRAIN_LOCK`, so every increment is
    still reported by exactly one drain (attribution between overlapping
    sessions may shift, totals never do).

    The discard runs while the session lock is held, so a sibling's
    ``begin`` cannot slip work in between the count transition and the
    mark reset.
    """
    global _ACTIVE_SESSIONS
    with _SESSION_LOCK:
        if _ACTIVE_SESSIONS == 0:
            drain_worker_metrics()
        _ACTIVE_SESSIONS += 1


def end_metrics_session() -> None:
    """Close one accounting session opened by :func:`begin_metrics_session`."""
    global _ACTIVE_SESSIONS
    with _SESSION_LOCK:
        _ACTIVE_SESSIONS = max(0, _ACTIVE_SESSIONS - 1)


def absorb_metrics(delta: Optional[dict], counters=None, tracer=None) -> None:
    """Fold one drained delta into a parent's counters and/or tracer.

    ``counters`` takes the ``"counters"`` part via
    :meth:`~repro.engine.Counters.merge_snapshot`; ``tracer`` takes the
    ``"spans"`` part via :meth:`~repro.obs.Tracer.merge_snapshot`.  Either
    target may be ``None`` (that part is dropped), and ``delta=None`` is a
    no-op, so call sites do not need to guard.
    """
    if not delta:
        return
    if counters is not None and "counters" in delta:
        counters.merge_snapshot(delta["counters"])
    if tracer is not None and "spans" in delta:
        tracer.merge_snapshot(delta["spans"])
