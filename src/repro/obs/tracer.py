"""Hierarchical span tracing on monotonic ``perf_counter`` time.

A :class:`Tracer` aggregates *spans* -- named, nestable wall-clock
intervals -- into per-path statistics.  Nesting is expressed in the
aggregation key: a ``"flow"`` span opened while a ``"decompose"`` span is
active lands under the path ``"decompose/flow"``, so one snapshot reads as
a call-tree profile of the hot loop without storing individual events.

Design constraints, in order:

* **near-zero overhead when disabled** -- call sites go through
  :meth:`repro.engine.EngineContext.span`, which returns a shared no-op
  context manager after a single attribute check when no tracer is
  attached; the tracer itself is only ever touched when tracing is on;
* **nesting-safe reentrancy** -- spans are plain context managers, so the
  ``with`` protocol guarantees balanced enter/exit even when the body
  raises, and recursive re-entry of the same name simply extends the path
  (``"decompose/decompose"``) instead of corrupting shared state;
* **concurrency-safe nesting** -- the open span is held in a per-tracer
  :class:`contextvars.ContextVar`, which asyncio copies into every task
  and which each thread starts empty, so spans of concurrent handlers are
  siblings, never nested in one another.  The variable holds a chain of
  parent-linked frames that is never re-linked, only replaced: a mutable
  stack in it would be one object shared by every copied context;
* **mergeable** -- snapshots are plain dicts of sums, so worker-side span
  statistics ship over a result queue and fold into the parent tracer with
  :meth:`Tracer.merge_snapshot` (the same protocol as
  :meth:`repro.engine.Counters.merge_snapshot`).

Per-path statistics are ``count`` (spans closed), ``total_s`` (inclusive
wall time) and ``self_s`` (exclusive: inclusive minus the time spent in
child spans), all accumulated, never averaged -- rates are derived at
reporting time.
"""

from __future__ import annotations

from contextvars import ContextVar
from itertools import count
from time import perf_counter

__all__ = ["Tracer", "SPAN_SEP"]

#: Separator between nested span names in an aggregation path.
SPAN_SEP = "/"

_TRACER_IDS = count()


class _Frame:
    """One open span: its path, parent frame and start time, fixed at
    creation, plus the wall time its closed children took so far."""

    __slots__ = ("path", "start", "parent", "child_s")

    def __init__(self, path: str, parent: "_Frame | None") -> None:
        self.path = path
        self.parent = parent
        self.child_s = 0.0
        self.start = perf_counter()


class _Span:
    """One active span: a tiny hand-rolled context manager.

    Hand-rolled (rather than ``@contextmanager``) to keep the enabled-path
    cost to two method calls and one context-variable set/reset, and
    because ``__exit__`` runs on *any* unwind -- a raising body can never
    leave the tracer's active frame behind.
    """

    __slots__ = ("_tracer", "_name", "_frame", "_token")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        active = self._tracer._active
        parent = active.get()
        path = (parent.path + SPAN_SEP + self._name if parent is not None
                else self._name)
        self._frame = _Frame(path, parent)
        self._token = active.set(self._frame)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t = self._tracer
        frame = self._frame
        elapsed = perf_counter() - frame.start
        t._active.reset(self._token)
        stats = t._spans.get(frame.path)
        if stats is None:
            t._spans[frame.path] = [1, elapsed, elapsed - frame.child_s]
        else:
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += elapsed - frame.child_s
        if frame.parent is not None:
            frame.parent.child_s += elapsed


class _NoopSpan:
    """Shared do-nothing span for a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Aggregating span tracer (see module docstring).

    ``enabled`` is a plain attribute so a caller holding a tracer can still
    switch it off wholesale; :meth:`repro.engine.EngineContext.span` checks
    it once per span and hands back the engine's shared no-op when false,
    and :meth:`span` makes the same check for callers holding the tracer
    directly.
    """

    __slots__ = ("enabled", "_active", "_spans")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._active: ContextVar[_Frame | None] = ContextVar(
            f"repro_tracer_{next(_TRACER_IDS)}", default=None)
        self._spans: dict[str, list] = {}

    def span(self, name: str):
        """Context manager timing one ``name`` span at the current depth
        (a shared no-op while the tracer is disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name)

    @property
    def depth(self) -> int:
        """Number of spans open in the current context (0 outside any)."""
        depth, frame = 0, self._active.get()
        while frame is not None:
            depth, frame = depth + 1, frame.parent
        return depth

    def snapshot(self) -> dict:
        """``{path: {"count", "total_s", "self_s"}}`` for every closed span.

        Open spans are not included -- a snapshot taken mid-span reports
        only completed work, so merging snapshots never double-counts.
        """
        return {
            path: {"count": s[0], "total_s": s[1], "self_s": s[2]}
            for path, s in self._spans.items()
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` dict (e.g. from a worker) into this
        tracer's aggregates.  Paths merge by exact string match."""
        for path, other in snap.items():
            stats = self._spans.get(path)
            if stats is None:
                self._spans[path] = [
                    int(other.get("count", 0)),
                    float(other.get("total_s", 0.0)),
                    float(other.get("self_s", 0.0)),
                ]
            else:
                stats[0] += int(other.get("count", 0))
                stats[1] += float(other.get("total_s", 0.0))
                stats[2] += float(other.get("self_s", 0.0))

    def reset(self) -> None:
        """Drop aggregated statistics (open spans keep timing correctly:
        their frames live in the context, not in the aggregates)."""
        self._spans = {}
