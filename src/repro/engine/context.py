"""The engine context: one explicit object for cross-cutting configuration.

Numeric backend, flow zero-tolerance, worker count, the decomposition
cache, and the work counters used to travel through the library ad hoc.
:class:`EngineContext` bundles them; every layer from ``core`` up through
the CLI takes an optional ``ctx`` and falls back to a shared module-level
default, so existing call sites keep today's behavior bit-for-bit while a
configured context turns caching and counting into one-line knobs::

    ctx = EngineContext(cache_size=0)
    inst = incentive_ratio(g, ctx=ctx)
    print(ctx.stats())

Every max-flow solve goes through :meth:`EngineContext.max_flow`, which
runs Dinic (:func:`repro.flow.dinic_max_flow`).  The other max-flow
implementations are references for the audit and test layers only.

Process pools cannot usefully share a mutable context, so a frozen
:class:`EngineSpec` carries the *configuration* across pickling boundaries
and each worker rebuilds (and memoizes) its own context from it -- the same
config-threading discipline as sysml_fair_verif's ``ModelConfig``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..exceptions import EngineError, NumericalInstabilityError
from ..flow.dinic import dinic_max_flow
from ..flow.network import FlowNetwork
from ..numeric import Backend, FLOAT
from .cache import DecompositionCache
from .counters import Counters

__all__ = [
    "EngineSpec",
    "EngineContext",
    "NULL_SPAN",
    "ENGINE_NAME",
    "SOLVER_NAME",
    "default_context",
    "resolve_context",
    "using_context",
    "set_flow_fault_hook",
]

#: Name of the engine's max-flow solver as on-disk state spells it.  Sweep,
#: scenario, suite and serve-durability fingerprints hash it and corpus
#: records carry it, so journals, snapshots and records written while the
#: solver was selectable still load.
SOLVER_NAME = "dinic"

#: Name of the engine as on-disk state spells it.  Sweep, scenario and
#: serve-durability fingerprints hash it next to :data:`SOLVER_NAME`, so
#: checkpoints, journals and snapshots written while a second engine was
#: selectable still load.
ENGINE_NAME = "columnar"

#: Process-global fault-injection hook on the flow boundary, installed by
#: :mod:`repro.runtime.faults` (``None`` = zero overhead beyond one load).
#: Lives here rather than on the context so ``engine`` stays an
#: import-graph leaf while every solve -- whichever context routed it --
#: passes through the same deterministic injection point.
_FLOW_FAULT_HOOK: Optional[Callable] = None


def set_flow_fault_hook(hook: Optional[Callable]) -> None:
    """Install (or clear, with ``None``) the flow-value fault hook.

    The hook receives each solved flow value and returns the (possibly
    corrupted) value to hand back, or raises.  Only the fault-injection
    layer should call this.
    """
    global _FLOW_FAULT_HOOK
    _FLOW_FAULT_HOOK = hook

#: Default LRU capacity; a sweep instance produces tens of distinct
#: decompositions, so 1024 spans many instances without unbounded growth.
DEFAULT_CACHE_SIZE = 1024

#: Flow-template cache bound; a best-response sweep needs a handful of
#: templates per topology (one parametric per active set, one pair network
#: per decomposition pair), so 512 covers full experiments.
TEMPLATE_CACHE_MAX = 512


class _NullSpan:
    """Shared no-op span handed out when no tracer is attached.

    One module-level singleton, no allocation, empty ``__enter__`` /
    ``__exit__`` -- the entire disabled-tracing cost of an instrumented
    call site is the attribute check in :meth:`EngineContext.span`.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class EngineSpec:
    """Frozen, picklable description of an :class:`EngineContext`.

    Carries configuration only -- no cache contents, no counters -- so it is
    tiny on the wire and hashable (worker processes memoize one rebuilt
    context per distinct spec).
    """

    backend: Backend = FLOAT
    zero_tol: float = 0.0
    cache_size: int = DEFAULT_CACHE_SIZE
    workers: int = 0
    audit: str = "off"
    corpus_dir: Optional[str] = None
    trace: bool = False
    #: Free-form discriminator, not part of the built context.  Two specs
    #: that differ only in ``tag`` build identical contexts but memoize
    #: *separately* in worker processes (``_context_for`` keys on the whole
    #: spec) -- the serving layer tags one spec per shard so concurrent
    #: shard dispatches never share a metrics-drain source.
    tag: str = ""

    def build(self) -> "EngineContext":
        ctx = EngineContext(
            backend=self.backend,
            zero_tol=self.zero_tol,
            cache_size=self.cache_size,
            workers=self.workers,
        )
        if self.trace:
            # Lazy import for the same leaf-package reason as the auditor:
            # ``repro.obs`` knows about engine snapshots, not vice versa.
            from ..obs import Tracer

            ctx.tracer = Tracer()
        if self.audit != "off":
            # Lazy import: ``engine`` stays a leaf of the import graph; the
            # oracle layer (which imports core/io) is pulled in only when a
            # spec actually requests auditing.
            from ..oracle import attach_auditor

            attach_auditor(ctx, level=self.audit, corpus_dir=self.corpus_dir)
        return ctx

    def with_cache(self, cache_size: int) -> "EngineSpec":
        return replace(self, cache_size=cache_size)


@dataclass
class EngineContext:
    """Shared engine state threaded through flow -> core -> attack -> CLI.

    Parameters
    ----------
    backend:
        Default numeric backend for call sites that do not pass one
        explicitly.
    zero_tol:
        Residual zero-tolerance handed to the max-flow solver.  The default 0.0
        is load-bearing (see ``core.bottleneck``): Dinic saturates arcs
        exactly even in floats, and a positive tolerance would swallow
        genuinely tiny capacities.
    cache_size:
        LRU capacity of the decomposition cache; ``0`` disables caching.
    workers:
        Default process count for parallel sweeps (``0`` = serial).
    """

    backend: Backend = FLOAT
    zero_tol: float = 0.0
    cache_size: int = DEFAULT_CACHE_SIZE
    workers: int = 0
    cache: DecompositionCache = field(default=None, repr=False)  # type: ignore[assignment]
    counters: Counters = field(default_factory=Counters, repr=False)
    #: Optional audit hook (see :mod:`repro.oracle`).  Typed loosely so the
    #: engine package stays an import-graph leaf; anything with the
    #: ``on_flow`` / ``on_decomposition`` / ``on_allocation`` /
    #: ``on_best_response`` methods qualifies.
    auditor: object = field(default=None, repr=False)
    #: Optional supervised-execution policy (see
    #: :class:`repro.runtime.RuntimePolicy`).  Loosely typed for the same
    #: leaf-package reason as ``auditor``; consumers read it via
    #: ``getattr(ctx, "runtime", None)`` semantics and fall back to the
    #: default policy when absent.
    runtime: object = field(default=None, repr=False)
    #: Optional span tracer (see :class:`repro.obs.Tracer`).  Loosely typed
    #: so ``engine`` stays an import-graph leaf; anything with ``enabled``,
    #: ``span(name)``, ``snapshot()`` and ``merge_snapshot(dict)`` works.
    #: ``None`` (the default) keeps instrumented hot paths at one attribute
    #: check of overhead via the shared :data:`NULL_SPAN`.
    tracer: object = field(default=None, repr=False)
    #: Flow-template cache keyed by (shape, structure bytes, member tuples);
    #: bounded by :data:`TEMPLATE_CACHE_MAX` with whole-cache flush on
    #: overflow (entries are cheap to rebuild and keys cluster per
    #: topology, so LRU bookkeeping would cost more than it saves).
    templates: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise EngineError(f"workers must be >= 0, got {self.workers}")
        if self.cache is None:
            self.cache = DecompositionCache(self.cache_size)
        else:
            self.cache_size = self.cache.maxsize

    # -- max flow ----------------------------------------------------------
    def max_flow(
        self,
        net: FlowNetwork,
        s: int,
        t: int,
        zero_tol: float | None = None,
    ):
        """Solve ``net`` with Dinic; returns the flow value.

        The residual state left in ``net`` is a genuine max *flow*
        (conservation at every node), so callers may read min cuts and
        per-arc amounts off it.
        """
        self.counters.flow_calls += 1
        tol = self.zero_tol if zero_tol is None else zero_tol
        with self.span("flow"):
            value = dinic_max_flow(net, s, t, tol)
        if _FLOW_FAULT_HOOK is not None:
            value = _FLOW_FAULT_HOOK(value)
        # Graceful-degradation boundary: every solve's value must be finite
        # (source arcs have finite capacity in every network we build), so a
        # NaN/Inf here is float overflow on an extreme instance -- raise the
        # typed, escalatable error instead of letting the NaN propagate into
        # alphas and allocations as a silent wrong answer.
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericalInstabilityError(
                f"max-flow value {value!r} is not finite "
                f"(n={net.n}, s={s}, t={t}); "
                f"the instance needs the exact backend"
            )
        if self.auditor is not None:
            self.auditor.on_flow(self, net, s, t, value, tol)
        return value

    # -- tracing -----------------------------------------------------------
    def span(self, name: str):
        """A timing span under ``name`` -- the instrumentation entry point
        for every hot path (``with ctx.span("decompose"): ...``).

        Returns the attached tracer's span when tracing is on, else the
        shared no-op :data:`NULL_SPAN`; call sites never branch on whether
        tracing is configured.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return NULL_SPAN
        return tracer.span(name)

    # -- audit hooks -------------------------------------------------------
    # No-ops when no auditor is attached; the oracle layer implements the
    # receiving side.  Kept as context methods so core/attack call sites do
    # not need to know whether auditing is configured.
    def audit_decomposition(self, g, decomp) -> None:
        if self.auditor is not None:
            self.auditor.on_decomposition(self, g, decomp)

    def audit_allocation(self, g, decomp, alloc) -> None:
        if self.auditor is not None:
            self.auditor.on_allocation(self, g, decomp, alloc)

    def audit_best_response(self, g, v, result) -> None:
        if self.auditor is not None:
            self.auditor.on_best_response(self, g, v, result)

    # -- flow templates ---------------------------------------------------
    def parametric_template(self, g, active):
        """Cached parametric-network template for ``(g structure, active)``.

        ``active`` must already be the sorted vertex list the Dinkelbach
        loop solves over.  Templates are shared across graphs with the same
        topology (keyed by structure bytes), so every candidate split of a
        best-response sweep reuses the templates built for the first one.

        ``cache_size=0`` -- the "make the work deterministic" knob used by
        the counter-merge regression tests -- disables this cache too:
        per-process caches make hit/build tallies depend on how a sweep is
        partitioned across workers, which uncached runs must not.
        """
        from ..flow.template import parametric_template
        from ..graphs.columnar import graph_structure_bytes

        if self.cache.maxsize == 0:
            self.counters.template_builds += 1
            return parametric_template(g, active)
        key = ("par", graph_structure_bytes(g), tuple(active))
        tpl = self.templates.get(key)
        if tpl is None:
            if len(self.templates) >= TEMPLATE_CACHE_MAX:
                self.templates.clear()
            self.counters.template_builds += 1
            tpl = parametric_template(g, active)
            self.templates[key] = tpl
        else:
            self.counters.template_hits += 1
        return tpl

    def pair_template(self, g, B, C):
        """Cached allocation pair-network template; returns ``(tpl, arc_of)``.

        Uncached when ``cache_size=0``, same as :meth:`parametric_template`.
        """
        from ..flow.template import pair_template
        from ..graphs.columnar import graph_structure_bytes

        if self.cache.maxsize == 0:
            self.counters.template_builds += 1
            return pair_template(g, B, C)
        key = ("pair", graph_structure_bytes(g), tuple(B), tuple(C))
        entry = self.templates.get(key)
        if entry is None:
            if len(self.templates) >= TEMPLATE_CACHE_MAX:
                self.templates.clear()
            self.counters.template_builds += 1
            entry = pair_template(g, B, C)
            self.templates[key] = entry
        else:
            self.counters.template_hits += 1
        return entry

    # -- backend / worker resolution -------------------------------------
    def resolve_backend(self, backend: Optional[Backend]) -> Backend:
        return self.backend if backend is None else backend

    def resolve_workers(self, processes: Optional[int]) -> int:
        return self.workers if processes is None else processes

    # -- spec / pickling --------------------------------------------------
    def spec(self) -> EngineSpec:
        """Configuration-only snapshot (see :class:`EngineSpec`)."""
        return EngineSpec(
            backend=self.backend,
            zero_tol=self.zero_tol,
            cache_size=self.cache.maxsize,
            workers=self.workers,
            audit=getattr(self.auditor, "level_name", "off") if self.auditor else "off",
            corpus_dir=getattr(self.auditor, "corpus_dir", None) if self.auditor else None,
            trace=self.tracer is not None,
        )

    # -- instrumentation --------------------------------------------------
    def stats(self) -> dict:
        """Counters + cache statistics + the configuration that produced
        them, as one plain serializable dict."""
        out = self.counters.snapshot()
        out["cache"] = self.cache.stats()
        out["backend"] = self.backend.name
        out["spans"] = self.tracer.snapshot() if self.tracer is not None else {}
        return out

    def reset_stats(self) -> None:
        """Zero the counters, span aggregates, and cache hit/miss tallies
        (cache entries are kept)."""
        self.counters.reset()
        if self.tracer is not None:
            self.tracer.reset()
        self.cache.hits = 0
        self.cache.misses = 0
        self.cache.evictions = 0


_DEFAULT_CONTEXT: EngineContext | None = None


def default_context() -> EngineContext:
    """The process-wide default context (created lazily, shared by every
    call site that receives ``ctx=None``)."""
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = EngineContext()
    return _DEFAULT_CONTEXT


def resolve_context(ctx: Optional[EngineContext]) -> EngineContext:
    """``ctx`` itself, or the shared default when ``None``."""
    return ctx if ctx is not None else default_context()


@contextmanager
def using_context(ctx: EngineContext):
    """Temporarily install ``ctx`` as the process-wide default.

    Everything that receives ``ctx=None`` inside the ``with`` body --
    including experiment modules that have not grown a ``ctx`` parameter --
    resolves to ``ctx``, so the CLI's ``--no-cache``/``--audit`` flags
    reach every solve of a run.  The previous default is restored on exit.
    """
    global _DEFAULT_CONTEXT
    prev = _DEFAULT_CONTEXT
    _DEFAULT_CONTEXT = ctx
    try:
        yield ctx
    finally:
        _DEFAULT_CONTEXT = prev
