"""Observability layer: span tracing, cross-process metrics, benchmarks.

Three pieces, layered so measurement is trustworthy before it is fast:

* :class:`Tracer` (:mod:`repro.obs.tracer`) -- hierarchical span tracing
  on ``perf_counter``, attached to an :class:`~repro.engine.EngineContext`
  and threaded through the flow/core/attack hot paths.  Disabled cost is
  one attribute check per call site.
* the metrics protocol (:mod:`repro.obs.metrics`) -- one snapshot/merge
  discipline for engine, audit, and runtime counters *across process
  boundaries*: worker contexts register themselves, drain deltas after
  each cell, and the supervisor folds them back into the parent context,
  so ``--stats`` totals from a parallel sweep equal the serial run's.
* the benchmark harness (:mod:`repro.obs.bench` + the ``repro-bench``
  CLI, :mod:`repro.obs.cli`) -- runs a named workload suite under tracing
  and emits a versioned, machine-readable ``BENCH_<tag>.json`` (wall
  times, span breakdown, counter totals, environment fingerprint) plus a
  ``compare`` gate that fails on regression past a threshold.

This ``__init__`` deliberately imports only the leaf modules (``tracer``,
``metrics``): :mod:`repro.runtime` imports the metrics protocol, and the
benchmark harness imports the experiment suite, so eagerly importing
``bench`` here would close an import cycle.  Import it explicitly
(``from repro.obs import bench``) or via the ``repro-bench`` entry point.
"""

from .metrics import (
    absorb_metrics,
    diff_counter_snapshots,
    diff_span_snapshots,
    drain_worker_metrics,
    register_worker_context,
)
from .tracer import SPAN_SEP, Tracer

__all__ = [
    "Tracer",
    "SPAN_SEP",
    "register_worker_context",
    "drain_worker_metrics",
    "absorb_metrics",
    "diff_counter_snapshots",
    "diff_span_snapshots",
]
