"""Engine instrumentation: cheap integer work counters.

Every :class:`~repro.engine.EngineContext` owns one :class:`Counters`
instance; the refactored core/attack layers increment it as they work, so a
sweep can report exactly how many max-flow solves and Dinkelbach steps it
cost and how much of that the decomposition cache absorbed.  Increments are
plain attribute additions -- no locks, no allocation -- so the hot paths pay
essentially nothing for the bookkeeping.  Wall time is not a counter: the
span tree (:class:`repro.obs.Tracer`, attached by ``--stats``) is the one
record of where time went.

Counters count *work performed*: a retried cell's first attempt stays in
the totals, and worker-side counters are shipped back and merged by the
:mod:`repro.obs.metrics` protocol, so parallel and serial sweeps of the
same work report the same totals (when per-process caching cannot skew the
work, i.e. with the decomposition cache disabled).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Counters", "INT_COUNTER_FIELDS"]

#: Every integer counter, in declaration order.  ``snapshot`` / ``merge`` /
#: ``reset`` iterate this tuple so adding a counter is a two-line change
#: (field + entry here) instead of a four-method hunt.
INT_COUNTER_FIELDS = (
    "flow_calls",
    "dinkelbach_iterations",
    "decompositions",
    "allocations",
    "dynamics_steps",
    "cache_hits",
    "cache_misses",
    "audit_flow_checks",
    "audit_invariant_checks",
    "audit_differential_checks",
    "audit_disagreements",
    "audit_violations",
    "cell_retries",
    "cell_timeouts",
    "worker_respawns",
    "precision_escalations",
    "injected_faults",
    "checkpoint_hits",
    "warm_starts",
    "decomp_reconstructions",
    "reconstruction_fallbacks",
    "template_builds",
    "template_hits",
    "serve_requests",
    "serve_responses",
    "serve_errors",
    "serve_batches",
    "serve_coalesced",
    "serve_cache_hits",
    "serve_cache_misses",
    "serve_shed",
    "serve_deadline_exceeded",
    "serve_read_pauses",
    "breaker_trips",
    "breaker_probes",
    "breaker_fastfails",
    "cell_deadline_expired",
    "serve_journal_admits",
    "serve_journal_settles",
    "serve_journal_replayed",
    "serve_snapshot_saves",
    "serve_snapshot_restored",
    "warm_hint_invalidations",
    "sim_epochs",
    "sim_attacks",
    "sim_churn_events",
    "sim_zeta_violations",
)


@dataclass
class Counters:
    """Work counters accumulated by one engine context.

    ``flow_calls`` counts max-flow solves routed through the context;
    ``dynamics_steps`` proportional-response update steps.

    The ``audit_*`` family is written by the :mod:`repro.oracle` audit layer:
    ``audit_flow_checks`` / ``audit_invariant_checks`` count cheap validations
    (flow axioms + min-cut certificates, paper invariants),
    ``audit_differential_checks`` counts re-solves against independent
    oracles, ``audit_disagreements`` the differential mismatches, and
    ``audit_violations`` every failed audit of any kind.

    The runtime family is written by :mod:`repro.runtime`: ``cell_retries``
    counts supervised re-runs of failed cells, ``cell_timeouts`` cells whose
    worker blew the wall-clock budget and was killed, ``worker_respawns``
    replacement workers started after a kill or crash,
    ``precision_escalations`` cells re-run under the exact ``Fraction``
    backend after a typed numeric failure, ``injected_faults`` deterministic
    faults fired by ``--inject-faults``, and ``checkpoint_hits`` cells
    served from a resume journal instead of recomputed.
    """

    flow_calls: int = 0
    dinkelbach_iterations: int = 0
    decompositions: int = 0
    allocations: int = 0
    dynamics_steps: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    audit_flow_checks: int = 0
    audit_invariant_checks: int = 0
    audit_differential_checks: int = 0
    audit_disagreements: int = 0
    audit_violations: int = 0
    cell_retries: int = 0
    cell_timeouts: int = 0
    worker_respawns: int = 0
    precision_escalations: int = 0
    injected_faults: int = 0
    checkpoint_hits: int = 0
    #: Columnar-engine family (see repro.core.incremental): Dinkelbach
    #: solves seeded below the cold start, decompositions rebuilt from a
    #: same-segment hint instead of solved, hints that failed certification
    #: and fell back to a full solve, and flow-template cache traffic.
    warm_starts: int = 0
    decomp_reconstructions: int = 0
    reconstruction_fallbacks: int = 0
    template_builds: int = 0
    template_hits: int = 0
    #: Serving family (see repro.serve): requests accepted off the wire,
    #: responses written back, typed error responses, batches dispatched to
    #: the worker pool, requests coalesced onto an already-in-flight
    #: identical solve, and canonical-fingerprint response-cache traffic.
    serve_requests: int = 0
    serve_responses: int = 0
    serve_errors: int = 0
    serve_batches: int = 0
    serve_coalesced: int = 0
    serve_cache_hits: int = 0
    serve_cache_misses: int = 0
    #: Overload-resilience family (see repro.serve.resilience): requests
    #: shed by admission control (typed ``overloaded`` envelope, no work
    #: performed), requests answered with ``deadline_exceeded``, times the
    #: connection read gate paused intake at the high watermark, circuit
    #: breaker trips into a degraded mode, half-open probe dispatches,
    #: cache-only fast-fails while a breaker brownout holds, and supervised
    #: cells abandoned because their propagated deadline budget expired.
    serve_shed: int = 0
    serve_deadline_exceeded: int = 0
    serve_read_pauses: int = 0
    breaker_trips: int = 0
    breaker_probes: int = 0
    breaker_fastfails: int = 0
    cell_deadline_expired: int = 0
    #: Crash-durability family (see repro.serve.durability): admissions
    #: appended to the write-ahead request journal, settle records
    #: appended for completed outcomes, unsettled admissions replayed
    #: through the solve path after a restart, response-cache snapshots
    #: written, and cache entries repopulated from a restored snapshot.
    serve_journal_admits: int = 0
    serve_journal_settles: int = 0
    serve_journal_replayed: int = 0
    serve_snapshot_saves: int = 0
    serve_snapshot_restored: int = 0
    #: Cross-instance warm reuse (see repro.core.incremental
    #: ``warm_decomposition``): hints discarded by the topology-fingerprint
    #: guard instead of reused against a churn-resized instance.
    warm_hint_invalidations: int = 0
    #: Simulator family (see repro.sim): epochs advanced, adversary
    #: best-response cells evaluated, churn events applied to the
    #: population, and empirical ratios observed above 2 + slack (each of
    #: which also files a corpus record).
    sim_epochs: int = 0
    sim_attacks: int = 0
    sim_churn_events: int = 0
    sim_zeta_violations: int = 0

    def snapshot(self) -> dict:
        """Plain-dict copy (stable keys; safe to serialize, diff, merge)."""
        return {name: getattr(self, name) for name in INT_COUNTER_FIELDS}

    def reset(self) -> None:
        for name in INT_COUNTER_FIELDS:
            setattr(self, name, 0)

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one (per-worker aggregation)."""
        self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot`-shaped dict into this counter set.

        This is the wire half of the snapshot/merge protocol: worker
        processes serialize deltas as plain dicts over their result queues
        (see :mod:`repro.obs.metrics`) and the parent folds them in here.
        Unknown keys are ignored so a newer worker snapshot never crashes
        an older parent.
        """
        for name in INT_COUNTER_FIELDS:
            if name in snap:
                setattr(self, name, getattr(self, name) + snap[name])
