"""Fault-tolerant supervised execution for sweeps and experiments.

The runtime layer wraps the library's embarrassingly-parallel work units
(sweep cells, experiments) in a supervision loop that preserves the
bit-identical determinism contract while surviving the failures long runs
actually hit: hung solver iterations, OOM-killed workers, transient
numeric breakdown, and operator kills mid-sweep.

Five cooperating pieces:

* :class:`RuntimePolicy` (:mod:`repro.runtime.policy`) -- the frozen knob
  set (timeout, retries, backoff, fault spec, rlimits) that travels from
  the CLI onto ``EngineContext.runtime`` and down into the cell runner.
  The default policy is inert: nothing changes until a knob is turned.
* :func:`run_cells` (:mod:`repro.runtime.cells`) -- the one cell runner
  behind the sweep, the simulator and the server's shard dispatch: serial
  on the caller's context, or supervised on per-process worker contexts.
* :func:`supervised_map` (:mod:`repro.runtime.supervisor`) -- the
  order-preserving map that imposes per-cell wall-clock budgets, respawns
  dead workers, retries retryable failures with capped exponential
  backoff, escalates exhausted numeric failures to the exact backend, and
  degrades to serial in-process execution when the pool is unrecoverable.
  Its workers come from a :class:`WorkerPool`: a transient one per map, or
  one a caller keeps open across maps (the serving layer's shards).
  :func:`supervised_map_async` is its awaitable twin over a borrowed pool,
  the same state machine driven from an event loop.
* :class:`CheckpointJournal` (:mod:`repro.runtime.checkpoint`) -- the
  append-only, fsynced, bit-exact journal that lets a killed run resume
  without recomputing (or perturbing) completed cells.
* :class:`FaultInjector` (:mod:`repro.runtime.faults`) -- deterministic
  fault injection keyed by work indices and per-process flow counts, so
  every recovery path above is exercised reproducibly in tests and the
  chaos CI job.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointJournal,
    decode_value,
    encode_value,
    fingerprint_of,
    open_journal,
    read_journal,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    clear_injector,
    current_injector,
    fire_site,
    install_injector,
    parse_fault_spec,
)
from .policy import RuntimePolicy, resolve_policy
from .supervisor import (
    WorkerPool,
    run_cell,
    supervised_map,
    supervised_map_async,
)
from .cells import run_cells, spec_cell, spec_cell_exact, worker_context

__all__ = [
    "RuntimePolicy",
    "resolve_policy",
    "supervised_map",
    "supervised_map_async",
    "run_cell",
    "WorkerPool",
    "run_cells",
    "spec_cell",
    "spec_cell_exact",
    "worker_context",
    "CheckpointJournal",
    "open_journal",
    "encode_value",
    "decode_value",
    "fingerprint_of",
    "CHECKPOINT_FORMAT",
    "read_journal",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "parse_fault_spec",
    "install_injector",
    "clear_injector",
    "current_injector",
    "fire_site",
]
