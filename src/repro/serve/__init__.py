"""Allocation-as-a-service: the long-lived ``repro-serve`` daemon.

The CLI pipeline pays startup, validation, and decomposition on every
invocation; production traffic must not.  This package is the serving
layer on top of the existing substrate:

* :mod:`repro.serve.protocol` -- newline-delimited JSON over a local TCP
  socket; guard-validated request envelopes, typed error responses
  (malformed input answers with a structured error, never a dropped
  connection);
* :mod:`repro.serve.solver` -- the per-request solve semantics: every
  instance is normalized to its canonical representative
  (:func:`repro.graphs.canonical_form`), solved via
  :func:`repro.core.bottleneck_decomposition` +
  :func:`repro.core.bd_allocation`, and mapped back through the witnessing
  permutation, so isomorphic requests receive bit-identically mapped
  responses;
* :mod:`repro.serve.cache` -- the shared response cache keyed by the
  rotation/reflection-canonical ring fingerprint, so relabelled copies of
  one economy cost one solve;
* :mod:`repro.serve.server` -- the asyncio front-end: request coalescing,
  batch dispatch onto :func:`repro.runtime.supervised_map` (timeouts,
  retries, resource envelopes, fault injection all apply per request),
  shard-by-instance across worker processes, and ``repro.obs`` spans +
  counters end-to-end;
* :mod:`repro.serve.resilience` -- the overload semantics: bounded-intake
  admission control with typed load shedding, per-request deadline
  bookkeeping, and per-shard circuit breakers with a degraded-mode ladder
  (serial -> cache-only) and half-open probes;
* :mod:`repro.serve.client` -- the shipped clients: a plain blocking
  JSONL :class:`~repro.serve.client.Client` and the retry-safe
  :class:`~repro.serve.client.ResilientClient` (deadline-aware
  capped-exponential backoff with seeded jitter, ``retry_after_ms``
  honoring, transparent reconnect -- all safe because requests are
  idempotent under the canonical fingerprint);
* :mod:`repro.serve.load` -- the seeded heavy-tailed load generator and
  the one soak driver: a list of legs, each against a server of its own
  (in-thread with pipelined connections, or a supervised child SIGKILLed
  under resilient clients), one outcome classifier and one server-side
  check for all of them, and one ``repro-bench`` report.  ``repro-serve
  soak``, ``overload`` and ``durable`` are its presets
  (``BENCH_serve.json``, ``BENCH_overload.json``, ``BENCH_durable.json``);
* :mod:`repro.serve.durability` -- crash durability: the write-ahead
  request journal (admit before dispatch, settle on outcome, replay the
  unsettled tail on restart, compact against settles) and the bit-exact
  response-cache snapshot, both fingerprint-guarded and torn-tail
  tolerant via the shared :func:`repro.runtime.read_journal` discipline;
* :mod:`repro.serve.supervise` -- the watchdog parent behind
  ``repro-serve supervise``: ping-heartbeat liveness, SIGKILL-and-restart
  of wedged children with capped-exponential backoff, and a typed
  :class:`~repro.exceptions.CrashLoopError` give-up.
"""

from .cache import ResponseCache
from .client import Client, ResilientClient
from .durability import (
    DurabilityConfig,
    RequestJournal,
    durability_fingerprint,
    load_snapshot,
    save_snapshot,
)
from .load import Leg, LoadConfig, run_legs
from .protocol import (
    PROTOCOL_VERSION,
    deadline_exceeded_response,
    decode_request_line,
    encode_response,
    error_response,
    ok_response,
    overloaded_response,
)
from .resilience import (
    AdmissionController,
    BreakerConfig,
    Deadline,
    ShardBreaker,
)
from .server import AllocationServer, ServeConfig, ServeHandle, start_in_thread
from .solver import (
    canonical_request,
    deadline_marker,
    map_result,
    single_shot_response,
    solve_cell,
)
from .supervise import SuperviseConfig, Supervisor, serve_argv

__all__ = [
    "AdmissionController",
    "AllocationServer",
    "BreakerConfig",
    "Client",
    "Deadline",
    "DurabilityConfig",
    "Leg",
    "LoadConfig",
    "PROTOCOL_VERSION",
    "RequestJournal",
    "ResilientClient",
    "ResponseCache",
    "ServeConfig",
    "ServeHandle",
    "ShardBreaker",
    "SuperviseConfig",
    "Supervisor",
    "canonical_request",
    "durability_fingerprint",
    "deadline_exceeded_response",
    "deadline_marker",
    "decode_request_line",
    "encode_response",
    "error_response",
    "load_snapshot",
    "map_result",
    "ok_response",
    "overloaded_response",
    "run_legs",
    "save_snapshot",
    "serve_argv",
    "single_shot_response",
    "solve_cell",
    "start_in_thread",
]
