"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The subclasses map to the major
subsystems (graphs, flow, decomposition, allocation, attack search) so
tests can assert on the precise failure mode.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "InvalidWeightError",
    "MalformedInputError",
    "FlowError",
    "InfeasibleFlowError",
    "DecompositionError",
    "AllocationError",
    "ConvergenceError",
    "NumericalInstabilityError",
    "AttackError",
    "EngineError",
    "ExperimentError",
    "SimError",
    "AuditError",
    "CorpusError",
    "RuntimeSupervisionError",
    "ResourceExhaustedError",
    "InjectedFault",
    "WorkerTimeoutError",
    "WorkerCrashError",
    "RemoteCellError",
    "CellFailedError",
    "CheckpointError",
    "ServeError",
    "OverloadedError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "ShutdownTimeoutError",
    "ServeRequestError",
    "DurabilityError",
    "CrashLoopError",
    "is_retryable",
    "is_escalatable",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class GraphError(ReproError):
    """Malformed graph structure (bad vertex ids, duplicate edges, ...)."""


class InvalidWeightError(GraphError):
    """A vertex weight is negative, NaN, or otherwise unusable."""


class MalformedInputError(ReproError):
    """Untrusted input rejected at a serialization/ingestion boundary.

    Raised by :mod:`repro.guard.validate` and the :mod:`repro.io` loaders
    for inputs that are wrong *before* any graph exists: non-finite,
    negative, or non-numeric scalars, malformed ``"p/q"`` fraction strings
    (including zero denominators), JSON payloads of the wrong shape, and
    absurd sizes that would exhaust memory just being materialized.  Kept
    distinct from :class:`GraphError` (a structurally inconsistent graph)
    so callers can tell "the bytes were garbage" from "the graph was bad".
    """


class FlowError(ReproError):
    """A flow computation failed or produced an inconsistent result."""


class InfeasibleFlowError(FlowError):
    """A flow that theory guarantees to saturate did not saturate.

    Raised by the BD allocation when the max flow fails to saturate every
    source and sink edge of a bottleneck pair network -- with exact
    arithmetic this indicates the claimed set was not a bottleneck.
    """


class DecompositionError(ReproError):
    """The bottleneck decomposition could not be computed or verified."""


class AllocationError(ReproError):
    """The BD allocation violates feasibility (negative / over-budget)."""


class ConvergenceError(ReproError):
    """An iterative solve exceeded its iteration budget.

    Raised by the proportional response dynamics and the Dinkelbach
    parametric iteration.  Structured so the runtime supervisor can act on
    it: ``signature`` identifies the instance (a stable content hash,
    re-derivable from the graph), ``residual`` is the last observed
    convergence gap, and ``iterations`` the budget that was exhausted.
    The error is *retryable* and *escalatable* (see :func:`is_retryable` /
    :func:`is_escalatable`): a cell that fails to converge in floats is
    re-run under the exact ``Fraction`` backend.
    """

    def __init__(
        self,
        message: str,
        signature: str | None = None,
        residual: float | None = None,
        iterations: int | None = None,
    ) -> None:
        detail = message
        if signature is not None:
            detail += f" [instance {signature}]"
        if residual is not None:
            detail += f" (residual {residual:g})"
        super().__init__(detail)
        self.signature = signature
        self.residual = residual
        self.iterations = iterations


class NumericalInstabilityError(ReproError):
    """A NaN or infinity surfaced where the theory guarantees a finite value.

    The canonical producer is float overflow on extreme instances (weights
    near ``1e308`` overflow the parametric capacities ``lambda * w`` and the
    weight sums, so the decomposition silently computes ``alpha = nan`` --
    see ``corpus/decomposition-*`` for the witnessed class).  The engine
    raises this *typed* error at the flow boundary instead of letting the
    NaN propagate into results; the supervisor treats it as escalatable and
    retries the cell under exact arithmetic, where no overflow exists.
    """

    def __init__(self, message: str, signature: str | None = None) -> None:
        super().__init__(message if signature is None
                         else f"{message} [instance {signature}]")
        self.signature = signature


class AttackError(ReproError):
    """A Sybil attack / best-response computation was ill-posed."""


class EngineError(ReproError):
    """Engine misconfiguration (unknown solver name, bad context spec)."""


class ExperimentError(ReproError):
    """An experiment id is unknown or an experiment failed internally."""


class SimError(ReproError):
    """A population scenario is ill-posed or a simulation run failed.

    Raised by :mod:`repro.sim` for invalid scenario parameters (unknown
    strategy names, infeasible population bounds) and for runner-level
    misuse; attack/engine failures inside a simulation keep their own
    typed classes so the runtime supervisor's retry/escalation rules see
    them unchanged.
    """


class AuditError(ReproError):
    """An oracle audit caught a violated invariant or solver disagreement.

    Carries the path of the corpus record serialized for the failure (when
    a corpus is configured) so the message alone is enough to replay it.
    """

    def __init__(self, message: str, record_path: str | None = None) -> None:
        super().__init__(message if record_path is None
                         else f"{message} [corpus record: {record_path}]")
        self.record_path = record_path


class CorpusError(ReproError):
    """A failure-corpus record is missing, malformed, or unreplayable."""


# ---------------------------------------------------------------------------
# runtime supervision (see repro.runtime)
# ---------------------------------------------------------------------------

class RuntimeSupervisionError(ReproError):
    """Base class for the supervised-execution layer's own failures."""


class InjectedFault(RuntimeSupervisionError):
    """A deterministic fault fired by :mod:`repro.runtime.faults`.

    Only ever raised when fault injection is explicitly configured
    (``--inject-faults``); retryable so a supervised run recovers and
    produces output bit-identical to a fault-free run.
    """

    def __init__(self, message: str, site: str = "", rule: str = "") -> None:
        super().__init__(message)
        self.site = site
        self.rule = rule


class ResourceExhaustedError(RuntimeSupervisionError):
    """A cell hit its resource envelope (RLIMIT_AS / RLIMIT_CPU / size cap).

    Raised in three places: a worker whose allocation fails under the
    per-worker ``RLIMIT_AS`` envelope translates the resulting
    :class:`MemoryError` into this typed error; the brute-force oracles
    refuse instances above the configured enumeration cap before starting
    a ``2^n`` loop; and the serial guarded path translates in-process
    ``MemoryError``.  Retryable *and* escalatable, so a supervised sweep
    takes the standard recovery ladder -- backoff retry, then the
    escalation hook (which runs in the supervisor process, outside the
    envelope) -- instead of OOM-killing the pool.  ``resource`` names which
    envelope tripped (``"memory"``, ``"cpu"``, or ``"size"``).
    """

    def __init__(self, message: str, resource: str = "memory") -> None:
        super().__init__(message)
        self.resource = resource


class WorkerTimeoutError(RuntimeSupervisionError):
    """A cell exceeded its wall-clock budget and its worker was killed."""


class WorkerCrashError(RuntimeSupervisionError):
    """A worker process died (OOM kill, segfault, injected kill) mid-cell."""


class RemoteCellError(RuntimeSupervisionError):
    """A worker-side exception, reconstructed on the supervisor side.

    Worker exceptions cross the result queue as plain metadata (type name,
    message, retryability flags) rather than pickled objects, so a failure
    in *any* exception type -- including ones that do not pickle -- is
    reported faithfully.
    """

    def __init__(self, type_name: str, message: str,
                 retryable: bool, escalatable: bool) -> None:
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.retryable = retryable
        self.escalatable = escalatable


class CellFailedError(RuntimeSupervisionError):
    """A cell failed permanently: retries (and escalation) exhausted."""

    def __init__(self, index: int, cause: Exception) -> None:
        super().__init__(f"cell {index} failed after retries: "
                         f"{type(cause).__name__}: {cause}")
        self.index = index
        self.cause = cause


class CheckpointError(RuntimeSupervisionError):
    """A checkpoint journal is unreadable or belongs to a different sweep."""


# ---------------------------------------------------------------------------
# serving overload semantics (see repro.serve.resilience)
# ---------------------------------------------------------------------------

class ServeError(ReproError):
    """Base class for the serving layer's overload/lifecycle failures."""


class OverloadedError(ServeError):
    """A request was shed by admission control: the intake queue is full.

    Carries ``retry_after_ms``, the server's estimate of when capacity
    frees up (derived from the flush-duration EWMA and the backlog depth).
    Shedding is a *typed response on a live connection* -- never a dropped
    socket -- and the request performed no work, so a client retry after
    the hint is safe and idempotent by the canonical-fingerprint contract.
    Deliberately **not** supervisor-retryable: the retry decision belongs
    to the client (which knows its deadline), not the worker ladder.
    """

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class DeadlineExceededError(ServeError):
    """A request's ``deadline_ms`` budget expired before a result landed.

    Raised server-side when the propagated deadline runs out anywhere in
    the ladder (queue wait, supervised solve incl. retries) and
    client-side by :class:`repro.serve.client.ResilientClient` when the
    overall budget is exhausted across retries.  Not retryable: by
    construction there is no time left to retry in.
    """


class CircuitOpenError(ServeError):
    """A shard's circuit breaker is in cache-only brownout; the miss was
    fast-failed without solving.  ``retry_after_ms`` reports the remaining
    cooldown of the breaker's current open window."""

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ShutdownTimeoutError(ServeError):
    """A graceful server stop did not complete within its timeout.

    Raised by :meth:`repro.serve.ServeHandle.stop` when the server thread
    fails to join -- a hung shutdown used to return silently and leak the
    thread; now the caller (tests, CI, the CLI) sees it loudly.
    """


class DurabilityError(ServeError):
    """The crash-durability state (request journal / cache snapshot) is
    unusable: mid-file corruption, a foreign structure fingerprint, or an
    unwritable configured path.

    Torn *tail* lines are never this error -- they are the write in
    flight at kill time and recovery truncates them silently, exactly
    like :class:`CheckpointError` recovery in sweep journals.  This error
    means the bytes on disk cannot be trusted past the torn-tail model,
    and the durable server must fast-fail (or cold-start, where the
    config says recovery is preferred) rather than serve stale state.
    """


class CrashLoopError(ServeError):
    """The ``repro-serve supervise`` watchdog gave up restarting.

    Raised after ``max_crash_loops`` consecutive child deaths (exit or
    missed-heartbeat hang) without an intervening healthy period -- a
    daemon that cannot stay up is a configuration or environment problem
    a restart loop will never fix, and looping forever hides it.  Carries
    ``restarts`` (total respawns performed) and ``last_exit`` (the final
    child's exit code, or ``None`` when it was killed for a hang).
    """

    def __init__(self, message: str, restarts: int = 0,
                 last_exit: int | None = None) -> None:
        super().__init__(message)
        self.restarts = restarts
        self.last_exit = last_exit


class ServeRequestError(ServeError):
    """A typed error envelope received by a serve *client*, rehydrated.

    The wire carries ``error.type``/``error.message`` rather than pickled
    exceptions (mirroring :class:`RemoteCellError` at the worker boundary);
    the resilient client raises this for terminal non-retryable envelopes
    so callers can dispatch on ``type_name``.
    """

    def __init__(self, type_name: str, message: str) -> None:
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name


#: Exception types a supervised retry can plausibly fix: injected faults
#: and infrastructure failures (timeout, crash) are transient by
#: construction; the numeric family is deterministic but *escalatable*.
_RETRYABLE = (
    ConvergenceError,
    NumericalInstabilityError,
    AuditError,
    InjectedFault,
    WorkerTimeoutError,
    WorkerCrashError,
    ResourceExhaustedError,
)

#: The subset of retryable failures where a plain retry cannot help but a
#: precision escalation (exact ``Fraction`` backend) can: the failure is a
#: deterministic artifact of float arithmetic or a violated invariant.
_ESCALATABLE = (
    ConvergenceError,
    NumericalInstabilityError,
    AuditError,
    # The escalation hook runs in the supervisor process with no rlimit
    # envelope, so a cell that blew its worker's memory/CPU budget gets one
    # unconstrained rerun before the sweep gives up on it.
    ResourceExhaustedError,
)


def is_retryable(exc: BaseException) -> bool:
    """True when the supervisor should re-run the failed cell."""
    if isinstance(exc, RemoteCellError):
        return exc.retryable
    return isinstance(exc, _RETRYABLE)


def is_escalatable(exc: BaseException) -> bool:
    """True when the failed cell should be re-run under exact arithmetic."""
    if isinstance(exc, RemoteCellError):
        return exc.escalatable
    return isinstance(exc, _ESCALATABLE)
