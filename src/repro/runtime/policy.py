"""Runtime supervision policy: the knobs of fault-tolerant execution.

One frozen :class:`RuntimePolicy` travels from the CLI (``--timeout``,
``--retries``, ``--inject-faults``, ``--max-memory``, ``--max-cpu``) onto
the :class:`~repro.engine.EngineContext` (its loosely-typed ``runtime``
field) and down into :func:`repro.runtime.run_cells` and
:func:`repro.runtime.supervised_map`.  The default policy is deliberately
inert -- no timeout, no retries, no faults, no rlimits -- so call sites
that never configure one keep the pre-supervision behavior bit-for-bit.
Checkpoint journals are not a policy knob: callers pass their path as an
argument (``checkpoint=``), since one file serves one granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import EngineError

__all__ = ["RuntimePolicy", "resolve_policy"]


@dataclass(frozen=True)
class RuntimePolicy:
    """Configuration of the supervised execution layer.

    Parameters
    ----------
    timeout:
        Per-cell wall-clock budget in seconds; a worker that exceeds it is
        killed and the cell retried.  ``None`` disables timeouts.
    retries:
        How many times a retryable cell failure is re-run before the
        supervisor gives up -- or, for an escalatable failure
        (non-convergence, NaN/Inf instability, audit violation), re-runs
        the cell once through the map's ``escalate_fn``.
    backoff_base / backoff_cap:
        Capped exponential backoff between retries of the same cell:
        attempt ``k`` waits ``min(cap, base * 2**(k-1))`` seconds.
    faults:
        Deterministic fault-injection spec string (see
        :mod:`repro.runtime.faults`); ``None`` = no injection.
    max_memory_mb:
        Per-worker address-space envelope (``RLIMIT_AS``), in MiB.  A cell
        that balloons past it gets a typed, retryable
        :class:`~repro.exceptions.ResourceExhaustedError` from the worker
        instead of OOM-killing the pool.  ``None`` disables the envelope.
    max_cpu_seconds:
        Per-worker CPU-time envelope (``RLIMIT_CPU``), in seconds of CPU
        time (distinct from the wall-clock ``timeout``).  The kernel kills
        a worker that exceeds it; the supervisor requeues its cell through
        the crash/retry path.  ``None`` disables the envelope.
    """

    timeout: Optional[float] = None
    retries: int = 0
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    faults: Optional[str] = None
    max_memory_mb: Optional[float] = None
    max_cpu_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise EngineError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise EngineError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise EngineError("backoff parameters must be non-negative")
        if self.max_memory_mb is not None and self.max_memory_mb <= 0:
            raise EngineError(
                f"max_memory_mb must be positive, got {self.max_memory_mb}")
        if self.max_cpu_seconds is not None and self.max_cpu_seconds <= 0:
            raise EngineError(
                f"max_cpu_seconds must be positive, got {self.max_cpu_seconds}")

    @property
    def supervised(self) -> bool:
        """True when any knob differs from the inert default, i.e. even a
        serial run must route its cells through the supervisor."""
        return (
            self.timeout is not None
            or self.retries > 0
            or self.faults is not None
            or self.max_memory_mb is not None
            or self.max_cpu_seconds is not None
        )

    def backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 1)))


def resolve_policy(ctx, policy: Optional[RuntimePolicy] = None) -> RuntimePolicy:
    """The explicit ``policy``, else the context's, else the inert default."""
    if policy is not None:
        return policy
    attached = getattr(ctx, "runtime", None)
    if isinstance(attached, RuntimePolicy):
        return attached
    return RuntimePolicy()
