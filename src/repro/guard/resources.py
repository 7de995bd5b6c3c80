"""Resource envelopes: per-worker rlimits and combinatorial size caps.

An adversarial (or merely degenerate) instance must cost one cell, not the
host.  Three envelopes; the first two are carried by
:class:`~repro.runtime.RuntimePolicy` and applied by the supervisor:

* **address space** (``RLIMIT_AS``) -- a worker whose cell balloons past
  ``max_memory_mb`` gets a ``MemoryError`` from the allocator, which the
  worker loop translates into a typed, retryable
  :class:`~repro.exceptions.ResourceExhaustedError` instead of being
  OOM-killed (taking the pool's shared queues with it);
* **CPU time** (``RLIMIT_CPU``) -- a runaway cell is SIGKILLed by the
  kernel at ``max_cpu_seconds`` of *CPU* time (wall-clock hangs are the
  supervisor ``timeout``'s job); the supervisor observes a dead worker and
  requeues the cell through the normal crash path;
* **enumeration size** -- the brute-force oracles refuse instances above
  the fixed :data:`DEFAULT_BRUTEFORCE_LIMIT` *before* entering a ``2^n``
  loop, so the cap holds even on the serial path where rlimits cannot be
  applied (limiting the supervisor's own process would take down the host
  run).

Rlimits are process-wide, so they are applied only inside worker
processes, never in the caller; a pooled worker re-applies its envelope
at the start of every map.
"""

from __future__ import annotations

import math
from typing import Optional

from ..exceptions import ResourceExhaustedError

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

__all__ = [
    "DEFAULT_BRUTEFORCE_LIMIT",
    "RLIMITS_AVAILABLE",
    "apply_rlimits",
    "envelope_from_policy",
    "check_bruteforce_size",
    "translate_resource_errors",
]

#: ``resource.setrlimit`` is available (POSIX); on other platforms the
#: memory/CPU envelopes are silently inert and only the size caps apply.
RLIMITS_AVAILABLE = _resource is not None

#: Cap on brute-force enumeration (``2^n`` subsets): matches the
#: historical ``_BRUTE_LIMIT`` of :mod:`repro.core.bruteforce`.
DEFAULT_BRUTEFORCE_LIMIT = 18


def apply_rlimits(
    max_memory_mb: Optional[float] = None,
    max_cpu_seconds: Optional[float] = None,
) -> list[str]:
    """Apply rlimits to *this* process; returns the limits actually set.

    Call only from a worker process that exists to run guarded cells.
    Only the soft limits move, so a pooled worker can apply a fresh
    envelope at the start of every map.  ``RLIMIT_CPU`` counts the
    process's lifetime CPU time, so the CPU budget is measured from now:
    the limit is the time already used, rounded up to a whole second,
    plus the budget.  Limits the platform refuses (or that ``resource``
    cannot express) are skipped rather than fatal: the typed-translation
    and size-cap layers still hold, just without kernel enforcement.
    """
    applied: list[str] = []
    if _resource is None:
        return applied
    if max_memory_mb is not None:
        limit = int(max_memory_mb * 1024 * 1024)
        if _set_soft_limit(_resource.RLIMIT_AS, limit):
            applied.append(f"RLIMIT_AS={limit}")
    if max_cpu_seconds is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        limit = (math.ceil(usage.ru_utime + usage.ru_stime)
                 + max(1, int(max_cpu_seconds)))
        # The kernel sends SIGXCPU at the soft limit, whose default action
        # terminates the worker; the supervisor sees a crash and requeues
        # the cell.
        if _set_soft_limit(_resource.RLIMIT_CPU, limit):
            applied.append(f"RLIMIT_CPU={limit}")
    return applied


def _set_soft_limit(which: int, limit: int) -> bool:
    try:
        _soft, hard = _resource.getrlimit(which)
        if hard != _resource.RLIM_INFINITY:
            limit = min(limit, hard)
        _resource.setrlimit(which, (limit, hard))
        return True
    except (ValueError, OSError):  # pragma: no cover - platform-dependent
        return False


def envelope_from_policy(policy) -> Optional[tuple]:
    """Picklable ``(max_memory_mb, max_cpu_seconds)`` for a worker, or
    ``None`` when the policy sets no envelope (zero overhead)."""
    mem = getattr(policy, "max_memory_mb", None)
    cpu = getattr(policy, "max_cpu_seconds", None)
    if mem is None and cpu is None:
        return None
    return (mem, cpu)


def check_bruteforce_size(n: int, what: str = "brute force") -> None:
    """Refuse a ``2^n`` enumeration above the cap -- typed."""
    if n > DEFAULT_BRUTEFORCE_LIMIT:
        raise ResourceExhaustedError(
            f"{what} over {n} vertices exceeds the size cap "
            f"{DEFAULT_BRUTEFORCE_LIMIT} (2^{n} subsets); use the "
            f"parametric path",
            resource="size",
        )


def translate_resource_errors(exc: BaseException) -> BaseException:
    """Map raw exhaustion signals onto the typed taxonomy.

    ``MemoryError`` (the allocator under ``RLIMIT_AS``, or genuine host
    pressure) and ``RecursionError`` (adversarial structure blowing the
    interpreter stack) become :class:`ResourceExhaustedError` so the
    supervisor's retry/escalate ladder applies; anything else is returned
    unchanged.
    """
    if isinstance(exc, MemoryError):
        return ResourceExhaustedError(
            "cell exhausted its memory envelope (MemoryError under "
            "RLIMIT_AS or host memory pressure)", resource="memory",
        )
    if isinstance(exc, RecursionError):
        return ResourceExhaustedError(
            "cell exhausted the interpreter stack (RecursionError)",
            resource="size",
        )
    return exc
