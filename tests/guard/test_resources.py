"""Resource envelopes: rlimits, the brute-force size guard, and the typed
degradation path.

The demo the acceptance criteria name lives here: a sweep whose workers
balloon memory under ``RuntimePolicy(max_memory_mb=...)`` degrades per
policy (typed retryable ``ResourceExhaustedError`` -> retry -> escalation)
and the final results are bit-identical to an unconstrained run.

Worker functions live at module level so they pickle across the process
boundary.
"""

import sys

import pytest

from repro.engine import Counters
from repro.exceptions import (
    CellFailedError,
    EngineError,
    ResourceExhaustedError,
    is_escalatable,
    is_retryable,
)
from repro.guard.resources import (
    DEFAULT_BRUTEFORCE_LIMIT,
    RLIMITS_AVAILABLE,
    apply_rlimits,
    check_bruteforce_size,
    envelope_from_policy,
    translate_resource_errors,
)
from repro.runtime import RuntimePolicy, supervised_map


def _square(x):
    return x * x


def _balloon_if_odd(x):
    # Odd items try to materialize ~2 GiB; even items are instant.  Under a
    # worker RLIMIT_AS this raises MemoryError inside the worker, which the
    # guard translates to the typed, retryable/escalatable error.
    if x % 2:
        chunk = bytearray(1 << 31)
        return x * x + (chunk[0] * 0)
    return x * x


def _exact_square(x):
    # The escalation twin: what the supervisor falls back to once retries
    # are exhausted.  Same value as the clean path, so bit-identity between
    # the degraded and unconstrained runs is a real assertion.
    return x * x


def _spin_forever(x):
    while True:
        pass


# -- policy fields ---------------------------------------------------------

def test_policy_validates_envelope_fields():
    with pytest.raises(EngineError):
        RuntimePolicy(max_memory_mb=0)
    with pytest.raises(EngineError):
        RuntimePolicy(max_memory_mb=-5.0)
    with pytest.raises(EngineError):
        RuntimePolicy(max_cpu_seconds=0)
    RuntimePolicy(max_memory_mb=256, max_cpu_seconds=10)


def test_envelope_fields_imply_supervision():
    assert RuntimePolicy(max_memory_mb=256).supervised
    assert RuntimePolicy(max_cpu_seconds=5).supervised


def test_envelope_from_policy():
    assert envelope_from_policy(RuntimePolicy()) is None
    env = envelope_from_policy(RuntimePolicy(max_memory_mb=64, max_cpu_seconds=2))
    assert env == (64, 2)


# -- typed taxonomy --------------------------------------------------------

def test_resource_exhausted_takes_the_recovery_ladder():
    exc = ResourceExhaustedError("out of headroom", resource="memory")
    assert is_retryable(exc)
    assert is_escalatable(exc)
    assert exc.resource == "memory"


def test_translate_resource_errors():
    out = translate_resource_errors(MemoryError("boom"))
    assert isinstance(out, ResourceExhaustedError)
    assert out.resource == "memory"
    out = translate_resource_errors(RecursionError("deep"))
    assert isinstance(out, ResourceExhaustedError)
    assert out.resource == "size"
    original = ValueError("unrelated")
    assert translate_resource_errors(original) is original


# -- brute-force size guard ------------------------------------------------

def test_bruteforce_guard_default_and_override():
    check_bruteforce_size(DEFAULT_BRUTEFORCE_LIMIT, what="test")
    with pytest.raises(ResourceExhaustedError) as ei:
        check_bruteforce_size(DEFAULT_BRUTEFORCE_LIMIT + 1, what="test")
    assert ei.value.resource == "size"


def test_bruteforce_oracle_respects_the_guard():
    from repro.core import brute_force_min_alpha
    from repro.graphs import ring

    # Refused before the 2^n loop starts, so this is cheap.
    with pytest.raises(ResourceExhaustedError):
        brute_force_min_alpha(ring([1] * (DEFAULT_BRUTEFORCE_LIMIT + 1)))
    assert brute_force_min_alpha(ring([1] * 8)) is not None


# -- rlimits in real workers -----------------------------------------------

needs_rlimits = pytest.mark.skipif(
    not RLIMITS_AVAILABLE or not sys.platform.startswith("linux"),
    reason="POSIX rlimits unavailable",
)


@needs_rlimits
def test_memory_envelope_degrades_bit_identically():
    """The acceptance-criteria demo: RLIMIT_AS workers exhaust memory on
    odd cells, the supervisor escalates those cells per policy, and the
    sweep's results are bit-identical to an unconstrained run."""
    items = list(range(6))
    clean = supervised_map(_square, items, processes=2,
                           policy=RuntimePolicy(retries=1))
    counters = Counters()
    guarded = supervised_map(
        _balloon_if_odd, items, processes=2,
        policy=RuntimePolicy(retries=1, max_memory_mb=768),
        counters=counters,
        escalate_fn=_exact_square,
    )
    assert guarded == clean
    assert counters.precision_escalations >= 1  # odd cells took the ladder


@needs_rlimits
def test_memory_envelope_without_escalation_fails_typed():
    with pytest.raises(CellFailedError) as ei:
        supervised_map(_balloon_if_odd, [1], processes=1,
                       policy=RuntimePolicy(max_memory_mb=768))
    cause = ei.value.__cause__
    assert cause is not None
    assert "ResourceExhaustedError" in type(cause).__name__ or \
        "ResourceExhaustedError" in getattr(cause, "type_name", "")


@needs_rlimits
def test_cpu_envelope_kills_spinning_worker():
    # RLIMIT_CPU fires SIGXCPU at ~1s of CPU; the dead worker surfaces as a
    # crash-kind failure and, with no retries, a typed CellFailedError.
    with pytest.raises(CellFailedError):
        supervised_map(_spin_forever, [0], processes=1,
                       policy=RuntimePolicy(max_cpu_seconds=1))


@needs_rlimits
def test_apply_rlimits_is_callable_with_none():
    # None fields are no-ops; calling in-process with None must not change
    # the host's limits.
    apply_rlimits(None, None)
