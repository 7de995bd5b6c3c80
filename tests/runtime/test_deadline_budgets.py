"""Deadline-budget propagation through :func:`repro.runtime.supervised_map`.

The serving layer flows each request's remaining ``deadline_ms`` into the
supervised map as a per-cell budget; these tests pin the contract at the
runtime boundary: budgets bound the whole recovery ladder (attempts,
backoffs, worker dispatch), an expired cell settles via ``on_deadline``
without failing its batch (or raises loudly without the hook), and
expirations count under ``cell_deadline_expired`` -- never as pool
failures.
"""

from __future__ import annotations

import pytest

from repro.engine import Counters
from repro.exceptions import DeadlineExceededError, InjectedFault
from repro.runtime import RuntimePolicy, supervised_map
from repro.runtime.supervisor import run_cell


def _square(x):
    return x * x


def _always_faults(x):
    raise InjectedFault(f"synthetic retryable failure for {x}")


def _marker(item):
    return ("expired", item)


# ---------------------------------------------------------------------------
# serial path
# ---------------------------------------------------------------------------


def test_serial_unbounded_budgets_are_inert():
    counters = Counters()
    out = supervised_map(_square, [1, 2, 3], processes=0,
                        counters=counters, budgets=[None, None, None],
                        on_deadline=_marker)
    assert out == [1, 4, 9]
    assert counters.cell_deadline_expired == 0


def test_serial_expired_budget_settles_via_hook():
    counters = Counters()
    out = supervised_map(_square, [1, 2, 3], processes=0,
                        counters=counters, budgets=[None, 0.0, None],
                        on_deadline=_marker)
    assert out == [1, ("expired", 2), 9]
    assert counters.cell_deadline_expired == 1


def test_serial_expired_budget_raises_without_hook():
    with pytest.raises(DeadlineExceededError):
        supervised_map(_square, [1, 2], processes=0, budgets=[0.0, None])


def test_budget_length_must_match_items():
    with pytest.raises(ValueError):
        supervised_map(_square, [1, 2, 3], processes=0, budgets=[1.0])


def test_budget_bounds_the_retry_backoff():
    """A budget the backoff would cross expires the cell instead of
    sleeping past the caller's deadline."""
    counters = Counters()
    policy = RuntimePolicy(retries=5, backoff_base=0.5)
    out = supervised_map(_always_faults, ["a"], processes=0, policy=policy,
                        counters=counters, budgets=[0.05],
                        on_deadline=_marker)
    assert out == [("expired", "a")]
    assert counters.cell_deadline_expired == 1
    # At most one attempt ran; the 0.5s backoff was never slept.
    assert counters.cell_retries <= 1


def test_run_cell_refuses_attempt_past_deadline():
    import time

    with pytest.raises(DeadlineExceededError):
        run_cell(_square, 2, 0, RuntimePolicy(), Counters(),
                 deadline=time.monotonic() - 1.0)


# ---------------------------------------------------------------------------
# parallel path
# ---------------------------------------------------------------------------


def test_parallel_expired_budget_settles_without_dispatch():
    counters = Counters()
    out = supervised_map(_square, [2, 3, 4], processes=1,
                        counters=counters, budgets=[None, 0.0, None],
                        on_deadline=_marker)
    assert out == [4, ("expired", 3), 16]
    assert counters.cell_deadline_expired == 1


def test_parallel_expiry_is_not_a_pool_failure():
    """Client budgets say nothing about shard health: an expired cell
    must not trigger degradation or count against the worker pool."""
    counters = Counters()
    out = supervised_map(_square, [1, 2], processes=1, counters=counters,
                        budgets=[0.0, 0.0], on_deadline=_marker)
    assert out == [("expired", 1), ("expired", 2)]
    assert counters.cell_deadline_expired == 2
    assert counters.worker_respawns == 0
    assert counters.cell_timeouts == 0


def test_parallel_expired_without_hook_raises():
    with pytest.raises(DeadlineExceededError):
        supervised_map(_square, [1, 2], processes=1, budgets=[0.0, None])
