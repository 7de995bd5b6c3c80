"""Supervised map: order, timeouts, retries, respawn, escalation, degradation.

Worker functions live at module level so they pickle across the process
boundary; deterministic failures are driven by the fault injector (the
same machinery the chaos CI job uses), so every recovery path is exercised
reproducibly.
"""

import time

import pytest

from repro.engine import Counters
from repro.exceptions import (
    CellFailedError,
    ConvergenceError,
    EngineError,
    InjectedFault,
)
from repro.runtime import (
    RuntimePolicy,
    clear_injector,
    install_injector,
    parse_fault_spec,
    run_cell,
    supervised_map,
)
from repro.runtime.supervisor import _Supervisor


@pytest.fixture(autouse=True)
def _clean_global_injector():
    clear_injector()
    yield
    clear_injector()


def _square(x):
    return x * x


def _uneven_sleep(x):
    # Later items finish *earlier*: completion order inverts submission
    # order, which is exactly what the order-preservation contract absorbs.
    time.sleep(0.002 * (7 - x))
    return x * x


def _always_diverges(x):
    raise ConvergenceError("synthetic non-convergence", residual=1.0)


def _exact_twin(x):
    return ("exact", x)


def _type_error(x):
    raise TypeError("not retryable")


# -- policy ----------------------------------------------------------------

def test_inert_policy_is_not_supervised():
    assert not RuntimePolicy().supervised
    assert RuntimePolicy(retries=1).supervised
    assert RuntimePolicy(timeout=1.0).supervised
    assert RuntimePolicy(faults="cell:exc@0").supervised


def test_policy_validation():
    with pytest.raises(EngineError):
        RuntimePolicy(timeout=0.0)
    with pytest.raises(EngineError):
        RuntimePolicy(retries=-1)


def test_backoff_is_capped_exponential():
    p = RuntimePolicy(backoff_base=0.1, backoff_cap=0.35)
    assert p.backoff(0) == 0.0
    assert p.backoff(1) == pytest.approx(0.1)
    assert p.backoff(2) == pytest.approx(0.2)
    assert p.backoff(3) == pytest.approx(0.35)  # capped
    assert p.backoff(10) == pytest.approx(0.35)


# -- serial path -----------------------------------------------------------

def test_serial_matches_plain_map():
    items = list(range(10))
    assert supervised_map(_square, items) == [x * x for x in items]


def test_run_cell_retries_injected_fault_and_recovers():
    c = Counters()
    inj = install_injector(parse_fault_spec("cell:exc@3"), counters=c)
    policy = RuntimePolicy(retries=1, backoff_base=0.0)
    out = [run_cell(_square, x, i, policy, c, injector=inj)
           for i, x in enumerate(range(6))]
    assert out == [x * x for x in range(6)]
    assert c.cell_retries == 1 and c.injected_faults == 1


def test_run_cell_exhausted_retries_raise_cell_failed():
    c = Counters()
    inj = install_injector(parse_fault_spec("cell:exc@0"), counters=c)
    with pytest.raises(CellFailedError) as ei:
        run_cell(_square, 5, 0, RuntimePolicy(retries=0), c, injector=inj)
    assert ei.value.index == 0
    assert isinstance(ei.value.__cause__, InjectedFault)


def test_run_cell_non_retryable_propagates_unchanged():
    with pytest.raises(TypeError):
        run_cell(_type_error, 1, 0, RuntimePolicy(retries=5), Counters())


def test_run_cell_escalates_to_exact_twin():
    c = Counters()
    out = run_cell(_always_diverges, 9, 0, RuntimePolicy(retries=1, backoff_base=0.0),
                   c, escalate_fn=_exact_twin)
    assert out == ("exact", 9)
    assert c.precision_escalations == 1
    assert c.cell_retries == 1  # one plain retry happened before escalating


def test_run_cell_escalation_disabled_raises():
    with pytest.raises(CellFailedError):
        run_cell(_always_diverges, 9, 0,
                 RuntimePolicy(retries=0), Counters())


# -- parallel path ---------------------------------------------------------

def test_parallel_preserves_submission_order():
    items = list(range(8))
    policy = RuntimePolicy(timeout=30.0)
    out = supervised_map(_uneven_sleep, items, processes=4, policy=policy)
    assert out == [x * x for x in items]


def test_parallel_wakes_on_each_result():
    # The supervisor blocks on the worker's pipe and sentinel instead of
    # sleeping a fixed poll period per cell, so 20 trivial cells through
    # one worker take milliseconds (a 20 ms poll alone would be 0.4 s).
    start = time.monotonic()
    out = supervised_map(_square, list(range(20)), processes=1)
    elapsed = time.monotonic() - start
    assert out == [x * x for x in range(20)]
    assert elapsed < 0.2


def test_parallel_injected_cell_fault_recovers_bit_identically():
    items = list(range(10))
    baseline = supervised_map(_square, items)
    policy = RuntimePolicy(retries=2, backoff_base=0.0, faults="cell:exc@4")
    c = Counters()
    out = supervised_map(_square, items, processes=2, policy=policy, counters=c)
    assert out == baseline
    assert c.cell_retries >= 1


def test_parallel_worker_kill_respawns_and_recovers():
    items = list(range(8))
    policy = RuntimePolicy(timeout=30.0, retries=2, backoff_base=0.0,
                           faults="worker:kill@3")
    c = Counters()
    out = supervised_map(_square, items, processes=2, policy=policy, counters=c)
    assert out == [x * x for x in items]
    assert c.worker_respawns >= 1
    assert c.cell_retries >= 1


def test_parallel_hang_is_killed_and_retried():
    items = list(range(6))
    policy = RuntimePolicy(timeout=0.5, retries=1, backoff_base=0.0,
                           faults="cell:hang@2:60")
    c = Counters()
    t0 = time.monotonic()
    out = supervised_map(_square, items, processes=2, policy=policy, counters=c)
    assert out == [x * x for x in items]
    assert c.cell_timeouts >= 1
    assert time.monotonic() - t0 < 30.0  # nowhere near the 60s hang


def test_parallel_exhausted_retries_raise_cell_failed():
    policy = RuntimePolicy(retries=0, faults="cell:exc@1")
    with pytest.raises(CellFailedError) as ei:
        supervised_map(_square, list(range(4)), processes=2, policy=policy)
    assert ei.value.index == 1


def test_degrades_to_serial_when_no_worker_spawns(monkeypatch):
    sup = _Supervisor(_square, list(range(5)), processes=2,
                      policy=RuntimePolicy(retries=1), counters=Counters(),
                      escalate_fn=None, journal=None, key_fn=str)
    monkeypatch.setattr(sup, "_spawn_worker", lambda: None)
    assert sup.run() == [x * x for x in range(5)]
    assert sup._degraded


# -- journal integration ---------------------------------------------------

def test_serial_journal_records_and_replays(tmp_path):
    from repro.runtime import CheckpointJournal

    path = tmp_path / "cells.ckpt"
    items = [3, 1, 4, 1, 5]
    with CheckpointJournal.open(path, "fp") as j:
        first = supervised_map(_square, items, journal=j)
    calls = []

    def _tracked(x):
        calls.append(x)
        return x * x

    c = Counters()
    with CheckpointJournal.open(path, "fp") as j2:
        second = supervised_map(_tracked, items, counters=c, journal=j2)
    assert second == first
    assert calls == []  # every cell replayed from the journal
    assert c.checkpoint_hits == len(items)


def test_parallel_journal_resume_skips_done_cells(tmp_path):
    from repro.runtime import CheckpointJournal

    path = tmp_path / "cells.ckpt"
    items = list(range(8))
    policy = RuntimePolicy(timeout=30.0)
    with CheckpointJournal.open(path, "fp") as j:
        for idx in (0, 3, 7):  # a partial prior run
            j.record(str(idx), items[idx] * items[idx])
    c = Counters()
    with CheckpointJournal.open(path, "fp") as j2:
        out = supervised_map(_square, items, processes=2, policy=policy,
                             counters=c, journal=j2)
        assert len(j2) == len(items)  # the rest landed in the journal
    assert out == [x * x for x in items]
    assert c.checkpoint_hits == 3
