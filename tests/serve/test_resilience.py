"""Unit tests for :mod:`repro.serve.resilience`.

Everything here is pure bookkeeping over injected clocks -- ``now`` is
always a parameter -- so the full admission / deadline / breaker state
space is driven without a single sleep or socket.
"""

from __future__ import annotations

import pytest

from repro.serve.resilience import (
    MODE_CACHE_ONLY,
    MODE_NORMAL,
    MODE_SERIAL,
    AdmissionController,
    BreakerConfig,
    Deadline,
    ShardBreaker,
    earliest,
)


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_from_ms_and_remaining(self):
        d = Deadline.from_ms(100.0, 500.0)
        assert d.at == pytest.approx(100.5)
        assert d.remaining(100.0) == pytest.approx(0.5)
        assert d.remaining(100.6) == pytest.approx(-0.1)

    def test_expired(self):
        d = Deadline.from_ms(0.0, 1000.0)
        assert not d.expired(0.999)
        assert d.expired(1.0)
        assert d.expired(2.0)

    def test_earliest_prefers_tighter(self):
        a, b = Deadline(at=5.0), Deadline(at=3.0)
        assert earliest(a, b) is b
        assert earliest(b, a) is b

    def test_earliest_handles_none(self):
        d = Deadline(at=1.0)
        assert earliest(None, d) is d
        assert earliest(d, None) is d
        assert earliest(None, None) is None


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_sheds_exactly_at_cap(self):
        adm = AdmissionController(queue_cap=3, batch_max=2)
        for _ in range(3):
            assert not adm.would_shed()
            adm.admitted()
        assert adm.would_shed()
        adm.dequeued(1)
        assert not adm.would_shed()

    def test_peak_depth_gauge(self):
        adm = AdmissionController(queue_cap=10, batch_max=4)
        for _ in range(7):
            adm.admitted()
        adm.dequeued(5)
        adm.admitted()
        assert adm.depth == 3
        assert adm.peak_depth == 7

    def test_dequeue_never_goes_negative(self):
        adm = AdmissionController(queue_cap=4, batch_max=4)
        adm.admitted()
        adm.dequeued(10)
        assert adm.depth == 0

    def test_derived_watermarks(self):
        adm = AdmissionController(queue_cap=16, batch_max=4)
        assert adm.high_watermark == 8
        assert adm.low_watermark == 4

    def test_watermark_hysteresis(self):
        adm = AdmissionController(queue_cap=16, batch_max=4,
                                  high_watermark=8, low_watermark=4)
        for _ in range(7):
            adm.admitted()
        assert not adm.should_pause(False)  # 7 < high
        adm.admitted()
        assert adm.should_pause(False)      # 8 >= high: pause
        adm.dequeued(3)
        assert adm.should_pause(True)       # 5 > low: stay paused
        adm.dequeued(1)
        assert not adm.should_pause(True)   # 4 <= low: resume

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_cap=8, batch_max=4,
                                high_watermark=4, low_watermark=4)
        with pytest.raises(ValueError):
            AdmissionController(queue_cap=8, batch_max=4,
                                high_watermark=9, low_watermark=2)
        with pytest.raises(ValueError):
            AdmissionController(queue_cap=0, batch_max=4)

    def test_retry_hint_scales_with_backlog(self):
        adm = AdmissionController(queue_cap=64, batch_max=8)
        empty_hint = adm.retry_after_ms()
        for _ in range(32):
            adm.admitted()
        assert adm.retry_after_ms() > empty_hint

    def test_retry_hint_tracks_flush_ewma(self):
        adm = AdmissionController(queue_cap=8, batch_max=8)
        before = adm.retry_after_ms()
        for _ in range(20):
            adm.observe_flush(0.5)  # slow flushes
        assert adm.retry_after_ms() > before

    def test_retry_hint_clamped(self):
        adm = AdmissionController(queue_cap=8, batch_max=1)
        for _ in range(20):
            adm.observe_flush(3600.0)
        for _ in range(8):
            adm.admitted()
        assert adm.retry_after_ms() <= 30_000.0
        calm = AdmissionController(queue_cap=8, batch_max=8)
        assert calm.retry_after_ms() >= 1.0

    def test_stats_shape(self):
        adm = AdmissionController(queue_cap=8, batch_max=4)
        s = adm.stats()
        for key in ("depth", "peak_depth", "queue_cap", "high_watermark",
                    "low_watermark", "flush_ewma_ms", "retry_after_ms"):
            assert key in s


# ---------------------------------------------------------------------------
# circuit breaking
# ---------------------------------------------------------------------------


def _trip(breaker: ShardBreaker, now: float) -> None:
    """Feed ``threshold`` consecutive bad closed-state outcomes."""
    for _ in range(breaker.config.threshold):
        breaker.on_outcome(False, now)


class TestShardBreaker:
    def test_closed_by_default(self):
        b = ShardBreaker(0)
        assert b.state == ShardBreaker.CLOSED
        assert b.dispatch_mode(0.0) == (MODE_NORMAL, False)

    def test_trips_after_threshold(self):
        b = ShardBreaker(0, BreakerConfig(threshold=3, cooldown_base_s=1.0))
        assert not b.on_outcome(False, 0.0)
        assert not b.on_outcome(False, 0.0)
        assert b.on_outcome(False, 0.0)  # third consecutive: trip
        assert b.state == ShardBreaker.OPEN
        assert b.trips == 1

    def test_success_resets_consecutive_count(self):
        b = ShardBreaker(0, BreakerConfig(threshold=3))
        b.on_outcome(False, 0.0)
        b.on_outcome(False, 0.0)
        b.on_outcome(True, 0.0)
        assert not b.on_outcome(False, 0.0)
        assert b.state == ShardBreaker.CLOSED

    def test_degraded_ladder_by_trip_count(self):
        b = ShardBreaker(0, BreakerConfig(threshold=1, cooldown_base_s=1.0))
        b.on_outcome(False, 0.0)
        assert b.degraded_mode() == MODE_SERIAL
        b.on_outcome(False, b.open_until, probe=True)  # probe fails: deeper
        assert b.degraded_mode() == MODE_CACHE_ONLY
        b.on_outcome(False, b.open_until, probe=True)  # stays on last rung
        assert b.degraded_mode() == MODE_CACHE_ONLY

    def test_open_serves_degraded_until_cooldown(self):
        b = ShardBreaker(0, BreakerConfig(threshold=1, cooldown_base_s=2.0))
        b.on_outcome(False, 10.0)
        assert b.dispatch_mode(10.5) == (MODE_SERIAL, False)
        assert b.dispatch_mode(11.9) == (MODE_SERIAL, False)

    def test_half_open_single_probe(self):
        b = ShardBreaker(0, BreakerConfig(threshold=1, cooldown_base_s=1.0))
        b.on_outcome(False, 0.0)
        mode, probe = b.dispatch_mode(1.5)  # cooldown elapsed
        assert (mode, probe) == (MODE_NORMAL, True)
        # A concurrent dispatch while the probe is in flight stays degraded.
        assert b.dispatch_mode(1.5) == (MODE_SERIAL, False)

    def test_probe_success_closes_fully(self):
        b = ShardBreaker(0, BreakerConfig(threshold=1, cooldown_base_s=1.0))
        b.on_outcome(False, 0.0)
        b.on_outcome(False, b.open_until, probe=True)  # deeper: trips=2
        _mode, probe = b.dispatch_mode(b.open_until)
        assert probe
        b.on_outcome(True, b.open_until, probe=True)
        assert b.state == ShardBreaker.CLOSED
        assert b.trips == 0
        assert b.dispatch_mode(100.0) == (MODE_NORMAL, False)

    def test_probe_failure_doubles_cooldown(self):
        cfg = BreakerConfig(threshold=1, cooldown_base_s=1.0,
                            cooldown_cap_s=30.0)
        b = ShardBreaker(0, cfg)
        b.on_outcome(False, 0.0)
        first_window = b.open_until - 0.0
        t = b.open_until
        b.on_outcome(False, t, probe=True)
        assert b.open_until - t == pytest.approx(2.0 * first_window)

    def test_cooldown_capped(self):
        cfg = BreakerConfig(threshold=1, cooldown_base_s=1.0,
                            cooldown_cap_s=4.0)
        assert cfg.cooldown(1) == 1.0
        assert cfg.cooldown(3) == 4.0
        assert cfg.cooldown(10) == 4.0

    def test_degraded_outcomes_ignored(self):
        b = ShardBreaker(0, BreakerConfig(threshold=1, cooldown_base_s=5.0))
        b.on_outcome(False, 0.0)
        trips = b.trips
        # Degraded (non-probe) dispatches landing badly must not deepen.
        b.on_outcome(False, 1.0)
        b.on_outcome(True, 1.0)
        assert b.trips == trips
        assert b.state == ShardBreaker.OPEN

    def test_outcome_is_bad_classification(self):
        bad = ShardBreaker.outcome_is_bad
        assert bad(RuntimeError("boom"), {})
        assert bad(None, {"worker_respawns": 1})
        assert bad(None, {"cell_timeouts": 2})
        assert bad(None, {"precision_escalations": 1})
        assert not bad(None, {"serve_errors": 5})       # client-fault errors
        assert not bad(None, {"cell_deadline_expired": 3})  # client budgets
        assert not bad(None, {})

    def test_retry_after_reports_remaining_cooldown(self):
        b = ShardBreaker(0, BreakerConfig(threshold=1, cooldown_base_s=2.0))
        b.on_outcome(False, 10.0)
        assert b.retry_after_ms(11.0) == pytest.approx(1000.0)
        assert b.retry_after_ms(20.0) == 0.0

    def test_stats_shape(self):
        b = ShardBreaker(3, BreakerConfig(threshold=1))
        _trip(b, 0.0)
        s = b.stats(0.5)
        assert s["state"] == ShardBreaker.OPEN
        assert s["mode"] == MODE_SERIAL
        assert s["trips"] == 1
        assert s["cooldown_remaining_s"] > 0
