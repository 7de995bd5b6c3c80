"""Overload semantics for the serving layer: shed, bound, time out, degrade.

PR 7's daemon worked on the sunny path only: the intake queue was
unbounded, requests carried no deadline, and a sick shard degraded every
flush forever.  This module holds the three mechanisms that make the
front-end production-shaped, each deliberately tiny and event-loop-local
(no locks -- every mutation happens on the server's loop thread):

* **admission control** (:class:`AdmissionController`) -- a bounded
  intake queue with explicit load shedding.  A request that would push
  the queue past ``queue_cap`` is answered with a typed ``overloaded``
  envelope carrying a ``retry_after_ms`` hint (never a dropped socket,
  never an unbounded queue), where the hint is the flush-duration EWMA
  scaled by the backlog in flushes.  Below the cap, a high/low-watermark
  *read gate* additionally pauses connection reads for backpressure --
  TCP receive windows fill and well-behaved clients slow down before any
  shedding starts;
* **deadline bookkeeping** (:class:`Deadline`) -- the per-request
  ``deadline_ms`` budget as an absolute event-loop timestamp, flowed
  request -> coalesced cell (earliest waiter wins) -> ``supervised_map``
  per-cell budget;
* **circuit breaking** (:class:`ShardBreaker`) -- per-shard health from
  dispatch outcomes (supervisor-level failures, worker kills, cell
  timeouts, precision escalations).  ``threshold`` consecutive bad
  dispatches trip the breaker into a two-rung *degraded mode ladder* --
  first trip: serial-guarded in-process solving (no worker process to
  kill; ``policy.timeout`` and deadlines are enforced only between
  attempts); second and later: cache-only brownout (front-end cache hits
  still serve, misses fast-fail with a typed ``CircuitOpenError``).
  Each open window lasts a capped-exponential cooldown, after which
  exactly one *half-open probe* dispatch runs in normal mode: a clean
  probe closes the breaker, a bad one re-trips it one rung further down
  the ladder with a doubled cooldown.

Everything here is pure bookkeeping over injected clocks (``now`` is
always a parameter), so the unit tests drive the full state space without
sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "AdmissionController",
    "BreakerConfig",
    "Deadline",
    "earliest",
    "MODE_CACHE_ONLY",
    "MODE_NORMAL",
    "MODE_SERIAL",
    "ShardBreaker",
]

#: Dispatch modes, healthiest first.  ``normal`` is the supervised worker
#: pool; the other two are the breaker's degraded ladder in order.
MODE_NORMAL = "normal"
MODE_SERIAL = "serial"
MODE_CACHE_ONLY = "cache_only"

#: Ladder position by trip count (1-based; deeper trips stay cache-only).
_LADDER = (MODE_SERIAL, MODE_CACHE_ONLY)


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------

@dataclass
class Deadline:
    """One request's absolute deadline on the event-loop clock.

    ``at`` is a ``loop.time()`` timestamp (CLOCK_MONOTONIC on CPython/
    Linux, i.e. directly comparable with ``time.monotonic()`` in executor
    threads -- which is what lets the budget flow into
    :func:`repro.runtime.supervised_map` unconverted).
    """

    at: float

    @classmethod
    def from_ms(cls, now: float, deadline_ms: float) -> "Deadline":
        return cls(at=now + deadline_ms / 1000.0)

    def remaining(self, now: float) -> float:
        """Seconds left; negative once expired."""
        return self.at - now

    def expired(self, now: float) -> bool:
        return now >= self.at


def earliest(a: Optional[Deadline], b: Optional[Deadline]) -> Optional[Deadline]:
    """The tighter of two optional deadlines (coalesced cells honor the
    earliest deadline among their waiters)."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a.at <= b.at else b


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class AdmissionController:
    """Bounded-intake bookkeeping: shed decisions, watermarks, retry hints.

    Tracks the number of *queued* cells (enqueued, not yet picked up by a
    flush) against ``queue_cap``, plus a peak-depth gauge the overload
    soak asserts against ("memory bounded: the intake queue never exceeds
    its configured cap").  The ``retry_after_ms`` hint is an EWMA of
    recent flush wall times scaled by the backlog measured in flushes --
    honest enough that a client sleeping the hint usually finds room, and
    cheap enough to compute on every shed.

    The read gate is the backpressure half: above ``high_watermark`` the
    server stops reading from connections (``should_pause``), below
    ``low_watermark`` it resumes.  Hysteresis (high > low) keeps the gate
    from flapping once per request at the boundary.
    """

    def __init__(self, queue_cap: int, batch_max: int,
                 high_watermark: Optional[int] = None,
                 low_watermark: Optional[int] = None) -> None:
        if queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1, got {queue_cap}")
        self.queue_cap = int(queue_cap)
        self.batch_max = max(1, int(batch_max))
        self.high_watermark = (int(high_watermark) if high_watermark is not None
                               else max(1, self.queue_cap // 2))
        self.low_watermark = (int(low_watermark) if low_watermark is not None
                              else max(0, self.high_watermark // 2))
        if not 0 <= self.low_watermark < self.high_watermark <= self.queue_cap:
            raise ValueError(
                f"watermarks must satisfy 0 <= low < high <= cap, got "
                f"low={self.low_watermark} high={self.high_watermark} "
                f"cap={self.queue_cap}")
        self.depth = 0
        self.peak_depth = 0
        #: EWMA of flush wall seconds; seeded at 1 ms so the first hints
        #: are sane before any flush has completed.
        self._flush_ewma_s = 0.001

    # -- queue accounting --------------------------------------------------

    def would_shed(self) -> bool:
        return self.depth >= self.queue_cap

    def admitted(self) -> None:
        self.depth += 1
        if self.depth > self.peak_depth:
            self.peak_depth = self.depth

    def dequeued(self, n: int = 1) -> None:
        self.depth = max(0, self.depth - n)

    def observe_flush(self, wall_s: float) -> None:
        """Fold one flush's wall time into the EWMA (alpha = 0.3)."""
        if wall_s > 0:
            self._flush_ewma_s += 0.3 * (wall_s - self._flush_ewma_s)

    def retry_after_ms(self) -> float:
        """Backlog-scaled hint: (queued flushes ahead + 1) * flush EWMA."""
        flushes_ahead = self.depth / self.batch_max + 1.0
        hint = flushes_ahead * self._flush_ewma_s * 1000.0
        return min(max(hint, 1.0), 30_000.0)

    # -- read gate ---------------------------------------------------------

    def should_pause(self, reading_paused: bool) -> bool:
        """Next state of the read gate given the current one (hysteresis)."""
        if reading_paused:
            return self.depth > self.low_watermark
        return self.depth >= self.high_watermark

    def stats(self) -> dict:
        return {
            "depth": self.depth,
            "peak_depth": self.peak_depth,
            "queue_cap": self.queue_cap,
            "high_watermark": self.high_watermark,
            "low_watermark": self.low_watermark,
            "flush_ewma_ms": self._flush_ewma_s * 1000.0,
            "retry_after_ms": self.retry_after_ms(),
        }


# ---------------------------------------------------------------------------
# circuit breaking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BreakerConfig:
    """Knobs of one shard's circuit breaker.

    ``threshold`` consecutive bad dispatches trip it; open windows last
    ``min(cooldown_cap_s, cooldown_base_s * 2**(trips-1))`` seconds --
    capped exponential, so a persistently sick shard settles into probing
    every ``cooldown_cap_s`` instead of hammering itself.
    """

    threshold: int = 3
    cooldown_base_s: float = 1.0
    cooldown_cap_s: float = 30.0

    def cooldown(self, trips: int) -> float:
        return min(self.cooldown_cap_s,
                   self.cooldown_base_s * (2.0 ** max(0, trips - 1)))


class ShardBreaker:
    """Per-shard health and the closed -> open -> half-open state machine.

    All transitions happen in two entry points, both called on the event
    loop: :meth:`dispatch_mode` (read + the open->half-open edge) before a
    flush dispatches, and :meth:`on_outcome` (the closing/re-tripping
    edges) after its outcome lands.  A dispatch is *bad* when the shard's
    supervised map failed outright or its counters show worker kills,
    cell timeouts, or precision escalations -- the "shard is sick"
    signals, as opposed to per-request typed errors (a malformed economy
    is the client's fault) or deadline expirations (the client's budget,
    not the shard's health).
    """

    #: States (``state`` attribute): healthy, tripped, probing.
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, sid: int, config: Optional[BreakerConfig] = None) -> None:
        self.sid = sid
        self.config = config if config is not None else BreakerConfig()
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self.open_until = 0.0
        self.probes = 0
        self.last_failure: Optional[str] = None

    # -- reading -----------------------------------------------------------

    def degraded_mode(self) -> str:
        """The ladder rung for the current trip count (>= 1 trips)."""
        return _LADDER[min(self.trips, len(_LADDER)) - 1]

    def dispatch_mode(self, now: float) -> tuple[str, bool]:
        """``(mode, is_probe)`` for a dispatch starting at ``now``.

        While open and cooling down, returns the degraded rung.  Once the
        cooldown has elapsed, exactly one dispatch becomes the half-open
        probe (normal mode); concurrent dispatches while the probe is in
        flight stay degraded, so a bad shard never sees two probes at
        once.
        """
        if self.state == self.CLOSED:
            return MODE_NORMAL, False
        if self.state == self.OPEN and now >= self.open_until:
            self.state = self.HALF_OPEN
            self.probes += 1
            return MODE_NORMAL, True
        return self.degraded_mode(), False

    def retry_after_ms(self, now: float) -> float:
        """Remaining cooldown (for cache-only fast-fail envelopes)."""
        return max(0.0, (self.open_until - now) * 1000.0)

    # -- transitions -------------------------------------------------------

    def _trip(self, now: float) -> None:
        self.trips += 1
        self.state = self.OPEN
        self.open_until = now + self.config.cooldown(self.trips)
        self.consecutive_failures = 0

    def on_outcome(self, ok: bool, now: float, probe: bool = False,
                   detail: Optional[str] = None) -> bool:
        """Feed one dispatch outcome; returns True when a trip occurred.

        Degraded (non-probe) dispatch outcomes are ignored for state: a
        serial dispatch succeeding proves nothing about the worker pool's
        health, and failing in brownout must not deepen the hole before
        the probe gets its chance.
        """
        if not ok:
            self.last_failure = detail
        if probe:
            # The half-open probe decides: close fully or re-trip deeper.
            if ok:
                self.state = self.CLOSED
                self.trips = 0
                self.consecutive_failures = 0
                return False
            self._trip(now)
            return True
        if self.state != self.CLOSED:
            return False
        if ok:
            self.consecutive_failures = 0
            return False
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.config.threshold:
            self._trip(now)
            return True
        return False

    @staticmethod
    def outcome_is_bad(error: Optional[BaseException], snapshot: dict) -> bool:
        """Classify one shard dispatch from its error + counters delta."""
        return (error is not None
                or snapshot.get("worker_respawns", 0) > 0
                or snapshot.get("cell_timeouts", 0) > 0
                or snapshot.get("precision_escalations", 0) > 0)

    def stats(self, now: float) -> dict:
        return {
            "state": self.state,
            "mode": (MODE_NORMAL if self.state == self.CLOSED
                     else self.degraded_mode()),
            "trips": self.trips,
            "consecutive_failures": self.consecutive_failures,
            "probes": self.probes,
            "cooldown_remaining_s": max(0.0, self.open_until - now),
            "last_failure": self.last_failure,
        }
