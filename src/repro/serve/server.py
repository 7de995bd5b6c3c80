"""The asyncio serving front-end: accept, coalesce, shard, batch, respond.

One :class:`AllocationServer` owns a local TCP listener, a response cache,
and one dispatch lane per shard.  The life of a solve request::

    accept --> decode + key --> cache? --> coalesce? --> shard by sha256(key)
                                   |           |                |
                                  hit       in-flight    [lane of the shard]
                                   |           |      once its last map lands:
                                   v           v      first cell + what queued
                                respond <-- future <-- behind it (<= batch_max)
                                                                |
                                   supervised_map_async on the shard's worker
                                   pool, awaited on the loop (timeouts/retries/
                                   escalation/faults)

Design points, each load-bearing:

* **One intake pass.**  The guard pass (each weight decoded once) and the
  canonical key happen once per request on the event loop (instances are
  small); a cache hit then only maps the cached result back, and the
  canonical graph and payload are built only for a new cell.  Everything
  downstream -- cache, coalescing, sharding, workers -- keys and operates
  on the canonical representative only, so two relabellings of one
  economy are indistinguishable past this point.
* **Coalesce by canonical key.**  Identical in-flight instances share one
  future and one worker cell.  Disabled together with the cache when
  ``cache_size=0``: coalescing makes solve counts depend on arrival
  timing, and the ``cache_size=0`` contract is that counter totals are a
  pure function of the request stream.
* **One lane per shard, persistent shard workers.**  Admission routes each
  unique instance to its shard's lane by ``sha256(key) % shards``.  A lane
  whose previous map has landed takes its first cell at once, plus
  whatever queued behind it (up to ``batch_max``), and awaits one
  :func:`repro.runtime.supervised_map_async` (the full
  timeout/retry/escalate/fault ladder) on the event loop: the worker's
  result pipe and sentinel are loop readers, so a miss crosses no thread.
  Only what solves in this process leaves the loop for the executor: an
  escalation to the exact backend, serial degradation, the breaker's
  serial rung, and ``shards=0``.  A lane settles only its own
  cells.  No window holds a miss to grow a batch: batches
  form only while the lane is busy, and a miss on an idle shard never
  waits on another shard's solve.  Every shard owns a one-worker
  :class:`~repro.runtime.WorkerPool`, started with the server and stopped
  at shutdown, and each map borrows it: every cell, a lone one included,
  solves in that long-lived worker, which the map re-arms as if freshly
  forked and the supervisor kills and replaces when it dies, hangs or
  exhausts its envelope -- idle between maps included.  Admission
  control bounds what can accumulate behind a busy lane.
* **Overload semantics** (:mod:`repro.serve.resilience`).  The intake
  queue is bounded (``queue_cap``): a request that would overflow it is
  *shed* with a typed ``overloaded`` envelope carrying a
  ``retry_after_ms`` hint -- never a dropped socket, never unbounded
  memory.  Below the cap, a high/low-watermark read gate pauses
  connection reads for backpressure.  Each request may carry a
  ``deadline_ms`` budget that flows into the coalesced cell (earliest
  waiter wins) and becomes the supervised map's per-cell budget; a
  request whose budget expires anywhere on that path gets a typed
  ``deadline_exceeded`` envelope.  Per-shard circuit breakers watch
  dispatch outcomes and brown out a sick shard through the serial ->
  cache-only ladder with capped-exponential half-open probes.
  Every request therefore terminates in exactly one typed envelope:
  result, overloaded, deadline_exceeded, or error.
* **Metrics merge on the event loop.**  Each shard dispatch gets its own
  :class:`~repro.engine.counters.Counters` and tracer; snapshots are merged
  into the server context only on the event loop thread, so concurrent
  shards never race on the shared counters (the process-global drain marks
  are additionally lock-guarded in :mod:`repro.obs.metrics`).  Each
  dispatched cell also leaves its latency split -- queued, handed off
  between lane and map, inside the map, solving in the worker, and
  responding -- in ``stats()``'s ``cell_phases_ms`` over the last
  :data:`PHASE_WINDOW` cells.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import hashlib
import os
import threading
import time as _time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

from ..engine import Counters, EngineContext, EngineSpec
from ..exceptions import DurabilityError, ReproError, ShutdownTimeoutError
from ..obs.tracer import Tracer
from ..runtime import (
    RuntimePolicy,
    WorkerPool,
    supervised_map,
    supervised_map_async,
)

# Imported for its side effect: forked shard workers resolve
# repro.analysis.parallel._context_for on their first cell, and loading it
# *before* any fork keeps children out of the import machinery (a child
# forked while another thread holds an import lock would deadlock there).
from ..analysis import parallel as _parallel  # noqa: F401
from .cache import ResponseCache
from .durability import (
    DurabilityConfig,
    RequestJournal,
    durability_fingerprint,
    load_snapshot,
    save_snapshot,
)
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
    MODE_CACHE_ONLY,
    MODE_SERIAL,
    AdmissionController,
    BreakerConfig,
    Deadline,
    ShardBreaker,
    earliest,
)
from .solver import (
    canonical_dict,
    deadline_marker,
    decode_request,
    map_result,
    solve_cell,
    solve_cell_exact,
)

__all__ = ["AllocationServer", "ServeConfig", "ServeHandle", "start_in_thread"]

#: Ceiling on one request line; a graph payload is ~60 bytes/vertex, so
#: this admits rings far beyond anything the solvers handle interactively
#: while keeping a garbage client from ballooning the reader buffer.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: How many recently dispatched cells ``stats()["cell_phases_ms"]`` covers.
PHASE_WINDOW = 1024
#: A dispatched cell's latency phases, in the order they happen; ``solve``
#: is the worker's own time inside ``map``.
_PHASES = ("queue", "handoff", "map", "solve", "respond")


def _percentile(ordered: list, q: float) -> float:
    """Linearly interpolated ``q``-th percentile of an ascending list
    (numpy's default method; 0.0 for an empty list).  Plain Python,
    because the first ``numpy.percentile`` call raised the server
    process's peak RSS by about 2 MB."""
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def shard_of(key: bytes, shards: int) -> int:
    """The shard (and so the lane) that serves canonical ``key``."""
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:4], "little") % max(shards, 1)


@dataclass(frozen=True)
class ServeConfig:
    """Everything an :class:`AllocationServer` needs, in one frozen value.

    ``cache_size`` governs *every* caching layer at once: the front-end
    response cache, request coalescing, and (via ``spec.with_cache``) the
    per-worker decomposition cache -- ``0`` means counter totals are
    exactly reproducible for a given request stream, independent of
    sharding and timing.  ``shards`` is the number of worker processes:
    one long-lived worker and one dispatch lane per shard, started with
    the server.  ``shards=0`` keeps one lane but solves in-process on the
    serial supervised path (no worker processes; same retry/escalation
    ladder) -- the debugging mode.  ``batch_max`` caps how many queued
    cells a lane takes into one map; a lane never waits for more.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is on the handle
    spec: EngineSpec = field(default_factory=EngineSpec)
    shards: int = 2
    batch_max: int = 16
    cache_size: int = 1024
    policy: Optional[RuntimePolicy] = None
    faults: Optional[str] = None
    #: Admission control: hard cap on queued (accepted, not yet flushed)
    #: cells -- beyond it new work is shed with a typed ``overloaded``
    #: envelope.  The read-gate watermarks that pause connection reads
    #: first derive from it (high = cap/2, low = high/2).
    queue_cap: int = 256
    #: Per-request deadline applied when the request carries none
    #: (``None`` = unbounded, the historical behavior).
    default_deadline_ms: Optional[float] = None
    #: Circuit breaker: consecutive bad shard dispatches before tripping,
    #: and the capped-exponential open-window cooldown.
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1.0
    breaker_cooldown_cap_s: float = 30.0
    #: Crash durability (:mod:`repro.serve.durability`): ``None`` keeps the
    #: historical in-memory-only behavior; a :class:`DurabilityConfig`
    #: write-ahead-journals every admission, snapshots the response cache,
    #: and replays unsettled work on restart.
    durability: Optional[DurabilityConfig] = None

    def effective_spec(self) -> EngineSpec:
        return self.spec.with_cache(self.cache_size)

    def breaker_config(self) -> BreakerConfig:
        return BreakerConfig(
            threshold=self.breaker_threshold,
            cooldown_base_s=self.breaker_cooldown_s,
            cooldown_cap_s=self.breaker_cooldown_cap_s,
        )

    def effective_policy(self) -> RuntimePolicy:
        policy = self.policy if self.policy is not None else RuntimePolicy()
        if self.faults is not None:
            policy = replace(policy, faults=self.faults)
        return policy


class _Cell:
    """One queued unit of worker work: a unique canonical instance.

    ``deadline`` is the earliest deadline among the cell's waiters; a
    coalescer arriving while the cell is still queued tightens it
    (``dispatched`` gates that -- once a lane holds the cell, its budget
    is frozen, and late coalescers are bounded by their own response-side
    ``wait_for`` instead).

    ``seq`` is the cell's write-ahead-journal admission sequence (``None``
    when durability is off): cells -- not requests -- are the journaled
    unit, so a coalesced waiter rides its cell's admission and a settle
    record fires exactly once per cell when its future resolves.

    ``admitted`` is the monotonic admission time, where the cell's
    ``queue`` phase starts.  Once a lane settles the cell, ``phases`` is
    its row in the server's phase window and ``settled`` the settle time;
    the first response written for the cell fills in ``respond``.
    """

    __slots__ = ("key", "canon_dict", "future", "deadline", "dispatched",
                 "seq", "admitted", "phases", "settled")

    def __init__(self, key: bytes, canon_dict: dict, future: asyncio.Future,
                 deadline: Optional[Deadline] = None,
                 seq: Optional[int] = None) -> None:
        self.key = key
        self.canon_dict = canon_dict
        self.future = future
        self.deadline = deadline
        self.dispatched = False
        self.seq = seq
        self.admitted = _time.monotonic()
        self.phases: Optional[list] = None
        self.settled = 0.0

    def responded(self, now: float) -> None:
        """The first response for this cell is written at ``now``."""
        if self.phases is not None and self.phases[-1] is None:
            self.phases[-1] = now - self.settled


class AllocationServer:
    """The serving daemon; create, ``await start()``, ``await wait_closed()``.

    All mutable state (cache, coalescing map, counters) is touched only on
    the event loop thread; a map run on an executor thread gets the cells'
    immutable payloads and its own counters and tracer, merged back on the
    loop.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.spec = config.effective_spec()
        # One tagged spec per shard: cells of shard i always solve on a
        # context memoized under spec i, so concurrent shard dispatches
        # (including the breaker's serial rung, which runs in *this*
        # process) each accumulate onto their own metrics-drain source and
        # stay individually attributable.  The specs trace, so a worker's
        # ``serve/solve`` spans drain into the server's span tree.
        nshards = max(config.shards, 1)
        self.shard_specs = [
            replace(self.spec, tag=f"serve-shard-{i}", trace=True)
            for i in range(nshards)
        ]
        self.policy = config.effective_policy()
        tracer = Tracer(enabled=True)
        self.ctx = EngineContext(cache_size=0, tracer=tracer)
        self.cache = ResponseCache(config.cache_size)
        self.admission = AdmissionController(
            queue_cap=config.queue_cap, batch_max=config.batch_max)
        self.breakers = [
            ShardBreaker(i, config.breaker_config()) for i in range(nshards)
        ]
        #: One single-worker pool per shard (none with ``shards=0``),
        #: opened in start() and closed in shutdown().
        self._pools: list[WorkerPool] = []
        #: One intake queue per shard, each drained by its lane task.
        self._lanes: list[asyncio.Queue] = [
            asyncio.Queue() for _ in range(nshards)]
        self._lane_tasks: list[asyncio.Task] = []
        #: ``(queue, handoff, map)`` seconds of recently dispatched cells.
        self._phases: deque = deque(maxlen=PHASE_WINDOW)
        self._inflight: dict[bytes, _Cell] = {}
        self._open: set = set()  # every unresolved cell future (drain waits)
        self._conn_tasks: set = set()  # live connection handlers (shutdown)
        self._read_gate = asyncio.Event()  # cleared = intake paused
        self._read_gate.set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._closed = asyncio.Event()
        self._stopping = False
        # Crash durability (None/off unless configured).  ``restarts`` is
        # the supervisor's generation number, handed down via environment
        # so a freshly-execed child can report how many times its lineage
        # has been restarted (the ``restarts`` gauge).
        self._journal: Optional[RequestJournal] = None
        self._snapshot_task: Optional[asyncio.Task] = None
        self._snapshot_time: Optional[float] = None
        self._fingerprint: Optional[str] = None
        try:
            self.restarts = int(os.environ.get("REPRO_SERVE_RESTARTS", "0"))
        except ValueError:
            self.restarts = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        # Workers fork before the journal opens and the listener binds, so
        # they hold neither descriptor (a respawned worker does; it is
        # bound to this process's death, see repro.runtime.supervisor).
        self._pools = [WorkerPool(1).open()
                       for _ in range(self.config.shards)]
        try:
            if self.config.durability is not None:
                self._open_durability(self.config.durability.validated())
            self._server = await asyncio.start_server(
                self._handle_conn,
                self.config.host,
                self.config.port,
                limit=MAX_LINE_BYTES,
            )
        except BaseException:
            self._close_pools()
            raise
        loop = asyncio.get_running_loop()
        self._lane_tasks = [loop.create_task(self._lane(sid))
                            for sid in range(len(self._lanes))]
        if self._journal is not None:
            self._replay_pending()
            self._snapshot_task = loop.create_task(self._snapshot_loop())

    def _open_durability(self, durability: DurabilityConfig) -> None:
        """Restore the cache snapshot and open the request journal.

        Runs before the listener binds: recovery state is complete before
        the first client can connect.  A snapshot whose structure
        fingerprint does not match is *ignored* (cold cache; correct bytes
        beat warm bytes), but a foreign *journal* raises -- replaying
        someone else's admissions under this engine would be wrong work.
        """
        self._fingerprint = durability_fingerprint(self.spec)
        try:
            entries = load_snapshot(durability.snapshot_path,
                                    self._fingerprint)
        except DurabilityError:
            entries = None  # unusable snapshot: rebuild from scratch
        if entries:
            for key, value in entries:
                self.cache.put(key, value)
            self.ctx.counters.serve_snapshot_restored += len(entries)
            self._snapshot_time = _time.monotonic()
        self._journal = RequestJournal.open(
            durability.journal_path,
            self._fingerprint,
            fsync=durability.fsync,
            compact_min_settled=durability.compact_min_settled,
        )

    def _replay_pending(self) -> None:
        """Re-enqueue every unsettled journaled admission into its lane,
        through the normal solve path.

        The original waiters died with the previous process, so nobody
        awaits these futures -- the point is that the *work* completes:
        results land in the response cache (and the journal settles), so
        a client retrying its idempotent canonical instance gets the
        answer the crash swallowed.  Replays bypass admission shedding
        (they were already admitted, durably) but are counted against the
        queue so the read gate sees honest depth.
        """
        assert self._journal is not None
        loop = asyncio.get_running_loop()
        for seq, key, canon_dict in self._journal.replay_items():
            cached = self.cache.get(key)
            if cached is not None:
                # The snapshot already carries this instance's bytes; the
                # admission is complete without a solve.
                if self._journal.settle(seq):
                    self.ctx.counters.serve_journal_settles += 1
                continue
            self.ctx.counters.serve_journal_replayed += 1
            future = loop.create_future()
            # Orphaned future: retrieve any exception so a failed replay
            # never logs an "exception was never retrieved" warning.
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None)
            self._enqueue(_Cell(key, canon_dict, future, seq=seq))

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Graceful stop: drain queued work, then close the listener."""
        if self._stopping:
            await self._closed.wait()
            return
        self._stopping = True
        await self.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for lane in self._lanes:
            lane.put_nowait(None)  # lane shutdown sentinel
        await asyncio.gather(*self._lane_tasks)
        self._close_pools()  # no lane can borrow a worker any more
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            try:
                await self._snapshot_task
            except asyncio.CancelledError:
                pass
            self._snapshot_task = None
        if self._journal is not None:
            # Graceful exit: one final snapshot (drain above means the
            # cache holds every settled result) and a clean journal close,
            # so the next start restores warm and replays nothing.
            self._write_snapshot()
            self._journal.close()
        # Connection drain: every response is already on the wire (drain
        # above), so established connections end as soon as their clients
        # close.  A short grace window covers that; anything still parked
        # on readline afterwards (an idle keep-alive client) is cancelled
        # so the loop closes without destroying running tasks.
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                self._conn_tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending)
        self._closed.set()

    def _close_pools(self) -> None:
        for pool in self._pools:
            pool.close()

    async def drain(self) -> None:
        """Wait until every accepted solve has a resolved result.

        A cell's future joins the open set when the cell is admitted and
        leaves it when a lane settles it, so quiescence is exactly: no
        open futures.
        """
        while self._open:
            await asyncio.wait(list(self._open))

    async def _snapshot_loop(self) -> None:
        """Periodic cache snapshots while the server runs.

        The entry list is gathered on the event loop (cheap: list of
        shared references); the write + fsync + rename runs on an
        executor thread so a slow disk never stalls intake.
        """
        assert self.config.durability is not None
        interval = self.config.durability.snapshot_interval_s
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            entries = self.cache.entries()
            path = self.config.durability.snapshot_path
            fingerprint = self._fingerprint
            await loop.run_in_executor(
                None, save_snapshot, path, entries, fingerprint)
            self.ctx.counters.serve_snapshot_saves += 1
            self._snapshot_time = _time.monotonic()

    def _write_snapshot(self) -> None:
        """Synchronous snapshot (shutdown path; blocking the loop is fine
        once intake is closed)."""
        assert self.config.durability is not None
        save_snapshot(self.config.durability.snapshot_path,
                      self.cache.entries(), self._fingerprint)
        self.ctx.counters.serve_snapshot_saves += 1
        self._snapshot_time = _time.monotonic()

    def _settle(self, cell) -> None:
        """Journal the terminal outcome of one cell, exactly once.

        Every path that resolves a cell's future -- worker results, shard
        dispatch errors, cache-only fast-fails, deadline markers -- lands
        here; the journal's own per-sequence idempotence makes a double
        call harmless anyway.
        """
        if self._journal is None or cell.seq is None:
            return
        if self._journal.settle(cell.seq):
            self.ctx.counters.serve_journal_settles += 1

    def stats(self) -> dict:
        out = self.ctx.stats()
        out["protocol"] = PROTOCOL_VERSION
        out["serve_config"] = {
            "shards": self.config.shards,
            "batch_max": self.config.batch_max,
            "cache_size": self.config.cache_size,
            "queue_cap": self.config.queue_cap,
            "default_deadline_ms": self.config.default_deadline_ms,
        }
        out["response_cache"] = self.cache.stats()
        out["admission"] = self.admission.stats()
        out["cell_phases_ms"] = self._phase_stats()
        out["workers"] = {str(sid): next(iter(pool.pids()), None)
                          for sid, pool in enumerate(self._pools)}
        out["restarts"] = self.restarts
        if self.config.durability is not None:
            age = (None if self._snapshot_time is None
                   else round(_time.monotonic() - self._snapshot_time, 3))
            out["durability"] = {
                "journal_depth": (len(self._journal)
                                  if self._journal is not None else 0),
                "snapshot_age_s": age,
                "snapshot_entries": len(self.cache),
                "fsync": self.config.durability.fsync,
                "dir": str(self.config.durability.dir),
            }
        # loop.time() is CLOCK_MONOTONIC on CPython/Linux, so monotonic
        # here keeps breaker cooldowns readable from any thread.
        now = _time.monotonic()
        out["breakers"] = {str(b.sid): b.stats(now) for b in self.breakers}
        return out

    def _phase_stats(self) -> dict:
        """p50/p95 (ms) and count of each latency phase over the window:
        ``queue`` from admission until the lane takes the cell, ``handoff``
        between the lane and the map both ways, ``map`` the supervised
        map's wall time, ``solve`` the worker's own time around the cell
        function inside it (so ``map - solve`` is the transport), and
        ``respond`` from the settle until the first response for the cell
        is written.  A cell settled in the server process has no
        ``solve``, and one nobody waited for has no ``respond``."""
        rows = list(self._phases)
        out = {}
        for i, name in enumerate(_PHASES):
            col = sorted(row[i] * 1000.0 for row in rows
                         if row[i] is not None)
            out[name] = {"p50": _percentile(col, 50),
                         "p95": _percentile(col, 95), "count": len(col)}
        return out

    # -- connection handling ---------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                # Backpressure: above the high watermark the server stops
                # *reading* -- kernel receive buffers fill, the client's
                # sends block, and well-behaved load slows before any
                # shedding starts.  The gate reopens at the low watermark.
                await self._read_gate.wait()
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError) as exc:
                    # Oversized line: answer with a typed error, then close
                    # (the stream position is unrecoverable past this point).
                    self.ctx.counters.serve_requests += 1
                    self.ctx.counters.serve_errors += 1
                    writer.write(encode_response(error_response(None, exc)))
                    await writer.drain()
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                resp = await self._handle_line(line)
                close = resp.pop("_close", False)
                cell = resp.pop("_cell", None)
                writer.write(encode_response(resp))
                if cell is not None:
                    cell.responded(asyncio.get_running_loop().time())
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                if task is not None:
                    self._conn_tasks.discard(task)

    async def _handle_line(self, line: bytes) -> dict:
        """One request line -> one response dict.  Never raises: every
        failure mode maps to a typed error envelope on the same
        connection."""
        with self.ctx.span("serve/accept"):
            try:
                req = decode_request_line(line)
            except ReproError as exc:
                # A line that is no valid envelope is a request answered
                # with an error, so the serve counters still tile.
                self.ctx.counters.serve_requests += 1
                self.ctx.counters.serve_errors += 1
                return error_response(None, exc)
        op = req["op"]
        req_id = req.get("id")
        if op == "ping":
            return ok_response(req_id, {"protocol": PROTOCOL_VERSION})
        if op == "stats":
            return ok_response(req_id, self.stats())
        if op == "drain":
            await self.drain()
            return ok_response(req_id, self.stats())
        if op == "shutdown":
            # Respond first, then stop: the client must see the ack.  The
            # listener closes after drain, so in-flight work completes.
            resp = ok_response(req_id, {"stopping": True})
            resp["_close"] = True
            asyncio.get_running_loop().create_task(self.shutdown())
            return resp
        return await self._handle_solve(req)

    async def _handle_solve(self, req: dict) -> dict:
        req_id = req.get("id")
        loop = asyncio.get_running_loop()
        self.ctx.counters.serve_requests += 1
        try:
            key, order, g = decode_request(req["graph"])
        except ReproError as exc:
            self.ctx.counters.serve_errors += 1
            return error_response(req_id, exc)

        deadline_ms = req.get("deadline_ms", self.config.default_deadline_ms)
        deadline = (Deadline.from_ms(loop.time(), deadline_ms)
                    if deadline_ms is not None else None)

        # Every solve request terminates in exactly one typed envelope --
        # result, overloaded, deadline_exceeded, or error -- and on the
        # admission side is exactly one of: cache hit, coalesce onto an
        # in-flight solve, miss (new cell), or shed.  The counters tile
        # accordingly, which the metrics tests assert.
        cached = self.cache.get(key)
        if cached is not None:
            self.ctx.counters.serve_cache_hits += 1
            return self._respond(req_id, cached, order)

        coalesce = self.cache.enabled  # cache_size=0 disables both layers
        with self.ctx.span("serve/coalesce"):
            cell = self._inflight.get(key) if coalesce else None
            if cell is not None:
                self.ctx.counters.serve_coalesced += 1
                if not cell.dispatched:
                    # A coalesced cell honors the earliest deadline among
                    # its waiters: the solve budget only ever tightens.
                    cell.deadline = earliest(cell.deadline, deadline)
                future = cell.future
            else:
                # Admission control: a new cell costs real work -- shed it
                # with a typed hint once the intake queue is at capacity.
                # (Hits and coalesces above cost nothing and always pass.)
                if self.admission.would_shed():
                    self.ctx.counters.serve_shed += 1
                    return overloaded_response(
                        req_id, self.admission.retry_after_ms())
                if self.cache.enabled:
                    self.ctx.counters.serve_cache_misses += 1
                future = loop.create_future()
                canon_dict = canonical_dict(g, order)
                cell = _Cell(key, canon_dict, future, deadline=deadline)
                if self._journal is not None:
                    # Write-ahead: the admission is on disk before the
                    # cell can reach a worker, so a crash at any later
                    # point leaves a replayable record.  The append (and
                    # under fsync="always" its fsync) runs on the event
                    # loop -- intake latency is the price of the
                    # durability guarantee, and it is paid only by new
                    # cells, never by cache hits or coalesces.
                    cell.seq = self._journal.admit(
                        key, canon_dict, deadline_ms=deadline_ms)
                    self.ctx.counters.serve_journal_admits += 1
                self._enqueue(cell)

        try:
            if deadline is None:
                result = await asyncio.shield(future)
            else:
                # The response-side guarantee: whatever happens below the
                # lanes, this waiter gets its typed envelope on time.
                # The shield keeps the shared solve alive for coalesced
                # siblings (and the cache) when this waiter times out.
                result = await asyncio.wait_for(
                    asyncio.shield(future),
                    max(deadline.remaining(loop.time()), 0.0))
        except asyncio.TimeoutError:
            self.ctx.counters.serve_deadline_exceeded += 1
            return deadline_exceeded_response(req_id)
        except ReproError as exc:
            self.ctx.counters.serve_errors += 1
            return error_response(req_id, exc)
        except Exception as exc:  # supervisor-surfaced permanent failure
            self.ctx.counters.serve_errors += 1
            return error_response(req_id, exc)
        resp = self._respond(req_id, result, order)
        resp["_cell"] = cell
        return resp

    def _respond(self, req_id, result: dict, order) -> dict:
        if "error" in result:
            error = dict(result["error"])
            # Deadline expirations settled below the lanes (supervised
            # budget ran out) are the same terminal outcome as a
            # response-side wait_for timeout -- count them as such, not as
            # generic errors.
            if error.get("type") == "DeadlineExceededError":
                self.ctx.counters.serve_deadline_exceeded += 1
            else:
                self.ctx.counters.serve_errors += 1
            return {"id": req_id, "status": "error", "error": error}
        self.ctx.counters.serve_responses += 1
        with self.ctx.span("serve/respond"):
            return ok_response(req_id, map_result(result, order))

    def _update_read_gate(self) -> None:
        paused = not self._read_gate.is_set()
        want_pause = self.admission.should_pause(paused)
        if want_pause and not paused:
            self._read_gate.clear()
            self.ctx.counters.serve_read_pauses += 1
        elif paused and not want_pause:
            self._read_gate.set()

    # -- lanes and dispatch ----------------------------------------------

    def _enqueue(self, cell: _Cell) -> None:
        """Admit one new cell: make it coalescable, count it against the
        intake queue, and route it to its shard's lane."""
        if self.cache.enabled:
            self._inflight[cell.key] = cell
        self._open.add(cell.future)
        cell.future.add_done_callback(self._open.discard)
        self.admission.admitted()
        self._update_read_gate()
        self._lanes[shard_of(cell.key, len(self._lanes))].put_nowait(cell)

    async def _lane(self, sid: int) -> None:
        """Shard ``sid``'s dispatch loop, until the ``None`` sentinel.

        As soon as the previous map has landed, take the first queued
        cell at once plus whatever queued behind it, up to ``batch_max``,
        and flush them.  A taken sentinel goes back behind any cells
        still queued, so the lane stops only once it reaches the head.
        """
        queue = self._lanes[sid]
        while True:
            cell = await queue.get()
            if cell is None:
                return
            batch = [cell]
            while len(batch) < self.config.batch_max and not queue.empty():
                cell = queue.get_nowait()
                if cell is None:
                    queue.put_nowait(None)
                    break
                batch.append(cell)
            # From here the batch's deadlines are frozen (late coalescers
            # are bounded by their own response-side wait_for instead) and
            # the cells no longer count against the intake queue.
            for c in batch:
                c.dispatched = True
            self.admission.dequeued(len(batch))
            self._update_read_gate()
            await self._flush(sid, batch)

    async def _flush(self, sid: int, cells: list) -> None:
        """Dispatch one lane's batch on shard ``sid`` and settle its cells.

        The shard's circuit breaker picks the dispatch mode: normal (the
        shard's worker), serial, or -- the deepest brownout -- cache-only,
        where the cells fast-fail with a typed ``CircuitOpenError``
        without dispatching at all.  The outcome feeds back into the
        breaker once the map lands, and every dispatched cell records its
        latency phases.
        """
        self.ctx.counters.serve_batches += 1
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        mode, probe = self.breakers[sid].dispatch_mode(t0)
        if probe:
            self.ctx.counters.breaker_probes += 1
        if mode == MODE_CACHE_ONLY:
            self._fastfail_shard(sid, cells, t0)
            return
        # Budgets are computed at dispatch time: whatever the request
        # already spent queued is gone from what the supervised map may use.
        budgets = [
            None if cell.deadline is None
            else max(cell.deadline.remaining(t0), 0.0)
            for cell in cells
        ]
        with self.ctx.span("serve/dispatch"):
            (results, error, counters, tracer, timings,
             started, ended) = await self._solve_shard(sid, cells, mode,
                                                       budgets)
        now = loop.time()
        self.admission.observe_flush(now - t0)

        # Merge on the event loop thread only -- no executor thread ever
        # touches the shared context.
        snapshot = counters.snapshot()
        self.ctx.counters.merge_snapshot(snapshot)
        if self.ctx.tracer is not None:
            self.ctx.tracer.merge_snapshot(tracer.snapshot())
        # Feed the breaker.  Degraded non-probe outcomes are ignored inside
        # on_outcome; "bad" means the shard itself is sick (supervisor
        # failure, worker kills, cell timeouts, escalations), never
        # per-request typed errors or deadline expirations.
        bad = ShardBreaker.outcome_is_bad(error, snapshot)
        detail = (f"{type(error).__name__}: {error}" if error is not None
                  else "sick dispatch counters" if bad else None)
        if self.breakers[sid].on_outcome(not bad, now, probe=probe,
                                         detail=detail):
            self.ctx.counters.breaker_trips += 1
        settled = loop.time()
        handoff = (started - t0) + (settled - ended)
        for i, cell in enumerate(cells):
            cell.phases = [t0 - cell.admitted, handoff, ended - started,
                           timings.get(i), None]
            cell.settled = settled
            self._phases.append(cell.phases)
            self._inflight.pop(cell.key, None)
            # Any resolution -- result, deadline marker, or dispatch error
            # -- is a terminal typed outcome: settle the journaled
            # admission so a restart does not redo it.
            self._settle(cell)
            if cell.future.cancelled():
                continue
            if error is not None:
                cell.future.set_exception(error)
            else:
                result = results[i]
                if "error" not in result:
                    self.cache.put(cell.key, result)
                cell.future.set_result(result)

    def _fastfail_shard(self, sid: int, cells: list, now: float) -> None:
        """Cache-only brownout: settle every queued cell with a typed
        ``CircuitOpenError`` marker carrying the remaining cooldown.  Cache
        hits never reach the queue, so everything here is necessarily a
        miss the shard is too sick to solve."""
        self.ctx.counters.breaker_fastfails += len(cells)
        retry_after = self.breakers[sid].retry_after_ms(now)
        for cell in cells:
            self._inflight.pop(cell.key, None)
            self._settle(cell)
            if cell.future.cancelled():
                continue
            cell.future.set_result({"error": {
                "type": "CircuitOpenError",
                "message": (
                    f"shard {sid} circuit open (cache-only brownout); "
                    f"retry after {retry_after:.0f} ms"),
                "retry_after_ms": round(retry_after, 3),
            }})

    async def _solve_shard(self, sid: int, cells: list, mode: str,
                           budgets: list):
        """One supervised map over one lane's batch.

        In normal mode the map borrows the shard's long-lived worker and
        is awaited on the event loop (:func:`supervised_map_async`): the
        resource envelope / timeout / kill-recovery machinery is live for
        every cell, a worker death costs one shard's retry, not the
        server, and only an escalation to the exact backend leaves the
        loop, for the executor.  Everything else solves in this process,
        so it runs the blocking map on an executor thread: ``shards=0``
        (the serial path, ``processes=0``) and the breaker's ``serial``
        rung (nothing left to kill).  That in-process map enforces
        ``policy.timeout`` and deadline budgets only between attempts: a
        cell already solving runs to its end.  Per-cell deadline budgets
        flow into the map; an expired cell settles as a
        ``DeadlineExceededError`` marker via :func:`deadline_marker`
        instead of failing its batch.  Returns
        ``(results, error, counters, tracer, timings, started, ended)``:
        ``timings`` maps a cell's batch index to its worker solve seconds,
        and the last two are the map's monotonic start and end as the lane
        awaits it (an executor map's thread hop included).
        """
        counters = Counters()
        tracer = Tracer(enabled=True)
        timings: dict = {}
        pool = (self._pools[sid] if self._pools and mode != MODE_SERIAL
                else None)
        items = [(self.shard_specs[sid], cell.canon_dict) for cell in cells]
        kwargs = dict(
            policy=self.policy,
            counters=counters,
            escalate_fn=solve_cell_exact,
            tracer=tracer,
            budgets=(None if all(b is None for b in budgets) else budgets),
            on_deadline=deadline_marker,
            timings=timings,
        )
        started = _time.monotonic()
        try:
            if pool is None:
                results = await asyncio.get_running_loop().run_in_executor(
                    None, functools.partial(supervised_map, solve_cell,
                                            items, **kwargs))
            else:
                results = await supervised_map_async(solve_cell, items, pool,
                                                     **kwargs)
            error = None
        except Exception as exc:
            results, error = None, exc
        return (results, error, counters, tracer, timings, started,
                _time.monotonic())


# -- embedding: run the server on a background thread ----------------------


class ServeHandle:
    """A running server on a daemon thread; the test/CLI embedding handle.

    ``exited`` resolves once the server thread has closed its loop.
    """

    def __init__(self, server: AllocationServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread, port: int,
                 exited: concurrent.futures.Future) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread
        self.port = port
        self.exited = exited

    @property
    def ctx(self) -> EngineContext:
        return self.server.ctx

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown from any thread; idempotent.

        A server that is already stopping -- a client-issued ``shutdown``
        op, or an earlier ``stop()`` -- stops and closes its loop by
        itself, and a loop that has stopped never runs another coroutine,
        so then ``stop()`` only joins the thread.  Otherwise it runs
        :meth:`AllocationServer.shutdown` on the loop and waits until
        that returns (re-raising its failure) or the thread exits, which
        covers an in-band shutdown that finished first.  Raises
        :class:`~repro.exceptions.ShutdownTimeoutError` when the server
        thread fails to exit within ``timeout`` -- a silent non-join left
        callers believing a possibly-wedged server was gone.
        """
        if self.thread.is_alive() and not self.server._stopping:
            try:
                done = asyncio.run_coroutine_threadsafe(
                    self.server.shutdown(), self.loop)
            except RuntimeError:
                done = None  # loop already closed
            if done is not None:
                finished, _ = concurrent.futures.wait(
                    [done, self.exited], timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                if not finished:
                    raise ShutdownTimeoutError(
                        f"repro-serve graceful shutdown did not complete "
                        f"within {timeout:.1f}s (drain wedged or loop "
                        f"unresponsive)")
                if done in finished:
                    done.result()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise ShutdownTimeoutError(
                f"repro-serve thread failed to exit within {timeout:.1f}s "
                "after shutdown completed")


def start_in_thread(config: Optional[ServeConfig] = None,
                    timeout: float = 30.0) -> ServeHandle:
    """Start an :class:`AllocationServer` on a background event loop.

    Blocks until the listener is bound (the handle carries the real port,
    so ``port=0`` ephemeral binding is race-free for tests running many
    servers concurrently).
    """
    config = config if config is not None else ServeConfig()
    ready = threading.Event()
    exited: concurrent.futures.Future = concurrent.futures.Future()
    box: dict = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = AllocationServer(config)
        try:
            loop.run_until_complete(server.start())
            box["server"], box["loop"], box["port"] = server, loop, server.port
        except BaseException as exc:  # surface bind failures to the caller
            box["error"] = exc
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_until_complete(server.wait_closed())
        finally:
            loop.close()
            exited.set_result(None)

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout):
        raise TimeoutError("repro-serve failed to start within timeout")
    if "error" in box:
        raise box["error"]
    return ServeHandle(box["server"], box["loop"], thread, box["port"], exited)
