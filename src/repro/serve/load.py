"""Seeded load generation and the one soak driver behind ``repro-serve
soak``, ``overload`` and ``durable``.

The request mix models the traffic a shared allocation service actually
sees: a **heavy-tailed popularity** distribution over a pool of base
economies (a few economies dominate; the tail is long), with every hit on
a popular economy arriving under a *random relabelling* (rotation and/or
reflection of the ring) -- exactly the shape the canonical-fingerprint
cache exists for.  A small malformed-request fraction keeps the typed
error path under load, and a sampled **paranoid-audit leg** compares
served responses bit-for-bit against fresh single-shot
:mod:`repro.core` solves computed *before* the clock starts.

Everything is a pure function of the seed: the request list, the audited
subset, and the expected responses are all deterministic, so a soak run is
replayable and its counter totals are comparable across machines.  Wall
time is measured over a **fixed request count** (closed-loop clients), so
``wall_s`` in the emitted ``repro-bench`` report is a genuine regression
signal rather than a function of a time budget.

A soak is a list of :class:`Leg` values that :func:`run_legs` runs in
order, each against a server of its own:

* an **in-thread leg** (``kills == 0``) starts an
  :class:`~repro.serve.server.AllocationServer` on a background thread and
  drives it over asyncio connections, **pipelined** when ``pipeline > 1``:
  each connection runs a sender and a receiver with up to ``pipeline``
  requests in flight, matched FIFO (the server answers a connection's
  lines strictly in order).  A closed loop of N connections never holds
  more than N cells in the server; pipelining is what lets a burst
  genuinely exceed the lanes' capacity;
* a **crash leg** (``kills > 0``) runs the server as a supervised child
  (:func:`~repro.serve.supervise.serve_argv`), SIGKILLs it each time
  another ``kill_after`` requests have settled -- mid-flush, since worker
  dispatches are in flight -- and drives it with
  :class:`~repro.serve.client.ResilientClient` threads that reconnect and
  retry through every restart.

Both transports feed one classifier (:func:`_check`): every solve ends in
exactly one of the :data:`OUTCOME_KEYS`, every audited ``ok`` must equal
its single-shot solve bit for bit, and a *strict* leg (the sub-capacity
contract) counts any shed, deadline or error on a solve as a problem.
After every in-thread leg one server-side check (:func:`_check_server`)
asserts that the counters tile the lines sent (``serve_requests ==
serve_responses + serve_errors + serve_shed + serve_deadline_exceeded``),
that the intake queue never passed its cap, that every request got its
response, that a ping answers after the leg, and that a leg with at least
``2 * (queue_cap + shards * batch_max)`` connections got something shed.
A crash leg checks the restarted lineage instead: the ``restarts`` gauge
saw every kill, and after a final drain the request journal is empty.

The ``repro-serve`` presets, one ``repro-bench/1`` report each:

* ``soak`` -- one strict leg (``BENCH_serve.json``);
* ``overload`` -- a strict, fault-free warm leg, then a non-strict burst
  past admission capacity under a seeded chaos plan
  (:func:`build_chaos_spec`), with deadlines on part of the stream
  (``BENCH_overload.json``);
* ``durable`` -- one strict crash leg whose every request is audited
  (``BENCH_durable.json``).
"""

from __future__ import annotations

import asyncio
import collections
import json
import socket
import threading
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from ..exceptions import CrashLoopError, ReproError
from ..graphs.builders import ring, random_ring
from ..io import graph_to_dict
from ..obs.bench import BENCH_FORMAT, _fingerprint
from .client import Client, ResilientClient
from .server import ServeConfig, start_in_thread
from .solver import single_shot_response
from .supervise import SuperviseConfig, Supervisor, _ping, serve_argv

__all__ = [
    "DURABLE_BENCH_NAME",
    "Leg",
    "LoadConfig",
    "OVERLOAD_BENCH_NAME",
    "SOAK_BENCH_NAME",
    "build_chaos_spec",
    "build_requests",
    "run_legs",
]

#: The benchmark name of each preset's report; CI compares a committed
#: baseline and a fresh run under these exact keys.
SOAK_BENCH_NAME = "serve_soak_mix"
OVERLOAD_BENCH_NAME = "serve_overload_chaos"
DURABLE_BENCH_NAME = "serve_durable_crash"

#: Counters a strict leg's seed fixes (cache hit/miss/coalesce splits
#: depend on arrival timing, so they are reported, never gated on).  A
#: non-strict leg fixes ``serve_requests`` only, and a crash leg nothing:
#: where the kills land perturbs every counter.  A report gates the
#: counters every one of its legs fixes.
DETERMINISTIC_COUNTERS = ("serve_requests", "serve_responses", "serve_errors")

#: The typed terminal outcomes a solve request may have.
OUTCOME_KEYS = ("ok", "overloaded", "deadline_exceeded", "circuit_open",
                "error")

#: The server counters that ``serve_requests`` must tile.
_TERMINAL_COUNTERS = ("serve_responses", "serve_errors", "serve_shed",
                      "serve_deadline_exceeded")


@dataclass(frozen=True)
class LoadConfig:
    """One seeded soak workload (see module docstring for the mix)."""

    requests: int = 250
    clients: int = 8
    seed: int = 0
    pool: int = 12          #: distinct base economies
    zipf_s: float = 1.3     #: popularity exponent (higher = heavier head)
    n_min: int = 4
    n_max: int = 24
    malformed_rate: float = 0.02
    audit_rate: float = 0.1  #: fraction differentially audited
    #: Per-connection in-flight depth; 1 = the classic closed loop.
    pipeline: int = 1
    #: When set, this fraction of solve requests carries ``deadline_ms``.
    #: Deadline-carrying requests are never audited (a legitimate
    #: ``deadline_exceeded`` has no bit-exact expected result).
    deadline_ms: Optional[float] = None
    deadline_rate: float = 0.0


@dataclass(frozen=True)
class Leg:
    """One soak leg: ``load``'s seeded script against a server of its own.

    ``strict`` holds the leg to the sub-capacity contract.  ``kills > 0``
    makes it a crash leg: ``serve`` runs as a supervised child that is
    SIGKILLed each time another ``kill_after`` requests have settled.
    """

    name: str
    load: LoadConfig
    serve: ServeConfig
    strict: bool = True
    kills: int = 0
    kill_after: int = 0


def _zipf_weights(k: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1, dtype=float) ** s
    return w / w.sum()


def _relabel(weights: list, rot: int, reflect: bool) -> list:
    out = list(reversed(weights)) if reflect else list(weights)
    return out[rot:] + out[:rot]


def build_requests(cfg: LoadConfig) -> list[dict]:
    """The deterministic request script: ``cfg.requests`` entries.

    Each entry::

        {"line": bytes,                  # exact wire bytes to send
         "id": int,
         "kind": "solve" | "malformed",
         "deadline": bool,               # carries a deadline_ms budget
         "expect": result-dict | None,   # audited solves: exact expected result
         "expect_error": str | None}     # malformed: expected error.type

    Sizes, popularity ranks, relabellings, the malformed subset, the
    deadline subset, and the audited subset are all drawn from one seeded
    generator, so two builds from the same config are byte-identical.
    """
    rng = np.random.default_rng(cfg.seed)
    sizes = cfg.n_min + rng.choice(
        cfg.n_max - cfg.n_min + 1,
        size=cfg.pool,
        p=_zipf_weights(cfg.n_max - cfg.n_min + 1, 1.0),
    )
    bases = [random_ring(int(n), rng, "loguniform", 0.1, 10.0) for n in sizes]
    popularity = _zipf_weights(cfg.pool, cfg.zipf_s)

    script: list[dict] = []
    for i in range(cfg.requests):
        if rng.random() < cfg.malformed_rate:
            flavor = int(rng.integers(2))
            if flavor == 0:
                payload = b'{"op": "frobnicate", "id": %d}' % i
            else:
                bad = {"op": "solve", "id": i,
                       "graph": {"n": 2, "edges": [[0, 1]],
                                 "weights": [{"float": "bogus"}, 1]}}
                payload = json.dumps(bad).encode("utf-8")
            script.append({
                "line": payload + b"\n", "id": i, "kind": "malformed",
                "deadline": False, "expect": None,
                "expect_error": "MalformedInputError",
            })
            continue
        base = bases[int(rng.choice(cfg.pool, p=popularity))]
        rot = int(rng.integers(base.n))
        reflect = bool(rng.integers(2))
        g = ring(_relabel(list(base.weights), rot, reflect))
        req = {"op": "solve", "id": i, "graph": graph_to_dict(g)}
        with_deadline = (cfg.deadline_ms is not None
                         and rng.random() < cfg.deadline_rate)
        if with_deadline:
            req["deadline_ms"] = cfg.deadline_ms
        expect = (single_shot_response(g)
                  if not with_deadline and rng.random() < cfg.audit_rate
                  else None)
        script.append({
            "line": json.dumps(req).encode("utf-8") + b"\n", "id": i,
            "kind": "solve", "deadline": with_deadline, "expect": expect,
            "expect_error": None,
        })
    return script


def build_chaos_spec(seed: int) -> str:
    """One seeded chaos schedule as a runtime fault spec.

    Drawn from the established ``site:kind@n`` grammar
    (:mod:`repro.runtime.faults`): a worker kill (hard ``os._exit``), a
    slow-shard stall (``cell:delay``), a retryable cell crash, and a
    numeric fault that drives the precision-escalation ladder.  Fault
    rules fire per supervised dispatch (each shard worker's injector is
    re-armed per map), so the schedule recurs across the whole burst
    rather than firing once -- and because the positions come from one
    seeded generator, two runs of the same seed replay the identical
    schedule.
    """
    rng = np.random.default_rng(seed + 20_260_809)
    clauses = [
        f"worker:kill@{int(rng.integers(0, 3))}",
        f"cell:delay@{int(rng.integers(0, 4))}:0.08",
        f"cell:exc@{int(rng.integers(0, 4))}",
        f"flow:nan@{int(rng.integers(2, 8))}",
    ]
    return ";".join(clauses)


# ---------------------------------------------------------------------------
# classifying what the clients see
# ---------------------------------------------------------------------------


def _check(entry: dict, resp: dict, problems: list[str],
           outcomes: collections.Counter, strict: bool = True) -> None:
    """Classify one response into its typed terminal outcome.

    ``strict`` is the sub-capacity contract (any shed / deadline / error
    on a solve is a problem); a non-strict leg expects typed overload
    outcomes, *but protocol violations still are problems*: wrong ids,
    untyped errors, sheds without a ``retry_after_ms`` hint, deadline
    verdicts on requests that carried no deadline, and audit mismatches.
    """
    rid = entry["id"]
    if entry["kind"] == "malformed":
        # Envelope-level garbage answers with id=None (the id could not be
        # trusted); payload-level garbage echoes the id.  Either way the
        # response must be a typed error of the expected class.
        if resp.get("status") != "error":
            problems.append(f"id={rid}: malformed request answered {resp!r}")
        elif resp["error"]["type"] != entry["expect_error"]:
            problems.append(
                f"id={rid}: expected {entry['expect_error']}, "
                f"got {resp['error']['type']}")
        return
    if resp.get("id") != rid:
        problems.append(f"id={rid}: response carries id={resp.get('id')!r}")
        return
    if resp.get("status") == "ok":
        outcomes["ok"] += 1
        if entry["expect"] is not None and resp["result"] != entry["expect"]:
            problems.append(
                f"id={rid}: served response differs from single-shot solve")
        return
    error = resp.get("error") or {}
    type_name = error.get("type")
    if type_name == "OverloadedError":
        outcomes["overloaded"] += 1
        if error.get("retry_after_ms") is None:
            problems.append(f"id={rid}: shed without a retry_after_ms hint")
        elif strict:
            problems.append(f"id={rid}: shed in a sub-capacity run")
        return
    if type_name == "CircuitOpenError":
        outcomes["circuit_open"] += 1
        if error.get("retry_after_ms") is None:
            problems.append(
                f"id={rid}: circuit-open without a retry_after_ms hint")
        elif strict:
            problems.append(f"id={rid}: circuit open in a sub-capacity run")
        return
    if type_name == "DeadlineExceededError":
        outcomes["deadline_exceeded"] += 1
        if not entry["deadline"]:
            problems.append(
                f"id={rid}: deadline_exceeded for a request with no deadline")
        return
    outcomes["error"] += 1
    if strict:
        problems.append(f"id={rid}: unexpected error {error!r}")


class _Tally:
    """What one leg's clients saw; :meth:`record` is safe from any thread."""

    def __init__(self, strict: bool) -> None:
        self.strict = strict
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.outcomes: collections.Counter = collections.Counter()
        self.problems: list[str] = []

    def record(self, entry: dict, resp: dict, seconds: float) -> None:
        with self.lock:
            self.latencies.append(seconds)
            _check(entry, resp, self.problems, self.outcomes, self.strict)

    def settled(self) -> int:
        with self.lock:
            return len(self.latencies)


# ---------------------------------------------------------------------------
# in-thread legs: asyncio connections against an in-process server
# ---------------------------------------------------------------------------


async def _client(host: str, port: int, entries: list[dict], pipeline: int,
                  tally: _Tally) -> None:
    """One load connection: closed-loop, or pipelined when ``pipeline > 1``.

    Pipelining runs a sender and a receiver concurrently with at most
    ``pipeline`` requests in flight, matched FIFO -- valid because the
    server answers each connection's lines strictly in order.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if pipeline <= 1:
            for entry in entries:
                t0 = time.perf_counter()
                writer.write(entry["line"])
                await writer.drain()
                raw = await reader.readline()
                if not raw:
                    tally.problems.append(
                        f"id={entry['id']}: connection dropped")
                    return
                tally.record(entry, json.loads(raw), time.perf_counter() - t0)
            return

        sem = asyncio.Semaphore(pipeline)
        inflight: collections.deque = collections.deque()
        dead = False

        async def sender() -> None:
            for entry in entries:
                await sem.acquire()
                if dead:
                    return
                inflight.append((entry, time.perf_counter()))
                writer.write(entry["line"])
                await writer.drain()  # blocks under read-gate backpressure

        async def receiver() -> None:
            nonlocal dead
            for _ in range(len(entries)):
                raw = await reader.readline()
                if not raw:
                    dead = True
                    for entry, _t0 in inflight:
                        tally.problems.append(
                            f"id={entry['id']}: connection dropped")
                    # Unblock a sender parked on the semaphore.
                    for _ in range(pipeline):
                        sem.release()
                    return
                entry, t0 = inflight.popleft()
                tally.record(entry, json.loads(raw), time.perf_counter() - t0)
                sem.release()

        await asyncio.gather(sender(), receiver())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _drive(leg: Leg, port: int, parts: list[list[dict]],
                 tally: _Tally) -> None:
    await asyncio.gather(*(
        _client(leg.serve.host, port, part, max(1, leg.load.pipeline), tally)
        for part in parts))


def _in_thread_leg(leg: Leg, parts: list[list[dict]], tally: _Tally,
                   found: list[str]) -> tuple[float, dict, dict]:
    """Drive ``parts`` (one connection each) against a fresh in-thread
    server and check it before it stops; returns ``(wall_s, stats, {})``."""
    handle = start_in_thread(leg.serve)
    try:
        t0 = time.perf_counter()
        asyncio.run(_drive(leg, handle.port, parts, tally))
        wall = time.perf_counter() - t0
        stats = handle.server.stats()
        alive = _ping(leg.serve.host, handle.port, 10.0)
        _check_server(leg, parts, tally, stats, alive, found)
        return wall, stats, {}
    finally:
        handle.stop()


def _check_server(leg: Leg, parts: list[list[dict]], tally: _Tally,
                  stats: dict, alive: bool, found: list[str]) -> None:
    """The server-side half of the contract, for a leg whose server lived
    through it: counter tiling, bounded queue, every response, liveness,
    and shedding once the connections outnumber what admission absorbs."""
    sent = sum(len(part) for part in parts)
    c = {k: stats.get(k, 0) for k in ("serve_requests",) + _TERMINAL_COUNTERS}
    terminal = sum(c[k] for k in _TERMINAL_COUNTERS)
    if c["serve_requests"] != sent:
        found.append(f"server saw {c['serve_requests']} requests, the "
                     f"clients sent {sent}")
    if c["serve_requests"] != terminal:
        found.append(f"exactly-one-outcome accounting broken: "
                     f"{c['serve_requests']} requests != {terminal} "
                     f"terminal outcomes ({c})")
    admission = stats["admission"]
    if admission["peak_depth"] > admission["queue_cap"]:
        found.append(f"intake queue exceeded its cap: peak_depth="
                     f"{admission['peak_depth']} > queue_cap="
                     f"{admission['queue_cap']}")
    if tally.settled() != sent:
        found.append(f"{sent} requests sent but {tally.settled()} "
                     f"responses received")
    if not alive:
        found.append("no answer to a ping after the leg")
    cfg = leg.serve
    overloadable = 2 * (cfg.queue_cap + max(cfg.shards, 1) * cfg.batch_max)
    if len(parts) >= overloadable and tally.outcomes["overloaded"] == 0:
        found.append(f"{len(parts)} concurrent connections against "
                     f"queue_cap={cfg.queue_cap} shed nothing -- overload "
                     f"never engaged")


# ---------------------------------------------------------------------------
# crash legs: resilient clients through a supervised child's SIGKILLs
# ---------------------------------------------------------------------------

#: Per-request retry budget of a crash leg's clients; generous because
#: requests in flight when a kill lands must survive the restart window.
_CRASH_ATTEMPTS = 12


def _free_port(host: str) -> int:
    """An ephemeral port for the supervised child to bind.

    The child needs a *fixed* port (clients reconnect to it across
    restarts), so the usual bind-at-zero trick happens here and the port
    is released for the child.  The reuse race is real but tiny, and a
    lost race fails loudly (bind error -> supervisor crash loop).
    """
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _resilient_client(client: ResilientClient, entries: list[dict],
                      tally: _Tally) -> None:
    """One client thread; a raised outcome becomes its typed envelope."""
    for entry in entries:
        graph = json.loads(entry["line"])["graph"]
        t0 = time.perf_counter()
        try:
            resp = {"id": entry["id"], "status": "ok",
                    "result": client.solve(graph, req_id=entry["id"])}
        except (ReproError, OSError) as exc:
            resp = {"id": entry["id"], "status": "error", "error": {
                "type": getattr(exc, "type_name", type(exc).__name__),
                "message": str(exc),
                "retry_after_ms": getattr(exc, "retry_after_ms", None)}}
        tally.record(entry, resp, time.perf_counter() - t0)


def _killer(supervisor: Supervisor, leg: Leg, tally: _Tally,
            done: threading.Event, kill_log: list[dict]) -> None:
    """SIGKILL the child each time another ``kill_after`` requests settle."""
    for k in range(leg.kills):
        target = (k + 1) * leg.kill_after
        while not done.is_set() and tally.settled() < target:
            time.sleep(0.005)
        # The trigger may fire while the previous incarnation is still
        # dying or being restarted: a no-op "kill" (no live child) or a
        # re-kill of the same dying pid must not count toward the
        # restarts-gauge assertion.  Retry until a *fresh* incarnation
        # took the SIGKILL -- or the run finishes without one.
        killed = {entry["pid"] for entry in kill_log}
        while not done.is_set():
            pid = supervisor.kill_child()
            if pid is not None and pid not in killed:
                kill_log.append({"kill": k + 1, "after_responses": target,
                                 "pid": pid})
                break
            time.sleep(0.01)
        if done.is_set():
            return


def _crash_leg(leg: Leg, parts: list[list[dict]], tally: _Tally,
               found: list[str]) -> tuple[float, dict, dict]:
    """Drive ``parts`` (one :class:`ResilientClient` thread each) through
    a supervised child under the leg's kill schedule, then check the
    lineage; returns ``(wall_s, stats of the last incarnation after a
    drain, {kills and client retry totals})``."""
    host = leg.serve.host
    serve = replace(leg.serve, port=_free_port(host))
    if serve.durability is not None:
        # The child would also refuse, but a bad config must fail here
        # with the typed error, not as a crash loop.
        serve.durability.validated()
    supervisor = Supervisor(serve_argv(serve), host, serve.port,
                            SuperviseConfig(
                                heartbeat_s=0.25, heartbeat_misses=8,
                                ping_timeout_s=2.0, backoff_base_s=0.1,
                                backoff_cap_s=1.0, max_crash_loops=5,
                                healthy_after_s=2.0, startup_grace_s=30.0))
    gave_up: list[BaseException] = []

    def supervise() -> None:
        try:
            supervisor.run()
        except CrashLoopError as exc:
            gave_up.append(exc)

    sup_thread = threading.Thread(target=supervise, name="soak-supervisor",
                                  daemon=True)
    sup_thread.start()
    clients = [
        ResilientClient(endpoints=[(host, serve.port)],
                        max_attempts=_CRASH_ATTEMPTS, backoff_base_ms=25.0,
                        backoff_cap_ms=500.0, socket_timeout=120.0,
                        seed=leg.load.seed + 1000 + i)
        for i in range(len(parts))
    ]
    kill_log: list[dict] = []
    try:
        if not supervisor.wait_ready(30.0):
            raise RuntimeError(
                "supervised repro-serve child never became ready")
        done = threading.Event()
        threads = [threading.Thread(target=_resilient_client,
                                    args=(client, part, tally), daemon=True)
                   for client, part in zip(clients, parts)]
        killer = threading.Thread(target=_killer,
                                  args=(supervisor, leg, tally, done,
                                        kill_log), daemon=True)
        t0 = time.perf_counter()
        killer.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        done.set()
        killer.join()
        # The final incarnation, drained: every admission must be settled.
        post = Client(serve.port, host, timeout=60.0)
        try:
            post.rpc({"op": "drain"})
            stats = post.rpc({"op": "stats"})["result"]
        finally:
            post.close()
    finally:
        for client in clients:
            client.close()
        supervisor.stop()
        sup_thread.join(30.0)
    if gave_up:
        found.append(f"supervisor gave up: {gave_up[0]}")
    if stats["restarts"] < len(kill_log):
        found.append(f"restarts gauge {stats['restarts']} < kills delivered "
                     f"{len(kill_log)}: the supervisor lost track of a "
                     f"restart")
    depth = stats.get("durability", {}).get("journal_depth", 0)
    if depth != 0:
        found.append(f"journal_depth {depth!r} after final drain: admitted "
                     f"work was left unsettled")
    return wall, stats, {
        "kills": kill_log,
        "client_retries": sum(c.retries for c in clients),
        "client_reconnects": sum(c.reconnects for c in clients),
    }


# ---------------------------------------------------------------------------
# the driver and its report
# ---------------------------------------------------------------------------


def _latency_ms(latencies: list[float]) -> dict:
    lat = np.sort(np.asarray(latencies, dtype=float)) * 1000.0
    if not len(lat):
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    return {"p50": float(np.percentile(lat, 50)),
            "p90": float(np.percentile(lat, 90)),
            "p99": float(np.percentile(lat, 99)),
            "max": float(lat[-1])}


def _run_leg(leg: Leg, problems: list[str]) -> dict:
    """Run one leg; its problems join ``problems`` under its name."""
    script = build_requests(leg.load)
    clients = max(1, min(leg.load.clients, len(script)))
    parts = [script[i::clients] for i in range(clients)]
    tally = _Tally(leg.strict)
    found: list[str] = []
    run = _crash_leg if leg.kills else _in_thread_leg
    wall, stats, extra = run(leg, parts, tally, found)
    # The client-side half of exactly-one accounting: every solve line
    # sent produced exactly one classified terminal outcome.
    outcomes = {k: tally.outcomes.get(k, 0) for k in OUTCOME_KEYS}
    solves = sum(1 for e in script if e["kind"] == "solve")
    if sum(outcomes.values()) != solves:
        found.append(f"outcome accounting broken: {solves} solve requests "
                     f"but {sum(outcomes.values())} classified outcomes "
                     f"{outcomes}")
    found = tally.problems + found
    problems.extend(f"{leg.name}: {p}" for p in found)
    gated = (() if leg.kills else DETERMINISTIC_COUNTERS if leg.strict
             else ("serve_requests",))
    return {
        "wall_s": wall,
        "requests": len(script),
        "responses": tally.settled(),
        "clients": clients,
        "audited": sum(1 for e in script if e["expect"] is not None),
        "problems": len(found),
        "latency_ms": _latency_ms(tally.latencies),
        "throughput_rps": len(script) / wall if wall > 0 else 0.0,
        "outcomes": outcomes,
        "shed_rate": outcomes["overloaded"] / len(script) if script else 0.0,
        "counters": {k: stats.get(k, 0) for k in gated},
        "server_counters": {k: v for k, v in stats.items()
                            if k.startswith(("serve_", "breaker_"))
                            and isinstance(v, int)},
        "peak_depth": stats.get("admission", {}).get("peak_depth", 0),
        "restarts": stats.get("restarts", 0),
        "kills": [],
        **extra,
        "cell_phases_ms": stats.get("cell_phases_ms", {}),
        "spans": stats.get("spans", {}),
        "strict": leg.strict,
        "kill_after": leg.kill_after,
        "serve_config": {
            "shards": leg.serve.shards,
            "batch_max": leg.serve.batch_max,
            "cache_size": leg.serve.cache_size,
            "queue_cap": leg.serve.queue_cap,
            "faults": leg.serve.faults,
            "durable": leg.serve.durability is not None,
        },
        "load_config": asdict(leg.load),
    }


def run_legs(bench_name: str, legs: list[Leg], tag: str) -> dict:
    """Run ``legs`` in order; returns one ``repro-bench/1`` report.

    The benchmark body keeps every leg's detail under ``legs``.  The last
    leg is the headline: its latency, throughput, outcomes, shed rate,
    phase split and spans are the top-level ones, while wall time,
    requests, audits, restarts and kills add up over the legs, and so do
    the gated ``counters`` that every leg fixes.  ``problems`` counts the
    contract violations (zero for a healthy run); the list itself rides
    on the returned dict under ``_problems``, for the caller, not the
    saved baseline.
    """
    problems: list[str] = []
    details = {leg.name: _run_leg(leg, problems) for leg in legs}
    runs = list(details.values())
    last = runs[-1]
    counters = {key: sum(run["counters"][key] for run in runs)
                for key in DETERMINISTIC_COUNTERS
                if all(key in run["counters"] for run in runs)}
    wall = sum(run["wall_s"] for run in runs)
    bench = {
        "group": "serve",
        "wall_s": wall,
        "counters": counters,
        "phase_seconds": {name: run["wall_s"]
                          for name, run in details.items()},
        "requests": sum(run["requests"] for run in runs),
        "audited": sum(run["audited"] for run in runs),
        "problems": len(problems),
        "restarts": sum(run["restarts"] for run in runs),
        "kills": [kill for run in runs for kill in run["kills"]],
        **{key: last[key] for key in (
            "latency_ms", "throughput_rps", "outcomes", "shed_rate",
            "cell_phases_ms", "spans")},
        "legs": details,
    }
    return {
        "format": BENCH_FORMAT,
        "tag": tag,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rounds": 1,
        "fingerprint": _fingerprint(),
        "benchmarks": {bench_name: bench},
        "totals": {"wall_s": wall, "counters": dict(counters)},
        "_problems": problems,
    }
