"""Seeded load generation and the soak harness behind ``repro-serve soak``.

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

Two soaks share this machinery:

* :func:`run_soak` -- the sunny-path mix above (``repro-serve soak``,
  ``BENCH_serve.json``);
* :func:`run_overload` -- the resilience soak (``repro-serve overload``,
  ``BENCH_overload.json``): a **warm sub-capacity phase** that must shed
  nothing and audit bit-identically, then a **burst phase** driving
  ``clients * pipeline`` truly concurrent requests -- sized well past the
  intake queue plus a batch, so admission control *must* engage -- under
  a seeded chaos schedule (worker kills, numeric faults, slow-shard
  stalls) with per-request deadlines on a fraction of the stream.  The
  harness asserts the overload contract: the server stays live, the
  intake queue never exceeds its cap, and every request terminates in
  exactly one typed outcome (result / overloaded / deadline_exceeded /
  circuit-open / typed error).

Connections are **pipelined** when ``pipeline > 1``: each connection runs
a sender and a receiver concurrently with up to ``pipeline`` requests in
flight, matched FIFO (the server answers a connection's lines strictly in
order).  A closed loop of N connections can never hold more than N cells
in the server -- pipelining is what lets a burst genuinely exceed batcher
capacity instead of self-throttling on its own round trips.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.builders import ring, random_ring
from ..io import graph_to_dict
from ..obs.bench import BENCH_FORMAT, _fingerprint
from .protocol import PROTOCOL_VERSION
from .server import ServeConfig, start_in_thread
from .solver import single_shot_response

__all__ = [
    "LoadConfig",
    "OVERLOAD_BENCH_NAME",
    "OverloadConfig",
    "SOAK_BENCH_NAME",
    "build_chaos_spec",
    "build_overload_report",
    "build_report",
    "build_requests",
    "run_load",
    "run_overload",
    "run_soak",
]

#: The single benchmark name the soak emits; CI compares the committed
#: baseline and a fresh run under this exact key.
SOAK_BENCH_NAME = "serve_soak_mix"

#: Ditto for the overload soak (``BENCH_overload.json``).
OVERLOAD_BENCH_NAME = "serve_overload_chaos"

#: Counters whose totals are a pure function of the request stream (cache
#: hit/miss/coalesce splits depend on arrival timing, so they are reported
#: as extras, never gated on).
DETERMINISTIC_COUNTERS = ("serve_requests", "serve_responses", "serve_errors")

#: The typed terminal outcomes a solve request may have; the overload
#: harness requires every request to land in exactly one bucket.
OUTCOME_KEYS = ("ok", "overloaded", "deadline_exceeded", "circuit_open",
                "error")


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


#: Connection-refused retry schedule for load clients racing a binding
#: server: capped-exponential delays off a 25 ms base, ~1.6 s worst case.
_CONNECT_ATTEMPTS = 8
_CONNECT_BASE_S = 0.025
_CONNECT_CAP_S = 0.4


async def _connect_retry(host: str, port: int):
    """``asyncio.open_connection`` that tolerates the startup race.

    Soak harnesses start the server and the load fleet near-concurrently
    (and the crash soak restarts the server *under* the fleet), so the
    first connect can land before the listener binds.  Refused/unreachable
    connects retry on a short capped-exponential schedule; anything still
    failing after the window propagates -- a server that never comes up
    must fail the harness, not hang it.
    """
    for attempt in range(_CONNECT_ATTEMPTS):
        try:
            return await asyncio.open_connection(host, port)
        except (ConnectionRefusedError, OSError):
            if attempt == _CONNECT_ATTEMPTS - 1:
                raise
            await asyncio.sleep(
                min(_CONNECT_BASE_S * (2.0 ** attempt), _CONNECT_CAP_S))
    raise AssertionError("unreachable")


async def _client(host: str, port: int, entries: list[dict],
                  latencies: list[float], problems: list[str],
                  outcomes: collections.Counter, pipeline: int = 1,
                  strict: bool = True) -> None:
    """One load connection: closed-loop, or pipelined when ``pipeline > 1``.

    Pipelining runs a sender and a receiver concurrently with at most
    ``pipeline`` requests in flight, matched FIFO -- valid because the
    server answers each connection's lines strictly in order.  This is
    what lets a burst's concurrency exceed the client count (a closed
    loop of N connections never holds more than N cells server-side).
    """
    reader, writer = await _connect_retry(host, port)
    try:
        if pipeline <= 1:
            for entry in entries:
                t0 = time.perf_counter()
                writer.write(entry["line"])
                await writer.drain()
                raw = await reader.readline()
                latencies.append(time.perf_counter() - t0)
                if not raw:
                    problems.append(f"id={entry['id']}: connection dropped")
                    return
                _check(entry, json.loads(raw), problems, outcomes, strict)
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
                        problems.append(
                            f"id={entry['id']}: connection dropped")
                    # Unblock a sender parked on the semaphore.
                    for _ in range(pipeline):
                        sem.release()
                    return
                entry, t0 = inflight.popleft()
                latencies.append(time.perf_counter() - t0)
                sem.release()
                _check(entry, json.loads(raw), problems, outcomes, strict)

        await asyncio.gather(sender(), receiver())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _check(entry: dict, resp: dict, problems: list[str],
           outcomes: collections.Counter, strict: bool = True) -> None:
    """Classify one response into its typed terminal outcome.

    ``strict`` is the sunny-path contract (any shed / deadline / error on
    a solve is a problem); the overload harness passes ``strict=False``,
    where typed overload outcomes are expected *but protocol violations
    still are problems*: wrong ids, untyped errors, sheds without a
    ``retry_after_ms`` hint, deadline verdicts on requests that carried no
    deadline, and audit mismatches.
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


async def run_load(host: str, port: int, cfg: LoadConfig,
                   script: Optional[list[dict]] = None,
                   strict: bool = True) -> dict:
    """Drive one soak against a running server; returns the load stats.

    ``script`` defaults to :func:`build_requests(cfg)`; pass it explicitly
    to amortize the build (and its audit solves) across runs.  ``strict``
    flows into :func:`_check` -- the overload burst phase relaxes it so
    typed shed/deadline outcomes classify instead of failing the run.
    """
    if script is None:
        script = build_requests(cfg)
    clients = max(1, min(cfg.clients, len(script)))
    shards: list[list[dict]] = [script[i::clients] for i in range(clients)]
    latencies: list[float] = []
    problems: list[str] = []
    outcomes: collections.Counter = collections.Counter()
    t0 = time.perf_counter()
    await asyncio.gather(
        *(_client(host, port, shard, latencies, problems, outcomes,
                  pipeline=max(1, cfg.pipeline), strict=strict)
          for shard in shards)
    )
    wall = time.perf_counter() - t0
    lat = np.sort(np.asarray(latencies, dtype=float)) * 1000.0
    audited = sum(1 for e in script if e["expect"] is not None)
    solves = sum(1 for e in script if e["kind"] == "solve")
    # The exactly-one-outcome contract, client-side half: every solve line
    # sent produced exactly one classified terminal response.
    classified = sum(outcomes.values())
    if classified != solves:
        problems.append(
            f"outcome accounting broken: {solves} solve requests but "
            f"{classified} classified outcomes {dict(outcomes)}")
    return {
        "requests": len(script),
        "responses": len(latencies),
        "clients": clients,
        "pipeline": max(1, cfg.pipeline),
        "audited": audited,
        "problems": problems,
        "outcomes": {k: outcomes.get(k, 0) for k in OUTCOME_KEYS},
        "wall_s": wall,
        "throughput_rps": len(script) / wall if wall > 0 else 0.0,
        "latency_ms": {
            "p50": float(np.percentile(lat, 50)) if len(lat) else 0.0,
            "p90": float(np.percentile(lat, 90)) if len(lat) else 0.0,
            "p99": float(np.percentile(lat, 99)) if len(lat) else 0.0,
            "max": float(lat[-1]) if len(lat) else 0.0,
        },
    }


def build_report(tag: str, load_stats: dict, server_stats: dict,
                 cfg: LoadConfig, serve_config: ServeConfig) -> dict:
    """Soak results -> one ``repro-bench/1`` report (``BENCH_serve.json``).

    The ``counters`` block carries only the stream-deterministic serve
    counters (:data:`DETERMINISTIC_COUNTERS`), so ``repro-bench compare``
    sees zero counter drift across timing-different runs; latency,
    throughput, cache behavior, and the span breakdown ride along as
    extras.
    """
    counters = {k: server_stats.get(k, 0) for k in DETERMINISTIC_COUNTERS}
    bench = {
        "group": "serve",
        "wall_s": load_stats["wall_s"],
        "counters": counters,
        "phase_seconds": {},
        "spans": server_stats.get("spans", {}),
        "latency_ms": load_stats["latency_ms"],
        "throughput_rps": load_stats["throughput_rps"],
        "requests": load_stats["requests"],
        "clients": load_stats["clients"],
        "audited": load_stats["audited"],
        "problems": len(load_stats["problems"]),
        "cache": {
            "hits": server_stats.get("serve_cache_hits", 0),
            "misses": server_stats.get("serve_cache_misses", 0),
            "coalesced": server_stats.get("serve_coalesced", 0),
            "batches": server_stats.get("serve_batches", 0),
        },
        "serve_config": {
            "shards": serve_config.shards,
            "batch_max": serve_config.batch_max,
            "cache_size": serve_config.cache_size,
            "faults": serve_config.faults,
        },
        "cell_phases_ms": server_stats.get("cell_phases_ms", {}),
        "load_config": {
            "requests": cfg.requests, "clients": cfg.clients,
            "seed": cfg.seed, "pool": cfg.pool, "zipf_s": cfg.zipf_s,
            "malformed_rate": cfg.malformed_rate,
            "audit_rate": cfg.audit_rate,
        },
    }
    return {
        "format": BENCH_FORMAT,
        "tag": tag,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rounds": 1,
        "fingerprint": _fingerprint(),
        "benchmarks": {SOAK_BENCH_NAME: bench},
        "totals": {"wall_s": bench["wall_s"], "counters": dict(counters)},
    }


def run_soak(serve_config: Optional[ServeConfig] = None,
             load_config: Optional[LoadConfig] = None,
             tag: str = "serve") -> dict:
    """Start a server, drive the seeded soak, return the bench report.

    The report's ``benchmarks[...].problems`` count must be zero for a
    healthy run; the CLI exits non-zero otherwise and prints each problem.
    The raw problem list rides on the returned dict under ``_problems``
    (stripped by ``save_report``'s JSON round-trip consumers via the
    underscore convention -- it is for the caller, not the baseline).
    """
    serve_config = serve_config if serve_config is not None else ServeConfig()
    load_config = load_config if load_config is not None else LoadConfig()
    script = build_requests(load_config)
    handle = start_in_thread(serve_config)
    try:
        stats = asyncio.run(
            run_load(serve_config.host, handle.port, load_config, script))
        server_stats = handle.server.stats()
    finally:
        handle.stop()
    report = build_report(tag, stats, server_stats, load_config, serve_config)
    report["_problems"] = stats["problems"]
    return report


# ---------------------------------------------------------------------------
# the overload / chaos soak (``repro-serve overload``)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverloadConfig:
    """The resilience soak: a warm sub-capacity leg, then a chaos burst.

    ``burst_clients`` is the real overload knob: server-side concurrency
    equals the number of connections (each connection has one request in
    the server at a time), so the burst is sized
    ``burst_clients >= 2 * (queue_cap + shards * batch_max)`` -- twice
    what the intake queue plus one in-flight batch per shard lane can
    absorb -- making admission control engage *arithmetically*, not by
    timing luck.  ``pipeline`` additionally keeps every connection's next
    requests already in socket buffers, so the read-gate backpressure
    path is exercised too.
    """

    warm_requests: int = 32
    warm_clients: int = 2
    burst_requests: int = 192
    burst_clients: int = 64
    pipeline: int = 4
    seed: int = 0
    pool: int = 10          #: distinct base economies
    n_min: int = 4
    n_max: int = 12
    deadline_ms: float = 1500.0
    deadline_rate: float = 0.25  #: fraction of burst requests with deadlines
    audit_rate: float = 0.3      #: warm-leg differential-audit fraction
    chaos: bool = True           #: drive the burst under a seeded fault plan


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


def _overload_invariants(server_stats: dict, sent_requests: int,
                         load_stats: dict, problems: list[str],
                         leg: str) -> dict:
    """Check the overload contract against one leg's final server stats.

    Returns the invariant observations for the report; violations append
    to ``problems``.  The server-side half of exactly-one accounting is
    checkable from counters alone because every op except ``solve``
    bypasses these counters entirely.
    """
    c = {k: server_stats.get(k, 0) for k in (
        "serve_requests", "serve_responses", "serve_errors", "serve_shed",
        "serve_deadline_exceeded")}
    admission = server_stats.get("admission", {})
    peak = admission.get("peak_depth", 0)
    cap = admission.get("queue_cap", 0)
    terminal = (c["serve_responses"] + c["serve_errors"] + c["serve_shed"]
                + c["serve_deadline_exceeded"])
    if c["serve_requests"] != sent_requests:
        problems.append(
            f"{leg}: server saw {c['serve_requests']} solve requests, "
            f"harness sent {sent_requests}")
    if c["serve_requests"] != terminal:
        problems.append(
            f"{leg}: exactly-one-outcome accounting broken: "
            f"{c['serve_requests']} requests != {terminal} terminal "
            f"outcomes ({c})")
    if peak > cap:
        problems.append(
            f"{leg}: intake queue exceeded its cap: peak_depth={peak} > "
            f"queue_cap={cap}")
    if load_stats["responses"] != load_stats["requests"]:
        problems.append(
            f"{leg}: {load_stats['requests']} requests sent but "
            f"{load_stats['responses']} responses received")
    return {
        "counters": c,
        "terminal_outcomes": terminal,
        "peak_depth": peak,
        "queue_cap": cap,
        "read_pauses": server_stats.get("serve_read_pauses", 0),
    }


def run_overload(serve_config: Optional[ServeConfig] = None,
                 overload_config: Optional[OverloadConfig] = None,
                 tag: str = "overload") -> dict:
    """The chaos-scheduled overload soak; returns the bench report.

    Two legs, each against its own server built from ``serve_config``:

    1. **warm** (fault-free, strict, sub-capacity): every response is a
       result, zero requests shed, audited responses bit-identical to
       single-shot solves -- the "overload machinery is invisible below
       capacity" half of the contract;
    2. **burst** (chaos fault plan, ``burst_clients`` concurrent
       connections, deadlines on a fraction of the stream): admission
       control, deadline propagation, and the breakers under fire -- the
       harness asserts the server stays live (a fresh connection pings
       after the burst), the intake queue never exceeds its cap, and
       every request terminates in exactly one typed outcome.

    Violations ride on the returned report under ``_problems`` (and the
    ``problems`` count inside the benchmark body, which CI gates on).
    """
    from ..runtime import RuntimePolicy

    ocfg = (overload_config if overload_config is not None
            else OverloadConfig())
    # retries=2 matters: the chaos schedule injects retryable faults
    # (kills, crashes) on first attempts, and the whole point is watching
    # the retry/escalation ladder absorb them under load.
    base = serve_config if serve_config is not None else ServeConfig(
        shards=2, batch_max=8, cache_size=0, queue_cap=16,
        policy=RuntimePolicy(retries=2, timeout=60.0))
    from dataclasses import replace as _replace

    chaos_spec = build_chaos_spec(ocfg.seed) if ocfg.chaos else base.faults
    warm_config = _replace(base, faults=None)
    burst_config = _replace(base, faults=chaos_spec)
    problems: list[str] = []

    # -- leg 1: warm, sub-capacity, strict ---------------------------------
    warm_load = LoadConfig(
        requests=ocfg.warm_requests, clients=ocfg.warm_clients,
        seed=ocfg.seed, pool=ocfg.pool, n_min=ocfg.n_min, n_max=ocfg.n_max,
        malformed_rate=0.0, audit_rate=ocfg.audit_rate, pipeline=1)
    handle = start_in_thread(warm_config)
    try:
        warm_stats = asyncio.run(run_load(
            warm_config.host, handle.port, warm_load, strict=True))
        warm_server_stats = handle.server.stats()
    finally:
        handle.stop()
    problems.extend(warm_stats["problems"])
    warm_inv = _overload_invariants(
        warm_server_stats, ocfg.warm_requests, warm_stats, problems, "warm")
    if warm_inv["counters"]["serve_shed"] != 0:
        problems.append(
            f"warm: sub-capacity leg shed "
            f"{warm_inv['counters']['serve_shed']} requests")

    # -- leg 2: burst past capacity, under chaos ---------------------------
    burst_load = LoadConfig(
        requests=ocfg.burst_requests, clients=ocfg.burst_clients,
        seed=ocfg.seed + 1, pool=ocfg.pool, n_min=ocfg.n_min,
        n_max=ocfg.n_max, malformed_rate=0.0, audit_rate=0.0,
        pipeline=ocfg.pipeline, deadline_ms=ocfg.deadline_ms,
        deadline_rate=ocfg.deadline_rate)
    handle = start_in_thread(burst_config)
    try:
        burst_stats = asyncio.run(run_load(
            burst_config.host, handle.port, burst_load, strict=False))
        # Liveness: a *fresh* connection must still be answered after the
        # burst -- the whole point of shedding is surviving it.
        from .client import Client

        probe = Client(handle.port)
        try:
            pong = probe.rpc({"op": "ping", "id": "liveness"})
            if pong.get("status") != "ok":
                problems.append(f"burst: post-burst ping failed: {pong!r}")
        finally:
            probe.close()
        burst_server_stats = handle.server.stats()
    finally:
        handle.stop()
    problems.extend(burst_stats["problems"])
    burst_inv = _overload_invariants(
        burst_server_stats, ocfg.burst_requests, burst_stats, problems,
        "burst")
    overloadable = 2 * (base.queue_cap
                        + max(base.shards, 1) * base.batch_max)
    if ocfg.burst_clients >= overloadable and \
            burst_stats["outcomes"]["overloaded"] == 0:
        problems.append(
            f"burst: {ocfg.burst_clients} concurrent connections against "
            f"queue_cap={base.queue_cap} shed nothing -- overload never "
            "engaged")

    report = build_overload_report(
        tag, warm_stats, warm_inv, burst_stats, burst_inv,
        burst_server_stats, ocfg, burst_config, problems)
    report["_problems"] = problems
    return report


def build_overload_report(tag: str, warm_stats: dict, warm_inv: dict,
                          burst_stats: dict, burst_inv: dict,
                          burst_server_stats: dict, ocfg: OverloadConfig,
                          serve_config: ServeConfig,
                          problems: list[str]) -> dict:
    """Overload soak results -> one ``repro-bench/1`` report.

    Gated counters are the stream-deterministic ``serve_requests`` only
    (shed / deadline / breaker counts are genuinely timing-dependent --
    that is the point of the soak); everything else rides as extras:
    goodput, shed rate, outcome histogram, breaker activity, admission
    peaks.
    """
    total_requests = warm_stats["requests"] + burst_stats["requests"]
    counters = {"serve_requests": (
        warm_inv["counters"]["serve_requests"]
        + burst_inv["counters"]["serve_requests"])}
    wall = warm_stats["wall_s"] + burst_stats["wall_s"]
    burst_ok = burst_stats["outcomes"]["ok"]
    bench = {
        "group": "serve",
        "wall_s": wall,
        "counters": counters,
        "phase_seconds": {"warm": warm_stats["wall_s"],
                          "burst": burst_stats["wall_s"]},
        "spans": burst_server_stats.get("spans", {}),
        "latency_ms": burst_stats["latency_ms"],
        "warm_latency_ms": warm_stats["latency_ms"],
        "throughput_rps": burst_stats["throughput_rps"],
        "goodput_rps": (burst_ok / burst_stats["wall_s"]
                        if burst_stats["wall_s"] > 0 else 0.0),
        "shed_rate": (burst_stats["outcomes"]["overloaded"]
                      / burst_stats["requests"]
                      if burst_stats["requests"] else 0.0),
        "outcomes": burst_stats["outcomes"],
        "warm_outcomes": warm_stats["outcomes"],
        "requests": total_requests,
        "problems": len(problems),
        "invariants": {"warm": warm_inv, "burst": burst_inv},
        "breakers": burst_server_stats.get("breakers", {}),
        "chaos": serve_config.faults,
        "serve_config": {
            "shards": serve_config.shards,
            "batch_max": serve_config.batch_max,
            "cache_size": serve_config.cache_size,
            "queue_cap": serve_config.queue_cap,
            "faults": serve_config.faults,
        },
        "overload_config": {
            "warm_requests": ocfg.warm_requests,
            "warm_clients": ocfg.warm_clients,
            "burst_requests": ocfg.burst_requests,
            "burst_clients": ocfg.burst_clients,
            "pipeline": ocfg.pipeline,
            "seed": ocfg.seed,
            "deadline_ms": ocfg.deadline_ms,
            "deadline_rate": ocfg.deadline_rate,
            "chaos": ocfg.chaos,
        },
    }
    return {
        "format": BENCH_FORMAT,
        "tag": tag,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rounds": 1,
        "fingerprint": _fingerprint(),
        "benchmarks": {OVERLOAD_BENCH_NAME: bench},
        "totals": {"wall_s": wall, "counters": dict(counters)},
    }
