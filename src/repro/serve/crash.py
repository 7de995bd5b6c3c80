"""The crash-durability soak behind ``repro-serve durable``.

The acceptance gate for the durable serving stack: a supervised daemon is
SIGKILLed mid-traffic -- deliberately including mid-flush, since the kill
fires while worker dispatches are in flight -- the watchdog restarts it
into the same journal/snapshot state, and a fleet of
:class:`~repro.serve.client.ResilientClient` threads keeps driving
requests through the outage.  The contract asserted:

* **every request terminates in exactly one typed outcome**, across the
  crash: a client either got its result or a typed error, never a hang,
  never a double-count;
* **responses are bit-identical to a crash-free run**: every request in
  the script carries its pre-computed single-shot expected result
  (``audit_rate=1.0``), and every ``ok`` response must equal it exactly
  -- a restarted server serving from a restored snapshot or a replayed
  journal must be indistinguishable *in bytes* from one that never died;
* **the lineage recovered**: the ``restarts`` gauge reached the kill
  count, and after a final drain the request journal is empty
  (``journal_depth == 0`` -- nothing admitted was left unsettled).

The run is strict: with failover-grade retry budgets, every request is
expected to end ``ok``; any typed non-ok terminal outcome is a problem.
The emitted ``repro-bench/1`` report (``BENCH_durable.json``) gates
``wall_s`` only -- crash timing makes every counter non-deterministic, so
``counters`` is deliberately empty and correctness is carried by the
``problems`` count (which must be zero).
"""

from __future__ import annotations

import collections
import json
import socket
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import CrashLoopError, ReproError
from ..obs.bench import BENCH_FORMAT, _fingerprint
from .client import Client, ResilientClient
from .durability import DurabilityConfig
from .load import OUTCOME_KEYS, LoadConfig, build_requests
from .supervise import SuperviseConfig, Supervisor, serve_child_argv

__all__ = ["DURABLE_BENCH_NAME", "DurableConfig", "run_durable"]

#: The single benchmark name the crash soak emits (``BENCH_durable.json``).
DURABLE_BENCH_NAME = "serve_durable_crash"


@dataclass(frozen=True)
class DurableConfig:
    """One seeded crash soak: traffic shape, kill schedule, durability."""

    requests: int = 80
    clients: int = 4
    seed: int = 0
    pool: int = 10
    n_min: int = 4
    n_max: int = 12
    #: SIGKILL the daemon after this many completed responses (per kill).
    kill_after: int = 12
    kills: int = 1
    fsync: str = "always"
    snapshot_interval_s: float = 2.0
    shards: int = 1
    #: Per-request retry budget; generous because requests in flight when
    #: the kill lands must survive the whole restart window.
    max_attempts: int = 12


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


def _drive(client: ResilientClient, entries: list[dict],
           outcomes: collections.Counter, problems: list[str],
           latencies: list[float], lock: threading.Lock,
           progress: list[int]) -> None:
    """One client thread: every entry to exactly one typed outcome."""
    for entry in entries:
        graph = json.loads(entry["line"])["graph"]
        t0 = time.perf_counter()
        try:
            result = client.solve(graph, req_id=entry["id"])
        except ReproError as exc:
            with lock:
                outcomes[_bucket(type(exc).__name__)] += 1
                problems.append(
                    f"id={entry['id']}: terminated "
                    f"{type(exc).__name__}: {exc}")
                progress[0] += 1
            continue
        except (ConnectionError, OSError) as exc:
            with lock:
                outcomes["error"] += 1
                problems.append(
                    f"id={entry['id']}: transport never recovered: {exc}")
                progress[0] += 1
            continue
        elapsed = time.perf_counter() - t0
        with lock:
            outcomes["ok"] += 1
            latencies.append(elapsed)
            progress[0] += 1
            if result != entry["expect"]:
                problems.append(
                    f"id={entry['id']}: response differs from the "
                    f"crash-free single-shot solve")


def _bucket(type_name: str) -> str:
    return {
        "OverloadedError": "overloaded",
        "CircuitOpenError": "circuit_open",
        "DeadlineExceededError": "deadline_exceeded",
    }.get(type_name, "error")


def _killer(supervisor: Supervisor, cfg: DurableConfig, lock: threading.Lock,
            progress: list[int], done: threading.Event,
            kill_log: list[dict]) -> None:
    """SIGKILL the child each time another ``kill_after`` responses land."""
    for k in range(cfg.kills):
        target = (k + 1) * cfg.kill_after
        while not done.is_set():
            with lock:
                reached = progress[0] >= target
            if reached:
                break
            time.sleep(0.005)
        if done.is_set():
            return
        # The trigger may fire while the previous incarnation is still
        # dying or being restarted: a no-op "kill" (no live child) or a
        # re-kill of the same dying pid must not count toward the
        # restarts-gauge assertion.  Retry until a *fresh* incarnation
        # took the SIGKILL -- or the run finishes without one.
        killed = {entry["pid"] for entry in kill_log}
        pid = None
        while not done.is_set():
            pid = supervisor.kill_child()
            if pid is not None and pid not in killed:
                break
            pid = None
            time.sleep(0.01)
        if pid is None:
            return
        kill_log.append({"kill": k + 1, "after_responses": target,
                         "pid": pid})


def run_durable(cfg: DurableConfig | None = None, tag: str = "durable",
                durability_dir: str | None = None) -> dict:
    """Run the crash soak; returns the ``repro-bench/1`` report.

    The problem list rides on ``_problems`` (the underscore convention:
    for the caller, stripped from saved baselines).
    """
    cfg = cfg if cfg is not None else DurableConfig()
    host = "127.0.0.1"
    port = _free_port(host)
    tmp = None
    if durability_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-durable-")
        durability_dir = tmp.name
    # Validate up front -- the child would also refuse, but a bad config
    # must fail in the harness with the typed error, not as a crash loop.
    DurabilityConfig(dir=durability_dir, fsync=cfg.fsync,
                     snapshot_interval_s=cfg.snapshot_interval_s).validated()

    script = build_requests(LoadConfig(
        requests=cfg.requests, clients=cfg.clients, seed=cfg.seed,
        pool=cfg.pool, n_min=cfg.n_min, n_max=cfg.n_max,
        malformed_rate=0.0, audit_rate=1.0))
    assert all(e["expect"] is not None for e in script)

    argv = serve_child_argv(host, port, [
        "--shards", str(cfg.shards),
        "--durable", durability_dir,
        "--fsync", cfg.fsync,
        "--snapshot-interval", str(cfg.snapshot_interval_s),
        "--queue-cap", str(max(4 * cfg.requests, 256)),
    ])
    supervisor = Supervisor(argv, host, port, SuperviseConfig(
        heartbeat_s=0.25, heartbeat_misses=8, ping_timeout_s=2.0,
        backoff_base_s=0.1, backoff_cap_s=1.0, max_crash_loops=5,
        healthy_after_s=2.0, startup_grace_s=30.0))

    lock = threading.Lock()
    outcomes: collections.Counter = collections.Counter()
    problems: list[str] = []
    latencies: list[float] = []
    progress = [0]
    done = threading.Event()
    kill_log: list[dict] = []

    sup_error: list[BaseException] = []

    def _supervise() -> None:
        try:
            supervisor.run()
        except CrashLoopError as exc:
            sup_error.append(exc)

    sup_thread = threading.Thread(target=_supervise, name="durable-supervisor",
                                  daemon=True)
    sup_thread.start()
    try:
        if not supervisor.wait_ready(30.0):
            raise RuntimeError(
                "supervised repro-serve child never became ready")

        shards = [script[i::cfg.clients] for i in range(cfg.clients)]
        clients = [
            ResilientClient(
                endpoints=[(host, port)], max_attempts=cfg.max_attempts,
                backoff_base_ms=25.0, backoff_cap_ms=500.0,
                socket_timeout=120.0, seed=cfg.seed + 1000 + i)
            for i in range(cfg.clients)
        ]
        threads = [
            threading.Thread(
                target=_drive,
                args=(clients[i], shards[i], outcomes, problems, latencies,
                      lock, progress),
                name=f"durable-client-{i}", daemon=True)
            for i in range(cfg.clients)
        ]
        killer = threading.Thread(
            target=_killer,
            args=(supervisor, cfg, lock, progress, done, kill_log),
            name="durable-killer", daemon=True)
        t0 = time.perf_counter()
        killer.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        done.set()
        killer.join()
        for c in clients:
            c.close()

        # Post-crash verification against the final incarnation: drain,
        # then the journal must be empty (every admission settled) and
        # the restarts gauge must have seen every kill.
        post = Client(port, host, timeout=60.0)
        try:
            post.rpc({"op": "drain"})
            stats = post.rpc({"op": "stats"})["result"]
        finally:
            post.close()
        restarts = stats.get("restarts", 0)
        depth = stats.get("durability", {}).get("journal_depth")
        if restarts < len(kill_log):
            problems.append(
                f"restarts gauge {restarts} < kills delivered "
                f"{len(kill_log)}: the supervisor lost track of a restart")
        if depth != 0:
            problems.append(
                f"journal_depth {depth!r} after final drain: admitted "
                f"work was left unsettled")
    finally:
        supervisor.stop()
        sup_thread.join(30.0)
        if tmp is not None:
            tmp.cleanup()
    if sup_error:
        problems.append(f"supervisor gave up: {sup_error[0]}")

    classified = sum(outcomes.values())
    if classified != cfg.requests:
        problems.append(
            f"outcome accounting broken: {cfg.requests} requests but "
            f"{classified} classified outcomes {dict(outcomes)}")

    total_retries = sum(c.retries for c in clients)
    total_reconnects = sum(c.reconnects for c in clients)
    lat = np.sort(np.asarray(latencies, dtype=float)) * 1000.0
    bench = {
        "group": "serve",
        "wall_s": wall,
        # Crash timing perturbs every counter (replays, retries, cache
        # splits); the gate is wall_s + the problems count, never drift.
        "counters": {},
        "phase_seconds": {},
        "requests": cfg.requests,
        "clients": cfg.clients,
        "outcomes": {k: outcomes.get(k, 0) for k in OUTCOME_KEYS},
        "kills": kill_log,
        "restarts": restarts,
        "client_retries": total_retries,
        "client_reconnects": total_reconnects,
        "problems": len(problems),
        "latency_ms": {
            "p50": float(np.percentile(lat, 50)) if len(lat) else 0.0,
            "p90": float(np.percentile(lat, 90)) if len(lat) else 0.0,
            "p99": float(np.percentile(lat, 99)) if len(lat) else 0.0,
            "max": float(lat[-1]) if len(lat) else 0.0,
        },
        "durable_config": {
            "requests": cfg.requests, "clients": cfg.clients,
            "seed": cfg.seed, "kill_after": cfg.kill_after,
            "kills": cfg.kills, "fsync": cfg.fsync,
            "snapshot_interval_s": cfg.snapshot_interval_s,
            "shards": cfg.shards,
        },
    }
    report = {
        "format": BENCH_FORMAT,
        "tag": tag,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rounds": 1,
        "fingerprint": _fingerprint(),
        "benchmarks": {DURABLE_BENCH_NAME: bench},
        "totals": {"wall_s": bench["wall_s"], "counters": {}},
    }
    report["_problems"] = problems
    return report
