"""``repro-serve``: run, supervise, and soak the daemon.

Six subcommands::

    repro-serve serve [--port P] [--shards N] [--batch-max K]
                      [--cache-size N] [--timeout S] [--retries N]
                      [--inject-faults SPEC] [--queue-cap N]
                      [--deadline-ms MS] [--breaker-threshold N]
                      [--breaker-cooldown S]
        Run the daemon in the foreground until a client sends ``shutdown``
        or the process receives SIGTERM/SIGINT -- the first signal starts
        a graceful drain-and-stop, a second one hard-exits.  ``--port 0``
        binds an ephemeral port and prints it.

    repro-serve soak [--out BENCH_serve.json] [server + load flags]
        One strict leg: start a server, run the full seeded soak
        (including the sampled differential-audit leg), and write a
        ``repro-bench/1`` report.  Exits non-zero if any response was
        dropped, corrupted, or differed from its fresh single-shot solve,
        or the server's counters do not tile -- the CI gate.

    repro-serve overload [--out BENCH_overload.json] [--seed S]
                         [--burst-clients N] [--burst-requests N] ...
        The resilience soak: a fault-free sub-capacity warm leg (must
        shed nothing, audits bit-identical), then a chaos-scheduled burst
        sized past admission capacity.  Writes ``BENCH_overload.json``
        and exits non-zero on any overload-contract violation (server
        died, queue exceeded its cap, a request without exactly one typed
        terminal outcome, a shed below capacity).

    repro-serve supervise --port P [--durable DIR] [server flags]
                          [--heartbeat S] [--max-crash-loops N]
        Watchdog: run the daemon as a supervised child at a fixed port,
        restarting it (capped-exponential backoff) when it exits or stops
        answering pings; exits 3 after a crash loop.  With ``--durable``
        each incarnation resumes the journal/snapshot state.

    repro-serve stats --port P
        Print one stats call against a running server (includes the
        ``durability`` block and the ``restarts`` gauge).

    repro-serve durable [--out BENCH_durable.json] [--kill-after N] ...
        The crash soak: a supervised durable server is SIGKILLed
        mid-traffic while resilient clients keep driving requests.
        Exits non-zero unless every request terminated in exactly one
        typed outcome with responses bit-identical to a crash-free run,
        the restarts gauge saw every kill, and the journal drained empty.

The three soaks are leg presets of :func:`repro.serve.load.run_legs`.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import tempfile
import threading
from dataclasses import replace
from typing import Optional

from ..exceptions import CrashLoopError
from ..obs.bench import save_report
from ..runtime import RuntimePolicy
from .client import Client
from .durability import DurabilityConfig
from .load import (
    DURABLE_BENCH_NAME,
    OVERLOAD_BENCH_NAME,
    SOAK_BENCH_NAME,
    Leg,
    LoadConfig,
    build_chaos_spec,
    run_legs,
)
from .server import ServeConfig, start_in_thread
from .supervise import SuperviseConfig, Supervisor, serve_argv

__all__ = ["main"]


def _add_server_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral, printed at startup)")
    p.add_argument("--shards", type=int, default=2,
                   help="shards, one long-lived worker process each "
                        "(0 = solve in-process)")
    p.add_argument("--batch-max", type=int, default=16,
                   help="most queued cells one shard dispatch takes")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="response/decomposition cache size (0 disables "
                        "caching AND coalescing for deterministic counters)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall timeout in seconds")
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="deterministic fault spec, e.g. worker:kill@0")
    p.add_argument("--queue-cap", type=int, default=256,
                   help="admission control: max queued cells before "
                        "requests shed with a typed overloaded envelope")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="default per-request deadline budget applied when "
                        "a request carries none (unset = unbounded)")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive bad shard dispatches before the "
                        "circuit breaker trips into degraded mode")
    p.add_argument("--breaker-cooldown", type=float, default=1.0,
                   metavar="S", help="base open-window cooldown in seconds "
                   "(doubles per trip, capped at 30s)")
    p.add_argument("--durable", default=None, metavar="DIR",
                   help="crash durability directory: write-ahead-journal "
                        "every admission and snapshot the response cache "
                        "there; on restart, restore the snapshot and replay "
                        "unsettled admissions")
    p.add_argument("--fsync", default="always",
                   choices=["always", "batch", "off"],
                   help="journal fsync policy (with --durable): 'always' "
                        "fsyncs every record, 'batch' only at rotation/"
                        "snapshot boundaries, 'off' never")
    p.add_argument("--snapshot-interval", type=float, default=30.0,
                   metavar="S", help="seconds between response-cache "
                   "snapshots (with --durable)")


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    policy = RuntimePolicy(timeout=args.timeout, retries=args.retries)
    durability = None
    if getattr(args, "durable", None) is not None:
        durability = DurabilityConfig(
            dir=args.durable, fsync=args.fsync,
            snapshot_interval_s=args.snapshot_interval).validated()
    return ServeConfig(
        host=args.host, port=args.port, shards=args.shards,
        batch_max=args.batch_max, cache_size=args.cache_size, policy=policy,
        faults=args.inject_faults, queue_cap=args.queue_cap,
        default_deadline_ms=args.deadline_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        durability=durability,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="batched allocation-as-a-service daemon",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the daemon in the foreground")
    _add_server_flags(serve)

    soak = sub.add_parser(
        "soak", help="server + seeded soak + repro-bench report")
    _add_server_flags(soak)
    soak.add_argument("--requests", type=int, default=250)
    soak.add_argument("--clients", type=int, default=8)
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--pool", type=int, default=12)
    soak.add_argument("--zipf-s", type=float, default=1.3)
    soak.add_argument("--malformed-rate", type=float, default=0.02)
    soak.add_argument("--audit-rate", type=float, default=0.1)
    soak.add_argument("--pipeline", type=int, default=1,
                      help="per-connection in-flight depth (1 = closed loop)")
    soak.add_argument("--out", default="BENCH_serve.json")
    soak.add_argument("--tag", default="serve")

    overload = sub.add_parser(
        "overload",
        help="warm + chaos-burst resilience soak + repro-bench report")
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument("--warm-requests", type=int, default=32)
    overload.add_argument("--warm-clients", type=int, default=2)
    overload.add_argument("--burst-requests", type=int, default=192)
    overload.add_argument("--burst-clients", type=int, default=64)
    overload.add_argument("--pipeline", type=int, default=4)
    overload.add_argument("--queue-cap", type=int, default=16)
    overload.add_argument("--shards", type=int, default=2)
    overload.add_argument("--batch-max", type=int, default=8)
    overload.add_argument("--deadline-ms", type=float, default=1500.0)
    overload.add_argument("--deadline-rate", type=float, default=0.25)
    overload.add_argument("--no-chaos", action="store_true",
                          help="skip the fault plan (pure overload burst)")
    overload.add_argument("--out", default="BENCH_overload.json")
    overload.add_argument("--tag", default="overload")

    supervise = sub.add_parser(
        "supervise",
        help="watchdog: run the daemon as a supervised child, restarting "
             "it on crash or hang (requires a fixed --port)")
    _add_server_flags(supervise)
    supervise.add_argument("--heartbeat", type=float, default=1.0,
                           metavar="S", help="seconds between liveness pings")
    supervise.add_argument("--heartbeat-misses", type=int, default=3,
                           help="consecutive missed pings before the child "
                                "is declared hung and restarted")
    supervise.add_argument("--restart-backoff", type=float, default=0.2,
                           metavar="S", help="base restart backoff (doubles "
                           "per consecutive crash, capped at 5s)")
    supervise.add_argument("--max-crash-loops", type=int, default=5,
                           help="consecutive fast crashes tolerated before "
                                "the supervisor gives up (exit 3)")

    stats = sub.add_parser(
        "stats", help="one stats call against a running server")
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, required=True)

    durable = sub.add_parser(
        "durable",
        help="crash soak: supervised durable server + SIGKILL schedule + "
             "repro-bench report")
    durable.add_argument("--requests", type=int, default=80)
    durable.add_argument("--clients", type=int, default=4)
    durable.add_argument("--seed", type=int, default=0)
    durable.add_argument("--kill-after", type=int, default=12,
                         help="SIGKILL the daemon after this many completed "
                              "responses (per kill)")
    durable.add_argument("--kills", type=int, default=1)
    durable.add_argument("--fsync", default="always",
                         choices=["always", "batch", "off"])
    durable.add_argument("--snapshot-interval", type=float, default=2.0,
                         metavar="S")
    durable.add_argument("--shards", type=int, default=1)
    durable.add_argument("--out", default="BENCH_durable.json")
    durable.add_argument("--tag", default="durable")
    return parser


def _run_serve_foreground(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: foreground daemon with signal handling.

    The first SIGTERM/SIGINT starts a graceful shutdown (drain in-flight
    work, close the listener, join the server thread); a second signal
    while that drain is still running hard-exits with the conventional
    128+signum status -- an operator hammering Ctrl-C must always win
    over a wedged drain.
    """
    signals_seen = {"count": 0}
    stop_requested = threading.Event()

    def _on_signal(signum, frame) -> None:
        signals_seen["count"] += 1
        if signals_seen["count"] >= 2:
            print(f"repro-serve: second signal ({signum}), hard exit",
                  file=sys.stderr, flush=True)
            # os._exit semantics via raise_default: restore and re-raise so
            # the exit status carries the signal.
            signal.signal(signum, signal.SIG_DFL)
            signal.raise_signal(signum)
            return
        print(f"repro-serve: signal {signum}, draining for graceful stop "
              "(send again to hard-exit)", file=sys.stderr, flush=True)
        stop_requested.set()

    # Handlers go in *before* the listener binds and the banner prints:
    # process managers signal on their own clock, and a SIGTERM landing in
    # the gap between "listening" and installation used to hit the default
    # disposition -- killing the process with work on the wire.
    old_term = signal.signal(signal.SIGTERM, _on_signal)
    old_int = signal.signal(signal.SIGINT, _on_signal)
    try:
        handle = start_in_thread(_serve_config(args))
        print(f"repro-serve listening on {args.host}:{handle.port} "
              f"(shards={args.shards}, cache={args.cache_size}, "
              f"queue_cap={args.queue_cap})", flush=True)
        # Wake on either: the server thread exiting (client-issued
        # shutdown op) or a signal requesting one.
        while handle.thread.is_alive() and not stop_requested.is_set():
            stop_requested.wait(0.2)
        if stop_requested.is_set():
            handle.stop()
        else:
            handle.thread.join()
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
    print("repro-serve: stopped", flush=True)
    return 0


def _run_supervise(args: argparse.Namespace) -> int:
    """The ``supervise`` subcommand: watchdog in the foreground.

    Needs a fixed ``--port`` -- clients (and the watchdog's own pings)
    must find every incarnation at the same address.  First SIGTERM/
    SIGINT stops the watchdog gracefully (which TERMs the child into its
    own drain); a second signal hard-exits.  A crash loop exits 3.
    """
    if args.port == 0:
        print("repro-serve supervise: --port must be a fixed nonzero port "
              "(every incarnation must bind the same address)",
              file=sys.stderr)
        return 2
    supervisor = Supervisor(
        serve_argv(_serve_config(args)),
        args.host, args.port,
        SuperviseConfig(
            heartbeat_s=args.heartbeat,
            heartbeat_misses=args.heartbeat_misses,
            backoff_base_s=args.restart_backoff,
            max_crash_loops=args.max_crash_loops,
        ))
    signals_seen = {"count": 0}

    def _on_signal(signum, frame) -> None:
        signals_seen["count"] += 1
        if signals_seen["count"] >= 2:
            signal.signal(signum, signal.SIG_DFL)
            signal.raise_signal(signum)
            return
        print(f"repro-serve supervise: signal {signum}, stopping watchdog "
              "(send again to hard-exit)", file=sys.stderr, flush=True)
        supervisor.stop()

    old_term = signal.signal(signal.SIGTERM, _on_signal)
    old_int = signal.signal(signal.SIGINT, _on_signal)
    try:
        print(f"repro-serve supervise: watching {args.host}:{args.port} "
              f"(heartbeat {args.heartbeat}s, give up after "
              f"{args.max_crash_loops} crash loops)", flush=True)
        supervisor.run()
    except CrashLoopError as exc:
        print(f"repro-serve supervise: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
    print(f"repro-serve supervise: stopped "
          f"(restarts={supervisor.restarts})", flush=True)
    return 0


def _soak_legs(args: argparse.Namespace) -> list[Leg]:
    """``repro-serve soak``: one strict leg, server and mix from flags."""
    load = LoadConfig(
        requests=args.requests, clients=args.clients, seed=args.seed,
        pool=args.pool, zipf_s=args.zipf_s,
        malformed_rate=args.malformed_rate, audit_rate=args.audit_rate,
        pipeline=args.pipeline)
    return [Leg("soak", load, _serve_config(args))]


def _overload_legs(args: argparse.Namespace) -> list[Leg]:
    """``repro-serve overload``: a strict fault-free warm leg, then a
    non-strict burst under the seeded chaos plan.

    ``retries=2`` matters: the chaos plan injects retryable faults (kills,
    crashes) on first attempts, and the point is watching the retry and
    escalation ladder absorb them under load.
    """
    serve = ServeConfig(
        shards=args.shards, batch_max=args.batch_max, cache_size=0,
        queue_cap=args.queue_cap,
        policy=RuntimePolicy(retries=2, timeout=60.0))
    warm = LoadConfig(
        requests=args.warm_requests, clients=args.warm_clients,
        seed=args.seed, pool=10, n_min=4, n_max=12, malformed_rate=0.0,
        audit_rate=0.3)
    burst = replace(
        warm, requests=args.burst_requests, clients=args.burst_clients,
        seed=args.seed + 1, audit_rate=0.0, pipeline=args.pipeline,
        deadline_ms=args.deadline_ms, deadline_rate=args.deadline_rate)
    chaos = None if args.no_chaos else build_chaos_spec(args.seed)
    return [Leg("warm", warm, serve),
            Leg("burst", burst, replace(serve, faults=chaos), strict=False)]


def _durable_legs(args: argparse.Namespace, durability_dir: str) -> list[Leg]:
    """``repro-serve durable``: one strict crash leg, every request
    audited, against a durable server journaling into ``durability_dir``."""
    load = LoadConfig(
        requests=args.requests, clients=args.clients, seed=args.seed,
        pool=10, n_min=4, n_max=12, malformed_rate=0.0, audit_rate=1.0)
    serve = ServeConfig(
        shards=args.shards, queue_cap=max(4 * args.requests, 256),
        policy=RuntimePolicy(retries=2),
        durability=DurabilityConfig(
            dir=durability_dir, fsync=args.fsync,
            snapshot_interval_s=args.snapshot_interval))
    return [Leg("crash", load, serve, kills=args.kills,
                kill_after=args.kill_after)]


def _run_soak(bench_name: str, legs: list[Leg],
              args: argparse.Namespace) -> int:
    """Run one preset, write its report to ``--out``, print the summary
    and every problem; returns 1 on any problem."""
    report = run_legs(bench_name, legs, args.tag)
    problems = report.pop("_problems")
    bench = report["benchmarks"][bench_name]
    save_report(report, args.out)
    lat = bench["latency_ms"]
    print(f"wrote {args.out}: {bench['requests']} requests in "
          f"{len(legs)} leg(s), last leg outcomes {bench['outcomes']}, "
          f"shed rate {bench['shed_rate']:.2f}, "
          f"{bench['throughput_rps']:.1f} req/s, "
          f"p50 {lat['p50']:.2f}ms  p99 {lat['p99']:.2f}ms, "
          f"audited {bench['audited']}, kills {len(bench['kills'])}, "
          f"restarts {bench['restarts']}, problems {len(problems)}")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "serve":
        return _run_serve_foreground(args)

    if args.command == "supervise":
        return _run_supervise(args)

    if args.command == "stats":
        client = Client(args.port, args.host)
        try:
            resp = client.rpc({"op": "stats"})
        finally:
            client.close()
        print(json.dumps(resp.get("result", resp), indent=2, sort_keys=True))
        return 0 if resp.get("status") == "ok" else 1

    if args.command == "durable":
        with tempfile.TemporaryDirectory(prefix="repro-durable-") as tmp:
            return _run_soak(DURABLE_BENCH_NAME, _durable_legs(args, tmp),
                             args)
    if args.command == "overload":
        return _run_soak(OVERLOAD_BENCH_NAME, _overload_legs(args), args)
    return _run_soak(SOAK_BENCH_NAME, _soak_legs(args), args)


if __name__ == "__main__":
    sys.exit(main())
