"""serve_mix: a closed loop of ring-economy requests against ``repro-serve``.

The server runs as its own process, ``python -m repro.serve.cli serve
--port 0``, with its default shards, batch, linger and cache settings.
The benchmark process keeps two connections, each sending its next line
only after the previous answer arrived.

A round is 250 lines per connection.  About 2% of them are malformed, in
three kinds: an unknown op, a bad float weight, and truncated JSON.  Each
gets a ``MalformedInputError``.  The other lines are solve requests for
ring economies with n from 4 to 24 and loguniform weights in [0.1, 10].
Each economy is sent under a random rotation or reflection.  Each
connection brings in its own new economies: exactly ``MISS_SHARE`` of its
solve requests, spread evenly through the round.  Its other requests pick
an economy it has already sent, Zipf-popular by order of first sending.
No economy is sent by both connections, and every round uses new ones.
So each economy's first request is a cache miss and every later one a
hit, whatever the timing.  Every ``AUDIT_EVERY``-th solve is compared bit
for bit with ``single_shot_response``, computed before the round starts.
Item = one request line.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time

import numpy as np
from repro.engine import Counters, EngineContext
from repro.graphs.builders import random_ring, ring
from repro.io import graph_to_dict
from repro.serve import single_shot_response

from common import (
    SRC,
    WARMUP_ROUND,
    WARMUP_SEED,
    TimedRun,
    median,
    percentile,
)

NAME = "serve_mix"
TAIL_Q = 99
IMPORTS = ()  # the server process pays them, inside its start-up
TRACE_ROUNDS = 4
#: Reference time of one round on a 2-core x86-64 container.
ROUND_S = 1.5
ITEMS_PER_ROUND = 500

LINES_PER_CONN = 250
CONNECTIONS = 2
MISS_SHARE = 0.15
MALFORMED_RATE = 0.02
ZIPF_S = 1.1
N_MIN, N_MAX = 4, 24
AUDIT_EVERY = 25
WARMUP_LINES = 60
HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
ROUND_TIMEOUT_S = 60.0


def _relabel(weights: list, rot: int, reflect: bool) -> list:
    out = list(reversed(weights)) if reflect else list(weights)
    return out[rot:] + out[:rot]


def _malformed(kind: int, req_id: int) -> bytes:
    if kind == 0:
        return b'{"op": "frobnicate", "id": %d}' % req_id
    if kind == 1:
        return json.dumps({"op": "solve", "id": req_id, "graph": {
            "n": 2, "edges": [[0, 1]],
            "weights": [{"float": "bogus"}, 1]}}).encode()
    return b'{"op": "solve", "id": %d, "graph": ' % req_id


def connection_script(rng, first_id: int) -> list[dict]:
    """One connection's lines for one round (see module docstring)."""
    malformed = rng.random(LINES_PER_CONN) < MALFORMED_RATE
    solves = int(LINES_PER_CONN - malformed.sum())
    news = max(1, round(MISS_SHARE * solves))
    first_at = {(k * solves) // news: k for k in range(news)}
    bases: list = []
    script, s = [], 0
    for j in range(LINES_PER_CONN):
        req_id = first_id + j
        if malformed[j]:
            script.append({"id": req_id, "kind": "malformed", "line":
                           _malformed(int(rng.integers(3)), req_id) + b"\n"})
            continue
        if s in first_at:
            n = int(rng.integers(N_MIN, N_MAX + 1))
            bases.append(random_ring(n, rng, "loguniform", 0.1, 10.0))
            base, kind = bases[-1], "miss"
        else:
            p = 1.0 / np.arange(1, len(bases) + 1) ** ZIPF_S
            base = bases[int(rng.choice(len(bases), p=p / p.sum()))]
            kind = "hit"
        g = ring(_relabel(list(base.weights), int(rng.integers(base.n)),
                          bool(rng.integers(2))))
        line = json.dumps({"op": "solve", "id": req_id,
                           "graph": graph_to_dict(g)}).encode() + b"\n"
        entry = {"id": req_id, "kind": kind, "line": line, "graph": g}
        if s % AUDIT_EVERY == 0:
            entry["expect"] = json.loads(json.dumps(single_shot_response(g)))
        script.append(entry)
        s += 1
    return script


class ServerProcess:
    """``repro-serve`` in a child process of its own session, so a stop
    can reap the server and every shard worker it forked."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env,
            start_new_session=True)
        self.port = None
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.decode(errors="replace").splitlines():
                    if " listening on " in line:
                        addr = line.split(" listening on ", 1)[1].split()[0]
                        return int(addr.rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"repro-serve did not report a port: {buf!r}")

    def rpc(self, obj: dict, timeout: float = 30.0) -> dict:
        with socket.create_connection((HOST, self.port),
                                      timeout=timeout) as sock:
            sock.sendall(json.dumps(obj).encode() + b"\n")
            with sock.makefile("rb") as f:
                return json.loads(f.readline())

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """``shutdown`` op, then SIGTERM, then SIGKILL to the whole process
        group, each with a bounded wait; returns once the group is gone."""
        pgid = self.proc.pid
        if self.port is not None:
            try:
                self.rpc({"op": "shutdown", "id": 0}, timeout=STOP_TIMEOUT_S)
            except (OSError, ValueError):
                pass
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                try:
                    os.killpg(pgid, sig)
                except ProcessLookupError:
                    pass
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
                break
            except subprocess.TimeoutExpired:
                continue
        self.proc.stdout.close()
        # Shard workers outlive a killed server: clear the group, then wait
        # (bounded) until no member is left.
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


async def _connection(port: int, script: list[dict], out: list) -> None:
    """Closed loop over one connection, appending ``(latency_s, raw)``.

    Stops at a dropped connection; the check counts unanswered lines."""
    try:
        reader, writer = await asyncio.open_connection(HOST, port,
                                                       limit=2**24)
    except OSError:
        return
    try:
        for entry in script:
            t0 = time.perf_counter()
            writer.write(entry["line"])
            await writer.drain()
            raw = await reader.readline()
            t1 = time.perf_counter()
            if not raw:
                break
            out.append((t1 - t0, raw))
    except OSError:
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def _round(port: int, scripts: list) -> list:
    """Both connections' answers; a round that hangs is cut off after
    ``ROUND_TIMEOUT_S`` with the answers received so far."""
    outs = [[] for _ in scripts]
    try:
        await asyncio.wait_for(asyncio.gather(
            *(_connection(port, s, o) for s, o in zip(scripts, outs))),
            ROUND_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    return outs


def _stats_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k, v in after.items()
            if isinstance(v, int) and not isinstance(v, bool)}


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server = None
        self.loop = None
        self.stats0 = None

    def round_inputs(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        return [connection_script(rng, c * LINES_PER_CONN)
                for c in range(CONNECTIONS)]

    def setup_once(self) -> None:
        """Server start until the first answered ``ping``, the first
        round's inputs, and a warm-up round of disjoint economies."""
        if self.server is not None:
            self.server.stop()
        self.server = ServerProcess()
        if self.server.rpc({"op": "ping", "id": 0}).get("status") != "ok":
            raise RuntimeError("repro-serve did not answer ping")
        self.round_inputs(0)
        self.open()
        warm = [script[:WARMUP_LINES] for script in
                Workload(WARMUP_SEED).round_inputs(WARMUP_ROUND)]
        self.check(warm, self.run_round(warm, TimedRun()), TimedRun())

    def open(self, tracer=None) -> None:
        if self.loop is None:
            self.loop = asyncio.new_event_loop()
        self.stats0 = self.server.rpc({"op": "stats", "id": 0})["result"]

    def run_round(self, scripts: list, run: TimedRun) -> list:
        run.attempted += sum(len(s) for s in scripts)
        out = self.loop.run_until_complete(_round(self.server.port, scripts))
        for answers in out:
            run.latencies_s.extend(lat for lat, _raw in answers)
        return out

    def check(self, scripts: list, out: list, run: TimedRun) -> None:
        """Exactly one typed answer per line, no drops, audits bit-exact;
        latencies are filed per class for the per-layer numbers."""
        by_kind = run.extra.setdefault("latency_by_kind", {})
        misses = run.extra.setdefault("missed_graphs", [])
        for script, answers in zip(scripts, out):
            if len(answers) != len(script):
                run.fail(f"connection dropped after {len(answers)} of "
                         f"{len(script)} lines")
                for _ in range(len(script) - len(answers) - 1):
                    run.fail("line never answered")
            for entry, (lat, raw) in zip(script, answers):
                problem = _problem(entry, json.loads(raw))
                if problem:
                    run.fail(f"id={entry['id']}: {problem}")
                by_kind.setdefault(entry["kind"], []).append(lat)
                if entry["kind"] == "miss":
                    misses.append(entry["graph"])

    def serve_layers(self, run: TimedRun, tracer) -> dict:
        """Client-side hit/miss timing, the server's ``stats`` deltas, and
        a direct traced solve of every missed economy."""
        d = _stats_delta(
            self.stats0, self.server.rpc({"op": "stats", "id": 0})["result"])
        by_kind = run.extra["latency_by_kind"]
        hit = sorted(by_kind.get("hit", []))
        miss = sorted(by_kind.get("miss", []))
        solves = len(hit) + len(miss)
        totals, solve_s = Counters(), []
        for g in run.extra["missed_graphs"]:
            ctx = EngineContext(cache_size=0)
            ctx.tracer = tracer
            t0 = time.perf_counter()
            with ctx.span("bench:solve"):
                single_shot_response(g, ctx=ctx)
            solve_s.append(time.perf_counter() - t0)
            totals.merge(ctx.counters)
        hits, cells = d["serve_cache_hits"], d["serve_cache_misses"]
        return {
            "counters": totals.snapshot(),
            "serve.misses": len(miss),
            "serve.miss_share": len(miss) / solves,
            "serve.cache_hit_ratio": hits / (hits + cells),
            "serve.coalesced": d["serve_coalesced"],
            "serve.errors": d["serve_errors"],
            "serve.hit_p50_ms": 1e3 * percentile(hit, 50)[0],
            "serve.batches": d["serve_batches"],
            "serve.cells_per_batch": cells / d["serve_batches"],
            "serve.miss_p50_ms": 1e3 * percentile(miss, 50)[0],
            "serve.miss_p95_ms": 1e3 * percentile(miss, 95)[0],
            "serve.solve_p50_ms": 1e3 * median(solve_s),
            "runtime.retries": (d["cell_retries"] + d["worker_respawns"]
                                + d["cell_timeouts"]),
        }

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        try:
            if self.server is not None:
                self.server.stop()
        finally:
            self.server = None
            if self.loop is not None:
                self.loop.close()
                self.loop = None


def _problem(entry: dict, resp: dict) -> str | None:
    if entry["kind"] == "malformed":
        if resp.get("status") != "error":
            return f"malformed line answered {resp.get('status')!r}"
        if resp["error"].get("type") != "MalformedInputError":
            return f"malformed line got {resp['error'].get('type')}"
        return None
    if resp.get("id") != entry["id"]:
        return f"answer carries id={resp.get('id')!r}"
    if resp.get("status") != "ok":
        return f"solve answered {resp.get('error')!r}"
    if "expect" in entry and resp["result"] != entry["expect"]:
        return "served result differs from single_shot_response"
    return None
