"""Supervised auto-restart: the watchdog parent for a durable daemon.

:class:`Supervisor` owns one child server process (the ``repro-serve
serve`` CLI, or any argv speaking the wire protocol) and keeps it alive:

* **liveness by ping, not by PID.**  Every ``heartbeat_s`` the watchdog
  opens a connection and sends a protocol ``ping``; ``heartbeat_misses``
  consecutive failures mean the child is *wedged* -- alive as a process
  but dead as a server -- and it is SIGKILLed and restarted.  A child
  that exits on its own is restarted directly.  Either way the
  replacement is pointed at the same durability directory, so it
  restores the cache snapshot and replays the unsettled journal tail
  (:mod:`repro.serve.durability`) instead of starting cold.
* **capped-exponential restart backoff.**  Consecutive unhealthy
  incarnations (died or wedged before ``healthy_after_s`` of uptime)
  back off ``backoff_base_s * 2^k`` capped at ``backoff_cap_s``; an
  incarnation that stays healthy resets the crash-loop counter, so a
  one-off crash a week never accumulates toward the give-up limit.
* **typed give-up.**  More than ``max_crash_loops`` consecutive
  unhealthy incarnations raise
  :class:`~repro.exceptions.CrashLoopError` (carrying the restart count
  and last exit status) -- a supervisor that cannot keep its child up is
  a louder failure than the crash itself, and must never busy-loop
  forever masking it.

The restart generation is handed to each child via the
``REPRO_SERVE_RESTARTS`` environment variable, which the server surfaces
as the ``restarts`` gauge in ``stats()`` -- so one ``stats`` call against
the serving port tells an operator how turbulent the lineage has been.
"""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

from ..exceptions import CrashLoopError, MalformedInputError
from .server import ServeConfig

__all__ = ["SuperviseConfig", "Supervisor", "serve_argv"]

#: Environment variable carrying the restart generation to the child.
RESTARTS_ENV = "REPRO_SERVE_RESTARTS"


@dataclass(frozen=True)
class SuperviseConfig:
    """Watchdog knobs, guard-validated like every serving config."""

    #: Seconds between liveness pings once the child is up.
    heartbeat_s: float = 1.0
    #: Consecutive failed pings before the child is declared wedged.
    heartbeat_misses: int = 3
    #: Per-ping connect/response budget.
    ping_timeout_s: float = 2.0
    #: Capped-exponential restart backoff (base * 2^crash_loops, capped).
    backoff_base_s: float = 0.2
    backoff_cap_s: float = 5.0
    #: Consecutive unhealthy incarnations tolerated before
    #: :class:`~repro.exceptions.CrashLoopError`.
    max_crash_loops: int = 5
    #: Uptime after which an incarnation counts as healthy (resets the
    #: crash-loop counter).
    healthy_after_s: float = 5.0
    #: How long a fresh child may take to answer its first ping.
    startup_grace_s: float = 10.0

    def validated(self) -> "SuperviseConfig":
        for name in ("heartbeat_s", "ping_timeout_s", "backoff_base_s",
                     "backoff_cap_s", "healthy_after_s", "startup_grace_s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value) or value <= 0:
                raise MalformedInputError(
                    f"supervise {name} must be a positive finite number, "
                    f"got {value!r}")
        for name in ("heartbeat_misses", "max_crash_loops"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise MalformedInputError(
                    f"supervise {name} must be a positive integer, "
                    f"got {value!r}")
        if self.backoff_cap_s < self.backoff_base_s:
            raise MalformedInputError(
                f"supervise backoff_cap_s ({self.backoff_cap_s!r}) must be "
                f">= backoff_base_s ({self.backoff_base_s!r})")
        return self


def serve_argv(config: ServeConfig) -> list[str]:
    """This interpreter's ``repro-serve serve`` command line for ``config``.

    Every server setting the CLI has a flag for is encoded, so the child
    runs the server ``config`` describes; the rest (engine spec, read-gate
    watermarks, breaker cooldown cap) keep their defaults.
    """
    policy = config.effective_policy()
    argv = [sys.executable, "-m", "repro.serve.cli", "serve",
            "--host", config.host, "--port", str(config.port),
            "--shards", str(config.shards),
            "--batch-max", str(config.batch_max),
            "--cache-size", str(config.cache_size),
            "--retries", str(policy.retries),
            "--queue-cap", str(config.queue_cap),
            "--breaker-threshold", str(config.breaker_threshold),
            "--breaker-cooldown", str(config.breaker_cooldown_s)]
    if policy.timeout is not None:
        argv += ["--timeout", str(policy.timeout)]
    if config.faults is not None:
        argv += ["--inject-faults", config.faults]
    if config.default_deadline_ms is not None:
        argv += ["--deadline-ms", str(config.default_deadline_ms)]
    if config.durability is not None:
        argv += ["--durable", str(config.durability.dir),
                 "--fsync", config.durability.fsync,
                 "--snapshot-interval",
                 str(config.durability.snapshot_interval_s)]
    return argv


def _ping(host: str, port: int, timeout: float) -> bool:
    """One protocol ping; True iff a well-formed ok envelope came back."""
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(b'{"op":"ping","id":"supervisor"}\n')
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    return False
                buf += chunk
        return json.loads(buf)["status"] == "ok"
    except (OSError, ValueError, KeyError):
        return False


class Supervisor:
    """Run ``argv`` as a supervised child serving ``host:port``.

    :meth:`run` blocks -- spawning, watching, restarting -- until
    :meth:`stop` is called (graceful child shutdown, normal return) or
    the crash-loop limit is hit (:class:`CrashLoopError`).  State is
    readable from other threads: ``restarts`` (completed restarts),
    ``crash_loops`` (current consecutive-unhealthy streak),
    ``last_exit`` (the previous incarnation's wait status), and
    ``child_pid`` (the live incarnation, for chaos harnesses to SIGKILL).
    """

    def __init__(self, argv: list[str], host: str, port: int,
                 config: Optional[SuperviseConfig] = None,
                 env: Optional[dict] = None) -> None:
        self.argv = list(argv)
        self.host = host
        self.port = int(port)
        self.config = (config if config is not None
                       else SuperviseConfig()).validated()
        self.env = env
        self.restarts = 0
        self.crash_loops = 0
        self.last_exit: Optional[int] = None
        self.child_pid: Optional[int] = None
        self._child: Optional[subprocess.Popen] = None
        self._stop = threading.Event()
        self._started = threading.Event()  # first incarnation answered ping

    # -- public API -------------------------------------------------------

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until the first incarnation answers a ping (harness use)."""
        return self._started.wait(timeout)

    def stop(self) -> None:
        """Request a graceful stop; :meth:`run` unwinds and returns."""
        self._stop.set()

    def kill_child(self) -> Optional[int]:
        """SIGKILL the live incarnation (the chaos harness's crash lever).

        Returns the PID killed, or ``None`` if no child was running.  The
        watchdog observes the death on its next beat and restarts.
        """
        child = self._child
        if child is None or child.poll() is not None:
            return None
        if not self._kill_group(child, signal.SIGKILL):
            return None
        return child.pid

    @staticmethod
    def _kill_group(child: subprocess.Popen, signum: int) -> bool:
        """Signal the child's whole process group (it is a session leader).

        The daemon forks shard workers; a signal delivered to the daemon
        alone leaves them orphaned -- and an orphaned fork holds the
        inherited listening socket, keeping the port bound against the
        restarted incarnation.  Workers also carry ``PR_SET_PDEATHSIG``
        on Linux, but the group signal is the portable, race-free path.
        """
        try:
            os.killpg(child.pid, signum)
            return True
        except ProcessLookupError:
            return False
        except OSError:
            # Group signal unavailable (already reaped, or a platform
            # without process groups): fall back to the child alone.
            try:
                child.send_signal(signum)
                return True
            except OSError:
                return False

    def run(self) -> None:
        cfg = self.config
        try:
            while not self._stop.is_set():
                spawn_time = time.monotonic()
                self._spawn()
                healthy_uptime = self._watch_incarnation(spawn_time)
                if self._stop.is_set():
                    return
                # The incarnation is down (exited or killed for a hang);
                # decide whether this lineage is a crash loop.
                if healthy_uptime:
                    self.crash_loops = 0
                self.crash_loops += 1
                if self.crash_loops > cfg.max_crash_loops:
                    raise CrashLoopError(
                        f"repro-serve child crashed {self.crash_loops} "
                        f"consecutive times within {cfg.healthy_after_s:.1f}s "
                        f"of each start (last exit status {self.last_exit}); "
                        f"giving up",
                        restarts=self.restarts, last_exit=self.last_exit)
                backoff = min(
                    cfg.backoff_base_s * (2 ** (self.crash_loops - 1)),
                    cfg.backoff_cap_s)
                if self._stop.wait(backoff):
                    return
                self.restarts += 1
        finally:
            self._terminate_child()

    # -- internals --------------------------------------------------------

    def _spawn(self) -> None:
        env = dict(os.environ if self.env is None else self.env)
        env[RESTARTS_ENV] = str(self.restarts)
        self._child = subprocess.Popen(
            self.argv, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            # Own process group: a Ctrl-C aimed at the supervisor must not
            # race the child into its own graceful-drain path -- restarts
            # and shutdowns stay the watchdog's decisions alone.
            start_new_session=True,
        )
        self.child_pid = self._child.pid

    def _watch_incarnation(self, spawn_time: float) -> bool:
        """Watch one child until it dies, wedges, or stop is requested.

        Returns True iff the incarnation reached ``healthy_after_s`` of
        ping-confirmed uptime (i.e. its eventual death is a fresh
        incident, not part of a crash loop).
        """
        cfg = self.config
        child = self._child
        assert child is not None

        # Startup: wait for the first successful ping within the grace
        # window.  A child that exits or never answers is unhealthy.
        deadline = spawn_time + cfg.startup_grace_s
        ready = False
        while not self._stop.is_set() and time.monotonic() < deadline:
            if child.poll() is not None:
                self.last_exit = child.returncode
                return False
            if _ping(self.host, self.port, cfg.ping_timeout_s):
                ready = True
                self._started.set()
                break
            if self._stop.wait(0.05):
                return False
        if self._stop.is_set():
            return False
        if not ready:
            self._kill_for_hang("never answered its startup ping")
            return False

        misses = 0
        healthy = False
        while not self._stop.is_set():
            if self._stop.wait(cfg.heartbeat_s):
                return healthy
            if child.poll() is not None:
                self.last_exit = child.returncode
                return healthy
            if _ping(self.host, self.port, cfg.ping_timeout_s):
                misses = 0
                if time.monotonic() - spawn_time >= cfg.healthy_after_s:
                    healthy = True
            else:
                misses += 1
                if misses >= cfg.heartbeat_misses:
                    self._kill_for_hang(
                        f"missed {misses} consecutive heartbeats")
                    return healthy
        return healthy

    def _kill_for_hang(self, reason: str) -> None:
        child = self._child
        if child is None:
            return
        print(f"repro-serve supervisor: child {child.pid} {reason}; "
              f"killing for restart", file=sys.stderr, flush=True)
        self._kill_group(child, signal.SIGKILL)
        child.wait()
        self.last_exit = child.returncode

    def _terminate_child(self) -> None:
        """Graceful child stop on supervisor exit: TERM, wait, then KILL."""
        child = self._child
        self._child = None
        self.child_pid = None
        if child is None or child.poll() is not None:
            return
        try:
            child.send_signal(signal.SIGTERM)
        except OSError:
            return
        try:
            child.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self._kill_group(child, signal.SIGKILL)
            child.wait()
