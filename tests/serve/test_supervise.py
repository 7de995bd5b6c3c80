"""The watchdog: restart-after-SIGKILL, hang detection, crash-loop give-up.

Real subprocesses throughout -- the supervisor's whole job is process
lifecycle, so in-thread stand-ins would test nothing.  The fast paths
(instant-exit children, never-accepting listeners) keep the wall cost of
the give-up tests bounded by the configured backoff, not by real serving.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import CrashLoopError, MalformedInputError
from repro.runtime import RuntimePolicy
from repro.serve import DurabilityConfig, ServeConfig
from repro.serve.cli import _build_parser, _serve_config
from repro.serve.supervise import (
    RESTARTS_ENV,
    SuperviseConfig,
    Supervisor,
    serve_argv,
)

from .client import Client

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("kwargs", [
    {"heartbeat_s": 0.0},
    {"heartbeat_misses": 0},
    {"max_crash_loops": 0},
    {"backoff_base_s": float("nan")},
    {"backoff_base_s": 1.0, "backoff_cap_s": 0.5},
])
def test_supervise_config_rejects_malformed(kwargs):
    with pytest.raises(MalformedInputError):
        SuperviseConfig(**kwargs).validated()


def test_sigkill_restarts_child_and_restarts_gauge_advances():
    port = _free_port()
    sup = Supervisor(
        serve_argv(ServeConfig(port=port, shards=1)),
        "127.0.0.1", port,
        SuperviseConfig(heartbeat_s=0.1, backoff_base_s=0.05,
                        backoff_cap_s=0.2, healthy_after_s=0.2,
                        startup_grace_s=30.0),
        env=_child_env())
    thread = threading.Thread(target=sup.run, daemon=True)
    thread.start()
    try:
        assert sup.wait_ready(30.0)
        first_pid = sup.kill_child()
        assert first_pid is not None
        # The watchdog notices the death and brings up a replacement with
        # the restart generation in its environment.
        deadline = time.monotonic() + 30.0
        stats = None
        while time.monotonic() < deadline:
            if sup.child_pid not in (None, first_pid):
                try:
                    client = Client(port, timeout=5.0)
                    try:
                        stats = client.rpc({"op": "stats"})["result"]
                    finally:
                        client.close()
                    break
                except OSError:
                    pass
            time.sleep(0.05)
        assert stats is not None, "no replacement child became reachable"
        assert stats["restarts"] == sup.restarts == 1
    finally:
        sup.stop()
        thread.join(30.0)
        assert not thread.is_alive()


def test_crash_loop_gives_up_typed():
    port = _free_port()
    argv = [sys.executable, "-c", "raise SystemExit(7)"]
    sup = Supervisor(
        argv, "127.0.0.1", port,
        SuperviseConfig(heartbeat_s=0.05, backoff_base_s=0.01,
                        backoff_cap_s=0.05, max_crash_loops=3,
                        healthy_after_s=0.5, startup_grace_s=10.0))
    with pytest.raises(CrashLoopError) as excinfo:
        sup.run()
    assert excinfo.value.last_exit == 7
    assert excinfo.value.restarts == sup.restarts
    assert sup.crash_loops > 3


def test_hung_child_is_killed_not_waited_on_forever():
    """A child that binds and listens but never serves is wedged, not up.

    The decoy accepts TCP connections into its backlog (so a bare connect
    check would call it healthy) but never answers the protocol ping --
    exactly the failure mode heartbeats exist for.
    """
    port = _free_port()
    argv = [sys.executable, "-c", (
        "import socket, time\n"
        f"s = socket.socket(); s.bind(('127.0.0.1', {port})); s.listen(1)\n"
        "time.sleep(600)\n")]
    sup = Supervisor(
        argv, "127.0.0.1", port,
        SuperviseConfig(heartbeat_s=0.05, heartbeat_misses=2,
                        ping_timeout_s=0.5, backoff_base_s=0.01,
                        backoff_cap_s=0.05, max_crash_loops=1,
                        healthy_after_s=0.5, startup_grace_s=1.0))
    t0 = time.monotonic()
    with pytest.raises(CrashLoopError):
        sup.run()
    # Give-up came from kill-on-hang cycles, far sooner than any child's
    # 600s sleep -- the supervisor never trusted a silent process.
    assert time.monotonic() - t0 < 60.0
    assert sup.child_pid is None


def test_serve_argv_shape(tmp_path):
    """The child command line runs the server its config describes: the
    CLI parses it back into an equal ServeConfig."""
    cfg = ServeConfig(
        port=4242, shards=1, batch_max=4, cache_size=0, queue_cap=32,
        faults="worker:kill@0", default_deadline_ms=500.0,
        breaker_threshold=2, breaker_cooldown_s=0.5,
        policy=RuntimePolicy(retries=2, timeout=60.0),
        durability=DurabilityConfig(dir=str(tmp_path), fsync="batch",
                                    snapshot_interval_s=2.0))
    argv = serve_argv(cfg)
    assert argv[:4] == [sys.executable, "-m", "repro.serve.cli", "serve"]
    assert _serve_config(_build_parser().parse_args(argv[3:])) == cfg
    assert RESTARTS_ENV == "REPRO_SERVE_RESTARTS"
