"""Crash-soak smoke: a scaled-down ``repro-serve durable`` inside tier-1.

The full chaos gate lives in CI; this keeps the harness itself honest --
supervised child spawn, the SIGKILL lever, failover-driven clients, the
exactly-one-typed-outcome tiling, and the report shape -- at a size that
stays in unit-test budget.  One real kill is non-negotiable: the whole
point is traffic surviving a restart.
"""

from __future__ import annotations

import json

from repro.obs.bench import BENCH_FORMAT
from repro.serve.cli import main
from repro.serve.load import DURABLE_BENCH_NAME


def test_short_crash_soak_zero_problems(tmp_path, capsys):
    out = tmp_path / "durable.json"
    rc = main(["durable", "--requests", "24", "--clients", "4",
               "--seed", "11", "--kill-after", "6", "--kills", "1",
               "--fsync", "batch", "--snapshot-interval", "1.0",
               "--out", str(out), "--tag", "durable-test"])
    assert rc == 0, capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["format"] == BENCH_FORMAT
    bench = report["benchmarks"][DURABLE_BENCH_NAME]
    assert bench["problems"] == 0
    # Exactly-one-typed-outcome tiling, all ok, across a real SIGKILL.
    assert sum(bench["outcomes"].values()) == 24
    assert bench["outcomes"]["ok"] == 24
    assert len(bench["kills"]) == 1
    assert bench["restarts"] >= 1
    assert bench["counters"] == {}  # crash timing: wall_s + problems gate
