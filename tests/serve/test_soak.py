"""Soak-harness smoke: a short seeded run end-to-end, zero problems.

The full soak (and its CI gate) lives behind ``repro-serve soak``; this
test keeps a scaled-down version inside tier-1 so a regression in the
harness itself -- script generation, the audit leg, report shape -- fails
fast, not only in the nightly job.
"""

from __future__ import annotations

from repro.obs.bench import BENCH_FORMAT, compare_reports
from repro.serve.load import (
    SOAK_BENCH_NAME,
    LoadConfig,
    build_requests,
    run_soak,
)
from repro.serve.server import ServeConfig


def test_request_script_is_deterministic_and_mixed():
    cfg = LoadConfig(requests=80, seed=7, malformed_rate=0.1, audit_rate=0.2)
    s1 = build_requests(cfg)
    s2 = build_requests(cfg)
    assert [e["line"] for e in s1] == [e["line"] for e in s2]
    kinds = {e["kind"] for e in s1}
    assert kinds == {"solve", "malformed"}
    audited = [e for e in s1 if e["expect"] is not None]
    assert audited and all(e["kind"] == "solve" for e in audited)
    # Heavy-tailed popularity: repeated economies exist even among 80
    # requests.  Repeats arrive *relabelled*, so the raw payloads differ --
    # count distinct canonical fingerprints, like the server does.
    import json

    from repro.graphs import canonical_signature_bytes
    from repro.io import graph_from_dict

    keys = [canonical_signature_bytes(graph_from_dict(
                json.loads(e["line"])["graph"]))
            for e in s1 if e["kind"] == "solve"]
    assert len(set(keys)) < len(keys)


def test_short_soak_zero_problems_and_gateable_report():
    serve_cfg = ServeConfig(shards=2, batch_max=8)
    load_cfg = LoadConfig(requests=60, clients=4, seed=1,
                          malformed_rate=0.05, audit_rate=0.15)
    report = run_soak(serve_cfg, load_cfg, tag="soak-test")
    assert report.pop("_problems") == []
    assert report["format"] == BENCH_FORMAT
    bench = report["benchmarks"][SOAK_BENCH_NAME]
    assert bench["requests"] == 60
    assert bench["counters"]["serve_requests"] == 60
    assert (bench["counters"]["serve_responses"]
            + bench["counters"]["serve_errors"]) == 60
    assert bench["latency_ms"]["p50"] > 0
    assert bench["latency_ms"]["p99"] >= bench["latency_ms"]["p50"]
    assert bench["throughput_rps"] > 0
    assert bench["audited"] > 0
    # The report is its own valid baseline: comparing a run against itself
    # passes the gate with zero counter drift -- the exact CI contract.
    cmp = compare_reports(report, report, threshold_pct=25.0,
                          fail_on_counters=True)
    assert cmp["ok"]


def test_soak_with_fault_injection_still_clean():
    """The chaos leg: a worker kill on the first attempt of every flush
    is absorbed by the retry ladder -- responses stay bit-perfect."""
    from repro.runtime import RuntimePolicy

    serve_cfg = ServeConfig(shards=1, batch_max=8,
                            policy=RuntimePolicy(retries=2, timeout=60.0),
                            faults="worker:kill@0")
    load_cfg = LoadConfig(requests=25, clients=2, seed=3,
                          malformed_rate=0.0, audit_rate=0.3)
    report = run_soak(serve_cfg, load_cfg, tag="soak-chaos")
    assert report.pop("_problems") == []
    bench = report["benchmarks"][SOAK_BENCH_NAME]
    assert bench["counters"]["serve_errors"] == 0
    assert bench["counters"]["serve_responses"] == 25
