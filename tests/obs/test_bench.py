"""BENCH_*.json schema stability: round-trip, fingerprint, compare gate."""

import copy
import json

import pytest

# NB: ``bench_names`` is aliased on import -- the repo's pytest config
# collects ``bench_*`` functions (the pytest-benchmark suite convention).
from repro.obs.bench import (
    BENCH_FORMAT,
    BENCH_SUITE,
    BenchError,
    compare_reports,
    format_compare,
    load_report,
    run_bench,
    save_report,
    select_cases,
)
from repro.obs.bench import bench_names as _names

#: One cheap case per group so schema tests stay fast.
FAST_SUBSET = ["decompose_float_n8", "maxflow_dinic_n40", "best_response_n6"]


@pytest.fixture(scope="module")
def report():
    return run_bench(tag="test", only=FAST_SUBSET, rounds=1)


def test_schema_top_level_fields(report):
    assert report["format"] == BENCH_FORMAT
    assert report["tag"] == "test"
    assert report["rounds"] == 1
    assert isinstance(report["created_utc"], str)
    assert set(report["benchmarks"]) == set(FAST_SUBSET)
    assert report["totals"]["wall_s"] == pytest.approx(
        sum(b["wall_s"] for b in report["benchmarks"].values())
    )


def test_schema_fingerprint_fields(report):
    fp = report["fingerprint"]
    for key in ("python", "implementation", "platform", "machine", "numpy", "repro"):
        assert fp[key], f"fingerprint missing {key}"


def test_schema_per_benchmark_fields(report):
    for name, b in report["benchmarks"].items():
        assert b["group"] in {"core", "attack", "flow", "experiment"}
        assert b["wall_s"] > 0
        assert isinstance(b["counters"], dict)
        assert isinstance(b["spans"], dict)
        # Spans are the one record of time: no phase timers anywhere.
        assert "phase_seconds" not in b
        assert "phase_seconds" not in b["counters"]
    decomp = report["benchmarks"]["decompose_float_n8"]
    assert decomp["counters"]["decompositions"] == 1
    assert "decompose" in decomp["spans"]


def test_report_round_trips_through_json(tmp_path, report):
    path = tmp_path / "BENCH_test.json"
    save_report(report, str(path))
    loaded = load_report(str(path))
    assert loaded == json.loads(json.dumps(report))  # tuple/list normalised
    assert loaded["benchmarks"].keys() == report["benchmarks"].keys()


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": \"something-else\"}")
    with pytest.raises(BenchError):
        load_report(str(bad))
    missing = tmp_path / "missing.json"
    with pytest.raises(BenchError):
        load_report(str(missing))


def test_compare_identical_reports_pass(report):
    result = compare_reports(report, report)
    assert result["ok"]
    assert result["regressions"] == []
    assert result["missing"] == []
    assert result["counter_drift"] == []
    assert "OK" in format_compare(result)


def test_compare_flags_injected_slowdown(report):
    slow = copy.deepcopy(report)
    slow["benchmarks"]["decompose_float_n8"]["wall_s"] *= 2.0
    result = compare_reports(report, slow, threshold_pct=25.0)
    assert not result["ok"]
    assert result["regressions"] == ["decompose_float_n8"]
    assert "REGRESSED" in format_compare(result)
    # ... but a generous threshold lets the same diff through.
    assert compare_reports(report, slow, threshold_pct=150.0)["ok"]


def test_compare_flags_missing_benchmark(report):
    shrunk = copy.deepcopy(report)
    del shrunk["benchmarks"]["maxflow_dinic_n40"]
    result = compare_reports(report, shrunk)
    assert not result["ok"]
    assert result["missing"] == ["maxflow_dinic_n40"]
    # A deliberate subset run opts out of the missing-benchmark gate.
    assert compare_reports(report, shrunk, allow_missing=True)["ok"]
    # The reverse direction (new benchmark, no baseline) is informational.
    result = compare_reports(shrunk, report)
    assert result["ok"]
    assert result["added"] == ["maxflow_dinic_n40"]


def test_compare_with_no_shared_benchmark_fails(report):
    """A renamed benchmark leaves nothing to compare: the gate must fail
    even with ``allow_missing``, where it used to pass on zero rows."""
    renamed = copy.deepcopy(report)
    renamed["benchmarks"] = {
        f"{name}_renamed": body
        for name, body in renamed["benchmarks"].items()}
    for allow_missing in (False, True):
        result = compare_reports(report, renamed, fail_on_counters=True,
                                 allow_missing=allow_missing)
        assert result["rows"] == []
        assert not result["ok"]
        assert "== FAIL: 0 compared" in format_compare(result)
    # One shared benchmark is enough to be a real comparison.
    renamed["benchmarks"]["decompose_float_n8"] = copy.deepcopy(
        report["benchmarks"]["decompose_float_n8"])
    result = compare_reports(report, renamed, allow_missing=True)
    assert result["ok"] and len(result["rows"]) == 1


def test_compare_counter_drift_reported_not_fatal_by_default(report):
    drifted = copy.deepcopy(report)
    drifted["benchmarks"]["decompose_float_n8"]["counters"]["flow_calls"] += 1
    result = compare_reports(report, drifted)
    assert result["ok"]
    assert result["counter_drift"] == ["decompose_float_n8"]
    strict = compare_reports(report, drifted, fail_on_counters=True)
    assert not strict["ok"]


def test_compare_rejects_format_mismatch(report):
    alien = copy.deepcopy(report)
    alien["format"] = "repro-bench/999"
    with pytest.raises(BenchError):
        compare_reports(report, alien)
    with pytest.raises(BenchError):
        compare_reports(alien, report)


def test_select_cases_filters_and_validates():
    assert [c.name for c in select_cases(None)] == _names()
    subset = select_cases(["maxflow"])
    assert subset and all("maxflow" in c.name for c in subset)
    with pytest.raises(BenchError):
        select_cases(["no-such-benchmark"])


def test_counters_deterministic_across_rounds():
    # Counter totals must be a pure function of the workload: two separate
    # runs of the same case agree exactly (wall time may differ).
    a = run_bench(only=["decompose_float_n32"], rounds=1)
    b = run_bench(only=["decompose_float_n32"], rounds=2)
    assert (a["benchmarks"]["decompose_float_n32"]["counters"]
            == b["benchmarks"]["decompose_float_n32"]["counters"])


def test_rounds_must_be_positive():
    with pytest.raises(BenchError):
        run_bench(rounds=0)


def test_suite_names_are_unique():
    names = _names()
    assert len(names) == len(set(names))
    assert len(BENCH_SUITE) >= 12
