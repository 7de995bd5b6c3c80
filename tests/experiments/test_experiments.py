"""Integration tests: every experiment runs at smoke scale and passes its
internal checks -- the "shape of the paper" certification."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.base import (
    ExperimentOutput,
    Table,
    format_engine_stats,
    scale_factor,
)


ALL_IDS = sorted(EXPERIMENTS)


def test_registry_contains_all_paper_artifacts():
    assert set(ALL_IDS) == {
        "EXP-F1", "EXP-F2", "EXP-F3", "EXP-F4",
        "EXP-T8", "EXP-LB", "EXP-BND", "EXP-CNV",
        "EXP-T10", "EXP-STG", "EXP-P12", "EXP-GEN", "EXP-MSP", "EXP-SPC", "EXP-CMB",
        "EXP-S1", "EXP-S2", "EXP-S3", "EXP-S4",
    }


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_passes_at_smoke_scale(exp_id):
    out = run_experiment(exp_id, seed=0, scale="smoke")
    assert isinstance(out, ExperimentOutput)
    assert out.exp_id == exp_id
    assert out.tables, "every experiment prints at least one table"
    assert out.checks, "every experiment asserts at least one check"
    failed = [c for c in out.checks if not c.ok]
    assert not failed, f"{exp_id}: " + "; ".join(f"{c.name}: {c.details}" for c in failed)


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_renders(exp_id):
    out = run_experiment(exp_id, seed=0, scale="smoke")
    text = out.render()
    assert exp_id in text
    assert "PASS" in text


def test_unknown_experiment_rejected():
    with pytest.raises(ExperimentError):
        run_experiment("EXP-NOPE")


def test_unknown_scale_rejected():
    with pytest.raises(ExperimentError):
        run_experiment("EXP-F1", scale="galactic")


def test_scale_factor_values():
    assert scale_factor("smoke") == 1
    assert scale_factor("default") == 4
    assert scale_factor("full") == 16


def _span(total_s: float) -> dict:
    return {"count": 1, "total_s": total_s, "self_s": total_s}


def test_stats_line_times_each_span_name_once():
    # Hand-built span tree: decompose re-entered below itself, and
    # decompose and allocate under best_response as well as top level.
    spans = {
        "decompose": _span(1.0),
        "decompose/decompose": _span(0.5),
        "decompose/decompose/flow": _span(0.25),
        "best_response": _span(4.0),
        "best_response/decompose": _span(2.0),
        "best_response/allocate": _span(1.5),
        "allocate": _span(0.5),
        "sim/attack": _span(6.0),
        "sim/attack/best_response": _span(1.0),
    }
    line = format_engine_stats({"spans": spans, "cache": {}})
    segment = line.split(" | spans: ")[1]
    # The re-entry sits inside the outer interval and counts once; a name
    # under several parents sums; a name holding the separator stays whole.
    assert segment == ("sim/attack=6.000s best_response=5.000s "
                       "decompose=3.000s allocate=2.000s flow=0.250s")


def test_table_renders_title_and_rule():
    t = Table(title="X", headers=["h"], rows=[[1]])
    assert "X" in t.render()


def test_headline_numbers_smoke():
    """The two headline quantities: max zeta <= 2 and the lower bound's
    approach to 2 (these are what EXPERIMENTS.md records)."""
    t8 = run_experiment("EXP-T8", scale="smoke")
    assert t8.data["max_zeta"] <= 2.0 + 1e-6
    assert t8.data["lb_zeta"] > 1.999
    lb = run_experiment("EXP-LB", scale="smoke")
    assert max(lb.data["zetas"]) > 1.99
