"""End-to-end audit layer: a corrupted solver is caught, filed, replayed.

The central acceptance scenario: replace the engine's Dinic binding with a
deliberately lying max-flow solver, run real engine work through an
audited context, and check the full pipeline -- certificate failure,
counter bump, corpus record, :class:`AuditError` with the record path, and
a replay that reproduces while the lie is in place but comes back clean
against the honest solver.
"""

import pytest

import repro.engine.context as engine_context
from repro.core import bd_allocation, bottleneck_decomposition
from repro.engine import EngineContext, EngineSpec
from repro.exceptions import AuditError, EngineError
from repro.graphs import ring
from repro.numeric import FLOAT
from repro.oracle import (
    AuditConfig,
    FailureCorpus,
    attach_auditor,
    differential_flow_problems,
    replay_corpus,
    replay_record,
)


def lie_about_max_flow(monkeypatch, factor=2.0):
    """Replace the engine's Dinic binding with a solver that routes the
    flow correctly but reports ``factor`` times the true value."""
    honest = engine_context.dinic_max_flow

    def lying(net, s, t, zero_tol=0.0):
        return honest(net, s, t, zero_tol) * factor

    monkeypatch.setattr(engine_context, "dinic_max_flow", lying)


@pytest.fixture
def corrupted(tmp_path, monkeypatch):
    """An audited context whose Dinic lies, filing into tmp."""
    lie_about_max_flow(monkeypatch)
    ctx = EngineContext(cache_size=0)
    attach_auditor(ctx, level="cheap", corpus_dir=str(tmp_path / "corpus"))
    return ctx, monkeypatch, FailureCorpus(tmp_path / "corpus")


def test_corrupted_solver_is_caught_filed_and_replayable(corrupted):
    ctx, liar, corpus = corrupted
    g = ring([1.0, 2.0, 3.0, 4.0, 5.0])

    with pytest.raises(AuditError) as err:
        bottleneck_decomposition(g, FLOAT, ctx)

    # the exception carries the corpus record path
    assert err.value.record_path is not None
    assert str(corpus.root) in err.value.record_path
    assert ctx.counters.audit_violations == 1
    assert len(corpus) == 1

    [(path, rec)] = list(corpus)
    assert rec.kind == "flow"
    assert rec.context["solver"] == "dinic"
    assert any("cut" in p for p in rec.problems)

    # replay while the lie is in place: still broken
    assert replay_record(rec).reproduced
    # replay against the honest Dinic: the bug is "fixed"
    liar.undo()
    assert not replay_record(rec).reproduced
    results = replay_corpus(corpus)
    assert [r.reproduced for _, r in results] == [False]


def test_record_mode_harvests_without_raising(tmp_path, monkeypatch):
    lie_about_max_flow(monkeypatch)
    ctx = EngineContext(cache_size=0)
    attach_auditor(ctx, level="cheap", corpus_dir=str(tmp_path),
                   on_violation="record")
    g = ring([1.0, 2.0, 3.0])

    bottleneck_decomposition(g, FLOAT, ctx)  # completes despite the lies

    assert ctx.counters.audit_violations > 0
    assert len(FailureCorpus(tmp_path)) >= 1


def test_honest_run_files_nothing(tmp_path):
    ctx = EngineContext(cache_size=0)
    attach_auditor(ctx, level="paranoid", corpus_dir=str(tmp_path / "corpus"))
    g = ring([1.0, 2.0, 3.0, 4.0])
    bd_allocation(g, backend=FLOAT, ctx=ctx)
    assert ctx.counters.audit_violations == 0
    assert ctx.counters.audit_disagreements == 0
    assert ctx.counters.audit_flow_checks > 0
    assert ctx.counters.audit_differential_checks > 0
    assert not (tmp_path / "corpus").exists()  # lazy: no violations, no dir


def test_differential_layer_flags_value_disagreement():
    net_ctx = EngineContext(cache_size=0)
    from repro.flow.network import FlowNetwork

    net = FlowNetwork(3)
    net.add_edge(0, 1, 2.0)
    net.add_edge(1, 2, 1.0)
    value = net_ctx.max_flow(net, 0, 2)
    wrong = value + 0.5
    problems, checks = differential_flow_problems(
        net, 0, 2, wrong, 0.0, nx_node_limit=16)
    assert checks >= 2  # Edmonds-Karp + networkx
    assert all("disagreement" in p for p in problems)
    assert len(problems) == checks  # every reference disputes the wrong value


def test_audit_config_validation_and_paranoid_sampling():
    with pytest.raises(EngineError, match="audit level"):
        AuditConfig(level="frantic")
    with pytest.raises(EngineError, match="audit level"):
        AuditConfig(level="off")
    with pytest.raises(EngineError, match="on_violation"):
        AuditConfig(on_violation="explode")
    with pytest.raises(EngineError, match="sample_period"):
        AuditConfig(sample_period=0)

    ctx = EngineContext(cache_size=0)
    auditor = attach_auditor(ctx, level="paranoid", sample_period=13)
    assert auditor.config.sample_period == 1  # paranoid audits every call
    assert auditor.paranoid and auditor.differential

    assert attach_auditor(ctx, level="off") is None
    assert ctx.auditor is None


def test_spec_carries_audit_config_across_rebuild(tmp_path):
    ctx = EngineContext(cache_size=4)
    attach_auditor(ctx, level="differential", corpus_dir=str(tmp_path))
    spec = ctx.spec()
    assert spec.audit == "differential"
    assert spec.corpus_dir == str(tmp_path)

    rebuilt = spec.build()
    assert rebuilt.auditor is not None
    assert rebuilt.auditor.level_name == "differential"
    assert rebuilt.auditor.corpus_dir == str(tmp_path)

    plain = EngineSpec().build()
    assert plain.auditor is None


def test_stats_render_includes_audit_counters():
    from repro.experiments.base import format_engine_stats

    ctx = EngineContext(cache_size=0)
    attach_auditor(ctx, level="cheap")
    g = ring([1.0, 2.0, 3.0])
    bottleneck_decomposition(g, FLOAT, ctx)
    line = format_engine_stats(ctx.stats())
    assert "audit:" in line and "violations=0" in line

    quiet = EngineContext(cache_size=0)
    bottleneck_decomposition(g, FLOAT, quiet)
    assert "audit:" not in format_engine_stats(quiet.stats())
