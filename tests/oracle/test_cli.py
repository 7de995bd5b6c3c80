"""The ``repro-oracle`` CLI: list, replay-as-regression-suite, shrink."""

import json

import pytest

from repro.core import bottleneck_decomposition
from repro.engine import EngineContext
from repro.exceptions import AuditError
from repro.graphs import ring
from repro.io.serialization import graph_to_dict
from repro.numeric import FLOAT
from repro.oracle import FailureCorpus, FailureRecord, attach_auditor, backend_to_dict
from repro.oracle.cli import main as oracle_main

from .test_audit import lie_about_max_flow


@pytest.fixture
def corpus_with_fixed_bug(tmp_path, monkeypatch):
    """A corpus holding one record from the lying-solver era: it replays
    clean against today's honest Dinic (i.e. the bug is fixed)."""
    ctx = EngineContext(cache_size=0)
    attach_auditor(ctx, level="cheap", corpus_dir=str(tmp_path))
    with monkeypatch.context() as liar:
        lie_about_max_flow(liar)
        with pytest.raises(AuditError):
            bottleneck_decomposition(ring([1.0, 2.0, 3.0]), FLOAT, ctx)
    return tmp_path


def _live_crash_record(tmp_path):
    """A record whose replay still fails: the payload graph has zero total
    weight, which the decomposition refuses -- a crash regression."""
    rec = FailureRecord(
        kind="decomposition",
        problems=("DecompositionError: zero total weight",),
        context={"solver": "dinic", "backend": backend_to_dict(FLOAT),
                 "zero_tol": 0.0, "level": "cheap"},
        payload={"graph": graph_to_dict(ring([0.0, 0.0, 0.0]))},
        created="2026-01-01T00:00:00Z",
    )
    return FailureCorpus(tmp_path).add(rec)


def test_list_empty_and_populated(tmp_path, capsys):
    assert oracle_main(["list", "--corpus", str(tmp_path / "nope")]) == 0
    assert "empty" in capsys.readouterr().out

    _live_crash_record(tmp_path)
    assert oracle_main(["list", "--corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "decomposition-" in out and "decomposition" in out


def test_replay_fixed_bug_exits_zero(corpus_with_fixed_bug, capsys):
    rc = oracle_main(["replay", "--corpus", str(corpus_with_fixed_bug)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[clean]" in out and "1/1 clean" in out


def test_replay_live_bug_exits_nonzero(tmp_path, capsys):
    _live_crash_record(tmp_path)
    rc = oracle_main(["replay", "--corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[REPRO]" in out and "still reproduce" in out


def test_replay_single_record_and_empty_corpus(tmp_path, capsys):
    assert oracle_main(["replay", "--corpus", str(tmp_path / "void")]) == 0
    assert "nothing to replay" in capsys.readouterr().out

    path = _live_crash_record(tmp_path)
    rc = oracle_main(["replay", "--corpus", str(tmp_path), "--record", str(path)])
    assert rc == 1


def test_shrink_minimizes_live_record_in_place(tmp_path, capsys):
    rec = FailureRecord(
        kind="decomposition",
        problems=("crash",),
        context={"solver": "dinic", "backend": backend_to_dict(FLOAT),
                 "zero_tol": 0.0, "level": "cheap"},
        payload={"graph": graph_to_dict(ring([0.0] * 6))},
    )
    path = FailureCorpus(tmp_path).add(rec)
    rc = oracle_main(["shrink", str(path), "--max-evals", "50"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "shrunk" in out
    with open(path) as f:
        data = json.load(f)
    assert data["payload"]["graph"]["n"] == 2
    assert data["payload"]["shrunk_from_n"] == 6


def test_shrink_refuses_non_graph_and_clean_records(corpus_with_fixed_bug, capsys):
    corpus = FailureCorpus(corpus_with_fixed_bug)
    [(path, rec)] = list(corpus)
    assert rec.kind == "flow"
    assert oracle_main(["shrink", str(path)]) == 2  # no graph payload
    assert "only graph-kind records" in capsys.readouterr().err
