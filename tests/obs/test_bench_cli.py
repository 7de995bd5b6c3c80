"""repro-bench CLI: exit codes, file outputs, compare gating."""

import json

import pytest

from repro.obs.cli import main


def test_list_names_every_case(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "decompose_float_n8" in out
    assert "[flow]" in out


def test_run_writes_default_named_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "--tag", "t1", "--only", "maxflow_dinic", "--rounds", "1"])
    assert rc == 0
    report = json.loads((tmp_path / "BENCH_t1.json").read_text())
    assert report["tag"] == "t1"
    assert list(report["benchmarks"]) == ["maxflow_dinic_n40"]
    assert "wrote BENCH_t1.json" in capsys.readouterr().out


def test_run_unknown_filter_exits_2(capsys):
    assert main(["run", "--only", "nonexistent-case"]) == 2
    assert "error" in capsys.readouterr().err


def test_compare_identical_exits_0(tmp_path, capsys):
    out = tmp_path / "b.json"
    main(["run", "--only", "maxflow_dinic", "--rounds", "1", "--out", str(out)])
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == 0
    assert "== OK" in capsys.readouterr().out


def test_compare_regression_exits_1(tmp_path, capsys):
    base = tmp_path / "base.json"
    main(["run", "--only", "maxflow_dinic", "--rounds", "1", "--out", str(base)])
    slow_report = json.loads(base.read_text())
    slow_report["benchmarks"]["maxflow_dinic_n40"]["wall_s"] *= 3.0
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(slow_report))
    capsys.readouterr()
    assert main(["compare", str(base), str(slow), "--threshold", "25"]) == 1
    assert "REGRESSED" in capsys.readouterr().out
    # A threshold above the injected 3x slowdown passes.
    assert main(["compare", str(base), str(slow), "--threshold", "300"]) == 0


def test_compare_subset_needs_allow_missing(tmp_path, capsys):
    full = tmp_path / "full.json"
    sub = tmp_path / "sub.json"
    main(["run", "--only", "maxflow", "--only", "decompose_float_n8",
          "--rounds", "1", "--out", str(full)])
    main(["run", "--only", "maxflow_dinic", "--rounds", "1", "--out", str(sub)])
    capsys.readouterr()
    assert main(["compare", str(full), str(sub), "--threshold", "300"]) == 1
    assert main(["compare", str(full), str(sub), "--threshold", "300",
                 "--allow-missing"]) == 0


def test_compare_unreadable_file_exits_2(tmp_path, capsys):
    good = tmp_path / "g.json"
    main(["run", "--only", "maxflow_dinic", "--rounds", "1", "--out", str(good)])
    assert main(["compare", str(good), str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
