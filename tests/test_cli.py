"""Tests for the repro-exp command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "EXP-T8" in out and "EXP-F1" in out


def test_run_command_smoke(capsys, tmp_path):
    json_path = str(tmp_path / "out.json")
    code = main(["run", "EXP-F1", "--scale", "smoke", "--json", json_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "Fig. 1" in out and "PASS" in out
    payload = json.loads(open(json_path).read())
    assert payload["exp_id"] == "EXP-F1" and payload["ok"] is True


def test_run_lowercase_id(capsys):
    assert main(["run", "exp-f1", "--scale", "smoke"]) == 0


def test_run_unknown_experiment(capsys):
    assert main(["run", "EXP-NOPE"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_with_stats(capsys):
    code = main(["run", "EXP-F1", "--scale", "smoke", "--stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "engine: backend=float" in out
    # the CLI context is installed as the run's default, so even experiments
    # without a ctx parameter route their solves (and counters) through it
    assert "flow calls=0" not in out


def test_stats_traces_and_times_each_span_name(capsys):
    # --stats attaches the tracer itself, so the timing segment names
    # every span, dinkelbach included.
    assert main(["run", "EXP-F1", "--scale", "smoke", "--stats"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("engine:")
    assert " | spans: " in line
    assert "decompose=" in line and "dinkelbach=" in line


def test_sim_stats_keeps_namespaced_span_names(capsys):
    from repro.sim.cli import main as sim_main

    assert sim_main(["run", "EXP-S1", "--seed", "0", "--epochs", "1",
                     "--stats"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "sim/attacks=" in line and "decompose=" in line


def test_parsers_reject_retired_flags():
    from repro.sim.cli import build_parser as build_sim_parser

    for parse, argv in ((build_parser().parse_args, ["run", "EXP-F1"]),
                        (build_sim_parser().parse_args, ["run", "EXP-S1"])):
        for flag in (["--trace"], ["--max-bruteforce", "4"]):
            with pytest.raises(SystemExit):
                parse(argv + flag)


def test_run_no_cache(capsys):
    code = main(["run", "EXP-F1", "--scale", "smoke", "--no-cache", "--stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cache hits=0" in out


def test_stats_off_by_default(capsys):
    assert main(["run", "EXP-F1", "--scale", "smoke"]) == 0
    assert "engine:" not in capsys.readouterr().out


def test_run_with_audit_reports_counters(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a violation would file under tmp, not the repo
    code = main(["run", "EXP-F1", "--scale", "smoke", "--audit", "cheap", "--stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert "audit:" in out and "violations=0" in out
    assert not (tmp_path / "corpus").exists()  # clean run files nothing


def test_run_with_differential_audit_and_custom_corpus(capsys, tmp_path):
    corpus_dir = str(tmp_path / "failures")
    code = main(["run", "EXP-F1", "--scale", "smoke",
                 "--audit", "differential", "--corpus", corpus_dir, "--stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert "disagreements=0" in out


def test_parser_rejects_bad_audit_level():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "EXP-F1", "--audit", "frantic"])


def test_parser_rejects_bad_solver():
    from repro.sim.cli import build_parser as build_sim_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "EXP-T8", "--solver", "simplex"])
    # there is one engine: neither CLI takes an --engine flag any more
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "EXP-T8", "--engine", "classic"])
    with pytest.raises(SystemExit):
        build_sim_parser().parse_args(["run", "EXP-S1", "--engine", "classic"])


def test_parser_rejects_bad_scale():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "EXP-F1", "--scale", "huge"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])

def test_parser_accepts_runtime_flags():
    args = build_parser().parse_args([
        "run", "EXP-T8", "--workers", "2", "--timeout", "30",
        "--retries", "3", "--checkpoint", "j.ckpt",
        "--inject-faults", "cell:exc@3",
    ])
    assert args.workers == 2 and args.timeout == 30.0 and args.retries == 3
    assert args.checkpoint == "j.ckpt" and args.inject_faults == "cell:exc@3"


def test_parser_rejects_bad_start_method():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "EXP-T8", "--start-method", "thread"])


def test_invalid_fault_spec_is_clean_cli_error(capsys):
    assert main(["run", "EXP-F1", "--scale", "smoke",
                 "--inject-faults", "gibberish"]) == 2
    assert "fault" in capsys.readouterr().err


def test_run_with_runtime_stats_segment(capsys):
    code = main(["run", "EXP-F1", "--scale", "smoke", "--retries", "1",
                 "--inject-faults", "exp:exc@0", "--stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert "runtime:" in out and "retries=1" in out and "injected=1" in out


def test_checkpoint_flag_resumes_suite(capsys, tmp_path):
    ckpt = str(tmp_path / "suite.ckpt")
    base = ["run", "EXP-F1", "--scale", "smoke", "--checkpoint", ckpt]
    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(base + ["--stats"]) == 0
    second = capsys.readouterr().out
    assert "checkpoint hits=1" in second
    assert first in second  # replayed render identical, stats line added
