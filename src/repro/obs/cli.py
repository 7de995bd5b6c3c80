"""``repro-bench``: run the benchmark suite, emit/compare perf baselines.

Three subcommands::

    repro-bench list                      # show the suite
    repro-bench run  [--tag T] [--only PAT ...] [--rounds N] [--out PATH]
    repro-bench compare BASE NEW [--threshold PCT] [--fail-on-counters]

``run`` writes ``BENCH_<tag>.json`` (schema described in
:mod:`repro.obs.bench`); ``compare`` exits non-zero when any benchmark's
wall time regressed past the threshold or a baseline benchmark went
missing -- the shape CI wants for a perf gate.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    BENCH_SUITE,
    DEFAULT_THRESHOLD_PCT,
    BenchError,
    compare_reports,
    format_compare,
    load_report,
    run_bench,
    save_report,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark harness with machine-readable baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite")

    run_p = sub.add_parser("run", help="run benchmarks, write BENCH_<tag>.json")
    run_p.add_argument("--tag", default="local",
                       help="baseline tag recorded in the report (default: local)")
    run_p.add_argument("--out", default=None,
                       help="output path (default: BENCH_<tag>.json)")
    run_p.add_argument("--only", action="append", default=None, metavar="PAT",
                       help="substring filter; repeatable, OR semantics")
    run_p.add_argument("--rounds", type=int, default=3,
                       help="measurement rounds per case; wall time is the "
                            "best of them (default: 3)")

    cmp_p = sub.add_parser("compare", help="diff two bench reports, gate on regressions")
    cmp_p.add_argument("base", help="baseline BENCH_*.json")
    cmp_p.add_argument("new", help="candidate BENCH_*.json")
    cmp_p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_PCT,
                       metavar="PCT",
                       help=f"allowed wall-time regression in percent "
                            f"(default: {DEFAULT_THRESHOLD_PCT:g})")
    cmp_p.add_argument("--fail-on-counters", action="store_true",
                       help="also fail when deterministic counter totals drift")
    cmp_p.add_argument("--allow-missing", action="store_true",
                       help="don't fail when baseline benchmarks are absent "
                            "from the new report (deliberate --only subsets)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for case in BENCH_SUITE:
                print(f"{case.name:36s} [{case.group}]")
            return 0
        if args.command == "run":
            report = run_bench(tag=args.tag, only=args.only, rounds=args.rounds)
            out = args.out or f"BENCH_{args.tag}.json"
            save_report(report, out)
            total = report["totals"]["wall_s"]
            print(f"wrote {out}: {len(report['benchmarks'])} benchmark(s), "
                  f"total wall {total:.3f}s, rounds={report['rounds']}")
            return 0
        # compare
        result = compare_reports(
            load_report(args.base),
            load_report(args.new),
            threshold_pct=args.threshold,
            fail_on_counters=args.fail_on_counters,
            allow_missing=args.allow_missing,
        )
        print(format_compare(result))
        return 0 if result["ok"] else 1
    except BenchError as exc:
        print(f"repro-bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
