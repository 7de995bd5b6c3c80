"""Command-line entry point: ``repro-fuzz``.

Usage::

    repro-fuzz [--iterations N] [--seed S] [--corpus DIR] [--audit LEVEL]
               [--grid K] [--iter-timeout SECS] [--json]

Runs the seeded structure-aware fuzz campaign (:mod:`repro.guard.fuzz`)
against the public pipeline and exits 0 when every iteration upheld the
hardening contract (typed error or audited-correct finite result), 1 when
any crash/hang/NaN escaped (survivors are shrunk and filed into the
corpus when ``--corpus`` is given, ready for ``repro-oracle replay``),
and 2 on operator error.

CI pins ``repro-fuzz --iterations 300 --seed 0 --corpus corpus`` as a
deterministic smoke gate.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..exceptions import ReproError

__all__ = ["main", "build_parser"]

AUDIT_LEVELS = ("off", "cheap", "differential", "paranoid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Structure-aware fuzzing of the load/decompose/allocate/"
                    "best-response pipeline",
    )
    parser.add_argument("--iterations", type=int, default=300, metavar="N",
                        help="fuzz iterations to run (default: 300)")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="deterministic campaign seed (default: 0)")
    parser.add_argument("--corpus", default=None, metavar="DIR",
                        help="file shrunk survivors into this failure corpus")
    parser.add_argument("--audit", choices=AUDIT_LEVELS, default="off",
                        help="attach the oracle auditor at this level; "
                             "'paranoid' makes every accepted result an "
                             "audited-correct one (default: off)")
    parser.add_argument("--grid", type=int, default=6, metavar="K",
                        help="best-response grid resolution (default: 6)")
    parser.add_argument("--iter-timeout", type=float, default=30.0,
                        metavar="SECS",
                        help="per-iteration wall-clock budget; exceeding it "
                             "is a 'hang' escape (0 disables; default: 30)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full report as JSON on stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.iterations <= 0:
        print("error: --iterations must be positive", file=sys.stderr)
        return 2
    from .fuzz import fuzz  # lazy: pulls in the whole public API

    try:
        report = fuzz(
            iterations=args.iterations,
            seed=args.seed,
            corpus_dir=args.corpus,
            audit=args.audit,
            grid=args.grid,
            iter_timeout=args.iter_timeout or None,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.as_json:
        json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"repro-fuzz: {report.summary()}")
        if report.rejected_by:
            for name in sorted(report.rejected_by):
                print(f"  rejected by {name}: {report.rejected_by[name]}")
        for _, out in report.survivors:
            print(f"  SURVIVOR [{out.status}] at {out.stage}: {out.detail}")
        for path in report.corpus_paths:
            print(f"  filed: {path}")
    if report.ok:
        if not args.as_json:
            print("repro-fuzz: contract held (typed error or audited-correct "
                  "result on every iteration)")
        return 0
    print(f"repro-fuzz: {len(report.survivors)} escape(s) -- see survivors "
          "above", file=sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
