"""Command-line entry point: ``repro-sim``.

Usage::

    repro-sim list                          # enumerate scenario presets
    repro-sim run EXP-S1 [--seed 0] [--epochs N] [--json out.json]
    repro-sim replay out.json               # re-run a dump, compare bit-exactly
    repro-sim sweep EXP-S1 --seeds 8        # the same scenario across seeds

``run`` executes one population scenario epoch by epoch and prints a
per-epoch summary (population size, churn, per-strategy best-response
ratio); the exit code is 0 when every empirical incentive ratio stayed
within ``2 + zeta_slack`` and no corpus record was filed, 1 otherwise.
All the ``repro-exp`` engine/runtime flags apply (same semantics):
``--workers`` parallelizes the attack cells, ``--checkpoint`` journals
them for bit-identical resume (the journal fingerprint covers the full
scenario including the adversary-strategy mix, so resuming against a
different scenario refuses loudly), ``--inject-faults`` arms chaos
testing, ``--audit`` attaches the oracle layer to every underlying solve.

``replay`` re-executes the scenario recorded in a ``--json`` dump with
the same seed/epochs and verifies the result is bit-identical -- the
determinism gate CI's chaos leg diffs against a clean run.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..cli import _engine_context
from ..engine import using_context
from ..exceptions import ReproError
from ..io import dump_result
from ..runtime import clear_injector
from .runner import run_scenario
from .scenario import SCENARIOS, resolve_scenario

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Adversarial population simulator over the paper's rings "
                    "(EXP-S scenario family)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list scenario presets")

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", help="scenario name, e.g. EXP-S1")
    _common(run_p)

    rep_p = sub.add_parser("replay", help="re-run a --json dump and compare")
    rep_p.add_argument("path", help="JSON file produced by 'run --json'")
    _common(rep_p)

    sw_p = sub.add_parser("sweep", help="one scenario across a seed range")
    sw_p.add_argument("scenario", help="scenario name, e.g. EXP-S1")
    sw_p.add_argument("--seeds", type=int, default=4, metavar="N",
                      help="run seeds 0..N-1 (default 4)")
    _common(sw_p)
    return parser


def _common(p: argparse.ArgumentParser) -> None:
    """The ``repro-exp`` engine/runtime flag set, minus ``--scale`` (a
    scenario's size is its ``--epochs``), so :func:`repro.cli._engine_context`
    can build the context for both CLIs."""
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's seed")
    p.add_argument("--epochs", type=int, default=None,
                   help="override the scenario's epoch count")
    p.add_argument("--json", default=None,
                   help="also dump the full structured result to this path")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the bottleneck-decomposition cache")
    p.add_argument("--stats", action="store_true",
                   help="trace the run and print engine counters and "
                        "the time of each span name after it")
    p.add_argument("--audit", default="off",
                   choices=["off", "cheap", "differential", "paranoid"],
                   help="attach the oracle audit layer to every solve")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="failure-corpus directory; zeta-bound violations "
                        "file shrunken best_response records here")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="processes for the attack cells (0 = serial)")
    p.add_argument("--timeout", type=float, default=None, metavar="S")
    p.add_argument("--retries", type=int, default=0, metavar="K")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="append-only resume journal for the attack cells; "
                        "fingerprint covers the full scenario incl. the "
                        "strategy mix")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="deterministic fault-injection spec "
                        "(e.g. 'cell:exc@3;worker:kill@5')")
    p.add_argument("--max-memory", type=float, default=None, metavar="MB")
    p.add_argument("--max-cpu", type=float, default=None, metavar="S")


def _execute(args: argparse.Namespace, scenario, seed=None, epochs=None):
    """Build the engine context and run one scenario under it."""
    ctx = _engine_context(args)
    try:
        with using_context(ctx):
            result = run_scenario(
                scenario,
                seed=args.seed if seed is None else seed,
                epochs=args.epochs if epochs is None else epochs,
                ctx=ctx,
                processes=args.workers,
                checkpoint=args.checkpoint,
                corpus_dir=args.corpus,
            )
    finally:
        clear_injector()
    return ctx, result


def _render(result, stats: bool, ctx) -> str:
    s = result.scenario
    bound = 2.0 + s.zeta_slack
    lines = [
        f"== {s.name} seed={s.seed} epochs={result.epochs} "
        f"strategies={s.discriminator()} fingerprint={result.fingerprint}",
        f"{'epoch':>5s} {'n':>4s} {'churn':>12s} {'max zeta':>12s}  outcomes",
    ]
    for r in result.reports:
        churn = f"+{len(r.joined)}/-{len(r.left)}"
        outs = " ".join(
            f"{o.strategy}[a{o.agent_id}]={o.ratio:.6f}" for o in r.outcomes
        )
        lines.append(f"{r.epoch:>5d} {r.n:>4d} {churn:>12s} "
                     f"{r.max_ratio:>12.6f}  {outs}")
    verdict = "PASS" if result.max_ratio <= bound and not result.violations \
        else "FAIL"
    lines.append(
        f"== {verdict}: max zeta {result.max_ratio:.9f} vs bound 2 + "
        f"{s.zeta_slack:g}; violations: {len(result.violations)}"
    )
    for v in result.violations:
        lines.append(f"   VIOLATION epoch {v['epoch']} agent {v['agent_id']} "
                     f"{v['strategy']}: zeta={v['ratio']:.9f}"
                     + (f" -> {v['record']}" if "record" in v else ""))
    if stats:
        from ..experiments.base import format_engine_stats

        lines.append(format_engine_stats(ctx.stats()))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for name, scen in sorted(SCENARIOS.items()):
                print(f"{name:8s} n0={scen.n0:<3d} adversaries={scen.adversaries} "
                      f"churn={scen.churn_rate:g}"
                      f"{' swap' if scen.swap_churn else ''}  "
                      f"[{scen.discriminator()}]")
            return 0

        if args.command == "run":
            ctx, result = _execute(args, args.scenario)
            print(_render(result, args.stats, ctx))
            if args.json:
                dump_result(result.to_dict(), args.json)
            ok = (result.max_ratio <= 2.0 + result.scenario.zeta_slack
                  and not result.violations)
            return 0 if ok else 1

        if args.command == "replay":
            with open(args.path) as f:
                recorded = json.load(f)
            scenario = resolve_scenario(recorded["scenario"])
            ctx, result = _execute(args, scenario,
                                   seed=recorded["seed"],
                                   epochs=recorded["epochs"])
            fresh = result.to_dict()
            mismatches = [
                k for k in ("fingerprint", "max_ratio", "reports")
                if fresh[k] != recorded.get(k)
            ]
            if mismatches:
                print(f"replay MISMATCH on {', '.join(mismatches)} "
                      f"for {recorded['scenario']} seed={recorded['seed']}")
                return 1
            print(f"replay OK: {recorded['scenario']} seed={recorded['seed']} "
                  f"epochs={recorded['epochs']} bit-identical "
                  f"(max zeta {result.max_ratio:.9f})")
            return 0

        if args.command == "sweep":
            worst = 1.0
            violated = 0
            rows = {}
            for seed in range(max(1, args.seeds)):
                ctx, result = _execute(args, args.scenario, seed=seed)
                rows[str(seed)] = result.to_dict()
                worst = max(worst, result.max_ratio)
                violated += len(result.violations)
                print(f"seed {seed:>3d}: max zeta {result.max_ratio:.9f} "
                      f"violations {len(result.violations)}")
            print(f"== sweep {args.scenario}: worst zeta {worst:.9f} over "
                  f"{max(1, args.seeds)} seeds; violations: {violated}")
            if args.json:
                dump_result(rows, args.json)
            return 0 if violated == 0 else 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
