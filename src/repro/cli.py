"""Command-line entry point: ``repro-exp``.

Usage::

    repro-exp list                     # enumerate experiments
    repro-exp run EXP-T8 [--scale default] [--seed 0] [--json out.json]
    repro-exp all [--scale smoke]      # run the full suite

Engine flags (``run`` / ``all``): ``--no-cache`` disables the
decomposition cache, and ``--stats`` attaches a span tracer and prints
engine counters (flow calls, cache hits) and the time of each span name
after each experiment.

Audit flags: ``--audit LEVEL`` (``off``/``cheap``/``differential``/
``paranoid``) attaches the :mod:`repro.oracle` audit layer so every flow
solve, decomposition, allocation, and best-response sweep of the run is
validated as it happens; violations are serialized into ``--corpus DIR``
(default ``corpus/``) for later ``repro-oracle replay``.

Runtime flags (``run`` / ``all``): ``--workers N`` runs sweep cells across
N processes under the :mod:`repro.runtime` supervisor; ``--timeout S`` and
``--retries K`` configure it (per-cell wall-clock budget, capped-backoff
retries); ``--checkpoint PATH`` journals completed work so a killed run resumes
bit-identically; ``--inject-faults SPEC`` arms deterministic fault
injection (e.g. ``"cell:exc@3;worker:kill@5;flow:nan@40"``) for chaos
testing every recovery path.
"""

from __future__ import annotations

import argparse
import sys

from .engine import DEFAULT_CACHE_SIZE, EngineContext, using_context
from .exceptions import ReproError
from .experiments import run_all, run_experiment
from .io import dump_result
from .runtime import (
    RuntimePolicy,
    clear_injector,
    install_injector,
    parse_fault_spec,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Reproduction experiments for 'Tightening Up the Incentive "
                    "Ratio for Resource Sharing Over the Rings' (IPDPS 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("exp_id", help="experiment id, e.g. EXP-T8")
    _common(run_p)

    all_p = sub.add_parser("all", help="run the whole suite")
    _common(all_p)
    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", default="default", choices=["smoke", "default", "full"],
                   help="sweep size (smoke ~ seconds, full ~ minutes)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="also dump structured results to this path")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the bottleneck-decomposition cache")
    p.add_argument("--stats", action="store_true",
                   help="trace the run and print engine counters (flow "
                        "calls, cache hits) and the time of each span name; "
                        "worker spans are merged back for parallel sweeps")
    p.add_argument("--audit", default="off",
                   choices=["off", "cheap", "differential", "paranoid"],
                   help="validate every engine operation as it runs "
                        "(cheap: certificates; differential: + sampled "
                        "re-solves against independent oracles; paranoid: "
                        "everything, every call)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="failure-corpus directory for audit violations "
                        "(default: corpus/; implies nothing unless a "
                        "violation is found)")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="processes for parallel sweep cells (0 = serial)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-cell wall-clock budget in seconds; a worker "
                        "exceeding it is killed and the cell retried")
    p.add_argument("--retries", type=int, default=0, metavar="K",
                   help="retry budget for retryable cell failures "
                        "(worker deaths, injected faults, typed numeric "
                        "errors; exhausted numeric failures escalate to "
                        "the exact backend)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="append-only resume journal; a rerun of the same "
                        "(seed, scale, engine) suite replays completed "
                        "work bit-identically")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="deterministic fault-injection spec, clauses "
                        "site:kind@n[:param] joined by ';' "
                        "(sites exp/cell/worker/flow; e.g. "
                        "'cell:exc@3;worker:kill@5;flow:nan@40')")
    p.add_argument("--max-memory", type=float, default=None, metavar="MB",
                   help="per-worker address-space cap in MiB "
                        "(RLIMIT_AS; a worker exceeding it fails its cell "
                        "with a typed, retryable ResourceExhaustedError "
                        "and the sweep degrades per --retries)")
    p.add_argument("--max-cpu", type=float, default=None, metavar="S",
                   help="per-worker CPU-seconds cap (RLIMIT_CPU; overruns "
                        "kill the worker and requeue its cell)")


def _engine_context(args: argparse.Namespace) -> EngineContext:
    """A fresh context per invocation, so ``--stats`` counts only this run."""
    ctx = EngineContext(
        cache_size=0 if args.no_cache else DEFAULT_CACHE_SIZE,
        workers=args.workers,
    )
    if args.stats:
        from .obs import Tracer

        ctx.tracer = Tracer()
    if args.audit != "off":
        from .oracle import DEFAULT_CORPUS_DIR, attach_auditor

        attach_auditor(ctx, level=args.audit,
                       corpus_dir=args.corpus or DEFAULT_CORPUS_DIR)
    # --checkpoint journals at *experiment* granularity (passed to the
    # runner, not the policy): one file cannot serve as both the suite
    # journal and every inner sweep's cell journal.  Sweep-level cell
    # journals remain available programmatically via
    # ``parallel_incentive_sweep(checkpoint=...)``.
    policy = RuntimePolicy(
        timeout=args.timeout,
        retries=args.retries,
        faults=args.inject_faults,
        max_memory_mb=args.max_memory,
        max_cpu_seconds=args.max_cpu,
    )
    ctx.runtime = policy
    if args.inject_faults:
        install_injector(parse_fault_spec(args.inject_faults),
                         counters=ctx.counters)
    return ctx


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            from .experiments import EXPERIMENTS

            for exp_id, mod in EXPERIMENTS.items():
                print(f"{exp_id:10s} {mod.TITLE}")
            return 0
        if args.command == "run":
            ctx = _engine_context(args)
            try:
                with using_context(ctx):
                    out = run_experiment(args.exp_id, seed=args.seed,
                                         scale=args.scale, ctx=ctx,
                                         checkpoint=args.checkpoint)
            finally:
                clear_injector()
            print(out.render(stats=args.stats))
            if args.json:
                dump_result({"exp_id": out.exp_id, "ok": out.ok, "data": out.data}, args.json)
            return 0 if out.ok else 1
        if args.command == "all":
            ctx = _engine_context(args)
            try:
                with using_context(ctx):
                    outs = run_all(seed=args.seed, scale=args.scale, ctx=ctx,
                                   checkpoint=args.checkpoint)
            finally:
                clear_injector()
            for out in outs:
                print(out.render(stats=args.stats))
                print()
            failed = [o.exp_id for o in outs if not o.ok]
            print(f"== suite summary: {len(outs) - len(failed)}/{len(outs)} passed"
                  + (f"; failed: {', '.join(failed)}" if failed else " =="))
            if args.json:
                dump_result(
                    {o.exp_id: {"ok": o.ok, "data": o.data} for o in outs}, args.json
                )
            return 0 if not failed else 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
