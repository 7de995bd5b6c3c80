#!/usr/bin/env python3
"""perfbench: the repository benchmark.  See README.md in this directory.

    python3 perfbench/run.py --workload sybil_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` runs set-up three times, then a fixed number of whole rounds
of the workload: enough for about ``--seconds`` on the reference host and
for the sample floor of its tail percentile.  It checks every output and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of
rounds twice, alternating round by round between an untraced context and
one with a ``repro.obs.Tracer``, and prints the per-layer metrics.  The
last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time

from common import (
    SETUP_REPEATS,
    SRC,
    TimedRun,
    engine_layers,
    full_layer_set,
    import_seconds,
    median,
    min_items_for,
    peak_rss_mb,
    percentile,
    PairCounter,
    PER_LAYER_UNITS,
    rounds_for,
)

WORKLOADS = {
    "sybil_sweep": "cells",
    "serve_mix": "requests",
    "sim_churn": "epochs",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def run_round(wl, inputs, run: TimedRun) -> None:
    """One timed round, then its output checks outside the clock."""
    t0 = time.perf_counter()
    out = wl.run_round(inputs, run)
    run.round_s.append(time.perf_counter() - t0)
    wl.check(inputs, out, run)


def timed(mod, wl, seconds: float) -> tuple[dict, TimedRun, list[str]]:
    setups = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds(mod.IMPORTS) if mod.IMPORTS else 0.0
        t0 = time.perf_counter()
        wl.setup_once()
        setups.append(imports + time.perf_counter() - t0)
    wl.open()
    run = TimedRun()
    rounds = rounds_for(seconds, mod.ROUND_S, mod.ITEMS_PER_ROUND,
                        min_items_for(mod.TAIL_Q))
    for r in range(rounds):
        run_round(wl, wl.round_inputs(r), run)
    rss = wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") else peak_rss_mb()
    lat = sorted(run.latencies_s)
    p50, beyond50 = percentile(lat, 50)
    tail, beyond_tail = percentile(lat, mod.TAIL_Q)
    item = WORKLOADS[mod.NAME]
    metrics = {
        "setup_s": median(setups),
        "items_per_s": run.items_per_s,
        "p50_ms": 1e3 * p50,
        "tail_ms": 1e3 * tail,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "items_per_s": f"{run.items} {item} in {run.elapsed_s:.2f} s of "
                       f"timed work, {run.rounds} rounds",
        "p50_ms": f"p50 of {run.items} {item}, {beyond50} beyond",
        "tail_ms": f"p{mod.TAIL_Q} of {run.items} {item}, "
                   f"{beyond_tail} beyond",
        "peak_rss_mb": "server process" if mod.NAME == "serve_mix"
                       else "benchmark process",
    }
    lines = [f"{mod.NAME:<12} {name:<12} {value:>12.4f} {END_TO_END_UNITS[name]:<4}"
             f"  {notes[name]}" for name, value in metrics.items()]
    lines.append(f"{mod.NAME:<12} round seconds: "
                 + " ".join(f"{t:.3f}" for t in run.round_s))
    coalition = run.extra.get("coalition_over_2")
    if coalition:
        lines.append(f"{mod.NAME:<12} coalition joint ratios above 2 "
                     f"(outside Theorem 8; each matched by the exact "
                     f"backend): {len(coalition)}, max {max(coalition):.4f}")
    by_kind = run.extra.get("latency_by_kind")
    if by_kind:
        misses, hits = len(by_kind.get("miss", [])), len(by_kind.get("hit", []))
        lines.append(f"{mod.NAME:<12} miss share {misses}/{misses + hits} "
                     f"solves = {misses / (misses + hits):.3f}")
    return metrics, run, lines


def traced(mod, wl) -> tuple[dict, TimedRun, list[str]]:
    from repro.obs import Tracer

    wl.setup_once()
    rounds = [wl.round_inputs(r) for r in range(mod.TRACE_ROUNDS)]
    total = TimedRun()
    if hasattr(wl, "serve_layers"):
        # The server runs untraced: its numbers are client-side timings,
        # its stats deltas, and a traced direct solve of each miss.
        wl.open()
        for inputs in rounds:
            run_round(wl, inputs, total)
        tracer = Tracer()
        with PairCounter() as pairs:
            values = wl.serve_layers(total, tracer)
        counters = values.pop("counters")
        layers = engine_layers(counters, tracer.snapshot(), pairs.pairs)
        layers.update(values)
        layers["trace.overhead_frac"] = 0.0
    else:
        # Untraced and traced passes alternate round by round, each on its
        # own fresh context, so host drift hits both alike.
        tracer, pairs = Tracer(), PairCounter()
        twin = mod.Workload(wl.seed)
        untraced, traced_run = TimedRun(), TimedRun()
        wl.open()
        twin.open(tracer)
        try:
            for inputs in rounds:
                run_round(wl, inputs, untraced)
                with pairs:
                    run_round(twin, inputs, traced_run)
            spans = tracer.snapshot()
            layers = engine_layers(twin.counters(), spans, pairs.pairs)
        finally:
            twin.close()
        layers["trace.overhead_frac"] = (
            1 - traced_run.items_per_s / untraced.items_per_s)
        for part in (untraced, traced_run):
            total.attempted += part.attempted
            total.failed += part.failed
            total.problems += part.problems
        if hasattr(wl, "exact_leg"):
            layers.update(wl.exact_leg(total))
    metrics = full_layer_set(layers)
    lines = [f"{mod.NAME:<12} {name:<31} {value:>14.6g} "
             f"{PER_LAYER_UNITS[name]}" for name, value in metrics.items()]
    return metrics, total, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds, so the serve workload reaps its server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    mod = importlib.import_module(args.workload)
    wl = mod.Workload(args.seed)
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    try:
        if args.trace:
            metrics, run, lines = traced(mod, wl)
            units = PER_LAYER_UNITS
        else:
            metrics, run, lines = timed(mod, wl, args.seconds)
            units = END_TO_END_UNITS
    finally:
        wl.close()
    for line in lines:
        print(line)
    print(f"{args.workload:<12} attempted={run.attempted} failed={run.failed}")
    for problem in run.problems:
        print(f"{args.workload:<12} FAILED: {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
