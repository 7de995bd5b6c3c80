"""The ``repro-bench`` harness: a versioned, machine-readable perf baseline.

Every future optimisation PR is judged against a committed
``BENCH_<tag>.json``, so the report format is deliberately boring and
stable:

* ``format`` names the schema (bump :data:`BENCH_FORMAT` on breaking
  changes; ``compare`` refuses to mix formats);
* per-benchmark entries carry the **wall time** (best of ``rounds``), the
  full **counter snapshot** (deterministic for a fixed seed -- the
  regression signal that never jitters), and the **span breakdown** from a
  tracer attached for the run;
* a ``fingerprint`` block records the python/platform/package versions the
  numbers were taken on, because a wall-time diff across machines is noise
  pretending to be signal.

The suite itself mirrors ``benchmarks/``: the core primitives every
experiment is built from (decomposition float/exact, allocation, dynamics,
best response, max flow) plus end-to-end experiment and simulator smoke
runs.  Workloads are pure functions of fixed seeds; each measurement
runs on a fresh :class:`~repro.engine.EngineContext` so cache warm-up
cannot leak between cases.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .. import __version__ as _repro_version
from ..engine import EngineContext, using_context
from ..exceptions import ReproError
from .tracer import Tracer

__all__ = [
    "BENCH_FORMAT",
    "BenchCase",
    "BENCH_SUITE",
    "bench_names",
    "select_cases",
    "run_bench",
    "save_report",
    "load_report",
    "compare_reports",
    "format_compare",
]

#: Schema tag written into every report; ``compare`` requires both sides
#: to match it exactly.
BENCH_FORMAT = "repro-bench/1"

#: Default regression threshold for ``compare``, in percent of the
#: baseline wall time.
DEFAULT_THRESHOLD_PCT = 25.0


class BenchError(ReproError):
    """A malformed bench report or an unknown benchmark selection."""


@dataclass(frozen=True)
class BenchCase:
    """One named workload.

    ``setup()`` builds the instance data once (not timed) and returns the
    callable that is timed; the callable receives the fresh, traced
    :class:`~repro.engine.EngineContext` of its measurement round.
    """

    name: str
    group: str
    setup: Callable[[], Callable[[EngineContext], object]]


def _ring(n: int, seed: int = 0, dist: str = "loguniform", lo=0.1, hi=10):
    from ..graphs import random_ring

    return random_ring(n, np.random.default_rng(seed), dist, lo, hi)


def _decompose_case(n: int, exact: bool) -> Callable[[], Callable]:
    def setup() -> Callable[[EngineContext], object]:
        from ..core import bottleneck_decomposition
        from ..numeric import EXACT, FLOAT

        backend = EXACT if exact else FLOAT
        g = _ring(n, 0, "integer", 1, 100) if exact else _ring(n)

        def run(ctx: EngineContext):
            return bottleneck_decomposition(g, backend, ctx)

        return run

    return setup


def _allocation_case(n: int) -> Callable[[], Callable]:
    def setup() -> Callable[[EngineContext], object]:
        from ..core import bd_allocation, bottleneck_decomposition
        from ..numeric import FLOAT

        g = _ring(n)
        decomp = bottleneck_decomposition(g, FLOAT, EngineContext())

        def run(ctx: EngineContext):
            return bd_allocation(g, decomp, FLOAT, ctx)

        return run

    return setup


def _dynamics_case(n: int) -> Callable[[], Callable]:
    def setup() -> Callable[[EngineContext], object]:
        from ..core import proportional_response

        g = _ring(n, 1, "uniform", 0.5, 2.0)

        def run(ctx: EngineContext):
            # mixing on a ring is diffusive (~n^2 steps): same budget rule
            # as benchmarks/bench_core.py
            return proportional_response(g, 40 * n * n, 1e-8, 0.3, ctx=ctx)

        return run

    return setup


def _best_response_case(n: int) -> Callable[[], Callable]:
    def setup() -> Callable[[EngineContext], object]:
        from ..attack import best_split

        g = _ring(n, 2)

        def run(ctx: EngineContext):
            return best_split(g, 0, grid=24, ctx=ctx)

        return run

    return setup


def _maxflow_case(n: int = 40) -> Callable[[], Callable]:
    def setup() -> Callable[[EngineContext], object]:
        from ..flow import FlowNetwork

        rng = np.random.default_rng(0)
        base = FlowNetwork(2 + 2 * n)
        for i in range(n):
            base.add_edge(0, 2 + i, float(rng.uniform(0.5, 2)))
            base.add_edge(2 + n + i, 1, float(rng.uniform(0.5, 2)))
            for j in range(n):
                if rng.random() < 0.2:
                    base.add_edge(2 + i, 2 + n + j, float("inf"))

        def run(ctx: EngineContext):
            return ctx.max_flow(base.clone(), 0, 1)

        return run

    return setup


def _experiment_case(exp_id: str, scale: str = "smoke") -> Callable[[], Callable]:
    def setup() -> Callable[[EngineContext], object]:
        from ..experiments import run_experiment

        def run(ctx: EngineContext):
            with using_context(ctx):
                return run_experiment(exp_id, seed=0, scale=scale, ctx=ctx)

        return run

    return setup


def _sim_epoch_case(n: int, epochs: int = 3) -> Callable[[], Callable]:
    """One adaptive swap-churn scenario run serially.

    The scenario is EXP-S4's regime at size ``n``: constant ring size,
    rotating membership, narrow weight range -- the configuration where
    consecutive epochs reconstruct the previous decomposition instead of
    re-solving.  The warm-hint store is reset every round so each
    measurement performs identical work regardless of round count."""

    def setup() -> Callable[[EngineContext], object]:
        from ..sim import Scenario, reset_warm_store, run_scenario

        scenario = Scenario(
            name="bench-sim", strategies=("adaptive",), adversaries=2,
            n0=n, n_min=max(3, n - 2), n_max=n + 2, epochs=epochs,
            churn_rate=1.0, swap_churn=True, w_lo=0.5, w_hi=2.0, grid=12,
        )

        def run(ctx: EngineContext):
            reset_warm_store()
            return run_scenario(scenario, ctx=ctx, processes=0)

        return run

    return setup


#: The benchmark suite, in reporting order.  Names are stable identifiers:
#: renaming one orphans its baseline entry, so extend rather than rename.
BENCH_SUITE: tuple[BenchCase, ...] = (
    BenchCase("decompose_float_n8", "core", _decompose_case(8, exact=False)),
    BenchCase("decompose_float_n32", "core", _decompose_case(32, exact=False)),
    BenchCase("decompose_float_n128", "core", _decompose_case(128, exact=False)),
    BenchCase("decompose_exact_n8", "core", _decompose_case(8, exact=True)),
    BenchCase("decompose_exact_n32", "core", _decompose_case(32, exact=True)),
    BenchCase("allocation_n32", "core", _allocation_case(32)),
    BenchCase("allocation_n128", "core", _allocation_case(128)),
    BenchCase("dynamics_n16", "core", _dynamics_case(16)),
    BenchCase("dynamics_n64", "core", _dynamics_case(64)),
    BenchCase("best_response_n6", "attack", _best_response_case(6)),
    BenchCase("best_response_n12", "attack", _best_response_case(12)),
    BenchCase("maxflow_dinic_n40", "flow", _maxflow_case()),
    BenchCase("experiment_EXP-F1_smoke", "experiment", _experiment_case("EXP-F1")),
    BenchCase("experiment_EXP-T8_smoke", "experiment", _experiment_case("EXP-T8")),
    # Appended (never reordered: names are the baseline join key).
    BenchCase("dynamics_vectorized_n128", "core", _dynamics_case(128)),
    BenchCase("sim_epoch_n12", "sim", _sim_epoch_case(12)),
    BenchCase("experiment_EXP-S1_smoke", "experiment", _experiment_case("EXP-S1")),
)


def bench_names() -> list[str]:
    return [c.name for c in BENCH_SUITE]


def select_cases(only: Optional[Sequence[str]]) -> list[BenchCase]:
    """Suite subset by substring filters (OR across filters); the full
    suite when ``only`` is empty.  Unknown filters fail loudly rather than
    silently benchmarking nothing."""
    if not only:
        return list(BENCH_SUITE)
    selected = [c for c in BENCH_SUITE if any(pat in c.name for pat in only)]
    if not selected:
        raise BenchError(
            f"no benchmark matches {list(only)!r}; known: {', '.join(bench_names())}"
        )
    return selected


def _fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "repro": _repro_version,
    }


def run_bench(
    tag: str = "local",
    only: Optional[Sequence[str]] = None,
    rounds: int = 1,
) -> dict:
    """Run the suite (or the ``only`` subset) and return the report dict.

    Each round of each case gets a **fresh** context with a tracer
    attached, so counter totals are a pure function of the workload (and
    identical across rounds -- the deterministic half of the baseline),
    while ``wall_s`` takes the best of ``rounds`` to shave scheduler noise
    off the non-deterministic half.
    """
    if rounds < 1:
        raise BenchError(f"rounds must be >= 1, got {rounds}")
    cases = select_cases(only)
    benchmarks: dict[str, dict] = {}
    for case in cases:
        run = case.setup()
        best_wall = None
        counters: dict = {}
        spans: dict = {}
        for _ in range(rounds):
            ctx = EngineContext()
            ctx.tracer = Tracer()
            start = time.perf_counter()
            run(ctx)
            wall = time.perf_counter() - start
            if best_wall is None or wall < best_wall:
                best_wall = wall
            counters = ctx.counters.snapshot()
            spans = ctx.tracer.snapshot()
        benchmarks[case.name] = {
            "group": case.group,
            "wall_s": best_wall,
            "counters": counters,
            "spans": spans,
        }
    totals: dict[str, object] = {"wall_s": sum(b["wall_s"] for b in benchmarks.values())}
    counter_totals: dict[str, int] = {}
    for b in benchmarks.values():
        for key, value in b["counters"].items():
            counter_totals[key] = counter_totals.get(key, 0) + value
    totals["counters"] = counter_totals
    return {
        "format": BENCH_FORMAT,
        "tag": tag,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rounds": rounds,
        "fingerprint": _fingerprint(),
        "benchmarks": benchmarks,
        "totals": totals,
    }


def save_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read bench report {path!r}: {exc}") from exc
    if not isinstance(report, dict) or report.get("format") != BENCH_FORMAT:
        raise BenchError(
            f"{path!r} is not a {BENCH_FORMAT} report "
            f"(format={report.get('format') if isinstance(report, dict) else None!r})"
        )
    return report


def compare_reports(
    base: dict,
    new: dict,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    fail_on_counters: bool = False,
    allow_missing: bool = False,
) -> dict:
    """Diff two reports; the result dict says whether the gate passes.

    A benchmark **regresses** when its new wall time exceeds the baseline
    by more than ``threshold_pct`` percent.  Counter drift (any integer
    counter changing for the same benchmark) is always *reported* --
    it means the algorithmic work changed, not just the machine's mood --
    but only fails the gate with ``fail_on_counters`` (an intentional
    optimisation legitimately changes work counts; its PR updates the
    baseline in the same commit).

    Baseline benchmarks absent from ``new`` fail the gate unless
    ``allow_missing`` -- a full-suite rerun losing a benchmark is a
    regression, but a deliberate ``--only`` subset (CI's bench-smoke job)
    legitimately covers less than the committed baseline.  Two reports
    that share no benchmark always fail: a gate that compared nothing
    passed nothing.
    """
    for side, rep in (("base", base), ("new", new)):
        if rep.get("format") != BENCH_FORMAT:
            raise BenchError(f"{side} report has format {rep.get('format')!r}, "
                             f"want {BENCH_FORMAT!r}")
    rows = []
    regressions = []
    counter_drift = []
    base_b = base.get("benchmarks", {})
    new_b = new.get("benchmarks", {})
    for name in sorted(set(base_b) & set(new_b)):
        b, n = base_b[name], new_b[name]
        delta_pct = (
            (n["wall_s"] - b["wall_s"]) / b["wall_s"] * 100.0
            if b["wall_s"] > 0 else 0.0
        )
        regressed = delta_pct > threshold_pct
        drifted = sorted(
            key
            for key in set(b.get("counters", {})) | set(n.get("counters", {}))
            if b.get("counters", {}).get(key, 0) != n.get("counters", {}).get(key, 0)
        )
        rows.append({
            "name": name,
            "base_wall_s": b["wall_s"],
            "new_wall_s": n["wall_s"],
            "delta_pct": delta_pct,
            "regressed": regressed,
            "counter_drift": drifted,
        })
        if regressed:
            regressions.append(name)
        if drifted:
            counter_drift.append(name)
    missing = sorted(set(base_b) - set(new_b))
    added = sorted(set(new_b) - set(base_b))
    ok = (bool(rows)
          and not regressions
          and (allow_missing or not missing)
          and not (fail_on_counters and counter_drift))
    return {
        "ok": ok,
        "threshold_pct": threshold_pct,
        "rows": rows,
        "regressions": regressions,
        "counter_drift": counter_drift,
        "missing": missing,
        "added": added,
    }


def format_compare(result: dict) -> str:
    """Human-readable rendering of a :func:`compare_reports` result."""
    lines = [
        f"{'benchmark':34s} {'base':>10s} {'new':>10s} {'delta':>8s}  flags",
        "-" * 78,
    ]
    for row in result["rows"]:
        flags = []
        if row["regressed"]:
            flags.append("REGRESSED")
        if row["counter_drift"]:
            flags.append("counters: " + ",".join(row["counter_drift"]))
        lines.append(
            f"{row['name']:34s} {row['base_wall_s']:9.4f}s {row['new_wall_s']:9.4f}s "
            f"{row['delta_pct']:+7.1f}%  {' '.join(flags)}"
        )
    for name in result["missing"]:
        lines.append(f"{name:34s} -- missing from the new report --")
    for name in result["added"]:
        lines.append(f"{name:34s} -- new benchmark (no baseline) --")
    verdict = "OK" if result["ok"] else "FAIL"
    lines.append(
        f"== {verdict}: {len(result['rows'])} compared, "
        f"{len(result['regressions'])} regression(s) past "
        f"{result['threshold_pct']:g}%, {len(result['missing'])} missing, "
        f"{len(result['counter_drift'])} with counter drift =="
    )
    return "\n".join(lines)
