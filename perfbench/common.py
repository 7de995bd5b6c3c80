"""Shared pieces of the perfbench workloads: percentiles, the timed-run
record, set-up timing, and the per-layer metrics read off the engine's
``Counters`` and the ``repro.obs.Tracer`` span aggregates.

Nothing here imports ``repro`` at module level: ``run.py`` puts ``src/`` on
the path first and fails cleanly when it is missing.
"""

from __future__ import annotations

import math
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The repository's ``src/``, found from this file so the benchmark works
#: from any working directory without an installed package.
SRC = Path(__file__).resolve().parent.parent / "src"

#: Set-up repetitions per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seed and round index of the warm-up inputs.  The round is never a timed
#: one, so warm-up work is disjoint from the measured work; the seed is the
#: same for every run, so set-up does the same work whatever ``--seed`` is.
WARMUP_SEED = WARMUP_ROUND = 2**31 - 1


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile of an ascending list, and the
    number of samples that lie beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def median(values: list[float]) -> float:
    return percentile(sorted(values), 50)[0]


def min_items_for(q: float) -> int:
    """Smallest sample count that leaves 10 samples beyond percentile q."""
    return math.ceil(10 / (1 - q / 100.0) - 1e-9)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(modules: tuple[str, ...]) -> float:
    """Wall time of a fresh interpreter importing ``modules`` from ``src/``.

    A child interpreter is the only way to pay the imports again on every
    set-up repetition; it also counts the interpreter start a user pays.
    """
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            + "; ".join(f"import {m}" for m in modules))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdin=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


@dataclass
class TimedRun:
    """Items completed in the timed region of one run.

    ``round_s`` times the rounds only: input generation and output checks
    between rounds are outside it.  ``failed`` counts items whose output
    check failed (or that raised).
    """

    latencies_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return len(self.round_s)

    @property
    def elapsed_s(self) -> float:
        return sum(self.round_s)

    @property
    def items(self) -> int:
        return len(self.latencies_s)

    @property
    def items_per_s(self) -> float:
        return self.items / self.elapsed_s

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def rounds_for(seconds: float, round_s: float, items_per_round: int,
               min_items: int) -> int:
    """Rounds in one run: enough for about ``seconds`` at the reference
    round time, and for the tail percentile's sample floor.  The count
    depends on the arguments only, never on how fast the host runs, so
    every run with one seed does exactly the same work."""
    return max(math.ceil(seconds / round_s - 1e-9),
               math.ceil(min_items / items_per_round))


# -- per-layer metrics --------------------------------------------------------

#: Program span names, longest first so ``sim/attacks`` is not read as
#: ``sim/attack``; a span path is ``parent/child`` joined by ``/``.
_SPAN_LAYERS = (
    ("sim/attacks", "sim"), ("sim/attack", "sim"), ("sim/churn", "sim"),
    ("best_response", "best_response"), ("dinkelbach", "dinkelbach"),
    ("decompose", "decompose"), ("allocate", "allocate"), ("flow", "flow"),
)


def span_layer(path: str) -> str | None:
    for name, layer in _SPAN_LAYERS:
        if path == name or path.endswith("/" + name):
            return layer
    return None


def layer_times(spans: dict) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s", "count"}}`` summed over every span path whose
    leaf is one of the layer's spans."""
    out: dict[str, dict[str, float]] = {}
    for path, s in spans.items():
        layer = span_layer(path)
        if layer is None:
            continue
        acc = out.setdefault(layer, {"self_s": 0.0, "count": 0})
        acc["self_s"] += s["self_s"]
        acc["count"] += s["count"]
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Every per-layer metric, with its unit, in BENCHMARK.json order.  A
#: workload on which a layer does no work reports 0 for it.
PER_LAYER_UNITS = {
    "flow.calls": "count",
    "flow.self_s": "s",
    "dinkelbach.iterations": "count",
    "dinkelbach.iters_per_pair": "ratio",
    "dinkelbach.self_s": "s",
    "decompose.count": "count",
    "decompose.self_s": "s",
    "decompose.cache_hit_ratio": "ratio",
    "decompose.exact_s": "s",
    "allocate.count": "count",
    "allocate.self_s": "s",
    "incremental.warm_starts": "count",
    "incremental.reconstructions": "count",
    "incremental.fallbacks": "count",
    "incremental.reuse_ratio": "ratio",
    "incremental.hint_invalidations": "count",
    "engine.template_hit_ratio": "ratio",
    "best_response.calls": "count",
    "best_response.self_s": "s",
    "sim.attacks": "count",
    "sim.churn_events": "count",
    "sim.self_s": "s",
    "serve.misses": "count",
    "serve.miss_share": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.errors": "count",
    "serve.hit_p50_ms": "ms",
    "serve.batches": "count",
    "serve.cells_per_batch": "ratio",
    "serve.miss_p50_ms": "ms",
    "serve.miss_p95_ms": "ms",
    "serve.solve_p50_ms": "ms",
    "runtime.retries": "count",
    "trace.overhead_frac": "ratio",
}

#: The per-layer counts that are a pure function of the seed; the self-check
#: requires them to repeat exactly across launches.
EXACT_COUNTS = (
    "flow.calls", "dinkelbach.iterations", "decompose.count",
    "allocate.count", "incremental.warm_starts",
    "incremental.reconstructions", "incremental.fallbacks",
    "incremental.hint_invalidations", "best_response.calls",
    "sim.attacks", "sim.churn_events", "serve.misses",
)


def engine_layers(counters: dict, spans: dict, pairs: int) -> dict:
    """Per-layer metrics of the compute layers from one ``ctx.stats()``
    snapshot (counters plus span aggregates).

    ``pairs`` is the number of maximal-bottleneck extractions the run made
    (the Dinkelbach descents), counted by :class:`PairCounter`.
    """
    t = layer_times(spans)
    c = counters
    recon, fallbacks = c["decomp_reconstructions"], c["reconstruction_fallbacks"]
    return {
        "flow.calls": c["flow_calls"],
        "flow.self_s": t.get("flow", {}).get("self_s", 0.0),
        "dinkelbach.iterations": c["dinkelbach_iterations"],
        "dinkelbach.iters_per_pair": ratio(c["dinkelbach_iterations"], pairs),
        "dinkelbach.self_s": t.get("dinkelbach", {}).get("self_s", 0.0),
        "decompose.count": c["decompositions"],
        "decompose.self_s": t.get("decompose", {}).get("self_s", 0.0),
        "decompose.cache_hit_ratio": ratio(
            c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "allocate.count": c["allocations"],
        "allocate.self_s": t.get("allocate", {}).get("self_s", 0.0),
        "incremental.warm_starts": c["warm_starts"],
        "incremental.reconstructions": recon,
        "incremental.fallbacks": fallbacks,
        "incremental.reuse_ratio": ratio(recon, recon + fallbacks),
        "incremental.hint_invalidations": c["warm_hint_invalidations"],
        "engine.template_hit_ratio": ratio(
            c["template_hits"], c["template_hits"] + c["template_builds"]),
        "best_response.calls": t.get("best_response", {}).get("count", 0),
        "best_response.self_s": t.get("best_response", {}).get("self_s", 0.0),
        "sim.attacks": c["sim_attacks"],
        "sim.churn_events": c["sim_churn_events"],
        "sim.self_s": t.get("sim", {}).get("self_s", 0.0),
        "runtime.retries": (c["cell_retries"] + c["worker_respawns"]
                            + c["cell_timeouts"]),
    }


def full_layer_set(values: dict) -> dict:
    """Every per-layer metric, 0 where the workload did not set it."""
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: values.get(name, 0) for name in PER_LAYER_UNITS}


class PairCounter:
    """Counts maximal-bottleneck extractions during a traced pass.

    Wraps ``repro.core.bottleneck.maximal_bottleneck`` (its only caller is
    the stage loop in the same module) for the duration of a ``with``
    block, so ``dinkelbach.iters_per_pair`` has an exact denominator.  If
    the function is gone, the count stays 0 and so does the ratio.
    """

    def __init__(self) -> None:
        self.pairs = 0
        self._module = None
        self._orig = None

    def __enter__(self) -> "PairCounter":
        from repro.core import bottleneck

        orig = getattr(bottleneck, "maximal_bottleneck", None)
        if orig is not None:
            def counted(*args, **kwargs):
                self.pairs += 1
                return orig(*args, **kwargs)

            self._module, self._orig = bottleneck, orig
            bottleneck.maximal_bottleneck = counted
        return self

    def __exit__(self, *exc) -> None:
        if self._module is not None:
            self._module.maximal_bottleneck = self._orig
