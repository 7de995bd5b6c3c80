"""sybil_sweep: EXP-T8's default ring families, one best response per cell.

A round is one ring per (n, weight family): n in {4, 5, 6, 8, 12, 16},
uniform weights in [0.5, 5] and loguniform weights in [1e-3, 1e3] -- 12
rings and 102 (ring, agent) cells, solved serially in EXP-T8's order by
``repro.attack.best_split(grid=24)`` on one fresh ``EngineContext`` per
run.  Item = one cell.

The traced run adds the exact-backend leg: cold decompositions of
integer-weight rings at n = ``EXACT_N`` with the ``Fraction`` backend,
which no timed round touches.  It reports ``decompose.exact_s``.
"""

from __future__ import annotations

import math
import time

import numpy as np
from repro.attack import best_split
from repro.core import bd_allocation, bottleneck_decomposition
from repro.engine import EngineContext, using_context
from repro.graphs import random_ring
from repro.numeric import EXACT
from repro.oracle import (
    allocation_problems,
    best_response_problems,
    decomposition_problems,
)

from common import WARMUP_ROUND, WARMUP_SEED, TimedRun, median

NAME = "sybil_sweep"
TAIL_Q = 95
IMPORTS = ("repro.attack", "repro.oracle")
TRACE_ROUNDS = 1
#: Reference time of one round on a 2-core x86-64 container.
ROUND_S = 4.0
ITEMS_PER_ROUND = 102

SIZES = (4, 5, 6, 8, 12, 16)
FAMILIES = (("uniform", 0.5, 5.0), ("loguniform", 1e-3, 1e3))
GRID = 24
EXACT_N, EXACT_RINGS = 64, 3
#: Round index of the exact leg's rings, disjoint from every other round.
EXACT_ROUND = WARMUP_ROUND - 1


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ctx = None

    def round_inputs(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        return [random_ring(n, rng, dist, lo, hi)
                for n in SIZES for dist, lo, hi in FAMILIES]

    def setup_once(self) -> None:
        """Input generation plus a warm-up, the same for every seed, on a
        throwaway context (one cell per ring size)."""
        self.round_inputs(0)
        ctx = EngineContext()
        for g in Workload(WARMUP_SEED).round_inputs(WARMUP_ROUND)[1::2]:
            best_split(g, 0, grid=GRID, ctx=ctx)

    def open(self, tracer=None) -> None:
        self.ctx = EngineContext()
        self.ctx.tracer = tracer

    def run_round(self, rings: list, run: TimedRun) -> list:
        ctx, out = self.ctx, []
        with using_context(ctx):
            for g in rings:
                for v in range(g.n):
                    run.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        with ctx.span("bench:cell"):
                            br = best_split(g, v, grid=GRID, ctx=ctx)
                    except Exception as exc:  # a crash is a failed item
                        run.fail(f"n={g.n} v={v}: {type(exc).__name__}: {exc}")
                        continue
                    run.latencies_s.append(time.perf_counter() - t0)
                    out.append((g, v, br))
        return out

    def check(self, rings: list, out: list, run: TimedRun) -> None:
        for g, v, br in out:
            problems = best_response_problems(g, v, br)
            zeta = br.ratio
            if not (1 - 1e-9 <= zeta <= 2 + 1e-6) or not math.isfinite(zeta):
                problems.append(f"zeta {zeta!r} outside [1, 2]")
            if problems:
                run.fail(f"n={g.n} v={v}: {problems[0]}")

    def exact_leg(self, run: TimedRun) -> dict:
        """``decompose.exact_s``: median time of one cold exact-backend
        decomposition (inclusive of its Dinkelbach steps and flows), each
        on a fresh context with the cache off.  Every solve is checked
        with ``decomposition_problems`` and ``allocation_problems``."""
        rng = np.random.default_rng([self.seed, EXACT_ROUND])
        times = []
        for _ in range(EXACT_RINGS):
            g = random_ring(EXACT_N, rng, "integer", 1, 1000)
            ctx = EngineContext(cache_size=0, backend=EXACT)
            run.attempted += 1
            try:
                with using_context(ctx):
                    t0 = time.perf_counter()
                    d = bottleneck_decomposition(g, EXACT, ctx)
                    times.append(time.perf_counter() - t0)
                    a = bd_allocation(g, d, EXACT, ctx)
            except Exception as exc:  # a crash is a failed item
                run.fail(f"exact n={g.n}: {type(exc).__name__}: {exc}")
                continue
            problems = (decomposition_problems(g, d)
                        + allocation_problems(g, a, EXACT))
            if problems:
                run.fail(f"exact n={g.n}: {problems[0]}")
        return {"decompose.exact_s": median(times) if times else 0.0}

    def counters(self) -> dict:
        return self.ctx.counters.snapshot()

    def close(self) -> None:
        self.ctx = None
