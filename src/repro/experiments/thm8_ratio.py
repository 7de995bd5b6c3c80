"""EXP-T8: the headline result -- incentive ratio on rings is exactly 2.

Sweeps the worst observed Sybil incentive ratio over ring families
(size x weight distribution), including the adversarial lower-bound family
and hill-climbing search.  Theorem 8's two halves:

* upper bound: *no* instance exceeds 2 (checked across every cell);
* tightness: the supremum reaches 2 (the lower-bound family's zeta
  approaches it monotonically; see EXP-LB for the fine-grained series).
"""

from __future__ import annotations

import numpy as np

from ..attack import lower_bound_ratio, search_worst_ring
from ..engine import EngineContext
from ..graphs import random_ring
from ..theory import CheckResult
from ..analysis import parallel_incentive_sweep, summarize
from .base import ExperimentOutput, Table, experiment_context, scale_factor

EXP_ID = "EXP-T8"
TITLE = "Theorem 8: max Sybil incentive ratio over ring families (bound = 2)"


def run(seed: int = 0, scale: str = "default", ctx: EngineContext | None = None) -> ExperimentOutput:
    ctx = experiment_context(ctx)
    k = scale_factor(scale)
    rng = np.random.default_rng(seed)
    sizes = [4, 6, 8] if scale == "smoke" else [4, 5, 6, 8, 12, 16]
    dists = [("uniform", 0.5, 5.0), ("loguniform", 1e-3, 1e3)]
    per_cell = 3 * k

    rows = []
    overall_max = 0.0
    violations = 0
    for n in sizes:
        for dist, lo, hi in dists:
            # Generate the whole cell before solving: the solves consume no
            # rng, so batching preserves the stream, and routing the batch
            # through the sweep layer gives EXP-T8 parallel execution and
            # runtime supervision (zeta == max over v of the per-vertex
            # best-response ratio, which is exactly what the sweep returns).
            graphs = [random_ring(n, rng, dist, lo, hi) for _ in range(per_cell)]
            zetas = parallel_incentive_sweep(
                graphs, grid=24 if scale == "smoke" else 48, ctx=ctx
            )
            s = summarize(zetas)
            overall_max = max(overall_max, s.maximum)
            violations += sum(1 for z in zetas if z > 2.0 + 1e-6)
            rows.append([n, dist, per_cell, s.mean, s.maximum, "<= 2" if s.maximum <= 2 + 1e-6 else "VIOLATION"])

    # adversarial rows: search + the lower-bound family
    search = search_worst_ring(5, rng, restarts=1 + k // 4, sweeps=2 + k // 2,
                               grid=24 if scale == "smoke" else 48, ctx=ctx)
    overall_max = max(overall_max, search.zeta)
    rows.append([5, "hill-climb search", search.evaluations, search.zeta, search.zeta,
                 "<= 2" if search.zeta <= 2 + 1e-6 else "VIOLATION"])
    lb = lower_bound_ratio(1e4, grid=128, ctx=ctx)
    overall_max = max(overall_max, lb.ratio)
    rows.append([5, "lower-bound family H=1e4", 1, lb.ratio, lb.ratio,
                 "<= 2" if lb.ratio <= 2 + 1e-6 else "VIOLATION"])

    table = Table(
        title="Worst-case zeta by ring family (paper: tight bound 2)",
        headers=["n", "weights", "instances", "mean zeta", "max zeta", "verdict"],
        rows=rows,
    )
    upper = CheckResult(
        name="Theorem 8 upper bound",
        ok=violations == 0 and overall_max <= 2.0 + 1e-6,
        details=f"max observed zeta = {overall_max:.6f}, violations of 2: {violations}",
        data={"max_zeta": overall_max},
    )
    tight = CheckResult(
        name="Theorem 8 tightness",
        ok=lb.ratio > 1.999,
        details=f"lower-bound family reaches {lb.ratio:.6f} at H=1e4",
        data={"lb_zeta": lb.ratio},
    )
    return ExperimentOutput(exp_id=EXP_ID, title=TITLE, tables=[table],
                            checks=[upper, tight],
                            data={"max_zeta": overall_max, "lb_zeta": lb.ratio})
