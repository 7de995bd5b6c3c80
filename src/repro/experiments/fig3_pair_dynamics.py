"""EXP-F3: reproduce Fig. 3's bottleneck-pair merge/split dynamics.

Fig. 3 illustrates Proposition 12: as a C-class agent's weight crosses a
breakpoint, the pair containing it either combines with the neighboring
pair (Fig. 3b, weight increasing) or decomposes into two (Fig. 3a, weight
decreasing), with the alpha-ratios of the involved pairs *equal at the
breakpoint itself*.

The experiment builds instances with multi-pair decompositions, sweeps the
agent's report, tabulates every detected event with the alpha values on
both sides of the breakpoint, and verifies the alpha-equality at the
breakpoint to first order.
"""

from __future__ import annotations

import numpy as np

from ..analysis import trace_report_sweep
from ..graphs import WeightedGraph, random_ring
from ..theory import CheckResult, check_proposition12
from .base import ExperimentOutput, Table, scale_factor

EXP_ID = "EXP-F3"
TITLE = "Fig. 3: merge/split of the pair containing the manipulative agent"


def showcase_graph() -> tuple[WeightedGraph, int]:
    """A ring whose report sweep exhibits merge/split events.

    Deterministic search over a seeded family: the first (ring, agent) whose
    sweep produces two or more structural events becomes the showcase (the
    search is cheap and pinned, so the figure is reproducible).
    """
    rng = np.random.default_rng(1234)
    for _ in range(40):
        n = int(rng.integers(5, 9))
        g = random_ring(n, rng, "loguniform", 0.05, 20)
        for v in range(n):
            t = trace_report_sweep(g, v, samples=8, probes=17)
            if sum(1 for e in t.events if e.kind in ("merge", "split")) >= 2:
                return g, v
    # fall back to any instance (the census still demonstrates the grammar)
    return random_ring(6, np.random.default_rng(100), "loguniform", 0.1, 10), 5


def run(seed: int = 0, scale: str = "default") -> ExperimentOutput:
    g, v = showcase_graph()
    trace = trace_report_sweep(g, v, samples=16 * scale_factor(scale), probes=33)

    event_rows = [
        [e.x, e.kind, e.pairs_before, e.pairs_after, e.alpha_before, e.alpha_after,
         abs(e.alpha_before - e.alpha_after)]
        for e in trace.events
    ]
    tables = [Table(
        title=f"Breakpoint events for v={v} on ring {[round(float(w), 3) for w in g.weights]}",
        headers=["x", "event", "k before", "k after", "alpha_v before", "alpha_v after", "|gap|"],
        rows=event_rows or [["-", "none", "-", "-", "-", "-", "-"]],
    )]

    # alpha-continuity at breakpoints: Prop 12's equalities make alpha_v(x)
    # continuous across merge/split events (the unit-crossing too)
    max_gap = max((abs(e.alpha_before - e.alpha_after) for e in trace.events), default=0.0)
    continuity = CheckResult(
        name="alpha equality at breakpoints (Prop 12)",
        ok=max_gap <= 1e-4,
        details=f"max |alpha jump| across {len(trace.events)} events = {max_gap:.2e}",
        data={"max_gap": max_gap, "events": len(trace.events)},
    )

    checks = [continuity, check_proposition12(g, v, probes=33)]

    # census over random rings: how often each event kind appears
    rng = np.random.default_rng(seed)
    counts = {"merge": 0, "split": 0, "unit-crossing": 0, "reorder": 0, "other": 0}
    instances = 4 * scale_factor(scale)
    for _ in range(instances):
        n = int(rng.integers(4, 8))
        gg = random_ring(n, rng, "loguniform", 0.05, 20)
        vv = int(rng.integers(0, n))
        t = trace_report_sweep(gg, vv, samples=8, probes=17)
        for e in t.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
    tables.append(Table(
        title=f"Event census over {instances} random rings",
        headers=["event kind", "count"],
        rows=[[k, c] for k, c in counts.items()],
    ))
    no_other = CheckResult(
        name="only Prop-12 event kinds occur",
        ok=counts.get("other", 0) == 0,
        details=f"census: {counts}",
        data=counts,
    )
    checks.append(no_other)
    return ExperimentOutput(exp_id=EXP_ID, title=TITLE, tables=tables, checks=checks,
                            data={"counts": counts})
