"""sim_churn: population scenarios with every adversary strategy under churn.

A round is one seeded scenario of two epochs: six adversaries playing
the six strategies (sybil, multi, misreport, combined, coalition,
adaptive) while churn moves the ring size between n = 8 and n = 20.
Rounds cycle the starting size through ``N0_CYCLE``, so every run covers
the same sizes whatever the seed.  A scenario's cost depends strongly on
its seed, so short scenarios with a coarse best-response grid let a run
average over many of them; two epochs still carry a warm hint from one
epoch to the next.  It runs serially through
``run_scenario(processes=0)`` on the run's one fresh ``EngineContext``,
installed with ``using_context`` as ``repro-sim`` does, with
``reset_warm_store()`` before it, because the adaptive adversaries' hint
store is process-global.  Item = one epoch.

Output check: every ratio is finite, and no single-agent strategy exceeds
Theorem 8's bound of 2.  A coalition's *joint* ratio is at least 1.  The
runner also files a joint ratio above 2 as a violation, but the theorem
bounds one agent, not a colluding pair, and such pairs do exceed 2:
scenario seed 4010755824, epoch 0, has a joint ratio of 3.5626.  Each
such cell is solved again with the exact ``Fraction`` backend on the
epoch ring, derived from the scenario through the simulator's schedule
and population layers.  It passes, and is counted and printed, only if
the exact ratio agrees within ``AUDIT_RTOL``; otherwise it fails.

Epoch latency: the runner executes the epochs' attack cells in order, and
each cell first bumps ``counters.sim_attacks``; :class:`EpochClock` stamps
those bumps, so epoch ``e`` runs from its first cell's stamp to the next
epoch's.  Churn derivation before the first cell is charged to the first
epoch and result folding after the last cell to the last epoch, so the
epoch latencies sum to the scenario's wall time.
"""

from __future__ import annotations

import math
import time

import numpy as np
from repro.engine import Counters, EngineContext, using_context
from repro.numeric import EXACT
from repro.sim import (
    STRATEGIES,
    ChurnSchedule,
    Population,
    Scenario,
    evaluate_strategy,
    reset_warm_store,
    run_scenario,
)

from common import WARMUP_ROUND, WARMUP_SEED, TimedRun

NAME = "sim_churn"
TAIL_Q = 75
IMPORTS = ("repro.sim",)
TRACE_ROUNDS = 6
#: Reference time of one round on a 2-core x86-64 container.
ROUND_S = 0.70
ITEMS_PER_ROUND = 2

EPOCHS = 2
ADVERSARIES = 6
N0_CYCLE = (8, 14, 20, 10, 16, 12, 18)
#: Best-response grid: half the scenario default, so a run averages over
#: twice the scenarios.  A power of two, like the default: for other grids
#: the coalition evaluator's last split ``w_v - w_v * i / grid`` can round
#: below zero and raise ``InvalidWeightError``.
GRID = 8
#: Relative tolerance between a coalition's float and exact joint ratios.
AUDIT_RTOL = 1e-6


class EpochClock(Counters):
    """``Counters`` that appends the time of every ``sim_attacks``
    increment to ``stamps``."""

    @property
    def sim_attacks(self) -> int:
        return self.__dict__.get("_sim_attacks", 0)

    @sim_attacks.setter
    def sim_attacks(self, value: int) -> None:
        if value > self.sim_attacks:
            self.__dict__.setdefault("stamps", []).append(time.perf_counter())
        self.__dict__["_sim_attacks"] = value


def epoch_populations(scenario: Scenario) -> list[Population]:
    """Each epoch's population, derived from the scenario as the runner
    derives it: churn schedule, then population."""
    sched, pop = ChurnSchedule(scenario), Population.initial(scenario)
    pops = []
    for epoch in range(scenario.epochs):
        pop = pop.apply(sched.event(epoch, pop.honest_ids(), pop.n,
                                    pop.next_id))
        pops.append(pop)
    return pops


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ctx = None
        #: Exact joint ratios already audited, by (weights, vertex, partner).
        self.audited: dict[tuple, float] = {}

    def round_inputs(self, r: int) -> Scenario:
        scen_seed = int(np.random.SeedSequence([self.seed, r])
                        .generate_state(1)[0])
        return Scenario(
            name="PERFBENCH-CHURN", seed=scen_seed, epochs=EPOCHS,
            n0=N0_CYCLE[r % len(N0_CYCLE)], n_min=8, n_max=20,
            churn_rate=0.75,
            adversaries=ADVERSARIES, strategies=STRATEGIES, grid=GRID,
        )

    def setup_once(self) -> None:
        """Input generation plus a warm-up scenario, the same for every
        seed, on a throwaway context."""
        self.round_inputs(0)
        self.open()
        self.run_round(Workload(WARMUP_SEED).round_inputs(WARMUP_ROUND),
                       TimedRun())

    def open(self, tracer=None) -> None:
        self.ctx = EngineContext(counters=EpochClock())
        self.ctx.tracer = tracer

    def run_round(self, scenario: Scenario, run: TimedRun) -> list:
        counters = self.ctx.counters
        counters.stamps = []
        reset_warm_store()
        run.attempted += scenario.epochs
        t0 = time.perf_counter()
        try:
            # As repro-sim does: evaluators that take no context (multi,
            # combined) resolve the default one, so it must be this run's.
            with using_context(self.ctx), self.ctx.span("bench:scenario"):
                result = run_scenario(scenario, ctx=self.ctx, processes=0)
        except Exception as exc:  # a crash fails every epoch of the round
            for _ in range(scenario.epochs):
                run.fail(f"seed={scenario.seed}: {type(exc).__name__}: {exc}")
            return []
        t1 = time.perf_counter()
        starts = counters.stamps[::ADVERSARIES]
        if len(starts) == scenario.epochs:
            bounds = [t0] + starts[1:] + [t1]
            run.latencies_s.extend(b - a for a, b in zip(bounds, bounds[1:]))
        else:  # the stamps are unusable: spread the wall time evenly
            run.latencies_s.extend([(t1 - t0) / scenario.epochs]
                                   * scenario.epochs)
        return [result]

    def check(self, scenario: Scenario, out: list, run: TimedRun) -> None:
        for result in out:
            if result.epochs != scenario.epochs:
                run.fail(f"seed={scenario.seed}: {result.epochs} epochs "
                         f"reported, {scenario.epochs} run")
            for report in result.reports:
                bad = [o.ratio for o in report.outcomes
                       if not math.isfinite(o.ratio)
                       or (o.strategy == "coalition"
                           and not o.ratio >= 1 - 1e-9)]
                if bad or len(report.outcomes) != ADVERSARIES:
                    run.fail(f"seed={scenario.seed} epoch={report.epoch}: "
                             f"{len(report.outcomes)} outcomes, non-finite "
                             f"ratios or joint ratios below 1: {bad}")
            pops = None
            for violation in result.violations:
                if violation["strategy"] != "coalition":
                    run.fail(f"seed={scenario.seed}: zeta bound violated: "
                             f"{violation}")
                    continue
                try:
                    pops = pops or epoch_populations(scenario)
                    problem = self.audit_coalition(scenario, result, pops,
                                                   violation)
                except Exception as exc:  # a crash fails the audited cell
                    problem = f"audit raised {type(exc).__name__}: {exc}"
                if problem:
                    run.fail(f"seed={scenario.seed} epoch="
                             f"{violation['epoch']}: {problem}")
                else:
                    run.extra.setdefault("coalition_over_2", []).append(
                        violation["ratio"])

    def audit_coalition(self, scenario: Scenario, result, pops: list,
                        violation: dict) -> str | None:
        """The exact backend's joint ratio for one coalition cell above 2,
        compared with the float one; a problem string if they disagree."""
        epoch = violation["epoch"]
        outcome = next(o for o in result.reports[epoch].outcomes
                       if o.agent_id == violation["agent_id"])
        pop = pops[epoch]
        if (pop.n != result.reports[epoch].n
                or pop.vertex_of(outcome.agent_id) != outcome.vertex):
            return "epoch ring derived from the scenario differs from the run"
        g, _agent_ids = pop.ring()
        partner = outcome.partners[0]
        partner_vertex = pop.vertex_of(partner)
        key = (tuple(g.weights), outcome.vertex, partner_vertex)
        if key not in self.audited:
            exact, _hint = evaluate_strategy(
                g, outcome.vertex, outcome.agent_id, "coalition",
                scenario.grid, backend=EXACT, ctx=EngineContext(backend=EXACT),
                partner_vertex=partner_vertex, partner_agent=partner)
            self.audited[key] = exact.ratio
        exact_ratio = self.audited[key]
        if abs(exact_ratio - outcome.ratio) > AUDIT_RTOL * outcome.ratio:
            return (f"coalition joint ratio {outcome.ratio!r} not reproduced "
                    f"by the exact backend ({exact_ratio!r})")
        return None

    def counters(self) -> dict:
        return self.ctx.counters.snapshot()

    def close(self) -> None:
        self.ctx = None
