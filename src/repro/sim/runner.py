"""Epoch executor for population scenarios.

``run_scenario`` turns a :class:`~repro.sim.scenario.Scenario` into a
:class:`SimResult`: it derives every epoch's population from the churn
schedule (membership is seed-driven and independent of attack results, so
the whole epoch sequence is known up front), flattens all
``(epoch, adversary)`` best-response cells into **one** work list, and
executes it through the same two paths as
:func:`repro.analysis.parallel.parallel_incentive_sweep` -- serial sharing
the caller's context, or supervised under
:func:`repro.runtime.supervised_map` for process-parallel runs and
whenever the resolved policy wants timeouts/retries/fault-injection or a
checkpoint journal is requested.  Both produce bit-identical results; a
run resumed from a journal after ``kill -9`` is indistinguishable from an
uninterrupted one.

The journal fingerprint is built with
:func:`repro.runtime.fingerprint_of` over the scenario's *complete* field
set -- including the adversary-strategy discriminator -- plus the engine
configuration, so resuming a checkpoint with a different strategy mix (or
seed, or backend) refuses with a typed
:class:`~repro.exceptions.CheckpointError` instead of replaying stale
cells.

Warm-start plumbing: adaptive adversaries route their truthful solve
through :func:`repro.core.warm_decomposition` with the previous epoch's
decomposition as hint, held in a per-process store keyed by
``(scenario name, seed, agent id)``.  Reuse is value-neutral (the
reconstruction is certified and bit-identical), so partial reuse in
workers does not break the serial/parallel identity contract -- only the
work counters move.

Any per-agent empirical ratio above ``2 + zeta_slack`` is a Theorem 8
counterexample candidate: it increments ``sim_zeta_violations`` and, when
a corpus directory is configured, files a shrunken ``best_response``
record through the oracle machinery for replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.parallel import _context_for
from ..attack import best_split
from ..engine import ENGINE_NAME, SOLVER_NAME, EngineContext, EngineSpec, resolve_context
from ..graphs import WeightedGraph
from ..numeric import EXACT
from ..oracle import (
    FailureCorpus,
    FailureRecord,
    backend_to_dict,
    shrink_graph,
)
from ..oracle.corpus import now_stamp
from ..io import graph_to_dict
from ..runtime import RuntimePolicy, fingerprint_of, open_journal, resolve_policy, supervised_map
from .coalition import AttackOutcome, evaluate_strategy
from .population import Population
from .scenario import Scenario, resolve_scenario
from .schedule import ChurnSchedule

__all__ = [
    "EpochReport",
    "SimResult",
    "reset_warm_store",
    "run_scenario",
    "scenario_fingerprint",
]

#: Per-process hint store for adaptive adversaries:
#: ``(scenario, seed, agent_id) -> last certified decomposition``.
_WARM_HINTS: dict[tuple[str, int, int], object] = {}


def reset_warm_store() -> None:
    """Drop all cross-epoch decomposition hints (bench/test isolation)."""
    _WARM_HINTS.clear()


def scenario_fingerprint(scenario: Scenario, spec: EngineSpec | None) -> str:
    """Journal fingerprint for one scenario run.

    Folds the scenario's full field set (``fingerprint_fields`` includes
    the strategy discriminator by name) and the value-determining engine
    configuration.
    """
    engine = ()
    if spec is not None:
        engine = (SOLVER_NAME, spec.backend.name, spec.zero_tol, ENGINE_NAME)
    return fingerprint_of(
        kind="repro-sim/1",
        scenario=scenario.fingerprint_fields(),
        engine=engine,
    )


def _run_cell(
    g: WeightedGraph,
    vertex: int,
    agent_id: int,
    strategy: str,
    grid: int,
    partner_vertex: Optional[int],
    partner_agent: Optional[int],
    hint_key: tuple[str, int, int],
    ctx: EngineContext,
    backend=None,
) -> dict:
    """One adversary cell against a live context; returns a plain payload."""
    backend = ctx.resolve_backend(backend)
    ctx.counters.sim_attacks += 1
    hint = _WARM_HINTS.get(hint_key) if strategy == "adaptive" else None
    with ctx.span("sim/attack"):
        outcome, hint_out = evaluate_strategy(
            g, vertex, agent_id, strategy, grid, backend=backend, ctx=ctx,
            partner_vertex=partner_vertex, partner_agent=partner_agent,
            hint=hint,
        )
    if hint_out is not None:
        _WARM_HINTS[hint_key] = hint_out
    return outcome.to_payload()


def _sim_cell(args: tuple) -> dict:
    """Picklable cell for workers/supervision: last slot is an
    :class:`EngineSpec` rebuilt into the per-process memoized context."""
    (g, vertex, agent_id, strategy, grid, partner_vertex, partner_agent,
     scen_name, seed, spec) = args
    ctx = _context_for(spec)
    return _run_cell(g, vertex, agent_id, strategy, grid, partner_vertex,
                     partner_agent, (scen_name, seed, agent_id), ctx)


def _sim_cell_exact(args: tuple) -> dict:
    """Precision-escalated twin of :func:`_sim_cell` (exact backend), used
    by the supervisor after typed numeric failures exhaust float retries."""
    (g, vertex, agent_id, strategy, grid, partner_vertex, partner_agent,
     scen_name, seed, spec) = args
    ctx = _context_for(spec)
    return _run_cell(g, vertex, agent_id, strategy, grid, partner_vertex,
                     partner_agent, (scen_name, seed, agent_id), ctx,
                     backend=EXACT)


@dataclass(frozen=True)
class EpochReport:
    """One epoch's population snapshot and adversary outcomes."""

    epoch: int
    n: int
    joined: tuple[int, ...]
    left: tuple[int, ...]
    outcomes: tuple[AttackOutcome, ...]

    @property
    def max_ratio(self) -> float:
        return max((o.ratio for o in self.outcomes), default=1.0)

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "n": self.n,
            "joined": list(self.joined),
            "left": list(self.left),
            "max_ratio": self.max_ratio,
            "outcomes": [o.to_payload() for o in self.outcomes],
        }


@dataclass(frozen=True)
class SimResult:
    """The full scenario run: per-epoch reports plus violation records."""

    scenario: Scenario
    reports: tuple[EpochReport, ...]
    violations: tuple[dict, ...]
    fingerprint: str

    @property
    def max_ratio(self) -> float:
        return max((r.max_ratio for r in self.reports), default=1.0)

    @property
    def epochs(self) -> int:
        return len(self.reports)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "strategies": list(self.scenario.strategies),
            "fingerprint": self.fingerprint,
            "epochs": self.epochs,
            "max_ratio": self.max_ratio,
            "violations": list(self.violations),
            "reports": [r.to_dict() for r in self.reports],
        }


def _coalition_partner(adversaries, k):
    """Deterministic partner choice: the next adversary, cyclically."""
    if len(adversaries) < 2:
        from ..exceptions import SimError

        raise SimError(
            "coalition strategy needs at least 2 adversaries in the scenario"
        )
    return adversaries[(k + 1) % len(adversaries)]


def _zeta_record(scenario, epoch, g, outcome, ctx) -> FailureRecord:
    """Build the shrunken corpus record for one ratio-bound violation."""
    slack = scenario.zeta_slack
    grid = scenario.grid

    def fails(candidate: WeightedGraph) -> bool:
        if not candidate.is_ring():
            return False  # leaving the ring family leaves the theorem too
        try:
            return any(
                best_split(candidate, v, grid=grid, ctx=ctx).ratio > 2.0 + slack
                for v in candidate.vertices()
            )
        except Exception:
            return True  # crashes are failures too; keep them minimized

    small = shrink_graph(g, fails, max_evals=60) if fails(g) else g
    if small.n != g.n:
        vertex = max(small.vertices(),
                     key=lambda v: best_split(small, v, grid=grid, ctx=ctx).ratio)
    else:
        small, vertex = g, outcome.vertex
    return FailureRecord(
        kind="best_response",
        problems=(
            f"empirical zeta {outcome.ratio:.9g} > 2 + {slack:g} "
            f"(strategy {outcome.strategy}, epoch {epoch})",
        ),
        context={
            "solver": SOLVER_NAME,
            "backend": backend_to_dict(ctx.backend),
            "zero_tol": ctx.zero_tol,
            "level": "sim",
        },
        payload={
            "graph": graph_to_dict(small),
            "vertex": int(vertex),
            "grid": int(grid),
            "scenario": scenario.name,
            "seed": scenario.seed,
            "epoch": int(epoch),
            "strategy": outcome.strategy,
            "agent_id": int(outcome.agent_id),
            "ratio": float(outcome.ratio),
            "shrunk_from_n": int(g.n),
        },
        created=now_stamp(),
    )


def run_scenario(
    scenario: Scenario | str,
    seed: Optional[int] = None,
    epochs: Optional[int] = None,
    ctx: EngineContext | None = None,
    processes: Optional[int] = None,
    policy: Optional[RuntimePolicy] = None,
    checkpoint: Optional[str] = None,
    corpus_dir: Optional[str] = None,
) -> SimResult:
    """Execute one scenario and return its :class:`SimResult`.

    ``seed``/``epochs`` override the scenario's own fields (the CLI's
    ``--seed``/``--epochs``).  ``processes=None`` defers to
    ``ctx.workers``; supervision engages exactly as in
    :func:`~repro.analysis.parallel.parallel_incentive_sweep` -- for
    parallel runs, when the resolved policy asks for it, or when a
    checkpoint path is given.
    """
    scenario = resolve_scenario(scenario, seed=seed, epochs=epochs)
    rctx = resolve_context(ctx)
    rpolicy = resolve_policy(rctx, policy)
    checkpoint = checkpoint if checkpoint is not None else rpolicy.checkpoint
    procs = rctx.resolve_workers(processes)
    sched = ChurnSchedule(scenario)

    # -- phase 1: derive the full epoch sequence (seed-driven, cheap) -----
    with rctx.span("sim/churn"):
        pop = Population.initial(scenario)
        epoch_pops: list[tuple[Population, WeightedGraph, tuple]] = []
        events = []
        for epoch in range(scenario.epochs):
            event = sched.event(epoch, pop.honest_ids(), pop.n, pop.next_id)
            if not event.empty:
                rctx.counters.sim_churn_events += 1
            pop = pop.apply(event)
            g, agent_ids = pop.ring()
            epoch_pops.append((pop, g, agent_ids))
            events.append(event)

    # -- phase 2: flatten every (epoch, adversary) cell -------------------
    cells: list[tuple] = []   # args minus the trailing spec slot
    keys: list[str] = []
    meta: list[tuple[int, int]] = []  # (epoch, cells-offset bookkeeping)
    for epoch, (pop, g, _agent_ids) in enumerate(epoch_pops):
        advs = pop.adversaries()
        for k, (vertex, agent) in enumerate(advs):
            partner_vertex = partner_agent = None
            if agent.strategy == "coalition":
                pv, pa = _coalition_partner(advs, k)
                partner_vertex, partner_agent = pv, pa.agent_id
            cells.append((g, vertex, agent.agent_id, agent.strategy,
                          scenario.grid, partner_vertex, partner_agent,
                          scenario.name, scenario.seed))
            keys.append(f"e{epoch}:a{agent.agent_id}:{agent.strategy}")
            meta.append((epoch, agent.agent_id))
    rctx.counters.sim_epochs += scenario.epochs

    # -- phase 3: execute -------------------------------------------------
    supervised = rpolicy.supervised or checkpoint is not None
    with rctx.span("sim/attacks"):
        if not supervised and (procs <= 0 or len(cells) <= 1):
            payloads = [
                _run_cell(*args[:7],
                          hint_key=(args[7], args[8], args[2]), ctx=rctx)
                for args in cells
            ]
        else:
            spec = rctx.spec()
            items = [args + (spec,) for args in cells]
            fingerprint = scenario_fingerprint(scenario, spec)
            journal = open_journal(checkpoint, fingerprint)
            try:
                payloads = supervised_map(
                    _sim_cell,
                    items,
                    processes=procs,
                    policy=rpolicy,
                    counters=rctx.counters,
                    escalate_fn=_sim_cell_exact,
                    journal=journal,
                    key_fn=lambda i: keys[i],
                    tracer=getattr(rctx, "tracer", None),
                )
            finally:
                if journal is not None:
                    journal.close()

    # -- phase 4: fold back into epochs, police the zeta bound ------------
    by_epoch: dict[int, list[AttackOutcome]] = {e: [] for e in range(scenario.epochs)}
    for (epoch, _agent_id), payload in zip(meta, payloads):
        by_epoch[epoch].append(AttackOutcome.from_payload(payload))

    corpus = FailureCorpus(corpus_dir) if corpus_dir else None
    bound = 2.0 + scenario.zeta_slack
    violations: list[dict] = []
    reports: list[EpochReport] = []
    for epoch, (pop, g, _agent_ids) in enumerate(epoch_pops):
        outcomes = tuple(by_epoch[epoch])
        event = events[epoch]
        reports.append(EpochReport(
            epoch=epoch, n=pop.n,
            joined=tuple(a for a, _w in event.joins),
            left=tuple(event.leaves),
            outcomes=outcomes,
        ))
        for outcome in outcomes:
            if outcome.ratio > bound:
                rctx.counters.sim_zeta_violations += 1
                entry = {
                    "epoch": epoch,
                    "agent_id": outcome.agent_id,
                    "strategy": outcome.strategy,
                    "ratio": outcome.ratio,
                }
                if corpus is not None:
                    rec = _zeta_record(scenario, epoch, g, outcome, rctx)
                    entry["record"] = str(corpus.add(rec))
                violations.append(entry)

    return SimResult(
        scenario=scenario,
        reports=tuple(reports),
        violations=tuple(violations),
        fingerprint=scenario_fingerprint(scenario, rctx.spec()),
    )
