"""Worst-case instance search: which rings maximize the incentive ratio?

Theorem 8 bounds ``zeta <= 2`` on every ring; this module searches the
instance space for the supremum, which is how the library's lower-bound
family (:mod:`.lower_bound`) was discovered.  Two layers:

* random restarts over log-uniform weights (the worst cases live at extreme
  weight spreads), and
* multiplicative coordinate ascent: perturb one weight at a time by a
  factor, keep improvements, shrink the step when a sweep stalls.

Every evaluation is a full best-response search, so this is the most
expensive routine in the library; the EXP-T8 bench times it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import EngineContext
from ..exceptions import AttackError
from ..graphs import WeightedGraph, random_ring, ring
from ..numeric import Backend, FLOAT
from .best_response import BestResponse
from .incentive_ratio import incentive_ratio

__all__ = [
    "WorstCaseResult",
    "search_worst_ring",
    "scoped_rng",
    "search_worst_ring_scoped",
]


@dataclass(frozen=True)
class WorstCaseResult:
    """Best instance found by the search."""

    graph: WeightedGraph
    response: BestResponse
    evaluations: int

    @property
    def zeta(self) -> float:
        return self.response.ratio


def scoped_rng(seed: int, epoch: int = 0, agent: int = 0) -> np.random.Generator:
    """Per-call generator derived from the ``(seed, epoch, agent)`` scope.

    Callers used to re-seed ``default_rng(seed)`` at every search, so two
    searches inside one scenario epoch drew *identical* candidate streams
    -- the restarts of agent 1's search replayed agent 0's rings, silently
    halving the explored instance space.  Deriving the stream through a
    ``SeedSequence`` over the full scope makes every (epoch, agent) cell
    statistically independent while staying a pure function of the scope,
    the same per-cell discipline as :func:`repro.sim.schedule.sim_rng`.
    """
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(epoch), int(agent)])
    )


def search_worst_ring_scoped(
    n: int,
    seed: int,
    epoch: int = 0,
    agent: int = 0,
    **kwargs,
) -> WorstCaseResult:
    """:func:`search_worst_ring` with the RNG derived from its scope.

    The entry point scenario code should use: passing ``(seed, epoch,
    agent)`` instead of a shared generator keeps concurrent searches
    deterministic *and* distinct (see :func:`scoped_rng`).  Remaining
    keyword arguments forward to :func:`search_worst_ring`.
    """
    return search_worst_ring(n, scoped_rng(seed, epoch, agent), **kwargs)


def search_worst_ring(
    n: int,
    rng: np.random.Generator,
    restarts: int = 4,
    sweeps: int = 6,
    grid: int = 48,
    low: float = 1e-3,
    high: float = 1e3,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> WorstCaseResult:
    """Search rings of size ``n`` for a high incentive ratio.

    Returns the best instance found; by Theorem 8 its ``zeta`` is always
    observed ``<= 2`` (asserted by the EXP-T8 experiment, not here -- the
    search itself stays judgement-free so tests can probe the raw numbers).
    """
    if n < 3:
        raise AttackError("rings need n >= 3")
    best: WorstCaseResult | None = None
    evals = 0

    def evaluate(g: WeightedGraph) -> BestResponse:
        nonlocal evals
        evals += 1
        inst = incentive_ratio(g, grid=grid, backend=backend, ctx=ctx)
        return inst.worst_response

    for _ in range(max(1, restarts)):
        g = random_ring(n, rng, "loguniform", low, high)
        resp = evaluate(g)
        step = 4.0
        for _ in range(max(1, sweeps)):
            improved = False
            for v in range(n):
                for factor in (step, 1.0 / step):
                    ws = list(g.weights)
                    ws[v] = min(max(ws[v] * factor, low / 10), high * 10)
                    cand = ring(ws)
                    cand_resp = evaluate(cand)
                    if cand_resp.ratio > resp.ratio:
                        g, resp = cand, cand_resp
                        improved = True
            if not improved:
                step = np.sqrt(step)
                if step < 1.05:
                    break
        if best is None or resp.ratio > best.response.ratio:
            best = WorstCaseResult(graph=g, response=resp, evaluations=evals)
    assert best is not None
    return WorstCaseResult(graph=best.graph, response=best.response, evaluations=evals)
