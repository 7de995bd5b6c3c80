"""Adversary strategy evaluation: solo, composed, colluding, adaptive.

One evaluator per strategy name in :data:`repro.sim.scenario.STRATEGIES`.
Every evaluator is a pure function of ``(epoch ring, vertex, scenario
knobs)`` returning a plain-float :class:`AttackOutcome`, so outcomes are
picklable work-cell results and encode bit-exactly into checkpoint
journals.  The empirical per-agent incentive ratio of an epoch is the max
of ``outcome.ratio`` over its adversaries -- the quantity Theorem 8 bounds
by 2 for solo Sybil attacks and the simulator measures for everything
else.

The ``coalition`` evaluator is deliberately built on the post-split index
map (:func:`repro.graphs.cut_index_map`): the splitting partner's cut
relabels every vertex of the ring, so the misreporting partner's utility
*must* be read through the map -- the exact seam the stale-index bugfix in
:mod:`repro.attack.combined` regression-tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..attack import best_combined_split, best_multi_split, best_split
from ..attack.evaluator import CandidateEvaluator, subdivision_order
from ..attack.misreport import report_weight, utility_curve
from ..core import bd_allocation, warm_decomposition
from ..engine import EngineContext
from ..exceptions import SimError
from ..graphs import WeightedGraph, cut_index_map, cut_ring_at
from ..numeric import Backend, FLOAT

__all__ = ["AttackOutcome", "evaluate_strategy"]


@dataclass(frozen=True)
class AttackOutcome:
    """One adversary's best response in one epoch, in plain floats."""

    agent_id: int
    vertex: int
    strategy: str
    utility: float
    honest_utility: float
    #: Coalition partners' agent ids (empty for solo strategies).
    partners: tuple[int, ...] = ()

    @property
    def ratio(self) -> float:
        """Empirical incentive ratio; 1 when the honest utility is zero
        (a zero-endowment agent gains nothing by Definition 7's budget)."""
        if self.honest_utility == 0:
            return 1.0
        return self.utility / self.honest_utility

    def to_payload(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "vertex": self.vertex,
            "strategy": self.strategy,
            "utility": self.utility,
            "honest_utility": self.honest_utility,
            "partners": list(self.partners),
        }

    @classmethod
    def from_payload(cls, d: dict) -> "AttackOutcome":
        return cls(
            agent_id=int(d["agent_id"]),
            vertex=int(d["vertex"]),
            strategy=str(d["strategy"]),
            utility=float(d["utility"]),
            honest_utility=float(d["honest_utility"]),
            partners=tuple(int(p) for p in d.get("partners", [])),
        )


def _honest_utility(g: WeightedGraph, v: int, backend: Backend,
                    ctx: EngineContext | None) -> float:
    return float(bd_allocation(g, backend=backend, ctx=ctx).utilities[v])


def _eval_sybil(g, v, grid, backend, ctx) -> tuple[float, float]:
    r = best_split(g, v, grid=grid, backend=backend, ctx=ctx)
    return float(r.utility), float(r.honest_utility)


def _eval_multi(g, v, grid, backend, ctx) -> tuple[float, float]:
    # d_v = 2 on a ring caps the split at two identities; the m-way search
    # still exercises the partition/simplex machinery end to end.
    m = min(2, g.degree(v))
    r = best_multi_split(g, v, m=m, steps=max(4, grid // 2),
                         refine_rounds=2, backend=backend, ctx=ctx)
    return float(r.utility), float(r.honest_utility)


def _eval_misreport(g, v, grid, backend, ctx) -> tuple[float, float]:
    """Lone misreport: the best of ``grid`` reports ``x = w_v t / grid``.

    The reports are one family of :func:`repro.attack.utility_curve`
    (base graph built once, bracketed reports reconstructed); the maximum
    is still folded in report order.
    """
    honest = _honest_utility(g, v, backend, ctx)
    wv = float(g.weights[v])
    best = honest  # x = w_v (truthful) is always in the feasible set
    xs = [wv * t / grid for t in range(grid)]
    for u in utility_curve(g, v, xs, backend, ctx):
        best = max(best, float(u))
    return best, honest


def _eval_combined(g, v, grid, backend, ctx) -> tuple[float, float]:
    r = best_combined_split(g, v, grid=min(grid, 16), refine=2,
                            backend=backend, ctx=ctx)
    return float(r.utility), float(r.honest_utility)


def _eval_coalition(g, v, grid, backend, ctx,
                    partner: int) -> tuple[float, float]:
    """Colluding pair: ``partner`` misreports, ``v`` Sybil-splits.

    Joint utility of the coalition vs its joint honest utility.  The
    partner's post-attack utility is read through the cut's index map --
    the relabelled path has no vertex with the partner's original id
    pointing at the partner.

    Each report ``x`` is one family in ``w1`` of a single
    :class:`~repro.attack.evaluator.CandidateEvaluator`: its cut path is
    built once, ``v^1``/``v^2`` move, and ``v^1``, ``v^2`` and the
    partner's path id are watched.  The split lattice is evaluated in
    bracket-first order and its maximum folded in lattice order.
    """
    if partner == v:
        raise SimError("coalition partner must differ from the splitter")
    alloc = bd_allocation(g, backend=backend, ctx=ctx)
    honest = float(alloc.utilities[v] + alloc.utilities[partner])
    # Backend arithmetic so the split budget w1 + w2 == w_v holds exactly
    # on the Fraction backend (a float lattice would fail its equality).
    wv = backend.scalar(g.weights[v])
    wp = backend.scalar(g.weights[partner])
    imap = cut_index_map(g, v)
    # Clamped: in floats wv * i / grid can exceed wv by an ulp when grid
    # is not a power of two, and w2 would go negative.
    lattice = [min(wv * i / grid, wv) for i in range(grid + 1)]
    evaluator = None
    best = honest
    x_steps = 4
    for t in range(1, x_steps + 1):
        x = wp * t / x_steps  # t == x_steps is the truthful report
        base, v1, v2 = cut_ring_at(report_weight(g, partner, x, backend), v,
                                   wv, backend.scalar(0))
        if evaluator is None:
            evaluator = CandidateEvaluator(
                base, (v1, v2), (v1, v2, imap[partner]), backend, ctx)
        else:
            evaluator.new_family(base)
        joints = [0.0] * (grid + 1)
        for i in subdivision_order(grid):
            w1 = lattice[i]
            u1, u2, up = evaluator.utilities((w1, wv - w1), at=float(w1))
            joints[i] = float(u1 + u2 + up)
        for joint in joints:
            if joint > best:
                best = joint
    return best, honest


def _eval_adaptive(g, v, grid, backend, ctx, hint) -> tuple[float, float, object]:
    """Warm-start Sybil best response.

    The truthful solve goes through
    :func:`repro.core.warm_decomposition`: with a same-topology hint from
    the previous epoch the decomposition is *reconstructed* (and certified)
    instead of re-solved, and the certified result lands in the context
    cache so the best-response search's own honest-utility solve is a
    cache hit.  Values are bit-identical with or without the hint; only
    the work counters move.  Returns the epoch's decomposition as the next
    epoch's hint.
    """
    decomp = warm_decomposition(g, hint, backend=backend, ctx=ctx)
    r = best_split(g, v, grid=grid, backend=backend, ctx=ctx)
    return float(r.utility), float(r.honest_utility), decomp


def evaluate_strategy(
    g: WeightedGraph,
    vertex: int,
    agent_id: int,
    strategy: str,
    grid: int,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
    partner_vertex: int | None = None,
    partner_agent: int | None = None,
    hint=None,
):
    """Evaluate one adversary cell.

    Returns ``(outcome, hint_out)`` where ``hint_out`` is a decomposition
    to carry into the next epoch (``None`` for every strategy but
    ``adaptive``).
    """
    hint_out = None
    partners: tuple[int, ...] = ()
    if strategy == "sybil":
        utility, honest = _eval_sybil(g, vertex, grid, backend, ctx)
    elif strategy == "multi":
        utility, honest = _eval_multi(g, vertex, grid, backend, ctx)
    elif strategy == "misreport":
        utility, honest = _eval_misreport(g, vertex, grid, backend, ctx)
    elif strategy == "combined":
        utility, honest = _eval_combined(g, vertex, grid, backend, ctx)
    elif strategy == "coalition":
        if partner_vertex is None:
            raise SimError("coalition strategy needs a partner vertex")
        utility, honest = _eval_coalition(g, vertex, grid, backend, ctx,
                                          partner_vertex)
        partners = (partner_agent,) if partner_agent is not None else ()
    elif strategy == "adaptive":
        utility, honest, hint_out = _eval_adaptive(g, vertex, grid, backend,
                                                   ctx, hint)
    else:
        raise SimError(f"unknown strategy {strategy!r}")
    outcome = AttackOutcome(
        agent_id=agent_id, vertex=vertex, strategy=strategy,
        utility=utility, honest_utility=honest, partners=partners,
    )
    return outcome, hint_out
