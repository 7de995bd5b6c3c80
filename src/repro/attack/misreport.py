"""Weight misreporting strategy of Cheng et al. [7] (Theorem 10 substrate).

Agent ``v`` reports ``x in [0, w_v]`` instead of its true weight.  Theorem
10 states the equilibrium utility ``U_v(x)`` is continuous and monotonically
non-decreasing in ``x``, hence misreporting alone never profits (the
mechanism is truthful) -- the Sybil analysis leans on this monotonicity at
every stage, and the EXP-T10 experiment verifies it numerically.

On a ring, wiring *both* neighbors to one fictitious node in a Sybil attack
is exactly this strategy with ``x = w_{v^1}``, which is why the attack code
only needs the one-neighbor-each split.
"""

from __future__ import annotations

from typing import Sequence

from ..core import bottleneck_decomposition
from ..engine import EngineContext
from ..exceptions import AttackError
from ..graphs import WeightedGraph
from ..numeric import Backend, FLOAT, Scalar
from .evaluator import CandidateEvaluator, subdivision_order

__all__ = ["report_weight", "utility_of_report", "utility_curve", "alpha_curve"]


def _checked_report(g: WeightedGraph, v: int, x: Scalar, backend: Backend) -> Scalar:
    """``x`` as a backend scalar, if it is a feasible report of ``v``."""
    xs = backend.scalar(x)
    wv = backend.scalar(g.weights[v])
    if xs < 0 or xs > wv:
        raise AttackError(f"report {x!r} outside [0, w_v = {g.weights[v]!r}]")
    return xs


def report_weight(g: WeightedGraph, v: int, x: Scalar, backend: Backend = FLOAT) -> WeightedGraph:
    """The network with ``v``'s weight replaced by its report ``x``."""
    return g.with_weight(v, _checked_report(g, v, x, backend))


def utility_of_report(
    g: WeightedGraph, v: int, x: Scalar, backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> Scalar:
    """``U_v(x)``: equilibrium utility of ``v`` when it reports ``x``."""
    return utility_curve(g, v, [x], backend, ctx)[0]


def utility_curve(
    g: WeightedGraph, v: int, xs: Sequence[Scalar], backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> list[Scalar]:
    """``U_v(x)`` sampled on a grid (EXP-T10 / Fig. 2 style sweeps).

    One family in the report: ``g`` is the base graph, ``v`` moves and is
    watched, and the samples are evaluated in bracket-first order, so a
    sample between two solved reports of one decomposition structure is
    reconstructed instead of re-solved (see
    :class:`~repro.attack.evaluator.CandidateEvaluator`).
    """
    xs = list(xs)
    evaluator = CandidateEvaluator(g, (v,), (v,), backend, ctx)
    out: list[Scalar] = [None] * len(xs)
    for i in subdivision_order(len(xs) - 1) if xs else ():
        x = _checked_report(g, v, xs[i], backend)
        (out[i],) = evaluator.utilities((x,), at=float(x))
    return out


def alpha_curve(
    g: WeightedGraph, v: int, xs: Sequence[Scalar], backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
) -> list[Scalar]:
    """``alpha_v(x)`` sampled on a grid (Proposition 11 / Fig. 2)."""
    out = []
    for x in xs:
        d = bottleneck_decomposition(report_weight(g, v, x, backend), backend, ctx)
        out.append(d.alpha_of(v))
    return out
