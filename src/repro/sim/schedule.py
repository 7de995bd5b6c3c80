"""Deterministic churn stream: who joins and leaves at each epoch.

The schedule is the gasper-attack ``RandomSchedule`` idea transplanted
onto the paper's rings: every epoch's randomness is re-derived from the
scenario seed and the epoch index through a ``SeedSequence`` -- never
carried as shared generator state -- so epoch ``e``'s events are a pure
function of ``(scenario, e, population-so-far)`` and replay bit-identically
across serial, parallel, and resumed executions.

Leaves only ever pick *honest* agents: the scenario's adversaries persist
for its whole lifetime (the interesting question is how a fixed coalition
fares against a drifting honest population, and reassigning roles
mid-scenario would conflate churn with strategy changes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ChurnEvent", "ChurnSchedule", "sim_rng"]

_MASK = 0x7FFFFFFF


def sim_rng(seed: int, *coords: int) -> np.random.Generator:
    """Per-cell generator for the simulator's coordinate space.

    Seeds a ``SeedSequence`` from integer coordinates only -- no
    ``hash()`` of strings, whose salt would differ across worker processes
    and break replay.
    """
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & _MASK] + [int(c) & _MASK for c in coords])
    )


@dataclass(frozen=True)
class ChurnEvent:
    """The membership delta applied between epoch ``epoch - 1`` and
    ``epoch``; ``joins`` are ``(agent_id, weight)`` pairs, ``leaves``
    agent ids.  Epoch 0 has no event (the initial population stands)."""

    epoch: int
    joins: tuple[tuple[int, float], ...] = ()
    leaves: tuple[int, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.joins and not self.leaves


class ChurnSchedule:
    """Derives each epoch's :class:`ChurnEvent` from the scenario seed."""

    #: Coordinate tags keeping the schedule's RNG streams disjoint from
    #: the population's initial draw (tag 0 in population.py).
    _TAG_CHURN = 1

    def __init__(self, scenario) -> None:
        self.scenario = scenario

    def draw_weight(self, rng: np.random.Generator) -> float:
        s = self.scenario
        if s.weight_dist == "loguniform":
            return float(math.exp(rng.uniform(math.log(s.w_lo), math.log(s.w_hi))))
        return float(rng.uniform(s.w_lo, s.w_hi))

    def event(self, epoch: int, honest_ids, n: int, next_id: int) -> ChurnEvent:
        """The event entering ``epoch``.

        ``honest_ids`` are the current population's honest agents in a
        deterministic order, ``n`` its total size, ``next_id`` the next
        fresh agent id.  Bounds are respected: no leave below ``n_min``,
        no join above ``n_max`` (``swap_churn`` pairs them so ``n`` is
        invariant).
        """
        s = self.scenario
        if epoch <= 0:
            return ChurnEvent(epoch=epoch)
        rng = sim_rng(s.seed, self._TAG_CHURN, epoch)
        joins: list[tuple[int, float]] = []
        leaves: list[int] = []
        honest_ids = list(honest_ids)
        if s.swap_churn:
            # Paired join+leave: membership rotates, n stays constant.
            if rng.random() < s.churn_rate and honest_ids and n - 1 >= s.n_min:
                leaves.append(int(honest_ids[int(rng.integers(len(honest_ids)))]))
                joins.append((next_id, self.draw_weight(rng)))
        else:
            if rng.random() < s.churn_rate and n + 1 <= s.n_max:
                joins.append((next_id, self.draw_weight(rng)))
            if rng.random() < s.churn_rate and honest_ids and n + len(joins) - 1 >= s.n_min:
                leaves.append(int(honest_ids[int(rng.integers(len(honest_ids)))]))
        return ChurnEvent(epoch=epoch, joins=tuple(joins), leaves=tuple(leaves))
