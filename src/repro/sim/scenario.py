"""Scenario description for the adversarial population simulator.

A :class:`Scenario` is the frozen, seed-complete specification of one
simulated world: initial ring size, churn intensity, population bounds,
weight distribution, and the adversary roles -- in the style of
gasper-attack's ``Scenario`` dataclass, where the first ``F`` of ``N``
agents are the adversarial ones and everything downstream is a pure
function of ``(scenario, seed)``.  The paper proves ``zeta <= 2`` for a
*single* Sybil-splitting agent on a *static* ring; scenarios are how the
library probes that bound under the populations the ROADMAP's production
north star actually faces: churning memberships, colluding neighbors, and
adversaries that adapt their best response epoch over epoch.

Everything here is declarative -- no RNG is drawn and no solve happens at
construction; :mod:`repro.sim.schedule` derives the churn stream and
:mod:`repro.sim.runner` executes epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..exceptions import SimError

__all__ = ["STRATEGIES", "Scenario", "SCENARIOS", "resolve_scenario"]

#: Adversary strategies the coalition layer implements.
#:
#: * ``sybil``      -- Definition 7 two-way split, full best-response search.
#: * ``multi``      -- m-way split via :mod:`repro.attack.multi_split`
#:                     (capped at m = 2 on rings, where d_v = 2).
#: * ``misreport``  -- weight under-reporting alone (Theorem 10 says this
#:                     never profits; the simulator watches it anyway).
#: * ``combined``   -- misreport-then-Sybil composition via
#:                     :mod:`repro.attack.combined`.
#: * ``coalition``  -- two colluding adversaries: one misreports, its
#:                     partner splits, joint utility compared to joint
#:                     honest utility.
#: * ``adaptive``   -- Sybil best response that re-solves each epoch
#:                     through the warm-start incremental engine, reusing
#:                     the previous epoch's decomposition when topology
#:                     permits.
STRATEGIES = ("sybil", "multi", "misreport", "combined", "coalition", "adaptive")

_WEIGHT_DISTS = ("loguniform", "uniform")


@dataclass(frozen=True)
class Scenario:
    """One seed-complete population scenario."""

    name: str
    seed: int = 0
    epochs: int = 4
    n0: int = 8
    n_min: int = 4
    n_max: int = 24
    #: Per-epoch probability of one join and (independently) one leave.
    churn_rate: float = 0.5
    #: When True every join is paired with a leave (membership rotates but
    #: ``n`` stays constant) -- the regime where epoch-to-epoch topology is
    #: stable and adaptive warm reuse pays off.
    swap_churn: bool = False
    adversaries: int = 2
    #: Strategy mix; adversary ``k`` plays ``strategies[k % len]``.  This
    #: tuple is the *strategy discriminator* that must reach every journal
    #: fingerprint derived from the scenario.
    strategies: tuple[str, ...] = ("sybil",)
    weight_dist: str = "loguniform"
    w_lo: float = 0.05
    w_hi: float = 20.0
    #: Best-response search resolution forwarded to the attack layer.
    grid: int = 16
    #: Empirical slack on the Theorem 8 bound: a float best-response ratio
    #: a few ulps above 2 is rounding, not a counterexample.  Anything
    #: above ``2 + zeta_slack`` is a violation and files a corpus record.
    zeta_slack: float = 1e-6

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise SimError(f"scenario {self.name!r}: epochs must be >= 1")
        if not (3 <= self.n_min <= self.n0 <= self.n_max):
            raise SimError(
                f"scenario {self.name!r}: need 3 <= n_min <= n0 <= n_max, got "
                f"({self.n_min}, {self.n0}, {self.n_max})"
            )
        if not (0.0 <= self.churn_rate <= 1.0):
            raise SimError(f"scenario {self.name!r}: churn_rate outside [0, 1]")
        if not self.strategies:
            raise SimError(f"scenario {self.name!r}: empty strategy mix")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise SimError(
                f"scenario {self.name!r}: unknown strategies {unknown}; "
                f"known: {STRATEGIES}"
            )
        if not (1 <= self.adversaries < self.n_min):
            raise SimError(
                f"scenario {self.name!r}: need 1 <= adversaries < n_min "
                f"(honest majority keeps churn well-defined), got "
                f"{self.adversaries}"
            )
        if self.weight_dist not in _WEIGHT_DISTS:
            raise SimError(
                f"scenario {self.name!r}: unknown weight_dist "
                f"{self.weight_dist!r}; known: {_WEIGHT_DISTS}"
            )
        if not (0 < self.w_lo <= self.w_hi):
            raise SimError(f"scenario {self.name!r}: need 0 < w_lo <= w_hi")
        if self.grid < 4:
            raise SimError(f"scenario {self.name!r}: grid must be >= 4")

    def strategy_of(self, adversary_index: int) -> str:
        """Strategy played by the ``k``-th adversary (cycling the mix)."""
        return self.strategies[adversary_index % len(self.strategies)]

    def discriminator(self) -> str:
        """The adversary-strategy discriminator (satellite of the journal
        fingerprint): compact, order-sensitive rendering of the mix."""
        return "+".join(self.strategies)

    def fingerprint_fields(self) -> dict:
        """Every scenario field, for journal fingerprints.

        Includes :meth:`discriminator` explicitly even though
        ``strategies`` is already present: the discriminator is the field
        whose omission once made strategy-swapped resumes replay stale
        cells, and keeping it named makes the regression test read off the
        contract directly.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["strategies"] = tuple(self.strategies)
        out["discriminator"] = self.discriminator()
        return out


def resolve_scenario(name_or_scenario, **overrides) -> Scenario:
    """Look up a named preset (or pass a :class:`Scenario` through) and
    apply field overrides (``seed=...``, ``epochs=...``)."""
    if isinstance(name_or_scenario, Scenario):
        scen = name_or_scenario
    else:
        scen = SCENARIOS.get(str(name_or_scenario).upper())
        if scen is None:
            raise SimError(
                f"unknown scenario {name_or_scenario!r}; known: "
                f"{', '.join(sorted(SCENARIOS))}"
            )
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(scen, **overrides) if overrides else scen


#: The EXP-S experiment family's scenario presets.  EXP-S1: solo Sybil
#: splitting (2-way and m-way) under membership churn.  EXP-S2: colluding
#: neighbor coalitions.  EXP-S3: combined misreport-then-Sybil
#: compositions next to a pure misreporter.  EXP-S4: adaptive adversaries
#: under swap churn -- constant ring size, rotating membership -- the
#: regime exercising the warm-start incremental engine every epoch.
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(name="EXP-S1", strategies=("sybil", "multi"), n0=8,
                 churn_rate=0.5),
        Scenario(name="EXP-S2", strategies=("coalition",), adversaries=2,
                 n0=8, churn_rate=0.5),
        Scenario(name="EXP-S3", strategies=("combined", "misreport"), n0=7,
                 churn_rate=0.5, grid=12),
        Scenario(name="EXP-S4", strategies=("adaptive",), n0=10,
                 churn_rate=1.0, swap_churn=True, w_lo=0.5, w_hi=2.0),
    )
}
