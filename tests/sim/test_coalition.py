"""The coalition evaluator's Sybil split lattice."""

from repro.graphs import ring
from repro.sim.coalition import evaluate_strategy


def test_split_lattice_never_exceeds_the_splitter_weight():
    # In floats 0.1 * 12 / 12 exceeds 0.1 by an ulp; unclamped, the last
    # lattice point left the second identity with a negative weight.
    g = ring([0.1, 1.0, 2.0, 0.7, 1.3])
    outcome, _ = evaluate_strategy(g, 0, 0, "coalition", 12,
                                   partner_vertex=1, partner_agent=1)
    assert outcome.partners == (1,)
    assert outcome.utility >= outcome.honest_utility


#: ROADMAP item 3's witness scenario: its coalition's joint ratio is 3.5517
#: in epoch 0 and 3.6829 in epoch 1, far above Theorem 8's one-agent bound.
WITNESS = dict(name="PERFBENCH-CHURN", seed=4010755824, epochs=2, n0=10,
               n_min=8, n_max=20, churn_rate=0.75, adversaries=6, grid=8)
#: (epoch, strategy, utility, honest utility) of every outcome, by float.hex,
#: as the searches computed them when each candidate was solved cold.
WITNESS_BITS = [
    (0, "sybil", "0x1.527000130a694p+4", "0x1.51a16bee0bb95p+4"),
    (0, "multi", "0x1.4e6aa09352096p+2", "0x1.4e6aa09352096p+2"),
    (0, "misreport", "0x1.805401d2b6afbp-2", "0x1.805401d2b6afbp-2"),
    (0, "combined", "0x1.ee77aae226fc5p+2", "0x1.e1cfc36718095p+2"),
    (0, "coalition", "0x1.0e9962d402362p+3", "0x1.30c047802c9fap+1"),
    (0, "adaptive", "0x1.d8ccee74382d2p-2", "0x1.d8ccee74382d2p-2"),
    (1, "sybil", "0x1.3f3dfe93ea5c3p+3", "0x1.37cf938d5dfe5p+3"),
    (1, "multi", "0x1.6a1bac5287446p+3", "0x1.6a1bac5287446p+3"),
    (1, "misreport", "0x1.62eff4b0035dap-3", "0x1.62eff4b0035dap-3"),
    (1, "combined", "0x1.e32daa1160784p+2", "0x1.d845358d843e0p+2"),
    (1, "coalition", "0x1.07e183cad27bap+3", "0x1.1e99bd9c5e981p+1"),
    (1, "adaptive", "0x1.6f13905688984p-2", "0x1.1fe4aebfe7c5bp-2"),
]


def test_coalition_witness_keeps_its_bits():
    from repro.engine import EngineContext
    from repro.sim import STRATEGIES, Scenario, reset_warm_store, run_scenario

    reset_warm_store()
    result = run_scenario(Scenario(strategies=STRATEGIES, **WITNESS),
                          ctx=EngineContext(), processes=0)
    got = [(r.epoch, o.strategy, o.utility.hex(), o.honest_utility.hex())
           for r in result.reports for o in r.outcomes]
    assert got == WITNESS_BITS
    coalition = result.reports[0].outcomes[4]
    assert coalition.partners == (5,) and 3.55 < coalition.ratio < 3.56
