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
