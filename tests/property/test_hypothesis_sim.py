"""Property-based tests for the population simulator.

The paper's Theorem 8 bound (``zeta <= 2``) is proved for a single
Sybil-splitting agent on a static ring; the simulator probes it under
churning populations and mixed adversary strategies.  These properties
assert the empirical bound holds across random scenarios on both the
float backend (up to a ``1e-9`` rounding slack) and the exact Fraction backend
(up to grid-search slack only -- exact arithmetic leaves nothing to
rounding), and that the whole pipeline stays a pure function of the
scenario seed.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import EngineContext
from repro.numeric import EXACT
from repro.sim import Scenario, reset_warm_store, run_scenario

# Small worlds keep each example affordable; the mix draws from every
# solo strategy (coalition needs >= 2 adversaries and gets its own test).
_SOLO = ("sybil", "multi", "misreport", "combined", "adaptive")

scenarios = st.builds(
    Scenario,
    name=st.just("prop"),
    seed=st.integers(0, 2**16),
    epochs=st.integers(1, 2),
    n0=st.integers(4, 6),
    n_min=st.just(3),
    n_max=st.just(8),
    churn_rate=st.sampled_from([0.0, 0.5, 1.0]),
    swap_churn=st.booleans(),
    adversaries=st.integers(1, 2),
    strategies=st.lists(st.sampled_from(_SOLO), min_size=1, max_size=2,
                        unique=True).map(tuple),
    weight_dist=st.sampled_from(["loguniform", "uniform"]),
    w_lo=st.just(0.25),
    w_hi=st.sampled_from([2.0, 8.0]),
    grid=st.just(6),
)


def _run(scenario, ctx=None):
    reset_warm_store()
    return run_scenario(scenario, ctx=ctx)


@settings(max_examples=20, deadline=None)
@given(scenarios)
def test_zeta_bound_holds_on_simulated_epochs_float(scen):
    slack = 1e-9
    result = _run(scen, ctx=EngineContext())
    assert result.violations == ()
    assert result.max_ratio <= 2.0 + scen.zeta_slack + slack
    for rep in result.reports:
        for out in rep.outcomes:
            assert out.utility >= -slack
            assert out.honest_utility >= -slack


@settings(max_examples=8, deadline=None)
@given(scenarios)
def test_zeta_bound_holds_on_simulated_epochs_exact(scen):
    # Fraction arithmetic: the only slack left is the best-response grid,
    # which can only *under*-explore -- the bound itself is exact.
    result = _run(scen, ctx=EngineContext(backend=EXACT))
    assert result.violations == ()
    assert result.max_ratio <= 2.0 + scen.zeta_slack


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([0.0, 1.0]))
def test_coalitions_never_beat_double_their_joint_honest_take(seed, churn):
    scen = Scenario(name="prop-coalition", seed=seed, epochs=2, n0=6,
                    n_min=4, n_max=8, churn_rate=churn, adversaries=2,
                    strategies=("coalition",), w_lo=0.25, w_hi=4.0, grid=6)
    result = _run(scen)
    assert result.violations == ()
    assert result.max_ratio <= 2.0 + scen.zeta_slack


@settings(max_examples=10, deadline=None)
@given(scenarios)
def test_simulation_is_a_pure_function_of_the_scenario(scen):
    assert _run(scen).to_dict() == _run(scen).to_dict()
