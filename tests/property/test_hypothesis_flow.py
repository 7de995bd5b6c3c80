"""Cross-solver min-cut agreement under adversarial capacity scaling.

Dinic and the Edmonds-Karp reference must agree -- at ``zero_tol=0.0`` --
on the max-flow value *and* on both canonical min cuts (the minimal and
the maximal source side of the residual lattice), even when every capacity
is scaled far away from 1.  Sub-ulp residual dust on a saturated arc would
flip residual reachability and hand back a different (non-minimal) cut.

Capacities are integers times one shared adversarial scale.  The scale
sweeps binary powers (exact in floats: pure exponent shifts, so both
solvers face identical rounding) and decimal powers (inexact: subtraction
dust becomes possible, which is precisely the regression surface).
"""

import math

from hypothesis import given, strategies as st

from repro.flow import dinic_max_flow, edmonds_karp_max_flow
from repro.flow.mincut import cut_value, max_source_side, min_source_side
from repro.flow.network import FlowNetwork

REL_TOL = 1e-9

SOLVERS = {"dinic": dinic_max_flow, "edmonds_karp": edmonds_karp_max_flow}

# Binary scales are exact; decimal scales inject representation error.
SCALES = [2.0 ** k for k in (-40, -12, 0, 13, 37)] + [1e-12, 1e-6, 1e9, 1e12]


@st.composite
def scaled_networks(draw):
    """A connected-ish DAG-free digraph with integer capacities, one scale."""
    n = draw(st.integers(min_value=3, max_value=8))
    base = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(1, 1000),
            ).filter(lambda a: a[0] != a[1]),
            min_size=2,
            max_size=2 * n,
        )
    )
    # guarantee s -> t connectivity so the interesting (nonzero) case dominates
    spine = [(i, i + 1, draw(st.integers(1, 1000))) for i in range(n - 1)]
    scale = draw(st.sampled_from(SCALES))
    net = FlowNetwork(n)
    for u, v, c in base + spine:
        net.add_edge(u, v, c * scale)
    return net, 0, n - 1


def _solve_all(net, s, t):
    out = {}
    for name, solver in SOLVERS.items():
        fresh = net.clone()
        fresh.reset()
        value = solver(fresh, s, t, 0.0)
        out[name] = (value, fresh)
    return out


@given(scaled_networks())
def test_all_solvers_agree_on_value_and_cuts_at_zero_tol(case):
    net, s, t = case
    results = _solve_all(net, s, t)
    values = {name: v for name, (v, _) in results.items()}
    ref = values["dinic"]
    tol = REL_TOL * max(1.0, abs(ref))
    for name, value in values.items():
        assert math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=tol), (
            f"{name} disagrees on value: {value!r} vs dinic {ref!r}"
        )

    # the lattice endpoints are unique for a maximum flow, so the extracted
    # *sets* -- not just their capacities -- must agree across solvers
    min_sides = {name: min_source_side(fresh, s) for name, (_, fresh) in results.items()}
    max_sides = {name: max_source_side(fresh, t) for name, (_, fresh) in results.items()}
    for name in SOLVERS:
        assert min_sides[name] == min_sides["dinic"], (
            f"{name} minimal cut {sorted(min_sides[name])} != "
            f"dinic {sorted(min_sides['dinic'])} (scale dust?)"
        )
        assert max_sides[name] == max_sides["dinic"], (
            f"{name} maximal cut {sorted(max_sides[name])} != "
            f"dinic {sorted(max_sides['dinic'])}"
        )

    # and both cuts certify the value: max-flow == min-cut
    for name, (value, fresh) in results.items():
        for side in (min_sides[name], max_sides[name]):
            assert s in side and t not in side
            cv = cut_value(fresh, side)
            assert math.isclose(cv, value, rel_tol=REL_TOL, abs_tol=tol), (
                f"{name}: cut value {cv!r} != flow value {value!r}"
            )
        assert min_sides[name] <= max_sides[name]
