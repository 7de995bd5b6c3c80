"""Boundary validation: every malformed encoding is refused *typed*.

These tests drive :mod:`repro.guard.validate` both directly and through
the public :mod:`repro.io` boundary it protects, asserting that adversarial
scalars and mangled JSON shapes raise :class:`MalformedInputError` (or the
constructor's :class:`GraphError` taxonomy for structural damage the shape
pass delegates) -- never an untyped ``ValueError``/``KeyError``/NaN escape.
"""

import json
import math
from fractions import Fraction

import pytest

from repro.exceptions import (
    GraphError,
    MalformedInputError,
    ReproError,
)
from repro.guard import (
    MAX_VERTICES,
    check_scalar,
    scalar_from_json,
    set_validation,
    validate_graph_dict,
    validate_network_dict,
    validation_enabled,
)
from repro.io.serialization import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_result,
    network_from_dict,
    network_to_dict,
)


def ring_payload(weights):
    n = len(weights)
    return {
        "n": n,
        "edges": [[i, (i + 1) % n] for i in range(n)],
        "weights": list(weights),
        "labels": [str(i) for i in range(n)],
    }


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

BAD_SCALARS = [
    {"float": float("nan").hex()},
    {"float": "inf"},
    {"float": "-inf"},
    {"float": (-1.0).hex()},
    {"float": "0x1.gp0"},
    {"float": 42},
    {"float": None},
    {"frac": "1/0"},
    {"frac": "-1/2"},
    {"frac": "banana"},
    {"frac": "1/0x2"},
    {"frac": 7},
    {"mystery": 1},
    "seven",
    None,
    True,
    False,
    [1],
    {"frac": "1/2", "float": "0x1p0"},
    float("nan"),
    float("inf"),
    -1,
    -0.5,
]


@pytest.mark.parametrize("bad", BAD_SCALARS, ids=[repr(b)[:40] for b in BAD_SCALARS])
def test_scalar_from_json_rejects_typed(bad):
    with pytest.raises(MalformedInputError):
        scalar_from_json(bad, what="test scalar")


def test_scalar_from_json_accepts_valid_encodings():
    assert scalar_from_json({"frac": "3/7"}) == Fraction(3, 7)
    assert scalar_from_json({"float": (1.5).hex()}) == 1.5
    assert scalar_from_json(3) == 3
    assert scalar_from_json(0.25) == 0.25
    assert scalar_from_json(0) == 0


def test_check_scalar_negative_gate():
    with pytest.raises(MalformedInputError):
        check_scalar(-1.0, what="w")
    check_scalar(-1.0, what="w", allow_negative=True)
    with pytest.raises(MalformedInputError):
        check_scalar(float("nan"), what="w", allow_negative=True)


def test_positive_inf_allowed_only_when_asked():
    with pytest.raises(MalformedInputError):
        check_scalar(math.inf, what="w")
    check_scalar(math.inf, what="cap", allow_positive_inf=True)
    with pytest.raises(MalformedInputError):
        check_scalar(-math.inf, what="cap", allow_positive_inf=True)
    assert scalar_from_json(
        {"float": "inf"}, what="cap", allow_positive_inf=True
    ) == math.inf


# ---------------------------------------------------------------------------
# graph payload shapes
# ---------------------------------------------------------------------------

def test_valid_graph_payload_passes():
    validate_graph_dict(ring_payload([1, 2, 3]))


BAD_GRAPH_PAYLOADS = [
    "not a dict",
    None,
    [],
    {},
    {"n": 3, "edges": [[0, 1]]},                              # missing weights
    {"n": "3", "edges": [], "weights": []},                   # string n
    {"n": True, "edges": [], "weights": []},                  # bool n
    {"n": 3.0, "edges": [], "weights": [1, 1, 1]},            # float n
    {"n": -1, "edges": [], "weights": []},                    # negative n
    {"n": 10**18, "edges": [], "weights": []},                # absurd n
    {"n": 2, "edges": None, "weights": [1, 1]},               # edges not a list
    {"n": 2, "edges": [[0]], "weights": [1, 1]},              # 1-tuple edge
    {"n": 2, "edges": [[0, 1, 2]], "weights": [1, 1]},        # 3-tuple edge
    {"n": 2, "edges": [0, 1], "weights": [1, 1]},             # flat edge list
    {"n": 2, "edges": [[0, 2]], "weights": [1, 1]},           # endpoint == n
    {"n": 2, "edges": [[0, -1]], "weights": [1, 1]},          # negative endpoint
    {"n": 2, "edges": [[0, 1.5]], "weights": [1, 1]},         # float endpoint
    {"n": 2, "edges": [[0, "1"]], "weights": [1, 1]},         # string endpoint
    {"n": 2, "edges": [[0, True]], "weights": [1, 1]},        # bool endpoint
    {"n": 3, "edges": [], "weights": [1, 1]},                 # weights short
    {"n": 2, "edges": [], "weights": [1, 1, 1]},              # weights long
    {"n": 2, "edges": [], "weights": "heavy"},                # weights not list
    {"n": 2, "edges": [], "weights": [1, {"frac": "1/0"}]},   # bad scalar inside
    {"n": 2, "edges": [], "weights": [1, 1], "labels": [1, 2]},  # int labels
    {"n": 2, "edges": [], "weights": [1, 1], "labels": ["a"]},   # labels short
    {"n": 2, "edges": [], "weights": [1, 1], "labels": "ab"},    # labels not list
]


@pytest.mark.parametrize(
    "bad", BAD_GRAPH_PAYLOADS, ids=[repr(b)[:50] for b in BAD_GRAPH_PAYLOADS]
)
def test_malformed_graph_payloads_rejected_typed(bad):
    with pytest.raises(MalformedInputError):
        validate_graph_dict(bad)
    with pytest.raises(ReproError):
        graph_from_dict(bad)


def test_structural_damage_still_caught_by_constructor():
    # Shape-valid but structurally wrong: the constructor's GraphError.
    dup = ring_payload([1, 1, 1])
    dup["edges"].append([0, 1])
    with pytest.raises(GraphError):
        graph_from_dict(dup)
    loop = ring_payload([1, 1, 1])
    loop["edges"][0] = [2, 2]
    with pytest.raises(GraphError):
        graph_from_dict(loop)


def test_graph_payload_is_checked_once_by_the_guard():
    """The guard pass makes the constructor's structural checks too, so
    graph_from_dict builds without re-checking: structural damage still
    raises GraphError (from the guard alone, before any construction),
    bad weights raise typed errors, and a clean payload builds exactly
    the graph the checking constructor builds."""
    from repro.graphs import WeightedGraph

    dup = ring_payload([1, 1, 1])
    dup["edges"].append([1, 0])  # the reverse orientation is a duplicate
    loop = ring_payload([1, 1, 1])
    loop["edges"][0] = [2, 2]
    for bad in (dup, loop):
        with pytest.raises(GraphError):
            validate_graph_dict(bad)
        with pytest.raises(GraphError):
            graph_from_dict(bad)
    for weight in (-1, -0.5, {"frac": "-1/2"}, {"float": (-0.5).hex()},
                   float("nan"), {"float": float("nan").hex()}):
        with pytest.raises(MalformedInputError):
            graph_from_dict(ring_payload([1, weight, 1]))
    g = graph_from_dict(ring_payload([3, 0.5, Fraction(1, 3), 2]))
    want = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                         [3, 0.5, Fraction(1, 3), 2])
    assert g.edges == want.edges and g.weights == want.weights
    assert [g.neighbors(v) for v in g.vertices()] == [
        want.neighbors(v) for v in want.vertices()]
    # With validation switched off the guard skips its scalar checks, so
    # the constructor keeps its own.
    prev = set_validation(False)
    try:
        with pytest.raises(GraphError):
            graph_from_dict(ring_payload([1, float("nan"), 1]))
    finally:
        set_validation(prev)


def test_inf_weight_witness_rejected_at_boundary():
    # The corpus witness: an inf weight used to construct and produce NaN
    # alphas deep in the decomposition; now it dies typed at the boundary.
    bad = ring_payload([1, 1, {"float": "inf"}])
    with pytest.raises(MalformedInputError):
        graph_from_dict(bad)


# ---------------------------------------------------------------------------
# network payload shapes
# ---------------------------------------------------------------------------

def test_network_round_trip_with_inf_caps():
    from repro.flow import FlowNetwork

    net = FlowNetwork(3)
    net.add_edge(0, 1, math.inf)
    net.add_edge(1, 2, 2.5)
    d = network_to_dict(net)
    validate_network_dict(d)
    again = network_from_dict(d)
    assert network_to_dict(again) == d


BAD_NETWORK_PAYLOADS = [
    {},
    {"n": 1, "arcs": []},                                   # n < 2
    {"n": 3, "arcs": [[0, 1]]},                             # 2-tuple arc
    {"n": 3, "arcs": [[0, 1, 1, 1]]},                       # 4-tuple arc
    {"n": 3, "arcs": [[0, 3, 1]]},                          # head out of range
    {"n": 3, "arcs": [[0, 1, {"float": "-inf"}]]},          # -inf cap
    {"n": 3, "arcs": [[0, 1, {"float": float("nan").hex()}]]},  # NaN cap
    {"n": 3, "arcs": [[0, 1, -2]]},                         # negative cap
    {"n": 3, "arcs": "arcs"},                               # arcs not a list
]


@pytest.mark.parametrize(
    "bad", BAD_NETWORK_PAYLOADS, ids=[repr(b)[:50] for b in BAD_NETWORK_PAYLOADS]
)
def test_malformed_network_payloads_rejected_typed(bad):
    with pytest.raises(MalformedInputError):
        validate_network_dict(bad)


def test_network_constructor_rejects_nan_capacity():
    # NaN at construction means upstream arithmetic overflowed: the typed
    # instability error is retryable, so the supervisor's exact-backend
    # escalation ladder applies.
    from repro.exceptions import NumericalInstabilityError, is_retryable
    from repro.flow import FlowNetwork

    net = FlowNetwork(2)
    with pytest.raises(NumericalInstabilityError) as ei:
        net.add_edge(0, 1, float("nan"))
    assert is_retryable(ei.value)


# ---------------------------------------------------------------------------
# file boundaries
# ---------------------------------------------------------------------------

def test_load_graph_rejects_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"n": 3, "edges": [[0,')
    with pytest.raises(MalformedInputError):
        load_graph(str(p))


def test_load_graph_rejects_binary_garbage(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(MalformedInputError):
        load_graph(str(p))


def test_load_result_rejects_non_object(tmp_path):
    p = tmp_path / "result.json"
    p.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(MalformedInputError):
        load_result(str(p))


def test_missing_file_stays_oserror(tmp_path):
    # Absence is an environment problem, not malformed input.
    with pytest.raises(OSError):
        load_graph(str(tmp_path / "nope.json"))


# ---------------------------------------------------------------------------
# the opt-out switch
# ---------------------------------------------------------------------------

def test_validation_switch_round_trip():
    assert validation_enabled()
    prev = set_validation(False)
    try:
        assert prev is True
        assert not validation_enabled()
        # Deep per-scalar re-checks are skipped on the trusted fast path...
        check_scalar(float("nan"), what="w")
        validate_graph_dict(ring_payload([1, 1, {"float": float("nan").hex()}]))
        # ...but shape checks always run: a non-graph is still refused.
        with pytest.raises(MalformedInputError):
            validate_graph_dict({"definitely": "not a graph"})
    finally:
        set_validation(True)
    assert validation_enabled()
    with pytest.raises(MalformedInputError):
        check_scalar(float("nan"), what="w")


def test_max_vertices_is_a_real_bound():
    payload = {"n": MAX_VERTICES + 1, "edges": [], "weights": []}
    with pytest.raises(MalformedInputError):
        validate_graph_dict(payload)


def test_round_trip_still_bit_exact():
    from repro.graphs import WeightedGraph

    g = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)],
                      [0.1, Fraction(1, 3), 7])
    again = graph_from_dict(graph_to_dict(g))
    assert again.weights == g.weights
    assert all(type(a) is type(b) for a, b in zip(again.weights, g.weights))
