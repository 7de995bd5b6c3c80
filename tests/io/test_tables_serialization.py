"""Tests for table rendering and JSON serialization."""

from fractions import Fraction

import pytest

from repro.exceptions import ReproError
from repro.graphs import ring
from repro.io import (
    dump_graph,
    dump_result,
    format_float,
    format_table,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_result,
)


def test_format_float_regimes():
    assert format_float(None) == "-"
    assert format_float(3) == "3"
    assert format_float(0.0) == "0"
    assert format_float(1.5) == "1.5"
    assert format_float(1e-9) == "1.0000e-09"
    assert format_float(1e12) == "1.0000e+12"
    assert format_float(True) == "True"
    assert format_float("text") == "text"


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert set(lines[2]) == {"-"}
    assert len(lines) == 5


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])


def test_graph_roundtrip_fraction_weights():
    g = ring([Fraction(1, 3), Fraction(2, 7), 5])
    d = graph_to_dict(g)
    g2 = graph_from_dict(d)
    assert g2 == g
    assert g2.weights[0] == Fraction(1, 3)


def test_graph_roundtrip_float_weights_bit_exact():
    g = ring([0.1, 0.2, 0.30000000000000004])
    g2 = graph_from_dict(graph_to_dict(g))
    assert g2.weights == g.weights  # hex round-trip is bit exact


def test_graph_file_roundtrip(tmp_path):
    g = ring([1, 2, 3, 4])
    path = str(tmp_path / "g.json")
    dump_graph(g, path)
    assert load_graph(path) == g


def test_graph_from_dict_missing_field():
    with pytest.raises(ReproError):
        graph_from_dict({"n": 2})


def test_bad_scalar_encoding():
    with pytest.raises(ReproError):
        graph_from_dict({"n": 1, "edges": [], "weights": [{"mystery": 1}]})


def test_network_roundtrip_preserves_arcs_and_drops_flow():
    import json
    import math

    from repro.flow import dinic_max_flow
    from repro.io import network_from_dict, network_to_dict
    from repro.flow.network import FlowNetwork

    net = FlowNetwork(4)
    net.add_edge(0, 1, 0.30000000000000004)
    net.add_edge(0, 2, math.inf)
    net.add_edge(1, 3, Fraction(2, 7))
    net.add_edge(2, 3, 5)
    net.add_edge(0, 1, 1.5)  # parallel arc: construction order must survive
    dinic_max_flow(net, 0, 3, 0.0)  # route some flow

    d = network_to_dict(net)
    json.dumps(d)  # JSON-safe even with inf (hex-encoded) and Fractions
    again = network_from_dict(d)

    assert again.n == net.n and again.num_arcs == net.num_arcs
    for arc in range(0, net.num_arcs, 2):
        assert again.head[arc] == net.head[arc]
        assert again.orig_cap[arc] == net.orig_cap[arc]
        # routed flow was deliberately dropped: pristine residuals
        assert again.cap[arc] == again.orig_cap[arc]
        assert again.flow_on(arc) == 0 or again.flow_on(arc) == 0.0


def test_network_from_dict_missing_field():
    from repro.io import network_from_dict

    with pytest.raises(ReproError):
        network_from_dict({"n": 3})


def test_result_roundtrip(tmp_path):
    path = str(tmp_path / "r.json")
    dump_result({"zeta": 1.99, "fraction": Fraction(1, 3)}, path)
    loaded = load_result(path)
    assert loaded["zeta"] == 1.99
    assert abs(loaded["fraction"] - 1 / 3) < 1e-12
