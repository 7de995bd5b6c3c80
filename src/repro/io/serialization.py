"""JSON round-trips for instances and experiment results.

Weights serialize as exact strings (``"3/7"`` for Fractions, hex for
floats) so an instance archived by one run reproduces bit-identically in the
next -- essential for regression-tracking worst-case instances discovered by
the search and for the oracle's replayable failure corpus, which archives
both whole graphs and individual :class:`~repro.flow.FlowNetwork` solve
calls (original capacities only; residual state is recomputed on replay).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from ..exceptions import MalformedInputError
from ..flow.network import FlowNetwork
from ..graphs import WeightedGraph
from ..guard import (
    graph_parts_from_dict,
    scalar_from_json,
    validate_network_dict,
    validation_enabled,
)
from ..numeric import Scalar

__all__ = ["graph_to_dict", "graph_from_dict", "dump_graph", "load_graph",
           "network_to_dict", "network_from_dict",
           "dump_result", "load_result", "scalar_to_json"]


def scalar_to_json(w: Scalar) -> Any:
    """Exact JSON encoding of one scalar (hex floats, ``p/q`` Fractions).

    The inverse of :func:`repro.guard.scalar_from_json`; the serving layer
    uses it directly so responses round-trip bit-identically.
    """
    if isinstance(w, Fraction):
        return {"frac": f"{w.numerator}/{w.denominator}"}
    if isinstance(w, float):
        return {"float": w.hex()}
    return w  # int


_scalar_to_json = scalar_to_json


def _scalar_from_json(obj: Any) -> Scalar:
    """Decode one exact-serialized scalar, boundary-validated.

    Delegates to :func:`repro.guard.scalar_from_json`: non-finite,
    negative, and non-numeric encodings (including zero-denominator and
    malformed ``"p/q"`` strings) raise a typed
    :class:`~repro.exceptions.MalformedInputError` here at the boundary
    instead of constructing an invalid instance that fails deep inside the
    decomposition.
    """
    return scalar_from_json(obj)


def graph_to_dict(g: WeightedGraph) -> dict:
    """Structured representation of a graph (edges, weights, labels)."""
    return {
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "weights": [_scalar_to_json(w) for w in g.weights],
        "labels": list(g.labels),
    }


def graph_from_dict(d: dict) -> WeightedGraph:
    """Construct a graph from an untrusted ``graph_to_dict`` payload.

    One guard pass (:func:`repro.guard.graph_parts_from_dict`) checks the
    payload shape, every scalar (each weight decoded once) and the edge
    structure (self-loops and duplicate edges raise the constructor's
    :class:`~repro.exceptions.GraphError`), so the graph is built from its
    checked parts without the constructor checking them again -- unless
    validation is switched off, which skips the guard's scalar checks and
    so leaves them to the constructor.
    """
    n, edges, weights = graph_parts_from_dict(d)
    return WeightedGraph(n, edges, weights, d.get("labels"),
                         validate=not validation_enabled())


def network_to_dict(net: FlowNetwork) -> dict:
    """Structured representation of a flow network's *original* capacities.

    Only forward arcs are stored (reverse arcs are reconstructed by
    ``add_edge``), in construction order so arc ids survive the round-trip.
    Any routed flow is deliberately dropped: a corpus record must replay the
    solve from scratch, not trust the residual state that failed.
    """
    arcs = []
    for arc in range(0, net.num_arcs, 2):
        arcs.append([net.head[arc ^ 1], net.head[arc], _scalar_to_json(net.orig_cap[arc])])
    return {"n": net.n, "arcs": arcs}


def network_from_dict(d: dict) -> FlowNetwork:
    """Construct a flow network from an untrusted ``network_to_dict``
    payload, shape- and scalar-validated first (``+inf`` capacities are
    legitimate -- the unbounded bipartite arcs of Definition 5)."""
    validate_network_dict(d)
    net = FlowNetwork(int(d["n"]))
    for u, v, cap in d["arcs"]:
        net.add_edge(int(u), int(v),
                     scalar_from_json(cap, allow_positive_inf=True))
    return net


def dump_graph(g: WeightedGraph, path: str) -> None:
    with open(path, "w") as f:
        json.dump(graph_to_dict(g), f, indent=2)


def _load_json(path: str, what: str):
    """Read one JSON document with typed boundary errors (bad bytes and
    bad encodings become :class:`MalformedInputError`, not a stack trace
    from ``json``); missing files keep raising ``OSError`` -- absence is
    an environment problem, not malformed input."""
    try:
        with open(path) as f:
            return json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_graph(path: str) -> WeightedGraph:
    return graph_from_dict(_load_json(path, "graph file"))


def dump_result(result: dict, path: str) -> None:
    """Persist an experiment result dict (floats/ints/strings/lists only)."""
    with open(path, "w") as f:
        json.dump(result, f, indent=2, default=_default)


def load_result(path: str) -> dict:
    out = _load_json(path, "result file")
    if not isinstance(out, dict):
        raise MalformedInputError(
            f"result file {path} is not a JSON object: {type(out).__name__}"
        )
    return out


def _default(obj):
    if isinstance(obj, Fraction):
        return float(obj)
    if hasattr(obj, "__dict__"):
        return vars(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
