"""Reusable flow-network templates and flat-array views.

The Dinkelbach loop solves hundreds of parametric networks that all share
one arc structure -- only capacities change with ``lambda`` -- and a
best-response sweep rebuilds the *same* pair networks for every candidate
split.  Building those through :meth:`FlowNetwork.add_edge` re-runs range /
sign / NaN validation per arc and re-grows the adjacency lists each time.

A :class:`FlowTemplate` freezes the arc structure once (``head`` and ``adj``
are built exactly as the ``add_edge`` sequence would have built them, and
are *shared read-only* across instantiations -- the solvers only ever
mutate ``cap``) plus a capacity *plan*: per forward arc, whether its
capacity comes from the first vector (``KIND_A``), the second vector
(``KIND_B``), or is the "infinite" cap (``KIND_INF``).  Instantiating for a
given capacity assignment is then a single append loop with no validation,
which is safe because templates are only built from already-validated
:class:`~repro.graphs.WeightedGraph` structures.

Capacity semantics are chosen by the caller, which is what lets one class
serve both network shapes in :mod:`repro.core`:

* parametric bottleneck network: ``A = lambda * w``, ``B = w``;
* allocation pair network: ``A = source-side weights``, ``B = sink caps``.

The module also provides the flat-array (numpy) view of a float
:class:`FlowNetwork` -- ``head``/``cap``/``orig_cap`` columns plus a CSR
``indptr``/``arcs`` adjacency -- round-tripping exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import FlowError
from .network import FlowNetwork

__all__ = [
    "FlowTemplate",
    "KIND_A",
    "KIND_B",
    "KIND_INF",
    "parametric_template",
    "pair_template",
    "network_to_arrays",
    "network_from_arrays",
]

KIND_A = 0    # capacity = avals[idx]
KIND_B = 1    # capacity = bvals[idx]
KIND_INF = 2  # capacity = inf_cap


class FlowTemplate:
    """Frozen arc structure + capacity plan for one network topology."""

    __slots__ = ("n", "head", "adj", "kinds", "idxs")

    def __init__(self, n: int, head: list[int], adj: list[list[int]],
                 kinds: list[int], idxs: list[int]) -> None:
        if n < 2:
            raise FlowError("a flow network needs at least a source and a sink")
        self.n = n
        self.head = head
        self.adj = adj
        self.kinds = kinds
        self.idxs = idxs

    @property
    def num_arcs(self) -> int:
        return len(self.head)

    def instantiate(self, avals: Sequence, bvals: Sequence, inf_cap, zero) -> FlowNetwork:
        """Materialize a solvable :class:`FlowNetwork` for one capacity set.

        ``zero`` must be the backend's zero of the same scalar type as the
        capacities (``0.0`` float / ``Fraction(0)`` exact) -- the same value
        ``add_edge`` would have derived for each reverse arc, so solver
        arithmetic stays bit-identical to the same network built arc by arc
        with ``add_edge``.
        ``head``/``adj`` are shared with the template (never mutated by the
        solvers); ``cap``/``orig_cap`` are fresh per instance.
        """
        cap: list = []
        append = cap.append
        for kind, ix in zip(self.kinds, self.idxs):
            if kind == KIND_A:
                append(avals[ix])
            elif kind == KIND_B:
                append(bvals[ix])
            else:
                append(inf_cap)
            append(zero)
        net = FlowNetwork.__new__(FlowNetwork)
        net.n = self.n
        net.head = self.head
        net.adj = self.adj
        net.cap = cap
        net.orig_cap = list(cap)
        return net


def _builder(n: int):
    head: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    kinds: list[int] = []
    idxs: list[int] = []

    def add(u: int, v: int, kind: int, ix: int) -> None:
        arc = len(head)
        head.append(v)
        head.append(u)
        adj[u].append(arc)
        adj[v].append(arc + 1)
        kinds.append(kind)
        idxs.append(ix)

    return head, adj, kinds, idxs, add


def parametric_template(g, active: Sequence[int]) -> FlowTemplate:
    """Template of the parametric bottleneck network on ``active``.

    Per active vertex: a source arc into its left copy, a sink arc out of
    its right copy, then one bipartite arc per active neighbor.
    ``active`` must be the sorted active-vertex list the caller will use as
    ``verts``.  Instantiate with ``avals = [lam * w_i]`` (source arcs) and
    ``bvals = [w_i]`` (sink arcs); middle bipartite arcs are ``KIND_INF``.
    """
    verts = list(active)
    nh = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    active_set = set(verts)
    head, adj, kinds, idxs, add = _builder(2 + 2 * nh)
    for i, v in enumerate(verts):
        add(0, 2 + i, KIND_A, i)
        add(2 + nh + i, 1, KIND_B, i)
        for u in g.neighbors(v):
            if u in active_set:
                add(2 + i, 2 + nh + pos[u], KIND_INF, 0)
    return FlowTemplate(2 + 2 * nh, head, adj, kinds, idxs)


def pair_template(g, B: Sequence[int], C: Sequence[int]):
    """Template + arc map of the Definition-5 network of one pair.

    ``B``/``C`` must be the sorted member lists of the pair.  Instantiate
    with ``avals = [w_u for u in B]`` and ``bvals = sink_caps``.  Returns
    ``(template, arc_of)`` where ``arc_of`` maps ``(u, v)`` resource edges
    to forward arc ids; the dict is shared read-only across
    instantiations.
    """
    B = list(B)
    C = list(C)
    nb, nc = len(B), len(C)
    bpos = {u: i for i, u in enumerate(B)}
    cpos = {v: j for j, v in enumerate(C)}
    head, adj, kinds, idxs, add = _builder(2 + nb + nc)
    for i, _u in enumerate(B):
        add(0, 2 + i, KIND_A, i)
    for j, _v in enumerate(C):
        add(2 + nb + j, 1, KIND_B, j)
    arc_of: dict[tuple[int, int], int] = {}
    for u in B:
        for v in g.neighbors(u):
            if v in cpos and v != u:
                arc_of[(u, v)] = len(head)
                add(2 + bpos[u], 2 + nb + cpos[v], KIND_INF, 0)
    return FlowTemplate(2 + nb + nc, head, adj, kinds, idxs), arc_of


# ----------------------------------------------------------------------
# flat-array (numpy) view of a float network
# ----------------------------------------------------------------------
def network_to_arrays(net: FlowNetwork) -> dict[str, np.ndarray]:
    """Columnar snapshot of a float-capacity network.

    Exact (``Fraction``) networks are refused rather than silently rounded:
    the flat view exists for numeric tooling (serialization, vectorized
    inspection), and the exact backend must never lose bits on the way
    through numpy.  ``math.inf`` survives the ``float64`` round-trip.
    """
    for c in net.cap:
        if not isinstance(c, (int, float)):
            raise FlowError(
                f"flat-array view requires float capacities, got {type(c).__name__}")
    counts = np.fromiter((len(a) for a in net.adj), dtype=np.int64, count=net.n)
    indptr = np.zeros(net.n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    arcs = np.fromiter(
        (arc for a in net.adj for arc in a), dtype=np.int64, count=int(indptr[-1]))
    return {
        "n": np.int64(net.n),
        "head": np.asarray(net.head, dtype=np.int64),
        "cap": np.asarray([float(c) for c in net.cap], dtype=np.float64),
        "orig_cap": np.asarray([float(c) for c in net.orig_cap], dtype=np.float64),
        "adj_indptr": indptr,
        "adj_arcs": arcs,
    }


def network_from_arrays(arrays: dict[str, np.ndarray]) -> FlowNetwork:
    """Rebuild a :class:`FlowNetwork` from :func:`network_to_arrays` output."""
    n = int(arrays["n"])
    indptr = arrays["adj_indptr"]
    arcs = arrays["adj_arcs"]
    net = FlowNetwork.__new__(FlowNetwork)
    net.n = n
    net.head = [int(x) for x in arrays["head"]]
    net.cap = [float(x) for x in arrays["cap"]]
    net.orig_cap = [float(x) for x in arrays["orig_cap"]]
    net.adj = [
        [int(arcs[j]) for j in range(int(indptr[u]), int(indptr[u + 1]))]
        for u in range(n)
    ]
    return net
