"""Core weighted undirected graph used by the whole library.

The resource sharing model of the paper is an undirected graph
``G = (V, E; w)`` where vertex ``v`` owns ``w_v >= 0`` units of a divisible
resource.  This module provides a small, immutable-by-convention structure
with the exact operations the algorithms need:

* integer vertex ids ``0..n-1`` (labels are carried separately, so hot loops
  index plain lists/arrays -- per the HPC guides, no per-access dict hashing),
* adjacency as sorted tuples for deterministic iteration,
* neighborhood of a set ``Gamma(S)``, induced subgraphs with id remapping,
* weight totals with a pluggable numeric backend.

The structure intentionally forbids self-loops and parallel edges: the
proportional response model has no use for either, and Definition 2's
``Gamma(S)`` would become ambiguous with self-loops.
"""

from __future__ import annotations

import math
from operator import index as _as_index
from typing import Iterable, Mapping, Sequence

from ..exceptions import GraphError, InvalidWeightError
from ..numeric import Backend, FLOAT, Scalar

__all__ = ["WeightedGraph", "check_weight"]


def check_weight(v: int, w: Scalar) -> None:
    """Raise :class:`InvalidWeightError` unless ``w`` is a finite,
    non-negative number -- the constructor's check on vertex ``v``'s
    weight, also run on every weight swapped in after construction."""
    try:
        neg = w < 0
    except TypeError as exc:  # e.g. None, str
        raise InvalidWeightError(
            f"weight of vertex {v} is not a number: {w!r}") from exc
    if neg or (isinstance(w, float) and not math.isfinite(w)):
        raise InvalidWeightError(
            f"weight of vertex {v} must be finite and >= 0, got {w!r}")


class WeightedGraph:
    """Undirected vertex-weighted graph with integer vertex ids.

    Parameters
    ----------
    n:
        Number of vertices; ids are ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs, undirected, no self-loops, no
        duplicates (in either orientation).
    weights:
        Sequence of ``n`` non-negative scalars (int/float/Fraction).
    labels:
        Optional human-readable labels (e.g. ``"v1"``) used by reports and
        the Sybil-split bookkeeping; defaults to ``"v0".."v{n-1}"``.
    validate:
        ``True`` (default) runs the full constructor checks: integer
        in-range endpoints, no self-loops/duplicates, and finite
        non-negative, non-NaN numeric weights.  ``False`` is the trusted
        fast path for internal reconstructions whose inputs were validated
        once already (e.g. :meth:`induced_subgraph` in the decomposition's
        recursion); it skips the per-element checks but still builds the
        same structures, so downstream validators
        (:mod:`repro.graphs.validation`) can detect anything smuggled in.
    """

    __slots__ = ("n", "edges", "weights", "labels", "_adj", "_edge_set",
                 "_cols", "_struct", "_sig")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence[Scalar],
        labels: Sequence[str] | None = None,
        validate: bool = True,
    ) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        if len(weights) != n:
            raise GraphError(f"expected {n} weights, got {len(weights)}")
        if validate:
            for i, w in enumerate(weights):
                check_weight(i, w)

        edge_set: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if validate:
                try:
                    u, v = _as_index(u), _as_index(v)
                except TypeError as exc:
                    raise GraphError(
                        f"edge ({u!r},{v!r}) endpoints must be integers") from exc
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise GraphError(f"self-loop at vertex {u} is not allowed")
                key = (u, v) if u < v else (v, u)
                if key in edge_set:
                    raise GraphError(f"duplicate edge ({u},{v})")
            else:
                key = (u, v) if u < v else (v, u)
            edge_set.add(key)
            adj[u].append(v)
            adj[v].append(u)

        if labels is None:
            labels = tuple(f"v{i}" for i in range(n))
        else:
            if len(labels) != n:
                raise GraphError(f"expected {n} labels, got {len(labels)}")
            labels = tuple(labels)

        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edge_set))
        self.weights: tuple[Scalar, ...] = tuple(weights)
        self.labels: tuple[str, ...] = labels
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._edge_set = edge_set
        # Lazily-populated columnar caches (see repro.graphs.columnar):
        # the CSR view, the canonical structure bytes (shared across weight
        # replacements), and the full instance signature bytes.
        self._cols = None
        self._struct = None
        self._sig = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighborhood ``Gamma(v)`` of a single vertex."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._edge_set

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    # ------------------------------------------------------------------
    # set operations used by the bottleneck machinery
    # ------------------------------------------------------------------
    def neighborhood(self, S: Iterable[int]) -> frozenset[int]:
        """``Gamma(S) = union of Gamma(v) for v in S`` (may intersect S)."""
        out: set[int] = set()
        for v in S:
            out.update(self._adj[v])
        return frozenset(out)

    def weight_of(self, S: Iterable[int], backend: Backend = FLOAT) -> Scalar:
        """``w(S)`` with the given numeric backend."""
        w = self.weights
        return backend.total([backend.scalar(w[v]) for v in S])

    def total_weight(self, backend: Backend = FLOAT) -> Scalar:
        return self.weight_of(self.vertices(), backend)

    def is_independent(self, S: Iterable[int]) -> bool:
        """True iff no edge of G joins two vertices of ``S``."""
        S = set(S)
        return all(not (set(self._adj[v]) & S) for v in S)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, S: Sequence[int]) -> tuple["WeightedGraph", dict[int, int]]:
        """Induced subgraph on ``S`` plus the old-id -> new-id map.

        Vertices are renumbered ``0..len(S)-1`` in the sorted order of ``S``
        so the result is deterministic; labels and weights carry over.
        """
        S_sorted = sorted(set(S))
        remap = {old: new for new, old in enumerate(S_sorted)}
        sub_edges = [
            (remap[u], remap[v])
            for (u, v) in self.edges
            if u in remap and v in remap
        ]
        return (
            WeightedGraph(
                len(S_sorted),
                sub_edges,
                [self.weights[v] for v in S_sorted],
                [self.labels[v] for v in S_sorted],
                # Fast path: edges/weights come from this (already
                # validated) graph, remapped injectively.
                validate=False,
            ),
            remap,
        )

    def with_weight(self, v: int, w: Scalar) -> "WeightedGraph":
        """Copy of the graph with vertex ``v``'s weight replaced.

        This is the primitive behind the misreporting strategy of [7]
        (vertex reports ``x`` in ``[0, w_v]``): everything else is shared
        structurally, only the weight tuple is rebuilt.
        """
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range")
        ws = list(self.weights)
        ws[v] = w
        return WeightedGraph(self.n, self.edges, ws, self.labels)

    def with_weights(self, weights: Sequence[Scalar]) -> "WeightedGraph":
        """Copy with the full weight vector replaced (same topology)."""
        return WeightedGraph(self.n, self.edges, weights, self.labels)

    def _with_weights_unchecked(self, weights: Sequence[Scalar]) -> "WeightedGraph":
        """Trusted weight replacement sharing every structural member.

        The best-response sweep materializes one candidate graph per split;
        rebuilding ``_adj``/``_edge_set`` (and re-sorting the edge tuple)
        per candidate was pure waste since the topology never changes.  The
        caller vouches that ``weights`` is a valid vector of length ``n``
        (derived from already-validated scalars).  Structural caches are
        shared -- including the canonical structure bytes -- while the
        weight-dependent caches start empty.
        """
        out = WeightedGraph.__new__(WeightedGraph)
        out.n = self.n
        out.edges = self.edges
        out.weights = tuple(weights)
        out.labels = self.labels
        out._adj = self._adj
        out._edge_set = self._edge_set
        out._cols = None
        out._struct = self._struct
        out._sig = None
        return out

    def relabel(self, labels: Sequence[str]) -> "WeightedGraph":
        return WeightedGraph(self.n, self.edges, self.weights, labels,
                             validate=False)

    # ------------------------------------------------------------------
    # structure predicates
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self.n

    def is_ring(self) -> bool:
        """True iff G is a single cycle on >= 3 vertices."""
        return (
            self.n >= 3
            and all(self.degree(v) == 2 for v in self.vertices())
            and self.is_connected()
        )

    def is_path_graph(self) -> bool:
        """True iff G is a single simple path (>= 2 vertices)."""
        if self.n < 2 or not self.is_connected():
            return False
        degs = sorted(self.degree(v) for v in self.vertices())
        return degs[0] == degs[1] == 1 and all(d == 2 for d in degs[2:])

    def is_bipartite(self) -> bool:
        color = [-1] * self.n
        for s in self.vertices():
            if color[s] != -1:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        stack.append(v)
                    elif color[v] == color[u]:
                        return False
        return True

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.n}, m={self.m})"

    def __getstate__(self):
        # Pickle only the defining data; adjacency, edge-set and columnar
        # caches are derived state.  This keeps EngineSpec/worker payloads
        # small (cheap spawn) and guarantees unpickled graphs rebuild their
        # caches against the local numpy rather than shipping arrays.
        return (self.n, self.edges, self.weights, self.labels)

    def __setstate__(self, state):
        n, edges, weights, labels = state
        self.__init__(n, edges, weights, labels, validate=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.weights))

    def label_map(self) -> Mapping[str, int]:
        """Label -> id lookup (labels are not required to be unique; the
        last occurrence wins, matching dict construction order)."""
        return {lab: i for i, lab in enumerate(self.labels)}
