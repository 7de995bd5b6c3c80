"""Columnar (CSR) substrate of a :class:`WeightedGraph`.

The per-object adjacency of :class:`~repro.graphs.WeightedGraph` (tuples of
tuples, one Python object per neighbor list) is the right interface for the
combinatorial code, but the numeric layers keep paying for it: decomposition
cache keys walked the whole edge list per probe, the dynamics rebuilt its
directed-edge arrays from Python pairs on every call, and every parametric
flow network re-validated arcs one ``add_edge`` at a time.  This module is
the flat-array view those layers share:

* ``indptr``/``indices`` are the classic CSR pair over **sorted** neighbor
  lists, so the representation is canonical: two equal graphs produce
  byte-identical buffers, which is what makes :func:`graph_signature_bytes`
  a valid cache key (see :mod:`repro.engine.cache`).
* ``weights``/``labels`` are carried unchanged (the original Python
  objects), so :meth:`ColumnarGraph.to_graph` round-trips **bit-identically**
  -- same edge tuple, same weight objects, same labels.
* float weights additionally materialize as a ``float64`` array
  (:meth:`float_weights`) for the vectorized dynamics.  Non-float scalars
  (``Fraction``) deliberately do **not**: the exact backend routes to the
  scalar code paths, never through an object-dtype numpy array (object
  arrays would silently trade exact arithmetic for pointer chasing).

Weight bytes are canonical at the bit level: floats serialize as their IEEE
little-endian image (so ``-0.0`` and ``0.0``, or one-ulp-distinct values,
key differently -- matching ``instance_signature``'s hex discipline), ints
and Fractions by tagged ``repr``.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .weighted_graph import WeightedGraph

__all__ = [
    "ColumnarGraph",
    "canonical_form",
    "canonical_signature_bytes",
    "graph_structure_bytes",
    "graph_signature_bytes",
    "weight_bytes",
]


def weight_bytes(weights) -> bytes:
    """Canonical byte image of a weight vector.

    Floats by exact IEEE-754 image, everything else by type-tagged repr;
    distinct values can never collide, and a float is never conflated with
    the equal-valued int or Fraction (that only costs a duplicate cache
    entry, never a wrong hit).
    """
    parts = []
    for w in weights:
        if isinstance(w, float):
            parts.append(b"f" + struct.pack("<d", w))
        elif isinstance(w, int):
            parts.append(b"i" + repr(w).encode())
        else:
            parts.append(b"r" + repr(w).encode())
    return b"|".join(parts)


class ColumnarGraph:
    """CSR adjacency plus columnar weight storage for one graph.

    Construction is cheap (one pass over the adjacency) and cached on the
    source :class:`WeightedGraph`, so repeated ``from_graph`` calls on the
    same instance are attribute loads.
    """

    __slots__ = ("n", "indptr", "indices", "weights", "labels",
                 "_f64", "_directed")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 weights: tuple, labels: tuple) -> None:
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.labels = labels
        self._f64 = None
        self._directed = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, g: "WeightedGraph") -> "ColumnarGraph":
        cached = g._cols
        if cached is not None:
            return cached
        n = g.n
        indptr = np.zeros(n + 1, dtype=np.int64)
        for v in range(n):
            indptr[v + 1] = indptr[v] + len(g._adj[v])
        total = int(indptr[-1]) if n else 0
        if total:
            indices = np.fromiter(
                (u for v in range(n) for u in g._adj[v]),
                dtype=np.int64, count=total,
            )
        else:
            indices = np.zeros(0, dtype=np.int64)
        cols = cls(n, indptr, indices, g.weights, g.labels)
        g._cols = cols
        return cols

    def to_graph(self) -> "WeightedGraph":
        """Rebuild the :class:`WeightedGraph` from the CSR buffers.

        Edges are *re-derived from the arrays* (not replayed from a stashed
        tuple) so the round-trip actually exercises the representation; the
        ``u < v`` sweep over ascending rows reproduces the sorted edge
        tuple bit-for-bit, and weights/labels are the original objects.
        """
        from .weighted_graph import WeightedGraph

        indptr, indices = self.indptr, self.indices
        edges = [
            (u, int(indices[j]))
            for u in range(self.n)
            for j in range(int(indptr[u]), int(indptr[u + 1]))
            if u < indices[j]
        ]
        return WeightedGraph(self.n, edges, list(self.weights),
                             list(self.labels), validate=False)

    # ------------------------------------------------------------------
    def float_weights(self) -> np.ndarray | None:
        """``float64`` weight array, or ``None`` for non-float scalars.

        ``None`` (e.g. ``Fraction`` weights) tells the caller to take the
        scalar path; an object-dtype array is never produced.
        """
        if self._f64 is None:
            if all(isinstance(w, (int, float)) for w in self.weights):
                self._f64 = np.asarray([float(w) for w in self.weights],
                                       dtype=np.float64)
            else:
                self._f64 = False
        return self._f64 if self._f64 is not False else None

    def directed_arrays(self):
        """Directed edge arrays ``(src, dst, rev, index)`` for the dynamics.

        Ordering contract: pairs are emitted per sorted undirected edge as
        ``(u, v), (v, u)`` -- the order of ``WeightedGraph.edges`` -- so
        ``bincount`` accumulations follow the edge list.  The reverse
        permutation is then just ``i ^ 1``.
        """
        if self._directed is None:
            indptr, indices = self.indptr, self.indices
            pairs: list[tuple[int, int]] = []
            for u in range(self.n):
                for j in range(int(indptr[u]), int(indptr[u + 1])):
                    v = int(indices[j])
                    if u < v:
                        pairs.append((u, v))
                        pairs.append((v, u))
            m2 = len(pairs)
            src = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=m2)
            dst = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=m2)
            rev = np.arange(m2, dtype=np.int64) ^ 1
            index = {p: i for i, p in enumerate(pairs)}
            self._directed = (src, dst, rev, index)
        return self._directed

    # ------------------------------------------------------------------
    def structure_bytes(self) -> bytes:
        """Topology + labels as canonical bytes (weights excluded)."""
        return (
            struct.pack("<q", self.n)
            + self.indptr.tobytes()
            + self.indices.tobytes()
            + repr(self.labels).encode()
        )

    def signature_bytes(self) -> bytes:
        """Full instance signature: structure + canonical weight bytes."""
        return self.structure_bytes() + b"#" + weight_bytes(self.weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarGraph(n={self.n}, m={len(self.indices) // 2})"


def graph_structure_bytes(g: "WeightedGraph") -> bytes:
    """Canonical structure bytes of ``g``, cached on the graph.

    The cache survives :meth:`WeightedGraph._with_weights_unchecked` (the
    structure is shared), so a best-response sweep pays for the CSR build
    once per topology rather than once per candidate split.
    """
    cached = g._struct
    if cached is None:
        cached = ColumnarGraph.from_graph(g).structure_bytes()
        g._struct = cached
    return cached


def graph_signature_bytes(g: "WeightedGraph") -> bytes:
    """Canonical full-instance bytes of ``g`` (structure + weights), cached."""
    cached = g._sig
    if cached is None:
        cached = graph_structure_bytes(g) + b"#" + weight_bytes(g.weights)
        g._sig = cached
    return cached


# ---------------------------------------------------------------------------
# isomorphism-canonical fingerprints (the serving layer's cache key)
# ---------------------------------------------------------------------------
#
# ``graph_signature_bytes`` keys by the *labelled* instance: rotating a
# ring's vertex ids produces a different signature even though every
# rotation describes the same economy.  The serving layer wants the
# opposite discipline -- isomorphic requests must share one cache entry --
# so ``canonical_form`` quotients out the automorphisms we can afford to
# compute.  For rings (the paper's universe, and the only topology whose
# isomorphism group is cheap: 2n rotations/reflections) the canonical key
# is the lexicographically minimal cyclic arrangement of the bit-exact
# per-vertex weight bytes.  Everything else keys by its exact (label-free)
# CSR structure plus weight bytes -- general graph canonization is
# isomorphism-complete and not worth guessing at.

def _ring_cycle(g: "WeightedGraph") -> list[int]:
    """Vertices of a ring in one deterministic cyclic order.

    Local twin of :func:`repro.graphs.rings.ring_order` (not imported to
    keep this module's import graph a leaf): starts at vertex 0, steps to
    the smaller-id neighbor first.  The caller guarantees ``g.is_ring()``.
    """
    order = [0]
    prev, cur = 0, min(g._adj[0])
    while cur != 0:
        order.append(cur)
        a, b = g._adj[cur]
        prev, cur = cur, (a if b == prev else b)
    return order


def canonical_form(g: "WeightedGraph") -> tuple[bytes, tuple[int, ...]]:
    """Isomorphism-canonical cache key of ``g`` plus the witnessing map.

    Returns ``(key, order)`` where ``order[k]`` is the original vertex id
    placed at canonical position ``k``; the canonical representative is the
    graph with default labels whose position-``k`` weight is
    ``g.weights[order[k]]`` (for a ring, positions are cyclically adjacent,
    so it is the ring built directly over ``order``).

    Guarantees:

    * **Rings** -- any two rings related by rotation, reflection, or label
      renaming produce byte-identical keys *and* byte-identical canonical
      representatives; only ``order`` differs.  The key compares weights by
      their bit-exact byte image (:func:`weight_bytes` discipline), so
      ``-0.0``/``0.0``, subnormals, and one-ulp-distinct weights -- and
      equal values of different scalar types -- never collide.
    * **Everything else** -- ``order`` is the identity and the key is the
      exact CSR structure (labels excluded -- labels never influence an
      allocation) plus weight bytes, i.e. only trivially-relabelled copies
      share an entry.
    * The mapping is a fixed point: the canonical representative's own
      ``canonical_form`` has the identity ``order`` (ties between equal
      minimal arrangements are broken by enumeration order, and the
      representative is enumerated first), so re-canonicalizing a served
      instance never introduces a second permutation.

    The minimal arrangement starts at a vertex of least byte image, so
    only those rotations and reflections are compared, in the order of
    the full enumeration (every rotation of the cycle, then every rotation
    of its reflection) and under the same strict comparison; the result
    is the full enumeration's, byte for byte.  With a unique least weight
    that is two candidates, so a ring costs O(n); k tied least weights
    cost O(k n).
    """
    n = g.n
    if g.is_ring():
        per_vertex = [weight_bytes((w,)) for w in g.weights]
        least = min(per_vertex)
        cyc = _ring_cycle(g)
        best = best_order = None
        for seq in (cyc, [cyc[0]] + cyc[:0:-1]):
            images = [per_vertex[v] for v in seq]
            for r, image in enumerate(images):
                if image != least:
                    continue
                cand = images[r:] + images[:r]
                if best is None or cand < best:
                    best, best_order = cand, seq[r:] + seq[:r]
        key = b"ring:" + struct.pack("<q", n) + b"|".join(best)  # type: ignore[arg-type]
        return key, tuple(best_order)  # type: ignore[arg-type]
    cols = ColumnarGraph.from_graph(g)
    key = (b"gen:" + struct.pack("<q", n) + cols.indptr.tobytes()
           + cols.indices.tobytes() + b"#" + weight_bytes(g.weights))
    return key, tuple(range(n))


def canonical_signature_bytes(g: "WeightedGraph") -> bytes:
    """Just the key half of :func:`canonical_form`."""
    return canonical_form(g)[0]
