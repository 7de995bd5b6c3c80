"""The least-image canonical form against the full quadratic enumeration.

:func:`repro.graphs.canonical_form` compares only the rotations and
reflections that start at a vertex of least byte image.  The reference
below is the enumeration it replaced: every rotation of the cycle, then
every rotation of its reflection, under the same strict comparison.  The
serving cache, the durability journal and the on-disk fixtures all key on
these bytes, so the two must agree on ``(key, order)`` byte for byte --
on random rings and on the tie patterns where a shortcut would slip.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from repro.graphs import WeightedGraph, canonical_form, ring, weight_bytes
from repro.graphs.columnar import _ring_cycle


def reference_canonical_form(g: WeightedGraph) -> tuple[bytes, tuple[int, ...]]:
    """The quadratic enumeration: all 2n arrangements, first minimum wins."""
    n = g.n
    per_vertex = [weight_bytes((w,)) for w in g.weights]
    cyc = _ring_cycle(g)
    reflected = [cyc[0]] + cyc[:0:-1]
    best = None
    best_order: tuple[int, ...] = ()
    for seq in (cyc, reflected):
        for r in range(n):
            order = tuple(seq[r:] + seq[:r])
            cand = tuple(per_vertex[v] for v in order)
            if best is None or cand < best:
                best, best_order = cand, order
    return b"ring:" + struct.pack("<q", n) + b"|".join(best), best_order


def _relabelled_ring(weights: list, rng) -> WeightedGraph:
    """A ring over ``weights`` whose vertex ids do not follow the cycle."""
    n = len(weights)
    perm = [int(v) for v in rng.permutation(n)]
    edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    ws = [None] * n
    for i, v in enumerate(perm):
        ws[v] = weights[i]
    return WeightedGraph(n, edges, ws)


def _assert_matches(weights: list, rng) -> None:
    for g in (ring(weights), _relabelled_ring(weights, rng)):
        assert canonical_form(g) == reference_canonical_form(g), weights


def test_random_rings_match_the_reference():
    rng = np.random.default_rng(19)
    for _ in range(400):
        n = int(rng.integers(3, 41))
        _assert_matches(list(rng.uniform(0.1, 10.0, n)), rng)


def test_small_weight_alphabets_match_the_reference():
    # Few distinct values make many least-image starts and long tied
    # prefixes, the cases where a comparison shortcut would go wrong.
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(3, 41))
        alphabet = [1.0, 2.0, 3.0][: int(rng.integers(1, 4))]
        _assert_matches([alphabet[int(k)] for k in
                         rng.integers(len(alphabet), size=n)], rng)


@pytest.mark.parametrize("weights", [
    [1.0] * 3,
    [1.0] * 40,
    [1.0, 2.0] * 6,
    [2.0, 1.0] * 7,
    [1.0, 1.0, 2.0] * 5,
    [1.0, 2.0, 1.0, 3.0] * 4,
    [1.0, 2.0, 3.0, 2.0, 1.0],            # palindrome
    [3.0, 1.0, 2.0, 2.0, 1.0, 3.0],       # palindrome, two least images
    [1.0, 2.0, 3.0, 4.0, 3.0, 2.0],       # reflection-symmetric
    [0.0, -0.0, 0.0, -0.0],
    [-0.0, 0.0, 1.0, 0.0, -0.0],
    [0.0, 5e-324, 0.0, 5e-324, 1.0],
    [1.0, math.nextafter(1.0, 2.0), 1.0, math.nextafter(1.0, 0.0)],
    [2, 2.0, Fraction(2), 2, 2.0, Fraction(2)],
    [1, Fraction(1, 3), 0.5, 1, Fraction(1, 3), 0.5],
    [10, 9, 10, 9, 100, 9],               # int images of different lengths
    [Fraction(1, 7), Fraction(10, 7), Fraction(1, 7), Fraction(10, 70)],
])
def test_adversarial_ties_match_the_reference(weights):
    _assert_matches(weights, np.random.default_rng(len(weights)))


def test_canonical_representative_is_a_fixed_point():
    rng = np.random.default_rng(3)
    cases = [list(rng.uniform(0.1, 10.0, int(rng.integers(3, 41))))
             for _ in range(100)]
    cases += [[1.0, 2.0] * 5, [1.0] * 9, [0.0, -0.0, 1.0, -0.0, 0.0],
              [2, 2.0, Fraction(2), 1]]
    for weights in cases:
        g = _relabelled_ring(weights, rng)
        key, order = canonical_form(g)
        canonical = ring([g.weights[v] for v in order])
        assert canonical_form(canonical) == (key, tuple(range(g.n)))
