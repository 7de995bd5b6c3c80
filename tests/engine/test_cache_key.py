"""Cache-key regression tests for the CSR-bytes key.

The key must be a pure function of (instance bits, backend) -- emphatically
NOT of the engine context that solved it -- so a decomposition solved under
one context is a cache hit under any other that shares the cache.
"""

from fractions import Fraction

from repro.core import bottleneck_decomposition
from repro.engine import EngineContext
from repro.engine.cache import decomposition_key
from repro.graphs import ring
from repro.numeric import EXACT, FLOAT


def test_key_is_engine_independent():
    # the key never looks at a context, but pin the consequence end-to-end:
    # a solve under one context is a cache hit under another
    g = ring([3.0, 1.0, 4.0, 1.0])
    key = decomposition_key(g, FLOAT)
    ctx = EngineContext()
    d = bottleneck_decomposition(g, FLOAT, ctx)
    assert ctx.cache.get(key) is d
    other = EngineContext(cache_size=8, workers=2)
    other.cache.put(key, d)
    assert bottleneck_decomposition(g, FLOAT, other) is d  # served, not solved
    assert other.counters.flow_calls == 0


def test_equal_instances_share_a_key():
    a = ring([3.0, 1.0, 4.0, 1.0])
    b = ring([3.0, 1.0, 4.0, 1.0])
    assert a is not b
    assert decomposition_key(a, FLOAT) == decomposition_key(b, FLOAT)


def test_key_separates_backends():
    g = ring([3.0, 1.0, 4.0, 1.0])
    assert decomposition_key(g, FLOAT) != decomposition_key(g, EXACT)


def test_key_is_bit_exact_on_weights():
    base = [3.0, 1.0, 4.0, 0.0]
    assert decomposition_key(ring(base), FLOAT) != decomposition_key(
        ring([3.0, 1.0, 4.0, -0.0]), FLOAT
    )
    assert decomposition_key(ring(base), FLOAT) != decomposition_key(
        ring([3.0, 1.0, 4.0, 5e-324]), FLOAT
    )


def test_key_separates_scalar_types():
    # 1 == 1.0 == Fraction(1) by value; the byte key keeps them apart
    # (duplicate-solve cost, never a wrong hit)
    kf = decomposition_key(ring([1.0, 2.0, 3.0]), FLOAT)
    ki = decomposition_key(ring([1, 2, 3]), FLOAT)
    kq = decomposition_key(ring([Fraction(1), Fraction(2), Fraction(3)]), FLOAT)
    assert len({kf, ki, kq}) == 3


def test_key_separates_labellings():
    # a cached decomposition's .graph carries labels; a relabeled requester
    # must not be served another labelling's object
    a = ring([1.0, 2.0, 3.0])
    b = ring([1.0, 2.0, 3.0], labels=["x", "y", "z"])
    assert decomposition_key(a, FLOAT) != decomposition_key(b, FLOAT)
