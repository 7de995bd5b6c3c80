"""Flow-template and flat-array view tests.

Every network the engine solves is instantiated from a template, and the
whole soundness story rests on templates producing *bit-identical*
networks to the classic build -- the same network built arc by arc with
``FlowNetwork.add_edge`` -- same arc order, same capacity objects.  The
classic builders live here as the references; these tests (and the
property suites, through :func:`networks_checked_against_references`)
compare the raw ``head`` / ``adj`` / ``cap`` columns, not just solved flow
values.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest

from repro.core import allocation, bottleneck
from repro.core.bottleneck import _instantiate_parametric
from repro.engine import EngineContext
from repro.exceptions import FlowError
from repro.flow import (
    FlowNetwork,
    dinic_max_flow,
    network_from_arrays,
    network_to_arrays,
    pair_template,
    parametric_template,
)
from repro.graphs import ring
from repro.numeric import EXACT, FLOAT


def parametric_network(g, active, lam, backend):
    """Classic build of the parametric bottleneck network on ``active``:
    ``s -> u_L`` (``lam * w_u``), ``v_R -> t`` (``w_v``), and ``u_L -> v_R``
    (inf cap) for each active edge.  Returns ``(net, verts)``."""
    verts = list(active)
    pos = {v: i for i, v in enumerate(verts)}
    nh = len(verts)
    s, t = 0, 1

    w = [backend.scalar(g.weights[v]) for v in verts]
    total_w = backend.total(w)
    if backend.is_exact:
        inf_cap = (lam + 1) * total_w + 1
    else:
        inf_cap = float("inf")

    net = FlowNetwork(2 + 2 * nh)
    active_set = set(verts)
    for i, v in enumerate(verts):
        net.add_edge(s, 2 + i, lam * w[i])
        net.add_edge(2 + nh + i, t, w[i])
        for u in g.neighbors(v):
            if u in active_set:
                net.add_edge(2 + i, 2 + nh + pos[u], inf_cap)
    return net, verts


def pair_network(g, B, C, sink_caps, backend):
    """Classic build of one pair's Definition-5 network; returns
    ``(net, arc_of)`` with ``arc_of[(u, v)]`` the arc of edge ``u -> v``."""
    nb, nc = len(B), len(C)
    s, t = 0, 1
    bpos = {v: i for i, v in enumerate(B)}
    cpos = {v: i for i, v in enumerate(C)}
    net = FlowNetwork(2 + nb + nc)
    if backend.is_exact:
        total = backend.total([backend.scalar(g.weights[v]) for v in B])
        inf_cap = total + 1
    else:
        inf_cap = math.inf
    for i, u in enumerate(B):
        net.add_edge(s, 2 + i, backend.scalar(g.weights[u]))
    for j, v in enumerate(C):
        net.add_edge(2 + nb + j, t, sink_caps[j])
    arc_of: dict[tuple[int, int], int] = {}
    for u in B:
        for v in g.neighbors(u):
            if v in cpos and v != u:
                arc = net.add_edge(2 + bpos[u], 2 + nb + cpos[v], inf_cap)
                arc_of[(u, v)] = arc
    return net, arc_of


def _assert_same_network(a: FlowNetwork, b: FlowNetwork):
    assert a.n == b.n
    assert a.head == b.head
    assert a.adj == b.adj
    # repr, not ==: 0.0 == -0.0, but the two are different capacities
    assert [repr(c) for c in a.cap] == [repr(c) for c in b.cap]
    assert [repr(c) for c in a.orig_cap] == [repr(c) for c in b.orig_cap]


@contextmanager
def networks_checked_against_references():
    """Inside the block, every parametric and pair network the engine
    builds is compared with its classic build before it is solved.

    Yields a one-element list counting the networks checked.
    """
    build_parametric = bottleneck._instantiate_parametric
    build_pair = allocation._pair_network
    checked = [0]

    def parametric(g, active, lam, backend, ctx, w=None):
        net, verts = build_parametric(g, active, lam, backend, ctx, w)
        ref, ref_verts = parametric_network(g, active, lam, backend)
        assert verts == ref_verts
        _assert_same_network(ref, net)
        checked[0] += 1
        return net, verts

    def pair(g, B, C, sink_caps, backend, ctx):
        net, arc_of = build_pair(g, B, C, sink_caps, backend, ctx)
        ref, ref_arcs = pair_network(g, B, C, sink_caps, backend)
        _assert_same_network(ref, net)
        assert arc_of == ref_arcs
        checked[0] += 1
        return net, arc_of

    with mock.patch.object(bottleneck, "_instantiate_parametric", parametric), \
            mock.patch.object(allocation, "_pair_network", pair):
        yield checked


@pytest.mark.parametrize("backend", [FLOAT, EXACT], ids=["float", "exact"])
def test_parametric_template_matches_classic_build(backend):
    g = ring([backend.scalar(w) for w in (3, 1, 4, 1, 5, 9)])
    active = [0, 1, 2, 4, 5]
    lam = backend.scalar(1) / backend.scalar(2)
    classic, verts_c = parametric_network(g, active, lam, backend)
    ctx = EngineContext()
    templ, verts_t = _instantiate_parametric(g, active, lam, backend, ctx)
    assert verts_c == verts_t
    _assert_same_network(classic, templ)
    # and therefore the solved flow is identical too
    assert dinic_max_flow(classic, 0, 1) == dinic_max_flow(templ, 0, 1)


def test_template_shares_structure_but_not_capacities():
    g = ring([2.0, 3.0, 5.0, 7.0])
    tpl = parametric_template(g, [0, 1, 2, 3])
    w = [2.0, 3.0, 5.0, 7.0]
    n1 = tpl.instantiate([0.5 * wi for wi in w], w, math.inf, 0.0)
    n2 = tpl.instantiate([0.25 * wi for wi in w], w, math.inf, 0.0)
    # head/adj shared read-only; cap fresh per instance
    assert n1.head is n2.head and n1.adj is n2.adj
    assert n1.cap is not n2.cap
    dinic_max_flow(n1, 0, 1)
    assert n2.cap == n2.orig_cap  # solving n1 never touches n2


def test_pair_template_arc_map_matches_classic():
    g = ring([1.0, 2.0, 3.0, 4.0])
    B, C = [1], [0, 2]
    sink_caps = [0.5, 1.5]
    classic, arcs_c = pair_network(g, B, C, sink_caps, FLOAT)
    ctx = EngineContext()
    templ, arcs_t = allocation._pair_network(g, B, C, sink_caps, FLOAT, ctx)
    _assert_same_network(classic, templ)
    assert arcs_c == arcs_t


def test_template_rejects_degenerate_network():
    from repro.flow import FlowTemplate

    with pytest.raises(FlowError):
        FlowTemplate(1, [], [[]], [], [])


def test_network_arrays_round_trip():
    g = ring([3.0, 1.0, 4.0, 1.0])
    net, _ = parametric_network(g, [0, 1, 2, 3], 0.5, FLOAT)
    arrays = network_to_arrays(net)
    back = network_from_arrays(arrays)
    _assert_same_network(net, back)
    # inf caps survive the float64 image
    assert any(math.isinf(c) for c in back.cap)
    # the rebuilt network is independently solvable with the same value
    assert dinic_max_flow(back, 0, 1) == dinic_max_flow(net, 0, 1)


def test_network_arrays_refuse_exact_capacities():
    g = ring([Fraction(1), Fraction(2), Fraction(3)])
    net, _ = parametric_network(g, [0, 1, 2], Fraction(1, 2), EXACT)
    with pytest.raises(FlowError):
        network_to_arrays(net)
