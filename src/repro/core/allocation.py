"""BD Allocation Mechanism (Definition 5).

Given the bottleneck decomposition, the equilibrium allocation is assembled
pair by pair from max flows:

* pair with ``alpha_i < 1``: network ``s -> u`` (cap ``w_u``, ``u in B_i``),
  ``v -> t`` (cap ``w_v / alpha_i``, ``v in C_i``), infinite arcs on the
  *actual graph edges* between ``B_i`` and ``C_i``.  The bottleneck property
  guarantees the max flow saturates both sides; ``x_uv = f_uv`` and
  ``x_vu = alpha_i * f_uv``.

  (Definition 5 writes ``E_i = B_i x C_i``, but a complete-bipartite reading
  would let non-adjacent agents exchange resource; following Wu-Zhang we use
  the edges of ``G``.)

* terminal pair ``B_k = C_k`` with ``alpha_k = 1``: bipartite double cover
  ``(B_k, B_k'; (u, v') iff (u,v) in E[B_k])`` with unit-ratio capacities;
  ``x_uv = f_{uv'}``.

* every other edge carries zero.

Degenerate corner: a pair with ``alpha_i = 0`` (possible only when every
``C_i`` vertex has zero weight, e.g. after an extreme Sybil split) uses
infinite sink capacities; B-side saturation still pins down utilities and
the C side returns nothing.

Utilities are always read off the realized allocation ``X`` (never from the
closed form (2)), so zero-weight corner cases are well defined; Proposition
6's formula is *checked* against X by ``tests`` and the EXP-CNV experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..engine import EngineContext, resolve_context
from ..exceptions import AllocationError, InfeasibleFlowError
from ..flow import FlowNetwork, assert_valid_flow
from ..graphs import WeightedGraph
from ..numeric import Backend, Scalar
from .bottleneck import BottleneckDecomposition, bottleneck_decomposition

__all__ = [
    "Allocation",
    "bd_allocation",
    "certified_endpoint_utilities",
    "endpoint_utilities",
]


@dataclass(frozen=True)
class Allocation:
    """A resource allocation ``X = {x_vu}`` on the directed edges of ``G``.

    ``x`` maps ordered pairs ``(v, u)`` (edge of G) to the amount vertex
    ``v`` hands to ``u``; absent keys mean zero.  ``utilities[v]`` is
    ``U_v(X) = sum_u x_uv``.
    """

    graph: WeightedGraph
    x: Mapping[tuple[int, int], Scalar]
    utilities: tuple[Scalar, ...]

    def sent(self, v: int) -> Scalar:
        """Total resource ``v`` gives away."""
        total = 0
        for u in self.graph.neighbors(v):
            total = total + self.x.get((v, u), 0)
        return total

    def received(self, v: int) -> Scalar:
        total = 0
        for u in self.graph.neighbors(v):
            total = total + self.x.get((u, v), 0)
        return total

    def check_feasible(self, tol: float = 0.0) -> None:
        """Raise unless X is a feasible allocation: non-negative amounts on
        real edges only, and nobody gives away more than its endowment."""
        g = self.graph
        for (v, u), amount in self.x.items():
            if not g.has_edge(v, u):
                raise AllocationError(f"allocation on non-edge ({v},{u})")
            if amount < -tol:
                raise AllocationError(f"negative allocation {amount!r} on ({v},{u})")
        for v in g.vertices():
            s = self.sent(v)
            if s > g.weights[v] + tol:
                raise AllocationError(
                    f"vertex {v} sends {s!r} > endowment {g.weights[v]!r}"
                )


def _pair_network(
    g: WeightedGraph,
    B: list[int],
    C: list[int],
    sink_caps: list,
    backend: Backend,
    ctx: EngineContext,
):
    """Build the Definition-5 network for one pair; returns (net, arc map).

    The arc structure comes from a context-cached template (one per
    ``(topology, B, C)``): source arcs carry ``w_u`` for ``u in B``, sink
    arcs ``sink_caps``, and the graph edges between ``B`` and ``C`` the
    backend's inf cap.  ``arc_of`` maps each ``(u, v)`` edge to its arc.
    """
    tpl, arc_of = ctx.pair_template(g, B, C)
    avals = [backend.scalar(g.weights[u]) for u in B]
    if backend.is_exact:
        inf_cap = backend.total(avals) + 1
        zero = inf_cap - inf_cap
    else:
        inf_cap = math.inf
        zero = 0.0
    return tpl.instantiate(avals, sink_caps, inf_cap, zero), arc_of


def _accumulate_pair(
    g: WeightedGraph,
    pair,
    x: dict[tuple[int, int], Scalar],
    backend: Backend,
    ctx: EngineContext,
) -> None:
    """Solve one pair's Definition-5 network and fold its edges into ``x``.

    Shared verbatim by the full allocation and :func:`endpoint_utilities`;
    allocation edges never cross pairs, so solving any subset of pairs
    yields exactly the corresponding subset of ``x``.
    """
    alpha = pair.alpha
    if pair.is_unit:
        # alpha = 1 terminal pair: bipartite double cover of E[B_k].
        # Any saturating flow yields the right utilities (U_v = w_v), but
        # the proportional-response *fixed point* additionally needs
        # x_uv = x_vu on a unit pair (the response of u to v must echo
        # v's gift exactly when alpha = 1).  Max flows are not unique --
        # e.g. a uniform triangle admits a directed circulation -- so we
        # symmetrize: the average of a saturating flow and its reverse is
        # again saturating (capacities are symmetric) and is symmetric.
        members = sorted(pair.B)
        caps = [backend.scalar(g.weights[v]) for v in members]
        net, arc_of = _pair_network(g, members, members, caps, backend, ctx)
        _solve_and_check(net, g, members, members, caps, backend,
                         pair.index, ctx=ctx)
        two = backend.scalar(2)
        for (u, v), arc in arc_of.items():
            f = (net.flow_on(arc) + net.flow_on(arc_of[(v, u)])) / two
            if f != 0:
                x[(u, v)] = f
        return

    B = sorted(pair.B)
    C = sorted(pair.C)
    if backend.is_zero(alpha):
        caps = [math.inf if not backend.is_exact else _big(g, backend) for _ in C]
    else:
        caps = [backend.scalar(g.weights[v]) / alpha for v in C]
    net, arc_of = _pair_network(g, B, C, caps, backend, ctx)
    _solve_and_check(
        net, g, B, C, caps, backend, pair.index,
        check_sink=not backend.is_zero(alpha), ctx=ctx,
    )
    for (u, v), arc in arc_of.items():
        f = net.flow_on(arc)
        if f != 0:
            x[(u, v)] = f
            back = alpha * f
            if back != 0:
                x[(v, u)] = back


def bd_allocation(
    g: WeightedGraph,
    decomp: BottleneckDecomposition | None = None,
    backend: Backend | None = None,
    ctx: EngineContext | None = None,
) -> Allocation:
    """Compute the BD allocation of ``g`` (Definition 5).

    ``decomp`` may be passed to reuse an existing decomposition; it must
    have been computed with the same backend.
    """
    ctx = resolve_context(ctx)
    backend = ctx.resolve_backend(backend)
    if decomp is None:
        decomp = bottleneck_decomposition(g, backend, ctx)
    x: dict[tuple[int, int], Scalar] = {}
    # Max flow runs at zero tolerance even for floats (see
    # bottleneck._maximal_minimizer: the solvers saturate arcs exactly);
    # the backend tol only enters the final saturation comparison.
    ctx.counters.allocations += 1
    with ctx.span("allocate"):
        for pair in decomp.pairs:
            _accumulate_pair(g, pair, x, backend, ctx)

        utilities = []
        for v in g.vertices():
            total = backend.scalar(0)
            for u in g.neighbors(v):
                total = total + x.get((u, v), 0)
            utilities.append(total)
    alloc = Allocation(graph=g, x=x, utilities=tuple(utilities))
    ctx.audit_allocation(g, decomp, alloc)
    return alloc


def endpoint_utilities(
    g: WeightedGraph,
    decomp: BottleneckDecomposition,
    vertices,
    backend: Backend | None = None,
    ctx: EngineContext | None = None,
) -> tuple[Scalar, ...]:
    """Utilities of just ``vertices`` under the BD allocation.

    Solves only the pairs containing the requested vertices.  This is
    bit-identical to reading the same entries off :func:`bd_allocation`:
    the pair networks are independent and allocation edges never cross
    pairs, so every ``x`` entry that feeds ``U_v`` comes from ``v``'s own
    pair, and the per-vertex accumulation below walks neighbors in the
    same order over the same scalars.

    This is the best-response fast path (the attacker only needs
    ``U_{v1} + U_{v2}``); it deliberately does *not* construct an
    :class:`Allocation` and does not fire the allocation audit hook -- a
    partial ``x`` would be flagged as infeasible -- so callers must use
    :func:`bd_allocation` whenever an auditor is attached.  Saturation of
    the solved pairs is still checked (``_solve_and_check`` raises
    :class:`InfeasibleFlowError` exactly as in the full allocation).
    """
    ctx = resolve_context(ctx)
    backend = ctx.resolve_backend(backend)
    needed = []
    seen: set[int] = set()
    for v in vertices:
        p = decomp.pair_of(v)
        if p.index not in seen:
            seen.add(p.index)
            needed.append(p)
    needed.sort(key=lambda p: p.index)

    x: dict[tuple[int, int], Scalar] = {}
    ctx.counters.allocations += 1
    with ctx.span("allocate"):
        for pair in needed:
            _accumulate_pair(g, pair, x, backend, ctx)
        utilities = []
        for v in vertices:
            total = backend.scalar(0)
            for u in g.neighbors(v):
                total = total + x.get((u, v), 0)
            utilities.append(total)
    return tuple(utilities)


def certified_endpoint_utilities(
    g: WeightedGraph,
    decomp: BottleneckDecomposition,
    hint: BottleneckDecomposition,
    vertices,
    backend: Backend | None = None,
    ctx: EngineContext | None = None,
) -> tuple[Scalar, ...]:
    """Certify a *reconstructed* ``decomp`` and return ``vertices``'
    utilities.

    ``decomp`` must come from
    :func:`repro.core.incremental.reconstruct_decomposition` with ``hint``
    a ground-truth (fully solved) decomposition of an instance differing
    from ``g`` only in the weights of ``vertices``.  The certificate for a
    reconstruction is that every pair's Definition-5 network saturates
    (plus the structural checks reconstruction already ran); this variant
    evaluates part of that certificate analytically instead of by flow:

    * a pair whose ``B`` and ``C`` avoid ``vertices`` and whose alpha is
      bit-equal to ``hint``'s has a network *bit-identical* to the hint
      pair's (the network is a function of the pair's member weights and
      alpha only).  Saturation of a true decomposition's pairs is a
      theorem, and the solver is deterministic, so re-running an identical
      network cannot change the verdict -- the check is skipped.
    * every other pair (weights or alpha moved, or an exact-backend
      alpha-0 pair whose sink caps depend on the total weight) is solved
      and saturation-checked exactly as in :func:`bd_allocation`, raising
      :class:`InfeasibleFlowError` on failure.

    Every ``x`` entry feeding a requested vertex's utility lives on an
    edge inside a pair containing that vertex -- always in the solved set
    -- so the returned utilities are bit-identical to the full
    allocation's.  Like :func:`endpoint_utilities` this fires no audit
    hook; callers must not use it with an auditor attached.
    """
    ctx = resolve_context(ctx)
    backend = ctx.resolve_backend(backend)
    touched = set(vertices)
    x: dict[tuple[int, int], Scalar] = {}
    ctx.counters.allocations += 1
    with ctx.span("allocate"):
        for pair, hp in zip(decomp.pairs, hint.pairs):
            unchanged = (
                pair.alpha == hp.alpha
                and touched.isdisjoint(pair.B)
                and touched.isdisjoint(pair.C)
                and not (backend.is_exact and backend.is_zero(pair.alpha))
            )
            if unchanged:
                continue
            _accumulate_pair(g, pair, x, backend, ctx)
        utilities = []
        for v in vertices:
            total = backend.scalar(0)
            for u in g.neighbors(v):
                total = total + x.get((u, v), 0)
            utilities.append(total)
    return tuple(utilities)


def _big(g: WeightedGraph, backend: Backend):
    return g.total_weight(backend) + 1


def _solve_and_check(
    net: FlowNetwork,
    g: WeightedGraph,
    B: list[int],
    C: list[int],
    sink_caps: list,
    backend: Backend,
    pair_index: int,
    check_sink: bool = True,
    ctx: EngineContext | None = None,
) -> None:
    """Max-flow the pair network and assert Definition 5's saturation.

    Definition 5 reads the realized per-arc flows back out of the residual
    state the solve leaves behind.
    """
    ctx = resolve_context(ctx)
    value = ctx.max_flow(net, 0, 1)
    # Verification tolerance: reverse-arc flow accumulation can overshoot the
    # forward capacity by a few ulps when flow arrives over several paths.
    if backend.is_exact:
        verify_tol = 0.0
    else:
        biggest = max((float(c) for c in net.orig_cap if not math.isinf(c)), default=1.0)
        verify_tol = 1e-12 * max(1.0, biggest)
    assert_valid_flow(net, 0, 1, tol=verify_tol)
    want = backend.total([backend.scalar(g.weights[u]) for u in B])

    def matches(a, b) -> bool:
        # relative comparison so large endowments do not defeat the float tol
        if backend.is_exact:
            return a == b
        scale = max(1.0, abs(float(b)))
        return abs(float(a) - float(b)) <= backend.tol * scale * 16

    if not matches(value, want):
        raise InfeasibleFlowError(
            f"pair {pair_index}: max flow {value!r} does not saturate the B side {want!r}; "
            "the claimed set is not a bottleneck"
        )
    if check_sink:
        want_sink = backend.total(sink_caps)
        if not matches(value, want_sink):
            raise InfeasibleFlowError(
                f"pair {pair_index}: flow {value!r} does not saturate the C side {want_sink!r}"
            )
