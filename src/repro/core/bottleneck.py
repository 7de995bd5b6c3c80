"""Bottleneck decomposition (Definition 2) via exact parametric min-cut.

The maximal bottleneck ``argmin_S alpha(S)`` is computed by Dinkelbach
iteration on the parametric function ``g_lambda(S) = w(Gamma(S)) - lambda *
w(S)``:

1. start at ``lambda = alpha(V) <= 1``;
2. find the *maximal* minimizer ``S`` of ``g_lambda`` (a min cut in a
   bipartite auxiliary network, maximal source side);
3. if ``alpha(S) == lambda`` stop -- ``lambda`` is the minimum ratio and
   ``S`` the maximal bottleneck; otherwise set ``lambda = alpha(S)`` and
   repeat.

Why this yields Definition 2's object:

* ``S -> w(Gamma(S))`` is a coverage function, hence submodular, so
  ``g_lambda`` is submodular and its minimizers form a lattice; at
  ``lambda = alpha*`` the minimizers of value 0 are exactly the bottlenecks
  (plus harmless zero-weight freeloaders), so the *maximal* minimizer is the
  unique maximal bottleneck (the union of all bottlenecks).
* each Dinkelbach step strictly decreases ``lambda`` through values of the
  form ``w(A)/w(B)`` with ``A, B`` subset sums -- a finite set -- so exact
  (`Fraction`) arithmetic terminates with the exact ratio.

The auxiliary network for ``min_S g_lambda(S)`` has nodes ``{s, t}``, a left
copy ``u_L`` and right copy ``v_R`` of the active vertices, arcs
``s -> u_L`` with capacity ``lambda * w_u``, ``v_R -> t`` with capacity
``w_v``, and ``u_L -> v_R`` with infinite capacity for ``v in Gamma(u)``.
Choosing the left source-side set ``S`` forces ``Gamma(S)`` right vertices
into the source side, so the cut value is ``lambda * w(V \\ S) +
w(Gamma(S)) = lambda * w(V) + g_lambda(S)``; min cut therefore locates the
minimizer, and the maximal min cut (complement of the residual coreachable
set of ``t``) the maximal minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..engine import EngineContext, decomposition_key, instance_signature, resolve_context
from ..exceptions import ConvergenceError, DecompositionError
from ..flow import FlowNetwork, max_source_side
from ..graphs import WeightedGraph, check_no_isolated
from ..numeric import Backend, FLOAT, Scalar

__all__ = [
    "BottleneckPair",
    "BottleneckDecomposition",
    "maximal_bottleneck",
    "bottleneck_decomposition",
]

_MAX_DINKELBACH_ITERS = 10_000


@dataclass(frozen=True)
class BottleneckPair:
    """One pair ``(B_i, C_i)`` of the decomposition, in original vertex ids.

    ``alpha = w(C_i) / w(B_i)``; ``index`` is the 1-based ``i`` of
    Definition 2 (pairs are produced in increasing alpha order,
    Proposition 3-(1)).
    """

    index: int
    B: frozenset[int]
    C: frozenset[int]
    alpha: Scalar

    @property
    def is_unit(self) -> bool:
        """True for the terminal ``alpha = 1`` pair where ``B_k = C_k``."""
        return self.B == self.C

    def members(self) -> frozenset[int]:
        return self.B | self.C


class BottleneckDecomposition:
    """The full decomposition ``{(B_1, C_1), ..., (B_k, C_k)}`` of a graph.

    Exposes per-vertex lookups used throughout the paper: the pair
    containing ``v``, its alpha-ratio ``alpha_v``, and its class (Definition
    4; vertices of a terminal ``B_k = C_k`` pair are *both* B and C class).
    """

    def __init__(
        self,
        graph: WeightedGraph,
        pairs: Sequence[BottleneckPair],
        backend: Backend,
    ) -> None:
        self.graph = graph
        self.pairs: tuple[BottleneckPair, ...] = tuple(pairs)
        self.backend = backend
        self._pair_of: dict[int, BottleneckPair] = {}
        for p in self.pairs:
            for v in p.members():
                if v in self._pair_of:
                    raise DecompositionError(
                        f"vertex {v} appears in two pairs ({self._pair_of[v].index}, {p.index})"
                    )
                self._pair_of[v] = p
        missing = set(graph.vertices()) - set(self._pair_of)
        if missing:
            raise DecompositionError(f"vertices {sorted(missing)} not covered by any pair")

    # -- lookups ---------------------------------------------------------
    @property
    def k(self) -> int:
        return len(self.pairs)

    def pair_of(self, v: int) -> BottleneckPair:
        return self._pair_of[v]

    def alpha_of(self, v: int) -> Scalar:
        """``alpha_v`` in the paper's notation."""
        return self._pair_of[v].alpha

    def in_B(self, v: int) -> bool:
        """B class membership (Definition 4)."""
        return v in self._pair_of[v].B

    def in_C(self, v: int) -> bool:
        """C class membership (Definition 4)."""
        return v in self._pair_of[v].C

    def alphas(self) -> list[Scalar]:
        return [p.alpha for p in self.pairs]

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"(B{p.index}={sorted(p.B)}, C{p.index}={sorted(p.C)}, a={p.alpha})"
            for p in self.pairs
        )
        return f"BottleneckDecomposition[{parts}]"


# ---------------------------------------------------------------------------
# parametric machinery
# ---------------------------------------------------------------------------

def _instantiate_parametric(
    g: WeightedGraph,
    active: Sequence[int],
    lam: Scalar,
    backend: Backend,
    ctx: EngineContext,
    w: list | None = None,
) -> tuple[FlowNetwork, list[int]]:
    """Auxiliary bipartite network for ``min_S g_lambda(S)`` on ``active``.

    Returns the network plus the active vertex list in left-copy order
    (left copy of ``verts[i]`` is node ``2 + i``, right copy ``2 + nh +
    i``).  The arc structure comes from a template cached on the context;
    capacities are ``lam * w[i]`` (source arcs), ``w[i]`` (sink arcs) and
    the backend's inf cap (bipartite arcs).  The exact backend's inf cap
    depends on ``lam``, which is why capacities are recomputed per
    instantiation while only the arc structure is frozen.

    ``w`` optionally passes the already-scalared active weights (in
    ``active`` order); the Dinkelbach loop hoists it out of its
    per-lambda iterations.
    """
    verts = list(active)
    tpl = ctx.parametric_template(g, verts)
    if w is None:
        w = [backend.scalar(g.weights[v]) for v in verts]
    if backend.is_exact:
        inf_cap = (lam + 1) * backend.total(w) + 1
        zero = inf_cap - inf_cap
    else:
        inf_cap = float("inf")
        zero = 0.0
    return tpl.instantiate([lam * wi for wi in w], w, inf_cap, zero), verts


def _maximal_minimizer(
    g: WeightedGraph,
    active: Sequence[int],
    lam: Scalar,
    backend: Backend,
    ctx: EngineContext,
    w: list,
) -> set[int]:
    """Maximal minimizer of ``g_lambda`` inside the induced graph on ``active``.

    Returns original vertex ids.
    """
    net, verts = _instantiate_parametric(g, active, lam, backend, ctx, w)
    nh = len(verts)
    s, t = 0, 1

    # Flow-level tolerance is exactly zero even for floats: Dinic's
    # pushes zero the bottleneck arc *exactly* (c - c == 0.0 in IEEE), each
    # augmentation saturates an arc, and phase count is capacity-independent,
    # so termination does not need a tolerance -- while any positive
    # tolerance would swallow genuinely tiny capacities (instances here span
    # 12+ orders of magnitude) and corrupt the extracted cut.
    ctx.max_flow(net, s, t)
    side = max_source_side(net, t)
    return {verts[i] for i in range(nh) if 2 + i in side}


def maximal_bottleneck(
    g: WeightedGraph,
    active: Sequence[int] | None = None,
    backend: Backend = FLOAT,
    ctx: EngineContext | None = None,
    lam0: Scalar | None = None,
) -> tuple[frozenset[int], Scalar]:
    """Maximal bottleneck of the induced graph on ``active`` (Definition 2).

    Returns ``(B, alpha_min)`` in original vertex ids.  Requires the induced
    graph to have positive total weight and some edge structure (the callers
    guarantee no isolated positive-weight vertices; see module notes in
    ``bottleneck_decomposition``).

    ``lam0`` optionally warm-starts the Dinkelbach descent.  Soundness: the
    caller must pass an *achieved ratio* ``alpha(H)`` of some subset ``H``
    of ``active`` with ``w(H) > 0`` -- any such value is ``>= alpha*`` by
    definition of the minimum, and the descent from any ``lambda >=
    alpha*`` converges to the same maximal minimizer with the same
    recomputed alpha.  A seed below the cold ``alpha(V_i)`` skips the
    iterations the cold start would spend descending to it.  If float
    rounding ever lands the seed a hair *below* ``alpha*`` (possible when
    the subset ratio was computed on a nearby weight vector), the first
    parametric step returns an empty or degenerate minimizer and the
    descent restarts from the cold ``lambda_0`` -- so a bad seed costs one
    wasted solve, never a wrong answer.
    """
    ctx = resolve_context(ctx)
    if active is None:
        active = list(g.vertices())
    active = list(active)
    if not active:
        raise DecompositionError("maximal_bottleneck on an empty vertex set")

    active_set = set(active)
    w_active = g.weight_of(active, backend)
    if w_active == 0:
        raise DecompositionError("active set has zero total weight; alpha undefined")

    # lambda_0 = alpha(V_i) (Gamma within the induced graph)
    gamma_all = g.neighborhood(active) & active_set
    cold_lam = g.weight_of(gamma_all, backend) / w_active
    warm = lam0 is not None and lam0 < cold_lam
    lam = lam0 if warm else cold_lam
    if warm:
        ctx.counters.warm_starts += 1

    # Termination uses *exact* scalar comparison (Fraction or the computed
    # double), not the backend's structural tolerance: lambda strictly
    # decreases through achieved ratio values -- a finite set for Fractions
    # and for IEEE doubles alike -- so the loop provably terminates, and
    # stopping early at a tolerance would hand back a set that is not a
    # bottleneck (its allocation flow would not saturate).
    prev: frozenset[int] | None = None
    prev_lam = lam
    # The active weights (scalared once, in `active` order) are constant
    # across the descent; only lambda moves between iterations.
    w_cols = [backend.scalar(g.weights[v]) for v in active]
    for _ in range(_MAX_DINKELBACH_ITERS):
        ctx.counters.dinkelbach_iterations += 1
        with ctx.span("dinkelbach"):
            S = _maximal_minimizer(g, active, lam, backend, ctx, w_cols)
        if not S:
            if warm and prev is None:
                # The warm seed rounded below the true minimum ratio, so no
                # nonempty set reaches g_lambda <= 0.  Restart cold rather
                # than returning: from here on the trajectory is exactly the
                # cold-start one.
                warm = False
                lam = prev_lam = cold_lam
                continue
            # Float-only corner: the last ratio was rounded a hair below the
            # true minimum, so at this lambda no nonempty set reaches
            # g_lambda <= 0.  The previous iterate achieved alpha == lambda
            # to machine precision and is the bottleneck.  (Exact backend
            # can never get here: lambda >= alpha* is maintained exactly.)
            if backend.is_exact:
                raise DecompositionError(
                    "parametric step returned an empty minimizer with exact "
                    "arithmetic; this indicates a bug"
                )
            return (prev if prev is not None else frozenset(active)), lam
        wS = g.weight_of(S, backend)
        if wS == 0:
            if warm and prev is None:
                # Same degenerate-seed escape as above: never let a warm
                # seed change which terminal set a cold start would return.
                warm = False
                lam = prev_lam = cold_lam
                continue
            # all-zero-weight minimizer: only possible when the remaining
            # graph is degenerate; treat as terminal with the current lambda
            return frozenset(S), lam
        a = g.weight_of(g.neighborhood(S) & active_set, backend) / wS
        if a >= lam:
            return frozenset(S), a
        prev_lam, lam = lam, a
        prev = frozenset(S)
    # Typed and retryable: the supervisor re-runs the cell and, if the
    # failure is deterministic, escalates it to the exact backend (where the
    # strict lambda descent through a finite ratio set provably terminates).
    raise ConvergenceError(
        f"Dinkelbach iteration did not converge in {_MAX_DINKELBACH_ITERS} steps",
        signature=instance_signature(g, backend),
        residual=abs(float(prev_lam) - float(lam)),
        iterations=_MAX_DINKELBACH_ITERS,
    )


def bottleneck_decomposition(
    g: WeightedGraph,
    backend: Backend | None = None,
    ctx: EngineContext | None = None,
    hint: BottleneckDecomposition | None = None,
) -> BottleneckDecomposition:
    """Full bottleneck decomposition of ``g`` (Definition 2).

    Iteratively extracts the maximal bottleneck ``B_i`` of ``G_i`` and its
    in-``G_i`` neighborhood ``C_i``, removing both, until no vertices
    remain.  Results are memoized in ``ctx``'s decomposition cache: the
    decomposition is a pure function of ``(structure, weights, backend)``,
    and the Sybil sweeps re-request the same instance many times.

    ``hint`` optionally passes a decomposition of a *nearby* instance (same
    vertex ids, different weights -- e.g. the previous candidate split of a
    best-response sweep).  Each stage then seeds its Dinkelbach descent
    with the achieved ratio of the hint's stage-``i`` bottleneck restricted
    to the current active set, computed on **this** graph's weights -- a
    valid warm start per :func:`maximal_bottleneck`'s contract, so the
    result is the same as without the hint; only the iteration count
    changes.

    Zero-weight corner cases: a zero-weight vertex whose remaining
    neighbors all sit in the current ``C_i`` is absorbed into ``B_i`` for
    free by the *maximal* min cut, so (in particular) the paper's Case C-2
    split vertex ``v^1`` with ``w = 0`` lands in a B class as Lemma 14
    asserts.  A degenerate all-zero component is emitted as a terminal pair
    with ``alpha`` equal to the last parametric value.
    """
    ctx = resolve_context(ctx)
    backend = ctx.resolve_backend(backend)
    key = decomposition_key(g, backend)
    cached = ctx.cache.get(key)
    if cached is not None:
        ctx.counters.cache_hits += 1
        return cached
    ctx.counters.cache_misses += 1

    with ctx.span("decompose"):
        check_no_isolated(g)
        if g.total_weight(backend) == 0:
            raise DecompositionError("graph has zero total weight; sharing is degenerate")

        pairs: list[BottleneckPair] = []
        active = sorted(g.vertices())
        index = 1
        hint_pairs = hint.pairs if hint is not None else ()
        while active:
            active_set = set(active)
            w_active = g.weight_of(active, backend)
            if w_active == 0:
                # leftover zero-weight vertices: terminal degenerate pair; they
                # give and receive nothing.  Keep alpha of the previous pair so
                # the monotone alphas invariant (Prop 3-(1)) is not violated by
                # a synthetic value.
                B = frozenset(active)
                alpha = pairs[-1].alpha if pairs else backend.scalar(1)
                pairs.append(BottleneckPair(index, B, B, alpha))
                break
            lam0 = None
            if index <= len(hint_pairs):
                H = set(v for v in sorted(hint_pairs[index - 1].B)
                        if v in active_set)
                if H:
                    wH = g.weight_of(H, backend)
                    if wH != 0:
                        lam0 = g.weight_of(
                            g.neighborhood(H) & active_set, backend) / wH
            B, alpha = maximal_bottleneck(g, active, backend, ctx, lam0=lam0)
            C = frozenset(g.neighborhood(B) & active_set)
            members = B | C
            if not members:
                raise DecompositionError("empty pair extracted; decomposition stuck")
            pairs.append(BottleneckPair(index, frozenset(B), C, alpha))
            active = sorted(active_set - members)
            index += 1
        decomp = BottleneckDecomposition(g, pairs, backend)
    ctx.counters.decompositions += 1
    # Audit before caching: a decomposition that fails its invariants must
    # never be served from the cache on a later request.
    ctx.audit_decomposition(g, decomp)
    ctx.cache.put(key, decomp)
    return decomp
