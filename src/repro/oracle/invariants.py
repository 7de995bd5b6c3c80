"""Paper invariants as pure, re-runnable predicates.

Each function inspects an *already computed* object (decomposition,
allocation, best response) and returns a list of human-readable problems --
empty when every invariant holds.  They deliberately never recompute the
object under audit (no ``bottleneck_decomposition`` calls), so they are
cheap enough to run on every engine operation and reusable verbatim by the
corpus replayer, which is what makes a recorded failure reproducible: the
replayer recomputes the object and runs the *same* predicates.

Unlike :mod:`repro.theory.propositions` -- whose checks target the clean
instances the experiments construct -- these predicates must accept every
graph the engine can legally see, including Sybil splits with zero-weight
fictitious vertices.  The degenerate corners (all-zero terminal pairs,
``alpha = 0`` pairs) therefore get explicit carve-outs that mirror the
documented behavior of ``core.bottleneck`` and ``core.allocation``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..exceptions import AllocationError, FlowError
from ..flow import (
    assert_valid_flow,
    cut_value,
    max_source_side,
    min_source_side,
    node_inflow,
    node_outflow,
)
from ..flow.network import FlowNetwork
from ..graphs import WeightedGraph
from ..numeric import Backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..attack.best_response import BestResponse
    from ..core.allocation import Allocation
    from ..core.bottleneck import BottleneckDecomposition

__all__ = [
    "flow_certificate_problems",
    "decomposition_problems",
    "allocation_problems",
    "fixed_point_problems",
    "best_response_problems",
]

#: Relative slack for float comparisons between independently computed
#: quantities (flow value vs cut capacity, alpha vs recomputed ratio).
#: Exact (Fraction/int) quantities are always compared literally.
REL_TOL = 1e-9


def _close(a, b) -> bool:
    """Equality, exact for exact scalars, relative for floats."""
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        if math.isinf(fa) or math.isinf(fb):
            return fa == fb
        return abs(fa - fb) <= REL_TOL * max(1.0, abs(fa), abs(fb))
    return a == b


def _float_tol(net: FlowNetwork) -> float:
    """Absolute verify tolerance scaled to the largest finite capacity
    (multi-path reverse-arc accumulation can overshoot by a few ulps)."""
    biggest = 1.0
    exact = True
    for c in net.orig_cap:
        if isinstance(c, float):
            exact = False
            if not math.isinf(c):
                biggest = max(biggest, abs(c))
    return 0.0 if exact else 1e-12 * biggest


# ---------------------------------------------------------------------------
# flow level
# ---------------------------------------------------------------------------

def flow_certificate_problems(
    net: FlowNetwork,
    s: int,
    t: int,
    value,
    zero_tol: float,
) -> list[str]:
    """Validate one solved max-flow call against its own certificates.

    * both extracted min cuts (minimal and maximal source side) must have
      capacity equal to the returned value -- the max-flow = min-cut
      certificate;
    * the residual state must satisfy the flow axioms and route exactly
      ``value`` out of the source.
    """
    problems: list[str] = []
    if isinstance(value, float) and (math.isnan(value) or value < 0):
        problems.append(f"max-flow value {value!r} is not a non-negative number")
        return problems

    min_side = min_source_side(net, s, zero_tol)
    max_side = max_source_side(net, t, zero_tol)
    if s not in min_side or t in min_side:
        problems.append("minimal source side does not separate s from t")
    if s not in max_side or t in max_side:
        problems.append("maximal source side does not separate s from t")
    if not (min_side <= max_side):
        problems.append("min-cut lattice violated: minimal side not inside maximal side")
    for label, side in (("minimal", min_side), ("maximal", max_side)):
        cv = cut_value(net, side)
        if not _close(cv, value):
            problems.append(
                f"{label} min-cut capacity {cv!r} != max-flow value {value!r}"
            )

    try:
        assert_valid_flow(net, s, t, tol=_float_tol(net))
    except FlowError as exc:
        problems.append(f"flow axioms violated: {exc}")
    else:
        sent = node_outflow(net, s) - node_inflow(net, s)
        if not _close(sent, value):
            problems.append(
                f"net outflow of source {sent!r} != reported value {value!r}"
            )
    return problems


# ---------------------------------------------------------------------------
# decomposition level (Proposition 3 + alpha-ratio bounds)
# ---------------------------------------------------------------------------

def _is_degenerate(g: WeightedGraph, pair, backend: Backend) -> bool:
    """All-zero-weight terminal pair emitted for leftover free vertices."""
    return pair.B == pair.C and g.weight_of(pair.B, backend) == 0


def decomposition_problems(g: WeightedGraph, d: "BottleneckDecomposition") -> list[str]:
    """Proposition 3 structure plus alpha-ratio consistency of ``d``.

    Checks, in the paper's numbering: (1) alphas strictly increase and lie
    in ``[0, 1]``; (2) below alpha=1 the pair is a disjoint ``(B_i, C_i)``
    with independent ``B_i`` and ``C_i = Gamma(B_i)`` inside the remaining
    graph; (3) the only B-B edges touch the unit pair, and no B_i-C_j edge
    has ``j > i``.  On top of Prop. 3, each ``alpha_i`` is recomputed as
    ``w(C_i)/w(B_i)`` -- the decomposition must be internally consistent,
    not just well-shaped.
    """
    backend = d.backend
    problems: list[str] = []
    pairs = d.pairs
    one = backend.scalar(1)

    # coverage / disjointness (the constructor enforces this; re-assert so a
    # hand-built or deserialized decomposition is audited to the same bar)
    seen: set[int] = set()
    for p in pairs:
        for v in p.members():
            if v in seen:
                problems.append(f"vertex {v} appears in more than one pair")
            seen.add(v)
    if seen != set(g.vertices()):
        problems.append("pairs do not partition the vertex set")

    # Classification is *structural* (B == C), and alpha comparisons below
    # are raw scalar comparisons, not backend-tolerance predicates: the
    # decomposition's own termination compares exactly (see
    # ``core.bottleneck``), so adjacent pairs may legitimately differ by
    # less than ``backend.tol`` and the audit must not call that a tie.
    degenerate = [_is_degenerate(g, p, backend) for p in pairs]
    unit = [p.B == p.C and not dg for p, dg in zip(pairs, degenerate)]

    for p, degen, is_unit in zip(pairs, degenerate, unit):
        if p.alpha < 0 or p.alpha > one:
            problems.append(f"alpha_{p.index} = {p.alpha!r} outside [0, 1]")
        if degen:
            continue
        wB = g.weight_of(p.B, backend)
        wC = g.weight_of(p.C, backend)
        if wB == 0:
            problems.append(f"pair {p.index}: B has zero weight but C does not")
            continue
        if not _close(p.alpha, wC / wB):
            problems.append(
                f"pair {p.index}: alpha {p.alpha!r} != w(C)/w(B) = {wC / wB!r}"
            )
        if is_unit:
            if not _close(p.alpha, one):
                problems.append(
                    f"pair {p.index} has B = C but alpha {p.alpha!r} != 1"
                )
        else:
            if p.B & p.C:
                problems.append(f"pair {p.index}: B intersects C below alpha = 1")
            if not g.is_independent(p.B):
                problems.append(f"pair {p.index}: B is not independent below alpha = 1")

    # increasing alphas.  Strictness is only decidable under exact
    # arithmetic: exact-distinct alphas can round to the same double or
    # even swap by one ulp (both observed in the wild on 9-vertex float
    # rings), so the float audit only flags a decrease beyond the relative
    # tolerance and leaves strictness to the exact backend.  A trailing
    # degenerate pair copies the previous alpha by construction and is
    # likewise only required not to decrease.
    strict = backend.tol == 0
    for (p, pd), (q, qd) in zip(
        zip(pairs, degenerate), zip(pairs[1:], degenerate[1:])
    ):
        if qd or pd or not strict:
            if q.alpha < p.alpha and not _close(p.alpha, q.alpha):
                problems.append(
                    f"alphas decrease at pair {q.index}: "
                    f"{p.alpha!r} -> {q.alpha!r}"
                )
        elif not (p.alpha < q.alpha):
            problems.append(
                f"alphas not strictly increasing at pair {q.index}: "
                f"{p.alpha!r} -> {q.alpha!r}"
            )

    # the unit pair, when present, closes the decomposition (followed at
    # most by the degenerate leftovers)
    for i, is_unit in enumerate(unit):
        if is_unit and any(
            not dg for dg in degenerate[i + 1:]
        ):
            problems.append(f"unit pair {pairs[i].index} is not the last proper pair")

    # C_i is exactly the neighborhood of B_i in the remaining graph, and the
    # cross-pair edge rules of Prop. 3-(3)
    remaining: set[int] = set()
    for p, degen, is_unit in reversed(list(zip(pairs, degenerate, unit))):
        remaining |= p.members()
        if degen or is_unit:
            continue
        want_C = g.neighborhood(p.B) & frozenset(remaining)
        if frozenset(p.C) != want_C:
            problems.append(
                f"pair {p.index}: C != Gamma(B) in remaining graph "
                f"({sorted(p.C)} vs {sorted(want_C)})"
            )
    pair_flags = {p.index: (dg, un) for p, dg, un in zip(pairs, degenerate, unit)}
    for p, pd, unit_p in zip(pairs, degenerate, unit):
        if pd:
            continue
        for u in p.B:
            for x in g.neighbors(u):
                q = d.pair_of(x)
                if q is p:
                    continue
                degen_q, unit_q = pair_flags[q.index]
                if degen_q:
                    continue
                if x in q.B and not (unit_p or unit_q):
                    problems.append(
                        f"edge between B_{p.index} and B_{q.index} below alpha = 1"
                    )
                if x in q.C and q.index > p.index and not unit_q:
                    problems.append(
                        f"edge B_{p.index} -> C_{q.index} with j > i"
                    )
    return sorted(set(problems))


# ---------------------------------------------------------------------------
# allocation level (Definition 5: feasibility, budget balance, clearing)
# ---------------------------------------------------------------------------

def _scaled_tol(backend: Backend, magnitude) -> float:
    if backend.is_exact:
        return 0.0
    return backend.tol * max(1.0, abs(float(magnitude))) * 16


def allocation_problems(g: WeightedGraph, alloc: "Allocation", backend: Backend) -> list[str]:
    """Feasibility + budget balance + market clearing of a BD allocation.

    * feasibility: allocations only on real edges, non-negative, nobody
      sends more than its endowment (``Allocation.check_feasible``);
    * budget balance: every vertex spends *exactly* its endowment -- the BD
      mechanism redistributes everything, creating and destroying nothing;
    * market clearing: total utility equals total weight.
    """
    problems: list[str] = []
    try:
        alloc.check_feasible(tol=_scaled_tol(backend, g.total_weight(backend)))
    except AllocationError as exc:
        problems.append(f"infeasible allocation: {exc}")
    for v in g.vertices():
        sent = alloc.sent(v)
        w = g.weights[v]
        tol = _scaled_tol(backend, w)
        if (abs(float(sent) - float(w)) > tol) if tol else (sent != w):
            problems.append(
                f"budget balance violated at vertex {v}: sends {sent!r}, owns {w!r}"
            )
    total_u = sum(alloc.utilities, backend.scalar(0))
    total_w = g.total_weight(backend)
    tol = _scaled_tol(backend, total_w)
    if (abs(float(total_u) - float(total_w)) > tol) if tol else (total_u != total_w):
        problems.append(
            f"market does not clear: total utility {total_u!r} != total weight {total_w!r}"
        )
    return problems


def fixed_point_problems(alloc: "Allocation", tol: float = 1e-8) -> list[str]:
    """Proportional-response fixed-point residual of the BD allocation.

    The BD allocation is a PR fixed point (the unit pair is symmetrized for
    exactly this reason; see ``core.fixedpoint``); a residual above ``tol``
    means some max flow broke the echo condition ``x_vu = x_uv / U_v * w_v``.
    """
    from ..core.fixedpoint import fixed_point_residual

    report = fixed_point_residual(alloc)
    if report.max_residual > tol:
        return [
            f"proportional-response fixed point violated: residual "
            f"{report.max_residual:.3e} at edge {report.worst_edge}"
        ]
    return []


# ---------------------------------------------------------------------------
# attack level (best-response sweeps)
# ---------------------------------------------------------------------------

def best_response_problems(g: WeightedGraph, v: int, br: "BestResponse") -> list[str]:
    """Sanity of one best-response search result.

    * the split is a genuine partition of ``w_v`` inside ``[0, w_v]``;
    * utility monotonicity of the sweep: the maximum over the candidate set
      can never fall below the honest split it always contains, so
      ``U* >= U_honest`` i.e. ``zeta_v >= 1``;
    * Theorem 8: ``zeta_v <= 2`` (the paper's headline bound, asserted on
      every search the engine runs, not only in the experiments).
    """
    problems: list[str] = []
    wv = float(g.weights[v])
    slack = REL_TOL * max(1.0, wv)
    if not (-slack <= br.w1 <= wv + slack) or not (-slack <= br.w2 <= wv + slack):
        problems.append(f"split ({br.w1!r}, {br.w2!r}) outside [0, w_v = {wv!r}]")
    if abs(br.w1 + br.w2 - wv) > slack:
        problems.append(f"split does not partition w_v: {br.w1!r} + {br.w2!r} != {wv!r}")
    u_slack = 1e-7 * max(1.0, abs(br.honest_utility))
    if br.utility < br.honest_utility - u_slack:
        problems.append(
            f"best-response sweep lost the honest candidate: U* = {br.utility!r} "
            f"< honest {br.honest_utility!r}"
        )
    if br.honest_utility > 0 and br.ratio > 2.0 + 1e-6:
        problems.append(
            f"Theorem 8 violated: zeta = {br.ratio!r} > 2 at vertex {v}"
        )
    return problems
