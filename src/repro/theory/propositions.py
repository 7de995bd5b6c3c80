"""Executable checks for the propositions the proof machinery rests on.

Each check returns a :class:`CheckResult` carrying a verdict plus the
measured data, so experiments can both assert and report.  The checks are
*numerical witnesses*, not proofs: they certify the implementation exhibits
exactly the structure the paper's citations ([15], [7]) claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..core import (
    bottleneck_decomposition,
    closed_form_utilities,
    proportional_response,
)
from ..graphs import WeightedGraph
from ..numeric import Backend, EXACT, FLOAT, Scalar
from .breakpoints import regimes_of_report

__all__ = [
    "CheckResult",
    "check_proposition3",
    "check_proposition6",
    "check_proposition11",
    "check_proposition12",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one structural check."""

    name: str
    ok: bool
    details: str = ""
    data: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_proposition3(g: WeightedGraph, backend: Backend = EXACT) -> CheckResult:
    """Proposition 3: alpha monotone in (0,1], unit pair last with B=C,
    independence of B_i below alpha=1, and the cross-pair edge rules."""
    d = bottleneck_decomposition(g, backend)
    alphas = d.alphas()
    problems: list[str] = []
    if not all(a > 0 for a in alphas):
        problems.append("alpha <= 0")
    if not all(alphas[i] < alphas[i + 1] for i in range(len(alphas) - 1)):
        problems.append("alphas not strictly increasing")
    if alphas and alphas[-1] > 1:
        problems.append("alpha_k > 1")
    for i, p in enumerate(d.pairs):
        if backend.eq(p.alpha, backend.scalar(1)):
            if i != len(d.pairs) - 1:
                problems.append(f"unit pair at index {p.index} is not last")
            if p.B != p.C:
                problems.append(f"unit pair {p.index} has B != C")
        else:
            if not g.is_independent(p.B):
                problems.append(f"B_{p.index} not independent")
            if p.B & p.C:
                problems.append(f"B_{p.index} intersects C_{p.index}")
    for p in d.pairs:
        for u in p.B:
            for x in g.neighbors(u):
                q = d.pair_of(x)
                if x in q.B and not (q.is_unit or p.is_unit) and q is not p:
                    problems.append(f"edge between B_{p.index} and B_{q.index}")
                if x in q.C and q.index > p.index:
                    problems.append(f"edge B_{p.index} -> C_{q.index} with j > i")
    return CheckResult(
        name="Proposition 3",
        ok=not problems,
        details="; ".join(problems) or "all invariants hold",
        data={"alphas": [float(a) for a in alphas], "k": d.k},
    )


def check_proposition6(
    g: WeightedGraph,
    tol: float = 1e-10,
    damping: float = 0.3,
    max_iters: int = 200_000,
    rel: float = 1e-5,
) -> CheckResult:
    """Proposition 6: the dynamics' limit utilities equal equation (2)."""
    res = proportional_response(g, max_iters=max_iters, tol=tol, damping=damping)
    d = bottleneck_decomposition(g, FLOAT)
    closed = closed_form_utilities(d)
    worst = 0.0
    for v in g.vertices():
        cf = closed[v]
        if cf is None:
            continue
        err = abs(res.utility_of(v) - float(cf)) / max(1.0, abs(float(cf)))
        worst = max(worst, err)
    ok = res.converged and worst <= rel
    return CheckResult(
        name="Proposition 6",
        ok=ok,
        details=f"converged={res.converged} in {res.iterations} iters, max rel err {worst:.2e}",
        data={"iterations": res.iterations, "max_rel_err": worst,
              "oscillating": res.oscillating},
    )


def check_proposition11(
    g: WeightedGraph,
    v: int,
    samples: int = 33,
    backend: Backend = EXACT,
) -> CheckResult:
    """Proposition 11: alpha_v(x) follows Case B-1, B-2, or B-3.

    Samples the curve, determines the case, and verifies the claimed
    monotonicity plus the class of ``v`` on each side.
    """
    wv = backend.scalar(g.weights[v])
    if backend.is_exact:
        xs: list[Scalar] = [wv * Fraction(k, samples - 1) for k in range(1, samples)]
    else:
        xs = [float(wv) * k / (samples - 1) for k in range(1, samples)]

    alphas = []
    in_c = []
    in_b = []
    for x in xs:
        d = bottleneck_decomposition(g.with_weight(v, x), backend)
        alphas.append(d.alpha_of(v))
        in_c.append(d.in_C(v))
        in_b.append(d.in_B(v))

    def nondecr(seq) -> bool:
        return all(not backend.gt(seq[i], seq[i + 1]) for i in range(len(seq) - 1))

    def nonincr(seq) -> bool:
        return all(not backend.lt(seq[i], seq[i + 1]) for i in range(len(seq) - 1))

    if all(in_c) and nondecr(alphas):
        case, ok = "B-1", True
    elif all(in_b) and nonincr(alphas):
        case, ok = "B-2", True
    else:
        # B-3: a C phase with rising alpha, then a B phase with falling
        # alpha; the crossing x* (alpha = 1) usually falls between samples,
        # so the split point is the first strictly-B sample.
        case = "B-3"
        strict_b = [i for i in range(len(xs)) if in_b[i] and not in_c[i]]
        if not strict_b:
            ok = False
        else:
            t = strict_b[0]
            before_ok = all(in_c[:t]) and nondecr(alphas[:t])
            after_ok = all(in_b[t:]) and nonincr(alphas[t:])
            below_one = all(float(a) <= 1 + 1e-12 for a in alphas)
            ok = before_ok and after_ok and below_one
    return CheckResult(
        name="Proposition 11",
        ok=ok,
        details=f"case {case}",
        data={"case": case, "alphas": [float(a) for a in alphas]},
    )


def check_proposition12(
    g: WeightedGraph,
    v: int,
    probes: int = 33,
    backend: Backend = FLOAT,
    gap: float = 1e-9,
) -> CheckResult:
    """Proposition 12: across each breakpoint the pair containing ``v``
    either merges with an adjacent pair or splits into two, with ``v``'s
    class preserved."""
    regimes = regimes_of_report(g, v, probes=probes, gap=gap, backend=backend)
    problems: list[str] = []
    transitions: list[str] = []

    def snapshot(x) -> tuple[frozenset, frozenset, bool, bool, float]:
        d = bottleneck_decomposition(g.with_weight(v, x), backend)
        p = d.pair_of(v)
        return p.B, p.C, d.in_B(v), d.in_C(v), float(p.alpha)

    for i in range(len(regimes) - 1):
        cut = float(regimes[i].hi)
        span = float(regimes[-1].hi) - float(regimes[0].lo)
        delta = max(gap * 100 * max(1.0, span), 1e-12)
        lo_x = max(float(regimes[i].lo), cut - delta)
        hi_x = min(float(regimes[i + 1].hi), cut + delta)
        B0, C0, b0, c0, a0 = snapshot(lo_x)
        B1, C1, b1, c1, a1 = snapshot(hi_x)
        if (B0, C0) == (B1, C1):
            transitions.append("unchanged")
            continue
        crossing_unit = abs(a0 - 1.0) < 0.01 and abs(a1 - 1.0) < 0.01
        # Prop 12-(1): v keeps its class across a breakpoint.  The only
        # legal flip path is through the alpha = 1 unit pair (a single-point
        # regime in the paper's bookkeeping), where v is both classes.
        strict_flip = (b0 and not c0 and c1 and not b1) or (c0 and not b0 and b1 and not c1)
        if strict_flip and not crossing_unit:
            problems.append(
                f"breakpoint {i}: class flip away from alpha=1 "
                f"(alpha {a0:.4f} -> {a1:.4f})"
            )
            transitions.append("illegal-flip")
            continue
        if crossing_unit and strict_flip:
            transitions.append("unit-crossing")
            continue
        # Prop 12-(2)/(3): the pair containing v merges with a neighbor pair
        # or splits into two -- memberships nest across the breakpoint.
        if B1 <= B0 and C1 <= C0:
            transitions.append("split")
        elif B0 <= B1 and C0 <= C1:
            transitions.append("merge")
        else:
            problems.append(
                f"breakpoint {i}: pair of v changed non-monotonically "
                f"(B {sorted(B0)}->{sorted(B1)})"
            )
            transitions.append("other")
    return CheckResult(
        name="Proposition 12",
        ok=not problems,
        details="; ".join(problems) or f"{len(regimes)} regimes, transitions ok",
        data={"num_regimes": len(regimes), "transitions": transitions},
    )
