"""Event instrumentation for weight sweeps (feeds Figs. 2 and 3).

Records, along a sweep of one agent's weight, the full trace of
``alpha_v(x)``, class labels, and pair merge/split events -- the raw series
behind Fig. 2's curves and Fig. 3's pair-dynamics diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import bottleneck_decomposition
from ..graphs import WeightedGraph
from ..numeric import Backend, FLOAT
from ..theory import regimes_of_report

__all__ = ["SweepTrace", "PairEvent", "trace_report_sweep"]


@dataclass(frozen=True)
class PairEvent:
    """One structural event at a breakpoint of the sweep."""

    x: float
    kind: str  # "merge" | "split" | "unit-crossing" | "other"
    pairs_before: int
    pairs_after: int
    alpha_before: float
    alpha_after: float


@dataclass
class SweepTrace:
    """Trace of one agent's report sweep."""

    vertex: int
    xs: list[float] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    utilities: list[float] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    events: list[PairEvent] = field(default_factory=list)

    def case_label(self) -> str:
        """Proposition 11 case (B-1/B-2/B-3) implied by the class column."""
        has_c = any(c in ("C", "BC") for c in self.classes)
        has_b = any(c in ("B", "BC") for c in self.classes)
        strict_b = any(c == "B" for c in self.classes)
        strict_c = any(c == "C" for c in self.classes)
        if strict_c and strict_b:
            return "B-3"
        if has_b and not strict_c:
            return "B-2"
        return "B-1"


def trace_report_sweep(
    g: WeightedGraph,
    v: int,
    samples: int = 64,
    probes: int = 33,
    backend: Backend = FLOAT,
) -> SweepTrace:
    """Sample ``alpha_v(x)``, ``U_v(x)`` and classes on a uniform grid, and
    locate merge/split events via the regime machinery."""
    from ..core import bd_allocation

    wv = float(g.weights[v])
    trace = SweepTrace(vertex=v)
    for k in range(1, samples + 1):
        x = wv * k / samples
        gx = g.with_weight(v, backend.scalar(x))
        d = bottleneck_decomposition(gx, backend)
        alloc = bd_allocation(gx, d, backend)
        in_b, in_c = d.in_B(v), d.in_C(v)
        trace.xs.append(x)
        trace.alphas.append(float(d.alpha_of(v)))
        trace.utilities.append(float(alloc.utilities[v]))
        trace.classes.append("BC" if in_b and in_c else ("B" if in_b else "C"))

    regimes = regimes_of_report(g, v, probes=probes, backend=backend)
    span = wv if wv else 1.0
    for i in range(len(regimes) - 1):
        cut = float(regimes[i].hi)
        delta = max(1e-7 * span, 1e-12)
        lo_x = max(float(regimes[i].lo), cut - delta)
        hi_x = min(float(regimes[i + 1].hi), cut + delta)
        d_lo = bottleneck_decomposition(g.with_weight(v, backend.scalar(lo_x)), backend)
        d_hi = bottleneck_decomposition(g.with_weight(v, backend.scalar(hi_x)), backend)
        k_lo, k_hi = d_lo.k, d_hi.k
        a_lo, a_hi = float(d_lo.alpha_of(v)), float(d_hi.alpha_of(v))
        sets_lo = {(p.B, p.C) for p in d_lo.pairs}
        sets_hi = {(p.B, p.C) for p in d_hi.pairs}
        if k_hi > k_lo:
            kind = "split"
        elif k_hi < k_lo:
            kind = "merge"
        elif sets_lo == sets_hi:
            # same pairs, different order: two alpha curves crossed -- the
            # decomposition's *indices* changed but no pair reorganized
            kind = "reorder"
        elif abs(a_lo - 1) < 0.05 and abs(a_hi - 1) < 0.05:
            kind = "unit-crossing"
        else:
            kind = "other"
        trace.events.append(
            PairEvent(x=cut, kind=kind, pairs_before=k_lo, pairs_after=k_hi,
                      alpha_before=a_lo, alpha_after=a_hi)
        )
    return trace
