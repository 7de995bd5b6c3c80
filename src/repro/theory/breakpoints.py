"""Interval partition of a weight sweep into constant-decomposition regimes.

Section III-B observes that as an agent's reported weight ``x`` sweeps
``[0, w_v]``, the bottleneck decomposition ``B(x)`` is piecewise constant:
the interval splits into finitely many regimes ``<a_i, b_i>`` with a fixed
combinatorial structure ``B^i`` inside each, and Propositions 11/12 and
Lemma 13 describe what may change across a breakpoint.

This module recovers that partition numerically: sample a probe grid,
detect signature changes, and bisect each change down to a tolerance.
With the exact backend the bisection runs on Fractions (breakpoints of
these instances are rationals, being solutions of linear equations between
ratios of affine functions of ``x``), so the bracket is exact to any
requested width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core import BottleneckDecomposition, bottleneck_decomposition
from ..graphs import WeightedGraph
from ..numeric import Backend, FLOAT, Scalar

__all__ = ["Regime", "decomposition_signature", "sweep_regimes", "regimes_of_report"]


def decomposition_signature(d: BottleneckDecomposition) -> tuple:
    """Hashable combinatorial fingerprint of a decomposition: the ordered
    tuple of (sorted B_i, sorted C_i).  Alpha values are deliberately
    excluded -- they vary continuously inside a regime."""
    return tuple((tuple(sorted(p.B)), tuple(sorted(p.C))) for p in d.pairs)


@dataclass(frozen=True)
class Regime:
    """One maximal interval on which the decomposition is constant.

    ``lo``/``hi`` bracket the regime; boundaries are refined to within
    ``gap`` of the true breakpoints (the regime is open or closed at each
    end depending on degenerate single-point regimes, which the sampler
    reports when a probe at the boundary itself disagrees with both sides).
    """

    lo: Scalar
    hi: Scalar
    signature: tuple
    representative: Scalar


def sweep_regimes(
    evaluate: Callable[[Scalar], tuple],
    lo: Scalar,
    hi: Scalar,
    probes: int = 48,
    gap: float = 1e-9,
    backend: Backend = FLOAT,
    zero_tol: float | None = None,
) -> list[Regime]:
    """Generic regime sweep of a signature-valued function on ``[lo, hi]``.

    ``evaluate(x)`` must return a hashable signature.  Adjacent probes with
    different signatures are bisected until the bracket width drops below
    ``gap`` (relative to the interval length), then the breakpoint is placed
    at the bracket midpoint.

    ``zero_tol`` controls the near-tie endpoint dedupe: when a breakpoint
    sits within float noise of a probe point (or of ``lo``/``hi``), two
    refinements can land essentially on top of each other, and the
    resulting sliver regime is narrower than the bisection resolution --
    its midpoint evaluation then flaps between the neighbors' signatures.
    Interior cuts within ``zero_tol`` (relative to the interval length) of
    the previously kept cut or of ``hi`` are dropped.  Defaults to ``gap``
    (the bisection resolution: anything closer is indistinguishable
    anyway); exact backends drop exact duplicates only.
    """
    if probes < 2:
        raise ValueError("need at least 2 probes")
    lo = backend.scalar(lo)
    hi = backend.scalar(hi)
    span = hi - lo
    if span <= 0:
        raise ValueError("empty sweep interval")

    xs = [lo + span * k / (probes - 1) for k in range(probes)]
    if backend.is_exact:
        from fractions import Fraction

        xs = [lo + span * Fraction(k, probes - 1) for k in range(probes)]
    sigs = [evaluate(x) for x in xs]

    # refine each change
    cuts: list[Scalar] = [lo]
    for i in range(len(xs) - 1):
        if sigs[i] == sigs[i + 1]:
            continue
        a, b = xs[i], xs[i + 1]
        sa = sigs[i]
        # bisect until narrow
        while float(b - a) > gap * max(1.0, float(span)):
            mid = (a + b) / 2
            if evaluate(mid) == sa:
                a = mid
            else:
                b = mid
        cuts.append((a + b) / 2)
    cuts.append(hi)

    tol = 0.0 if backend.is_exact else (gap if zero_tol is None else zero_tol)
    scaled = tol * max(1.0, float(span))
    deduped: list[Scalar] = [cuts[0]]
    for c in cuts[1:-1]:
        if float(c - deduped[-1]) <= scaled or float(hi - c) <= scaled:
            continue
        deduped.append(c)
    deduped.append(hi)
    cuts = deduped

    regimes: list[Regime] = []
    for i in range(len(cuts) - 1):
        a, b = cuts[i], cuts[i + 1]
        mid = (a + b) / 2
        regimes.append(Regime(lo=a, hi=b, signature=evaluate(mid), representative=mid))
    # merge accidental duplicates (a probe straddling a degenerate point)
    merged: list[Regime] = []
    for r in regimes:
        if merged and merged[-1].signature == r.signature:
            prev = merged[-1]
            merged[-1] = Regime(lo=prev.lo, hi=r.hi, signature=prev.signature,
                                representative=prev.representative)
        else:
            merged.append(r)
    return merged


def regimes_of_report(
    g: WeightedGraph,
    v: int,
    probes: int = 48,
    gap: float = 1e-9,
    backend: Backend = FLOAT,
    zero_tol: float | None = None,
) -> list[Regime]:
    """Constant-decomposition regimes of the misreport sweep ``x in [0, w_v]``
    (the ``{<a_i, b_i>}`` partition of Section III-B)."""

    def evaluate(x: Scalar) -> tuple:
        return decomposition_signature(
            bottleneck_decomposition(g.with_weight(v, x), backend)
        )

    return sweep_regimes(
        evaluate, 0, g.weights[v], probes=probes, gap=gap, backend=backend,
        zero_tol=zero_tol,
    )


def regimes_of_split(
    g: WeightedGraph,
    v: int,
    moving: str = "w1",
    fixed_value: Scalar = 0,
    probes: int = 48,
    gap: float = 1e-9,
    backend: Backend = FLOAT,
    zero_tol: float | None = None,
) -> list[Regime]:
    """Regimes of the split-path decomposition as one endpoint weight sweeps.

    ``moving`` selects which fictitious node's weight varies over
    ``[0, w_v - fixed_value]`` while the other stays at ``fixed_value``.
    Used by the stage analysis (Stages C-1/C-2/D-1/D-2 each move one
    endpoint's weight only).
    """
    from ..graphs import cut_ring_at

    wv = backend.scalar(g.weights[v])
    fixed = backend.scalar(fixed_value)
    if moving not in ("w1", "w2"):
        raise ValueError("moving must be 'w1' or 'w2'")

    def evaluate(x: Scalar) -> tuple:
        w1, w2 = (x, fixed) if moving == "w1" else (fixed, x)
        p, _, _ = cut_ring_at(g, v, w1, w2)
        return decomposition_signature(bottleneck_decomposition(p, backend))

    return sweep_regimes(
        evaluate, 0, wv - fixed, probes=probes, gap=gap, backend=backend,
        zero_tol=zero_tol,
    )
