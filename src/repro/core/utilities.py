"""Closed-form equilibrium utilities (Proposition 6, equation (2)).

``U_v = w_v * alpha_i`` for ``v in B_i`` and ``U_v = w_v / alpha_i`` for
``v in C_i`` (both reduce to ``w_v`` in a terminal ``alpha = 1`` pair).
These are the quantities the whole incentive analysis runs on; the
allocation module computes utilities from the realized flows instead, and
the test suite requires the two to agree wherever the closed form is
defined (``alpha_i > 0``).
"""

from __future__ import annotations

from typing import Optional

from ..numeric import Scalar
from .bottleneck import BottleneckDecomposition

__all__ = ["closed_form_utility", "closed_form_utilities"]


def closed_form_utility(decomp: BottleneckDecomposition, v: int) -> Optional[Scalar]:
    """Equation (2) for one vertex; ``None`` when ``alpha = 0`` makes the
    C-class branch undefined (the realized utility is then read from the
    allocation)."""
    pair = decomp.pair_of(v)
    w = decomp.backend.scalar(decomp.graph.weights[v])
    if v in pair.B:
        return w * pair.alpha
    if pair.alpha == 0:
        return None
    return w / pair.alpha


def closed_form_utilities(decomp: BottleneckDecomposition) -> list[Optional[Scalar]]:
    """Equation (2) for every vertex, indexed by vertex id."""
    return [closed_form_utility(decomp, v) for v in decomp.graph.vertices()]
