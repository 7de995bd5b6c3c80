"""EXP-LB: the lower-bound family's ratio marches to 2.

Complements EXP-T8's tightness row with the full series zeta(H) along the
codified family ``[1, 1, 1/H, 1/H, H]``, against the first-order prediction
``2 - 2/H`` (derived in ``attack.lower_bound``'s module notes), and records
the optimal split weight ``w_2^* ~ 1/H^2``.
"""

from __future__ import annotations

from ..attack import lower_bound_series
from ..theory import CheckResult
from .base import ExperimentOutput, Table

EXP_ID = "EXP-LB"
TITLE = "Lower bound: zeta(H) -> 2 along the family [1, 1, 1/H, 1/H, H]"


def run(seed: int = 0, scale: str = "default") -> ExperimentOutput:
    Hs = [10, 30, 100, 1000]
    if scale != "smoke":
        Hs += [1e4, 1e5, 1e6]
    if scale == "full":
        Hs += [1e8, 1e10]
    pts = lower_bound_series(Hs, grid=128 if scale == "smoke" else 256)
    rows = [[p.H, p.zeta, p.predicted, p.gap_to_two, p.w2_star, p.w2_star * p.H**2]
            for p in pts]
    table = Table(
        title="zeta(H), prediction 2 - 2/H, and the optimal split w2* ~ 1/H^2",
        headers=["H", "zeta(H)", "2 - 2/H", "2 - zeta", "w2*", "w2* x H^2"],
        rows=rows,
    )
    zetas = [p.zeta for p in pts]
    monotone = CheckResult(
        name="zeta(H) monotone toward 2",
        ok=all(zetas[i] <= zetas[i + 1] + 1e-9 for i in range(len(zetas) - 1)),
        details=f"series {', '.join(f'{z:.6f}' for z in zetas)}",
        data={"zetas": zetas},
    )
    prediction = CheckResult(
        name="first-order prediction 2 - 2/H",
        ok=all(abs(p.zeta - p.predicted) <= 30.0 / p.H**2 + 1e-9 for p in pts),
        details="|zeta - (2 - 2/H)| = O(1/H^2) on every point",
        data={},
    )
    bounded = CheckResult(
        name="never exceeds 2",
        ok=all(p.zeta <= 2.0 + 1e-9 for p in pts),
        details=f"max = {max(zetas):.9f}",
        data={},
    )
    return ExperimentOutput(exp_id=EXP_ID, title=TITLE, tables=[table],
                            checks=[monotone, prediction, bounded],
                            data={"zetas": zetas, "Hs": [p.H for p in pts]})
