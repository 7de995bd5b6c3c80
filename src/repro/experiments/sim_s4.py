"""EXP-S4: adaptive adversaries warm-starting across epochs.

Swap churn keeps the ring size constant while membership rotates, so
consecutive epochs share a topology fingerprint and the adaptive
adversary's truthful solve can *reconstruct* the previous epoch's
decomposition (:func:`repro.core.warm_decomposition`) instead of
re-running Dinkelbach from scratch.  Besides the standard ratio-bound
checks, this experiment asserts the reuse actually happened: at least one
certified reconstruction must appear in the counters (the weight range is
deliberately narrow, 0.5--2.0, so the near-uniform decomposition
structure stays stable under the swaps; a reconstruction that fails
certification falls back to a full solve and would zero this counter).
"""

from __future__ import annotations

from typing import Optional

from ..engine import EngineContext
from ..theory import CheckResult
from .base import ExperimentOutput, experiment_context
from .sim_family import run_family

EXP_ID = "EXP-S4"
TITLE = "Population sim: adaptive warm-started best responses"


def run(seed: int = 0, scale: str = "default",
        ctx: Optional[EngineContext] = None) -> ExperimentOutput:
    ctx = experiment_context(ctx)  # resolve now so the delta below is real
    counters = ctx.counters
    before = (counters.decomp_reconstructions, counters.reconstruction_fallbacks)

    def warm_checks(result, rctx):
        recon = rctx.counters.decomp_reconstructions - before[0]
        fallb = rctx.counters.reconstruction_fallbacks - before[1]
        # The counts stay out of the rendered details: they move with worker
        # scheduling and fault recovery, neither of which may change output.
        return [CheckResult(
            name="adaptive epochs reused decomposition segments",
            ok=recon >= 1,
            details=f"{'certified' if recon else 'no'} reconstructions "
                    f"across {result.epochs} epochs",
            data={"reconstructions": recon, "fallbacks": fallb},
        )]

    return run_family(EXP_ID, TITLE, seed, scale, ctx, extra_checks=warm_checks)
