"""Experiment registry and runner.

Beyond id -> module dispatch, the runner is where the runtime supervision
layer meets the experiment suite: each experiment invocation fires any
index-keyed ``exp`` fault rules (deterministic chaos testing), retryable
failures are re-run according to the context's
:class:`~repro.runtime.RuntimePolicy`, and an optional experiment-level
checkpoint journal records every finished experiment so a killed
``repro-exp all`` run resumes bit-identically instead of starting over.
"""

from __future__ import annotations

import hashlib
import inspect
import time
from typing import Callable, Optional

from ..engine import SOLVER_NAME, ZERO_TOL, EngineContext
from ..exceptions import ExperimentError, is_retryable
from ..runtime import fire_site, open_journal, resolve_policy
from .base import ExperimentOutput, decode_output, encode_output
from . import (
    bounds_comparison,
    combined_attack,
    convergence,
    fig1_example,
    general_conjecture,
    multi_identity,
    spectral_rates,
    sim_s1,
    sim_s2,
    sim_s3,
    sim_s4,
    fig2_alpha_curves,
    fig3_pair_dynamics,
    fig4_initial_forms,
    lower_bound_family,
    stage_inequalities,
    structure_checks,
    thm8_ratio,
    truthfulness,
)

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]

#: Experiment id -> module (each module exposes EXP_ID, TITLE, run()).
EXPERIMENTS = {
    m.EXP_ID: m
    for m in (
        fig1_example,
        fig2_alpha_curves,
        fig3_pair_dynamics,
        fig4_initial_forms,
        thm8_ratio,
        lower_bound_family,
        bounds_comparison,
        convergence,
        truthfulness,
        stage_inequalities,
        structure_checks,
        general_conjecture,
        multi_identity,
        spectral_rates,
        combined_attack,
        sim_s1,
        sim_s2,
        sim_s3,
        sim_s4,
    )
}


def _suite_fingerprint(seed: int, scale: str, ctx: Optional[EngineContext]) -> str:
    """Fingerprint for the experiment-level checkpoint journal: everything
    that determines experiment outputs (seed, scale, engine config)."""
    engine = ()
    if ctx is not None:
        engine = (SOLVER_NAME, ctx.backend.name, repr(ZERO_TOL))
    return hashlib.sha256(repr((seed, scale, engine)).encode()).hexdigest()[:16]


def run_experiment(
    exp_id: str,
    seed: int = 0,
    scale: str = "default",
    ctx: Optional[EngineContext] = None,
    checkpoint: Optional[str] = None,
) -> ExperimentOutput:
    """Run one experiment by id (e.g. ``"EXP-T8"``).

    ``ctx`` configures the engine (backend, cache, counters) and, through
    its ``runtime`` policy, the retry budget for retryable failures.  The
    runner forwards it only to ``run()`` signatures that accept a ``ctx``
    parameter; experiments that have not grown one simply run with their
    own defaults.  Whenever a context was supplied, its stats snapshot is
    attached to the output so the CLI can render ``--stats``.  With
    ``checkpoint`` set, a finished experiment is journaled and replayed
    bit-identically by a rerun of the same (seed, scale, engine) suite.
    """
    from .base import scale_factor

    scale_factor(scale)  # validate up front, even for experiments that ignore it
    key = exp_id.upper()
    mod = EXPERIMENTS.get(key)
    if mod is None:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    exp_index = list(EXPERIMENTS).index(key)
    journal = open_journal(checkpoint, _suite_fingerprint(seed, scale, ctx))
    try:
        return _run_one(mod, exp_index, seed, scale, ctx, journal)
    finally:
        if journal is not None:
            journal.close()


def run_all(
    seed: int = 0,
    scale: str = "default",
    ctx: Optional[EngineContext] = None,
    checkpoint: Optional[str] = None,
) -> list[ExperimentOutput]:
    """Run the whole suite in registry order.

    With ``checkpoint`` set, every finished experiment lands in the resume
    journal as it completes; a rerun after a kill replays the finished
    prefix bit-identically and picks up at the first incomplete experiment.
    """
    journal = open_journal(checkpoint, _suite_fingerprint(seed, scale, ctx))
    try:
        return [
            _run_one(mod, i, seed, scale, ctx, journal)
            for i, mod in enumerate(EXPERIMENTS.values())
        ]
    finally:
        if journal is not None:
            journal.close()


def _run_one(mod, exp_index: int, seed: int, scale: str,
             ctx: Optional[EngineContext], journal) -> ExperimentOutput:
    if journal is not None and mod.EXP_ID in journal:
        if ctx is not None:
            ctx.counters.checkpoint_hits += 1
        out = decode_output(journal.get(mod.EXP_ID))
        if ctx is not None:
            # Tables/checks/data replay bit-identically, but the stats
            # describe *this* invocation: no engine work, one checkpoint hit.
            out.engine_stats = ctx.stats()
        return out
    out = _call_run(mod.run, exp_index, seed=seed, scale=scale, ctx=ctx)
    if ctx is not None:
        out.engine_stats = ctx.stats()
    if journal is not None:
        journal.record(mod.EXP_ID, encode_output(out))
    return out


def _call_run(run: Callable[..., ExperimentOutput], exp_index: int, seed: int,
              scale: str, ctx: Optional[EngineContext]) -> ExperimentOutput:
    """Invoke one experiment under the exp-level fault + retry machinery.

    ``exp`` fault rules match the experiment's registry position -- stable
    across runs and independent of which subset is requested by id.  A
    retryable failure (injected fault, typed convergence/instability
    error) re-runs the whole experiment up to the policy's retry budget;
    injected rules fire only on attempt 0, so one retry always recovers.
    """
    policy = resolve_policy(ctx)
    forward_ctx = ctx is not None and "ctx" in inspect.signature(run).parameters
    attempt = 0
    while True:
        try:
            fire_site("exp", index=exp_index, attempt=attempt)
            if forward_ctx:
                return run(seed=seed, scale=scale, ctx=ctx)
            return run(seed=seed, scale=scale)
        except Exception as exc:
            if not is_retryable(exc) or attempt >= policy.retries:
                raise
            attempt += 1
            if ctx is not None:
                ctx.counters.cell_retries += 1
            backoff = policy.backoff(attempt)
            if backoff > 0:
                time.sleep(backoff)
