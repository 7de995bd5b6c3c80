"""Replay corpus records against a fresh engine.

A replay re-runs the recorded failing call -- same backend, same
zero-tolerance, through the engine's Dinic solve -- and applies the *same*
invariant predicates the auditor used, at the audit level stored in the
record.  The verdict is ``reproduced`` when any predicate still fails (or
the computation itself raises), ``clean`` when the historical failure no
longer manifests.  A record naming any solver but Dinic cannot be
replayed and raises :class:`~repro.exceptions.CorpusError`.

Replaying never consults the ``problems`` text stored in the record: those
document what was seen at record time, while the verdict must reflect the
code under test now.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import SOLVER_NAME, ZERO_TOL, EngineContext
from ..exceptions import (
    ConvergenceError,
    CorpusError,
    NumericalInstabilityError,
    ReproError,
)
from ..io.serialization import graph_from_dict, network_from_dict
from .corpus import FailureCorpus, FailureRecord, backend_from_dict
from .differential import (
    differential_decomposition_problems,
    differential_flow_problems,
)
from .invariants import (
    allocation_problems,
    best_response_problems,
    decomposition_problems,
    fixed_point_problems,
    flow_certificate_problems,
)

__all__ = ["ReplayResult", "replay_record", "replay_corpus"]


@dataclass(frozen=True)
class ReplayResult:
    """Verdict of one record replay."""

    kind: str
    reproduced: bool
    problems: tuple[str, ...]

    @property
    def verdict(self) -> str:
        return "REPRODUCED" if self.reproduced else "clean"


def _context(rec: FailureRecord) -> EngineContext:
    solver = rec.context.get("solver", SOLVER_NAME)
    if solver != SOLVER_NAME:
        raise CorpusError(
            f"record needs solver {solver!r}; only {SOLVER_NAME!r} exists")
    zero_tol = rec.context.get("zero_tol", ZERO_TOL)
    if zero_tol != ZERO_TOL:
        raise CorpusError(
            f"record needs zero_tol {zero_tol!r}; the engine's is {ZERO_TOL!r}")
    return EngineContext(
        backend=backend_from_dict(rec.context.get("backend", {"tol": 0.0})),
        cache_size=0,
    )


def replay_record(rec: FailureRecord) -> ReplayResult:
    """Re-run one record's failing call and re-apply its audit predicates."""
    ctx = _context(rec)
    level = rec.context.get("level", "cheap")
    differential = level in ("differential", "paranoid")
    try:
        if rec.kind == "flow":
            problems = _replay_flow(rec, ctx, differential)
        elif rec.kind == "decomposition":
            problems = _replay_decomposition(rec, ctx, differential)
        elif rec.kind == "allocation":
            problems = _replay_allocation(rec, ctx, level == "paranoid")
        elif rec.kind == "best_response":
            problems = _replay_best_response(rec, ctx)
        elif rec.kind == "fuzz":
            problems = _replay_fuzz(rec, ctx)
        else:  # pragma: no cover - FailureRecord validates kinds
            raise CorpusError(f"unknown record kind {rec.kind!r}")
    except CorpusError:
        raise
    except (ConvergenceError, NumericalInstabilityError):
        # Typed graceful degradation, not a reproduction: the engine now
        # *detects* the degeneracy (NaN/Inf flow value, non-convergent
        # iteration) and raises a structured, retryable error where it
        # historically returned silently wrong numbers.  The failure the
        # record witnessed -- bad output passing as good -- can no longer
        # manifest, so the record is clean; the supervisor's retry and
        # exact-backend escalation handle the raise at runtime.
        problems = []
    except ReproError as exc:
        # The recorded call itself still blows up -- strongest reproduction.
        problems = [f"{type(exc).__name__}: {exc}"]
    return ReplayResult(
        kind=rec.kind, reproduced=bool(problems), problems=tuple(problems)
    )


def _replay_flow(rec: FailureRecord, ctx: EngineContext, differential: bool) -> list[str]:
    p = rec.payload
    net = network_from_dict(p["network"])
    s, t, zero_tol = p["s"], p["t"], p.get("zero_tol", ZERO_TOL)
    value = ctx.max_flow(net, s, t, zero_tol=zero_tol)
    problems = flow_certificate_problems(net, s, t, value, zero_tol)
    if differential:
        diff, _ = differential_flow_problems(
            net, s, t, value, zero_tol, nx_node_limit=64)
        problems += diff
    return problems


def _replay_decomposition(
    rec: FailureRecord, ctx: EngineContext, differential: bool
) -> list[str]:
    from ..core.bottleneck import bottleneck_decomposition

    g = graph_from_dict(rec.payload["graph"])
    d = bottleneck_decomposition(g, ctx.backend, ctx)
    problems = decomposition_problems(g, d)
    if differential:
        diff, _ = differential_decomposition_problems(g, d)
        problems += diff
    return problems


def _replay_allocation(rec: FailureRecord, ctx: EngineContext, paranoid: bool) -> list[str]:
    from ..core.allocation import bd_allocation

    g = graph_from_dict(rec.payload["graph"])
    alloc = bd_allocation(g, backend=ctx.backend, ctx=ctx)
    problems = allocation_problems(g, alloc, ctx.backend)
    if paranoid:
        problems += fixed_point_problems(alloc)
    return problems


def _replay_best_response(rec: FailureRecord, ctx: EngineContext) -> list[str]:
    from ..attack.best_response import best_split

    g = graph_from_dict(rec.payload["graph"])
    v = rec.payload["vertex"]
    br = best_split(g, v, grid=rec.payload.get("grid", 32),
                    backend=ctx.backend, ctx=ctx)
    return best_response_problems(g, v, br)


def _replay_fuzz(rec: FailureRecord, ctx: EngineContext) -> list[str]:
    # Lazy: repro.guard.fuzz imports the whole public API, and the guard
    # package deliberately keeps it out of eager import chains.
    from ..guard.fuzz import run_pipeline

    level = rec.context.get("level", "off")
    if level and level != "off":
        # Audit-level escapes (e.g. a reference oracle crashing inside the
        # differential layer) only manifest with the auditor attached.
        from .audit import attach_auditor

        attach_auditor(ctx, level=level)
    outcome = run_pipeline(
        rec.payload["graph"], ctx, grid=rec.payload.get("grid", 6)
    )
    if outcome.status in ("ok", "rejected"):
        # Typed rejection IS the hardening contract holding: the payload a
        # fuzz campaign once crashed on is now refused (or handled) cleanly.
        return []
    return [f"{outcome.status} at {outcome.stage}: {outcome.detail}"]


def replay_corpus(corpus: FailureCorpus) -> list[tuple[str, ReplayResult]]:
    """Replay every record; returns ``(path, result)`` in path order."""
    results = []
    for path, rec in corpus:
        results.append((str(path), replay_record(rec)))
    return results
