"""The audit layer: every engine operation checked as it happens.

:class:`Auditor` implements the hook protocol ``EngineContext`` exposes
(``on_flow`` / ``on_decomposition`` / ``on_allocation`` /
``on_best_response``) at four levels:

``off``
    Not even attached; zero overhead.
``cheap``
    Self-consistency certificates on every operation: flow axioms + min-cut
    certificates on each max-flow solve, Proposition 3 structure and
    alpha-ratio consistency on each decomposition, budget balance and
    market clearing on each allocation, sweep monotonicity and the
    Theorem 8 bound on each best response.  O(instance) per operation.
``differential``
    Everything above, plus sampled re-solves against independent oracles
    (Edmonds-Karp, networkx, and -- for small instances -- the brute-force
    subset enumeration).  Sampling is counter-based, never randomized, so
    a failing run replays deterministically.
``paranoid``
    Differential with the sample period forced to 1 (every call), plus the
    proportional-response fixed-point residual on every allocation.

On violation the instance is serialized into the failure corpus (when one
is configured), after a bounded greedy shrink for graph-shaped failures,
and an :class:`~repro.exceptions.AuditError` is raised -- or merely
counted, with ``on_violation="record"``, for harvesting corpora from runs
that should keep going.  All outcomes feed ``Counters`` so ``--stats``
reports audit work next to flow calls and cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..engine.context import SOLVER_NAME, EngineContext
from ..exceptions import AuditError, EngineError
from ..flow.network import FlowNetwork
from ..graphs import WeightedGraph
from ..io.serialization import graph_to_dict, network_to_dict
from ..numeric import Backend
from .corpus import FailureCorpus, FailureRecord, backend_to_dict, now_stamp, shrink_graph
from .differential import (
    BRUTE_FORCE_LIMIT,
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..attack.best_response import BestResponse
    from ..core.allocation import Allocation
    from ..core.bottleneck import BottleneckDecomposition

__all__ = ["AUDIT_LEVELS", "AuditConfig", "Auditor", "attach_auditor"]

#: Recognized audit levels, cheapest first.
AUDIT_LEVELS = ("off", "cheap", "differential", "paranoid")


@dataclass(frozen=True)
class AuditConfig:
    """Knobs of one :class:`Auditor`.

    ``sample_period`` applies to the differential re-solves only (cheap
    certificates always run): every ``sample_period``-th flow solve and
    decomposition is cross-checked.  13 is deliberately prime so the sample
    does not alias with the loop structure of grid sweeps.
    """

    level: str = "cheap"
    sample_period: int = 13
    brute_limit: int = BRUTE_FORCE_LIMIT
    nx_node_limit: int = 48
    on_violation: str = "raise"  # or "record"
    shrink_evals: int = 60

    def __post_init__(self) -> None:
        if self.level not in AUDIT_LEVELS or self.level == "off":
            raise EngineError(
                f"audit level must be one of {AUDIT_LEVELS[1:]}, got {self.level!r}"
            )
        if self.on_violation not in ("raise", "record"):
            raise EngineError(
                f"on_violation must be 'raise' or 'record', got {self.on_violation!r}"
            )
        if self.sample_period < 1:
            raise EngineError(f"sample_period must be >= 1, got {self.sample_period}")

    @property
    def rank(self) -> int:
        return AUDIT_LEVELS.index(self.level)


class Auditor:
    """Stateful audit hook attached to one :class:`EngineContext`."""

    def __init__(self, config: AuditConfig, corpus: FailureCorpus | None = None) -> None:
        if config.level == "paranoid" and config.sample_period != 1:
            config = replace(config, sample_period=1)
        self.config = config
        self.corpus = corpus
        self._flow_seen = 0
        self._decomp_seen = 0

    # -- identification ---------------------------------------------------
    @property
    def level_name(self) -> str:
        return self.config.level

    @property
    def corpus_dir(self) -> str | None:
        return str(self.corpus.root) if self.corpus is not None else None

    @property
    def differential(self) -> bool:
        return self.config.rank >= AUDIT_LEVELS.index("differential")

    @property
    def paranoid(self) -> bool:
        return self.config.rank >= AUDIT_LEVELS.index("paranoid")

    def _sampled(self, seen: int) -> bool:
        return seen % self.config.sample_period == 0

    # -- hook protocol ----------------------------------------------------
    def on_flow(
        self,
        ctx: EngineContext,
        net: FlowNetwork,
        s: int,
        t: int,
        value,
        zero_tol: float,
    ) -> None:
        counters = ctx.counters
        counters.audit_flow_checks += 1
        problems = flow_certificate_problems(net, s, t, value, zero_tol)
        self._flow_seen += 1
        if self.differential and self._sampled(self._flow_seen):
            diff_problems, checks = differential_flow_problems(
                net, s, t, value, zero_tol,
                nx_node_limit=self.config.nx_node_limit,
            )
            counters.audit_differential_checks += checks
            if diff_problems:
                counters.audit_disagreements += len(diff_problems)
                problems = problems + diff_problems
        if problems:
            self._violation(
                ctx, "flow", problems,
                payload={
                    "network": network_to_dict(net),
                    "s": s, "t": t,
                    "zero_tol": zero_tol,
                },
            )

    def on_decomposition(
        self, ctx: EngineContext, g: WeightedGraph, decomp: "BottleneckDecomposition"
    ) -> None:
        counters = ctx.counters
        counters.audit_invariant_checks += 1
        problems = decomposition_problems(g, decomp)
        self._decomp_seen += 1
        if self.differential and self._sampled(self._decomp_seen):
            diff_problems, checks = differential_decomposition_problems(
                g, decomp, brute_limit=self.config.brute_limit
            )
            counters.audit_differential_checks += checks
            if diff_problems:
                counters.audit_disagreements += len(diff_problems)
                problems = problems + diff_problems
        if problems:
            self._violation(
                ctx, "decomposition", problems,
                payload={"graph": graph_to_dict(g)},
                backend=decomp.backend,
                shrink=(g, _decomposition_still_fails(decomp.backend)),
            )

    def on_allocation(
        self,
        ctx: EngineContext,
        g: WeightedGraph,
        decomp: "BottleneckDecomposition",
        alloc: "Allocation",
    ) -> None:
        counters = ctx.counters
        counters.audit_invariant_checks += 1
        problems = allocation_problems(g, alloc, decomp.backend)
        if self.paranoid:
            problems = problems + fixed_point_problems(alloc)
        if problems:
            self._violation(
                ctx, "allocation", problems,
                payload={"graph": graph_to_dict(g)},
                backend=decomp.backend,
                shrink=(g, _allocation_still_fails(decomp.backend, self.paranoid)),
            )

    def on_best_response(
        self, ctx: EngineContext, g: WeightedGraph, v: int, br: "BestResponse"
    ) -> None:
        ctx.counters.audit_invariant_checks += 1
        problems = best_response_problems(g, v, br)
        if problems:
            self._violation(
                ctx, "best_response", problems,
                payload={"graph": graph_to_dict(g), "vertex": v},
            )

    # -- violation path ---------------------------------------------------
    def _violation(
        self,
        ctx: EngineContext,
        kind: str,
        problems: list[str],
        payload: dict,
        backend: Backend | None = None,
        shrink: tuple[WeightedGraph, object] | None = None,
    ) -> None:
        ctx.counters.audit_violations += 1
        path = None
        if self.corpus is not None:
            if shrink is not None and self.config.shrink_evals > 0:
                g, fails = shrink
                small = shrink_graph(g, fails, max_evals=self.config.shrink_evals)
                if small.n < g.n:
                    payload = dict(payload, graph=graph_to_dict(small),
                                   shrunk_from_n=g.n)
            rec = FailureRecord(
                kind=kind,
                problems=tuple(problems),
                context={
                    "solver": SOLVER_NAME,
                    "backend": backend_to_dict(
                        backend if backend is not None else ctx.backend
                    ),
                    "zero_tol": ctx.zero_tol,
                    "level": self.config.level,
                },
                payload=payload,
                created=now_stamp(),
            )
            path = str(self.corpus.add(rec))
        message = f"{kind} audit failed: " + "; ".join(problems)
        if self.config.on_violation == "raise":
            raise AuditError(message, record_path=path)


def _decomposition_still_fails(backend: Backend):
    """Shrink predicate: does the decomposition of a sub-instance still
    violate an invariant (or fail to compute at all)?"""

    def fails(sub: WeightedGraph) -> bool:
        from ..core.bottleneck import bottleneck_decomposition

        ctx = EngineContext(cache_size=0)
        try:
            d = bottleneck_decomposition(sub, backend, ctx)
        except AuditError:
            return True
        except Exception:
            return False  # structurally invalid candidate (isolated vertex, ...)
        return bool(decomposition_problems(sub, d))

    return fails


def _allocation_still_fails(backend: Backend, paranoid: bool):
    def fails(sub: WeightedGraph) -> bool:
        from ..core.allocation import bd_allocation

        ctx = EngineContext(cache_size=0)
        try:
            alloc = bd_allocation(sub, backend=backend, ctx=ctx)
        except AuditError:
            return True
        except Exception:
            return False
        problems = allocation_problems(sub, alloc, backend)
        if paranoid:
            problems = problems + fixed_point_problems(alloc)
        return bool(problems)

    return fails


def attach_auditor(
    ctx: EngineContext,
    level: str = "cheap",
    corpus_dir: str | None = None,
    **overrides,
) -> Auditor:
    """Build an :class:`Auditor` and install it on ``ctx``.

    ``level="off"`` detaches any existing auditor and returns ``None``.
    Extra keyword arguments override :class:`AuditConfig` fields.
    """
    if level == "off":
        ctx.auditor = None
        return None
    config = AuditConfig(level=level, **overrides)
    corpus = FailureCorpus(corpus_dir) if corpus_dir is not None else None
    auditor = Auditor(config, corpus=corpus)
    ctx.auditor = auditor
    return auditor
