"""Common experiment protocol.

Every experiment module exposes ``run(seed, scale) -> ExperimentOutput``.
``scale`` selects the sweep size: ``"smoke"`` for CI-speed runs (used by the
test suite), ``"default"`` for the EXPERIMENTS.md numbers, ``"full"`` for
overnight-quality sweeps.  Outputs carry printable tables plus structured
check verdicts so both the CLI and the benchmarks can consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..engine import EngineContext, resolve_context
from ..exceptions import ExperimentError
from ..io.tables import format_table
from ..obs import SPAN_SEP
from ..runtime import decode_value, encode_value
from ..theory import CheckResult

__all__ = [
    "Table",
    "ExperimentOutput",
    "scale_factor",
    "experiment_context",
    "format_engine_stats",
    "encode_output",
    "decode_output",
]

_SCALES = ("smoke", "default", "full")


def scale_factor(scale: str) -> int:
    """Multiplier applied to sweep sizes: smoke=1, default=4, full=16."""
    if scale not in _SCALES:
        raise ExperimentError(f"unknown scale {scale!r}; pick one of {_SCALES}")
    return {"smoke": 1, "default": 4, "full": 16}[scale]


def experiment_context(ctx: Optional[EngineContext]) -> EngineContext:
    """Resolve the engine context an experiment should run under.

    ``None`` means the shared default context: identical configuration
    (Dinic, caching on, zero tolerance 0.0), so experiments behave
    bit-for-bit the same whether or not a context is supplied.
    """
    return resolve_context(ctx)


def _seconds_by_span_name(spans: dict) -> dict[str, float]:
    """Inclusive time per span name over its outermost occurrences.

    A span name may itself hold the separator (``sim/attack``), so a path
    splits into names only where a recorded path ends.  A name re-entered
    below itself (``decompose/decompose``) is already inside the outer
    interval and counts once; a name under several parents
    (``decompose`` and ``best_response/decompose``) sums.
    """
    out: dict[str, float] = {}
    for path, s in spans.items():
        names, start = [], 0
        for i, ch in enumerate(path):
            if ch == SPAN_SEP and path[:i] in spans:
                names.append(path[start:i])
                start = i + 1
        name = path[start:]
        if name not in names:
            out[name] = out.get(name, 0.0) + s["total_s"]
    return out


def format_engine_stats(stats: dict) -> str:
    """One-line human-readable rendering of ``EngineContext.stats()``."""
    cache = stats.get("cache", {})
    seconds = _seconds_by_span_name(stats.get("spans", {}))
    times = " ".join(
        f"{name}={secs:.3f}s"
        for name, secs in sorted(seconds.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    audit = ""
    if stats.get("audit_flow_checks") or stats.get("audit_invariant_checks"):
        audit = (
            f" | audit: flow={stats.get('audit_flow_checks', 0)} "
            f"invariant={stats.get('audit_invariant_checks', 0)} "
            f"differential={stats.get('audit_differential_checks', 0)} "
            f"disagreements={stats.get('audit_disagreements', 0)} "
            f"violations={stats.get('audit_violations', 0)}"
        )
    runtime_keys = (
        ("cell_retries", "retries"),
        ("cell_timeouts", "timeouts"),
        ("worker_respawns", "respawns"),
        ("precision_escalations", "escalations"),
        ("injected_faults", "injected"),
        ("checkpoint_hits", "checkpoint hits"),
    )
    if any(stats.get(k) for k, _ in runtime_keys):
        audit += " | runtime: " + " ".join(
            f"{label}={stats.get(k, 0)}" for k, label in runtime_keys
        )
    dynamics = ""
    if stats.get("dynamics_steps"):
        dynamics = f"dynamics steps={stats.get('dynamics_steps')} "
    return (
        f"engine: backend={stats.get('backend')} | "
        f"flow calls={stats.get('flow_calls')} "
        f"dinkelbach iters={stats.get('dinkelbach_iterations')} "
        f"decompositions={stats.get('decompositions')} "
        f"allocations={stats.get('allocations')} "
        + dynamics
        + f"| cache hits={cache.get('hits')} misses={cache.get('misses')} "
        f"size={cache.get('size')}/{cache.get('maxsize')}"
        + audit
        + (f" | spans: {times}" if times else "")
    )


@dataclass(frozen=True)
class Table:
    """One printable result table."""

    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence]

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


@dataclass
class ExperimentOutput:
    """Everything one experiment produced."""

    exp_id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    engine_stats: dict | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self, stats: bool = False) -> str:
        parts = [f"== {self.exp_id}: {self.title} =="]
        for t in self.tables:
            parts.append(t.render())
        for c in self.checks:
            parts.append(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.details}")
        if stats and self.engine_stats is not None:
            parts.append(format_engine_stats(self.engine_stats))
        return "\n\n".join(parts)


def encode_output(out: ExperimentOutput) -> dict:
    """Checkpoint-safe encoding of an :class:`ExperimentOutput`.

    Scalars go through the runtime's bit-exact tagged encoding (floats as
    hex, Fractions as ``p/q``), so a decoded output renders and compares
    identically to the one the experiment produced -- the property the
    experiment-level resume journal depends on.
    """
    return {
        "exp_id": out.exp_id,
        "title": out.title,
        "tables": encode_value([
            {"title": t.title, "headers": list(t.headers),
             "rows": [list(r) for r in t.rows]}
            for t in out.tables
        ]),
        "checks": encode_value([
            {"name": c.name, "ok": c.ok, "details": c.details, "data": c.data}
            for c in out.checks
        ]),
        "data": encode_value(out.data),
        "engine_stats": encode_value(out.engine_stats),
    }


def decode_output(obj: dict) -> ExperimentOutput:
    """Inverse of :func:`encode_output` (tuples round-trip as lists)."""
    tables = [
        Table(title=t["title"], headers=t["headers"], rows=t["rows"])
        for t in decode_value(obj["tables"])
    ]
    checks = [
        CheckResult(name=c["name"], ok=c["ok"], details=c["details"], data=c["data"])
        for c in decode_value(obj["checks"])
    ]
    return ExperimentOutput(
        exp_id=obj["exp_id"],
        title=obj["title"],
        tables=tables,
        checks=checks,
        data=decode_value(obj["data"]),
        engine_stats=decode_value(obj["engine_stats"]),
    )
