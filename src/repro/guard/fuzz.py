"""Structure-aware fuzz harness for the public API (``repro-fuzz``).

The harness generates well-formed instances, corrupts them with mutations
modeled on the paper's own hard cases and on real serialization damage --
scalar corruption (NaN/Inf/negative/huge/tiny/non-numeric), edge rewiring,
ring breaking, 1-ulp weight near-ties (the degenerate split regimes of
Prop. 3), magnitude extremes, and JSON shape mangling -- then drives the
full public pipeline (load -> decompose -> allocate -> best-response),
optionally under the paranoid auditor, and asserts the hardening
contract:

    **typed error or audited-correct result -- never crash, hang, or
    NaN/Inf escape.**

A *rejection* (any :class:`~repro.exceptions.ReproError`) is the system
working.  A *survivor* -- an untyped exception, a non-finite value inside
an accepted result, or an iteration that blows its wall-clock budget -- is
shrunk with the corpus delta-debugger and filed as a ``fuzz``-kind
:class:`~repro.oracle.FailureRecord`, so every fuzz finding becomes a
replayable regression test (``repro-oracle replay``).

Everything is seeded: the same ``(seed, iterations)`` produces the same
instances, mutations, and verdicts, which is what lets CI pin
``repro-fuzz --iterations 300 --seed 0`` as a deterministic gate.
"""

from __future__ import annotations

import math
import signal
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Any, Callable, Optional

from ..engine import SOLVER_NAME, ZERO_TOL, EngineContext
from ..exceptions import ReproError
from ..graphs import WeightedGraph
from ..io.serialization import graph_from_dict, graph_to_dict

__all__ = [
    "FuzzOutcome",
    "FuzzReport",
    "MUTATORS",
    "base_instance",
    "mutate",
    "run_pipeline",
    "fuzz",
]

#: Escape statuses (everything except ``ok``/``rejected`` is a survivor).
ESCAPE_STATUSES = ("crash", "nonfinite", "hang")


@dataclass(frozen=True)
class FuzzOutcome:
    """Verdict of one fuzz iteration.

    ``status`` is one of ``ok`` (accepted, audited, finite), ``rejected``
    (typed error at some stage -- the contract holding), ``crash`` (untyped
    exception escaped), ``nonfinite`` (NaN/Inf inside an accepted result),
    or ``hang`` (iteration wall-clock budget exceeded).  ``stage`` names
    the pipeline stage that produced the verdict.
    """

    status: str
    stage: str
    detail: str = ""

    @property
    def escaped(self) -> bool:
        return self.status in ESCAPE_STATUSES


@dataclass
class FuzzReport:
    """Aggregate result of one :func:`fuzz` run."""

    iterations: int
    seed: int
    counts: dict = field(default_factory=dict)
    rejected_by: dict = field(default_factory=dict)
    survivors: list = field(default_factory=list)  # (payload, FuzzOutcome)
    corpus_paths: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no iteration escaped the typed-error contract."""
        return not self.survivors

    def summary(self) -> str:
        parts = [f"{self.iterations} iterations (seed {self.seed})"]
        for status in ("ok", "rejected", *ESCAPE_STATUSES):
            if self.counts.get(status):
                parts.append(f"{status}={self.counts[status]}")
        return ", ".join(parts)

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "seed": self.seed,
            "counts": dict(self.counts),
            "rejected_by": dict(self.rejected_by),
            "survivors": [
                {"status": out.status, "stage": out.stage, "detail": out.detail}
                for _, out in self.survivors
            ],
            "corpus_paths": list(self.corpus_paths),
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def _weight_family(rng: Random, n: int) -> list:
    """One weight vector from a family chosen to stress distinct regimes."""
    kind = rng.randrange(5)
    if kind == 0:       # plain uniform floats
        return [rng.uniform(0.5, 4.0) for _ in range(n)]
    if kind == 1:       # small integers (exact ties everywhere)
        return [rng.randrange(1, 6) for _ in range(n)]
    if kind == 2:       # exact rationals
        return [Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
                for _ in range(n)]
    if kind == 3:       # near-tie cluster: all weights within a few ulps
        base = rng.uniform(1.0, 2.0)
        out = []
        for _ in range(n):
            w = base
            for _ in range(rng.randrange(3)):
                w = math.nextafter(w, math.inf)
            out.append(w)
        return out
    # extreme magnitudes (the overflow regime witnessed in the corpus)
    return [rng.choice([1e-30, 1e-6, 1.0, 1e6, 1e30]) * rng.uniform(1, 2)
            for _ in range(n)]


def base_instance(rng: Random) -> dict:
    """A well-formed instance payload (ring, path, or complete graph)."""
    n = rng.randrange(3, 9)
    shape = rng.randrange(3)
    if shape == 0 or n < 4:     # ring (the paper's home turf)
        edges = [[i, (i + 1) % n] for i in range(n)]
    elif shape == 1:            # path
        edges = [[i, i + 1] for i in range(n - 1)]
    else:                       # complete
        edges = [[i, j] for i in range(n) for j in range(i + 1, n)]
    g = WeightedGraph(n, [tuple(e) for e in edges], _weight_family(rng, n))
    return graph_to_dict(g)


# ---------------------------------------------------------------------------
# mutations (all operate on the JSON payload dict, returning a new dict)
# ---------------------------------------------------------------------------

def _copy_payload(d: dict) -> dict:
    out = dict(d)
    if isinstance(out.get("edges"), list):
        out["edges"] = [list(e) if isinstance(e, list) else e for e in out["edges"]]
    if isinstance(out.get("weights"), list):
        out["weights"] = [dict(w) if isinstance(w, dict) else w for w in out["weights"]]
    if isinstance(out.get("labels"), list):
        out["labels"] = list(out["labels"])
    return out


_BAD_SCALARS = (
    {"float": float("nan").hex()},          # NaN survives hex round-trips
    {"float": "inf"},                       # fromhex accepts "inf"
    {"float": "-inf"},
    {"float": (-1.5).hex()},                # negative weight
    {"float": (1e308).hex()},               # overflow-prone magnitude
    {"float": (5e-324).hex()},              # smallest subnormal
    {"float": "0x1.gp0"},                   # malformed hex
    {"float": 42},                          # wrong encoding type
    {"frac": "1/0"},                        # zero denominator
    {"frac": "-3/7"},                       # negative rational
    {"frac": "banana"},                     # not p/q at all
    {"frac": "1/0x2"},
    {"mystery": 1},                         # unknown encoding
    "七",                                    # plain non-numeric
    None,
    True,
    [1, 2],
    -3,
    float("nan"),                           # raw JSON nan (json.loads allows it)
)


def _mut_scalar_corruption(rng: Random, d: dict) -> dict:
    """Replace one weight with a corrupted scalar encoding."""
    d = _copy_payload(d)
    ws = d.get("weights")
    if isinstance(ws, list) and ws:
        ws[rng.randrange(len(ws))] = rng.choice(_BAD_SCALARS)
    return d


def _mut_near_tie(rng: Random, d: dict) -> dict:
    """Set one weight 1 ulp away from another: the alpha near-tie class."""
    d = _copy_payload(d)
    ws = d.get("weights")
    if isinstance(ws, list) and len(ws) >= 2:
        i, j = rng.sample(range(len(ws)), 2)
        src = ws[i]
        if isinstance(src, dict) and isinstance(src.get("float"), str):
            try:
                w = float.fromhex(src["float"])
            except ValueError:
                return d
            ws[j] = {"float": math.nextafter(w, math.inf).hex()}
        elif isinstance(src, (int, float)):
            ws[j] = {"float": math.nextafter(float(src), math.inf).hex()}
    return d


def _mut_magnitude(rng: Random, d: dict) -> dict:
    """Scale one weight by an extreme factor (overflow/underflow probing)."""
    d = _copy_payload(d)
    ws = d.get("weights")
    if isinstance(ws, list) and ws:
        i = rng.randrange(len(ws))
        w = ws[i]
        factor = rng.choice([1e308, 1e-308, 1e200, 1e-200])
        if isinstance(w, dict) and isinstance(w.get("float"), str):
            try:
                ws[i] = {"float": (float.fromhex(w["float"]) * factor).hex()}
            except (ValueError, OverflowError):
                pass
        elif isinstance(w, (int, float)):
            ws[i] = {"float": (float(w) * factor).hex()}
    return d


def _mut_edge_rewire(rng: Random, d: dict) -> dict:
    """Redirect one endpoint: may create self-loops, duplicates, or
    out-of-range ids (including negative and non-integer)."""
    d = _copy_payload(d)
    edges = d.get("edges")
    n = d.get("n") if isinstance(d.get("n"), int) else 0
    if isinstance(edges, list) and edges:
        e = edges[rng.randrange(len(edges))]
        if isinstance(e, list) and len(e) == 2:
            e[rng.randrange(2)] = rng.choice(
                [rng.randrange(max(1, n)), n, n + 7, -1, 1.5, "v0"])
    return d


def _mut_ring_break(rng: Random, d: dict) -> dict:
    """Drop an edge or add a chord (breaks ring-ness, may isolate)."""
    d = _copy_payload(d)
    edges = d.get("edges")
    n = d.get("n") if isinstance(d.get("n"), int) else 0
    if isinstance(edges, list) and edges:
        if rng.random() < 0.5 or n < 4:
            edges.pop(rng.randrange(len(edges)))
        else:
            u, v = rng.sample(range(n), 2)
            edges.append([u, v])
    return d


def _mut_shape_mangle(rng: Random, d: dict) -> dict:
    """JSON shape damage: missing/retyped fields, length mismatches,
    absurd sizes, nested garbage."""
    d = _copy_payload(d)
    kind = rng.randrange(8)
    if kind == 0 and d:
        d.pop(rng.choice(list(d)))
    elif kind == 1:
        d["n"] = rng.choice(["3", -1, 3.5, None, True, 10**18, [3]])
    elif kind == 2:
        d["edges"] = rng.choice([None, "edges", 17, {"0": [0, 1]},
                                 [[0]], [[0, 1, 2]], [0, 1]])
    elif kind == 3:
        d["weights"] = rng.choice([None, "heavy", 3, {"0": 1}])
    elif kind == 4 and isinstance(d.get("weights"), list) and d["weights"]:
        d["weights"] = d["weights"][:-1]           # length mismatch
    elif kind == 5 and isinstance(d.get("weights"), list):
        d["weights"] = d["weights"] + [1]          # length mismatch (over)
    elif kind == 6:
        d["labels"] = rng.choice([[1, 2, 3], "abc", [None], [["x"]]])
    else:
        d[rng.choice(["extra", "n ", "N"])] = {"deep": [{"er": None}]}
    return d


#: Named mutation registry, applied by :func:`mutate`.
MUTATORS: tuple[tuple[str, Callable[[Random, dict], dict]], ...] = (
    ("scalar_corruption", _mut_scalar_corruption),
    ("near_tie", _mut_near_tie),
    ("magnitude", _mut_magnitude),
    ("edge_rewire", _mut_edge_rewire),
    ("ring_break", _mut_ring_break),
    ("shape_mangle", _mut_shape_mangle),
)


def mutate(rng: Random, d: dict, rounds: int = 1) -> dict:
    """Apply ``rounds`` randomly chosen mutations to a payload copy."""
    for _ in range(rounds):
        _, fn = MUTATORS[rng.randrange(len(MUTATORS))]
        d = fn(rng, d)
    return d


# ---------------------------------------------------------------------------
# the guarded pipeline
# ---------------------------------------------------------------------------

def _nonfinite_in(values) -> Optional[float]:
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            return v
    return None


class _IterationTimeout(Exception):
    """Internal: one fuzz iteration blew its wall-clock budget."""


def run_pipeline(payload: Any, ctx: Optional[EngineContext] = None,
                 grid: int = 6) -> FuzzOutcome:
    """Drive the public pipeline on one (possibly malformed) payload.

    Stages: ``load`` (boundary validation + construction), ``decompose``,
    ``allocate``, and -- for rings -- ``best_response``.  Returns a
    :class:`FuzzOutcome`; never raises for input-dependent failures (only
    for harness bugs, which is exactly what the fuzz loop wants to
    surface as ``crash``).
    """
    from ..core import bd_allocation, bottleneck_decomposition

    ctx = ctx if ctx is not None else EngineContext()
    stage = "load"
    try:
        g = graph_from_dict(payload)
        stage = "decompose"
        decomp = bottleneck_decomposition(g, ctx.backend, ctx)
        bad = _nonfinite_in(float(p.alpha) if isinstance(p.alpha, Fraction)
                            else p.alpha for p in decomp.pairs)
        if bad is not None:
            return FuzzOutcome("nonfinite", stage, f"pair alpha = {bad!r}")
        stage = "allocate"
        alloc = bd_allocation(g, backend=ctx.backend, ctx=ctx)
        bad = _nonfinite_in(u for u in alloc.utilities if isinstance(u, float))
        if bad is not None:
            return FuzzOutcome("nonfinite", stage, f"utility = {bad!r}")
        stage = "best_response"
        if g.is_ring() and g.n <= 12:
            from ..attack import best_split

            attacker = max(g.vertices(), key=lambda v: (float(g.weights[v]), -v))
            br = best_split(g, attacker, grid=grid, refine_iters=12, ctx=ctx)
            bad = _nonfinite_in((br.w1, br.w2, br.utility,
                                 br.honest_utility, br.ratio))
            if bad is not None:
                return FuzzOutcome("nonfinite", stage,
                                   f"best response carries {bad!r}")
        return FuzzOutcome("ok", stage)
    except ReproError as exc:
        return FuzzOutcome("rejected", stage,
                           f"{type(exc).__name__}: {exc}")
    except _IterationTimeout:
        raise
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 - the whole point
        return FuzzOutcome("crash", stage, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# survivor filing
# ---------------------------------------------------------------------------

def _shrink_payload(payload: dict, outcome: FuzzOutcome,
                    ctx: EngineContext, grid: int) -> dict:
    """Minimize a surviving payload when it still constructs a graph.

    Payloads that fail before construction (shape mangling) are filed
    as-is: the delta-debugger needs a graph to work on, and shape damage
    is already minimal in practice.
    """
    from ..oracle.corpus import shrink_graph

    try:
        g = graph_from_dict(payload)
    except Exception:
        return payload

    def still_escapes(candidate) -> bool:
        out = run_pipeline(graph_to_dict(candidate), ctx, grid=grid)
        return out.status == outcome.status

    small = shrink_graph(g, still_escapes, max_evals=60)
    return graph_to_dict(small)


def _file_survivor(payload: dict, outcome: FuzzOutcome, ctx: EngineContext,
                   corpus_dir: str, grid: int, level: str) -> str:
    from ..oracle.corpus import (
        FailureCorpus,
        FailureRecord,
        backend_to_dict,
        now_stamp,
    )

    shrunk = _shrink_payload(payload, outcome, ctx, grid)
    rec = FailureRecord(
        kind="fuzz",
        problems=(f"{outcome.status} at {outcome.stage}: {outcome.detail}",),
        context={
            "solver": SOLVER_NAME,
            "backend": backend_to_dict(ctx.backend),
            "zero_tol": ZERO_TOL,
            "level": level,
        },
        payload={"graph": shrunk, "grid": grid},
        created=now_stamp(),
    )
    return str(FailureCorpus(corpus_dir).add(rec))


# ---------------------------------------------------------------------------
# the fuzz loop
# ---------------------------------------------------------------------------

def fuzz(
    iterations: int = 300,
    seed: int = 0,
    corpus_dir: Optional[str] = None,
    audit: str = "off",
    grid: int = 6,
    iter_timeout: Optional[float] = 30.0,
) -> FuzzReport:
    """Run the seeded fuzz campaign; returns a :class:`FuzzReport`.

    ``audit`` attaches the :mod:`repro.oracle` auditor at that level
    (``paranoid`` re-checks every solve against independent oracles, so an
    *accepted* result is an audited-correct one).  ``iter_timeout`` is the
    per-iteration wall-clock budget (SIGALRM-based, main thread only;
    ``None`` disables); a blown budget is a ``hang`` escape.  Survivors are
    shrunk and filed into ``corpus_dir`` when given.
    """
    rng = Random(seed)
    ctx = EngineContext()
    if audit != "off":
        from ..oracle import attach_auditor

        # No corpus_dir here on purpose: an audit violation on a *mutated*
        # instance raises AuditError, which the pipeline classifies as a
        # typed rejection -- expected float degradation on adversarial
        # magnitudes, not a contract escape.  Filing is reserved for true
        # survivors (crash/hang/nonfinite), below.
        attach_auditor(ctx, level=audit)
    report = FuzzReport(iterations=iterations, seed=seed)
    counts = report.counts

    use_alarm = (
        iter_timeout is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    old_handler = None
    if use_alarm:
        def _on_alarm(signum, frame):
            raise _IterationTimeout()

        old_handler = signal.signal(signal.SIGALRM, _on_alarm)

    try:
        for i in range(iterations):
            payload = base_instance(rng)
            if rng.random() > 0.15:  # keep ~15% clean as a sanity stream
                payload = mutate(rng, payload, rounds=1 + rng.randrange(3))
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, iter_timeout)
            try:
                outcome = run_pipeline(payload, ctx, grid=grid)
            except _IterationTimeout:
                outcome = FuzzOutcome(
                    "hang", "pipeline",
                    f"iteration {i} exceeded {iter_timeout:g}s wall clock")
            finally:
                if use_alarm:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
            if outcome.status == "rejected":
                key = outcome.detail.split(":", 1)[0]
                report.rejected_by[key] = report.rejected_by.get(key, 0) + 1
            if outcome.escaped:
                report.survivors.append((payload, outcome))
                if corpus_dir is not None:
                    report.corpus_paths.append(_file_survivor(
                        payload, outcome, ctx, corpus_dir, grid, audit))
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
    return report
