"""Per-request solve semantics: canonicalize, decompose, allocate, map back.

The serving layer defines one solve semantics and uses it everywhere --
worker cells, the in-process fallback, the differential audit leg, and the
test suite's reference implementation are all this module:

1. the requested instance is normalized to its **canonical representative**
   (:func:`repro.graphs.canonical_form`): for rings, the
   lexicographically-minimal rotation/reflection of the bit-exact weight
   bytes; the witnessing permutation is remembered;
2. the canonical representative is decomposed and allocated through
   :func:`repro.core.bottleneck_decomposition` +
   :func:`repro.core.bd_allocation` (the same entry points every
   experiment uses);
3. utilities/alphas/pairs are mapped back through the permutation into the
   requester's vertex ids.

Normalizing *before* solving (rather than caching opportunistically) is
load-bearing: float summation is not bit-exactly equivariant under
relabelling (``(a+b)+c`` vs ``(b+c)+a``), so per-labelling solves of
isomorphic instances could differ in the last ulp.  Canonical-form solving
makes the service **label-invariant by construction** -- isomorphic
requests receive bit-identically mapped responses, a relabelled agent can
never gain an ulp, and a cached entry serves every labelling of its
economy without a soundness gap.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import bd_allocation, bottleneck_decomposition
from ..engine import EngineContext, EngineSpec
from ..exceptions import ReproError, is_escalatable, is_retryable
from ..graphs import WeightedGraph, canonical_form
from ..graphs.builders import ring
from ..io import graph_from_dict, scalar_to_json
from ..numeric import EXACT

__all__ = [
    "canonical_dict",
    "canonical_graph",
    "canonical_request",
    "deadline_marker",
    "decode_request",
    "map_result",
    "single_shot_response",
    "solve_cell",
    "solve_cell_exact",
]


def deadline_marker(item: tuple[EngineSpec, dict]) -> dict:
    """``supervised_map``'s ``on_deadline`` hook for serve cells.

    A cell whose deadline budget runs out inside the map settles as this
    marker -- the same ``{"error": ...}`` shape :func:`solve_cell` uses for
    typed per-instance failures -- so one expired request costs one typed
    ``deadline_exceeded`` envelope, never its batch.  The server's
    ``_respond`` recognizes the type name and counts it under
    ``serve_deadline_exceeded`` rather than ``serve_errors``.
    """
    return {"error": {
        "type": "DeadlineExceededError",
        "message": "deadline_ms budget exhausted before the solve completed",
    }}


def canonical_graph(g: WeightedGraph, order: Sequence[int]) -> WeightedGraph:
    """The canonical representative ``order`` witnesses (default labels)."""
    weights = [g.weights[v] for v in order]
    if g.is_ring():
        return ring(weights)
    return WeightedGraph(g.n, g.edges, g.weights, validate=False)


def decode_request(graph_dict: dict) -> tuple[bytes, tuple[int, ...], WeightedGraph]:
    """Decode, guard and key one solve payload: ``(key, order, graph)``.

    The graph payload goes through the full guard pass here
    (:func:`repro.io.graph_from_dict`, each weight decoded once), so
    everything past this point -- queues, workers, cache -- only ever sees
    well-formed instances.  This is all a cache hit needs besides
    :func:`map_result`; the canonical payload is built only for a new cell
    (:func:`canonical_dict`).
    """
    g = graph_from_dict(graph_dict)
    key, order = canonical_form(g)
    return key, order, g


def canonical_dict(g: WeightedGraph, order: Sequence[int]) -> dict:
    """The wire payload of the canonical representative ``order``
    witnesses.  Weights keep the exact hex/frac discipline, so the
    worker's rebuild is bit-identical."""
    cg = canonical_graph(g, order)
    return {
        "n": cg.n,
        "edges": [list(e) for e in cg.edges],
        "weights": [scalar_to_json(w) for w in cg.weights],
    }


def canonical_request(graph_dict: dict) -> tuple[bytes, tuple[int, ...], dict]:
    """:func:`decode_request` plus the canonical payload:
    ``(key, order, canonical_graph_dict)``."""
    key, order, g = decode_request(graph_dict)
    return key, order, canonical_dict(g, order)


def _encode_result(g: WeightedGraph, decomp, alloc) -> dict:
    """Solve output -> plain JSON-ready dict, canonical coordinates."""
    return {
        "n": g.n,
        "utilities": [scalar_to_json(u) for u in alloc.utilities],
        "alphas": [scalar_to_json(decomp.alpha_of(v)) for v in range(g.n)],
        "pairs": [
            {
                "index": p.index,
                "B": sorted(p.B),
                "C": sorted(p.C),
                "alpha": scalar_to_json(p.alpha),
            }
            for p in decomp.pairs
        ],
    }


def map_result(result: dict, order: Sequence[int]) -> dict:
    """Canonical-coordinate result -> the requester's vertex ids.

    ``order[k]`` is the requester's id at canonical position ``k``.  Fresh
    lists are always built (cached results are shared across responses and
    must stay immutable); error markers pass through untouched.
    """
    if "error" in result:
        return dict(result)
    n = result["n"]
    utilities: list = [None] * n
    alphas: list = [None] * n
    for k, orig in enumerate(order):
        utilities[orig] = result["utilities"][k]
        alphas[orig] = result["alphas"][k]
    pairs = [
        {
            "index": p["index"],
            "B": sorted(order[b] for b in p["B"]),
            "C": sorted(order[c] for c in p["C"]),
            "alpha": p["alpha"],
        }
        for p in result["pairs"]
    ]
    return {"n": n, "utilities": utilities, "alphas": alphas, "pairs": pairs}


def _solve_canonical(canon_dict: dict, ctx: EngineContext, backend=None) -> dict:
    g = graph_from_dict(canon_dict)
    with ctx.span("serve/solve"):
        decomp = bottleneck_decomposition(g, backend, ctx)
        alloc = bd_allocation(g, decomp, backend, ctx)
    return _encode_result(g, decomp, alloc)


def solve_cell(item: tuple[EngineSpec, dict]) -> dict:
    """One worker cell: ``(spec, canonical_graph_dict)`` -> result dict.

    Runs on the supervised pool (or in-process for ``shards=0``); the
    worker memoizes one rebuilt context per spec and registers it with the
    metrics drain, so batched solves hit a per-shard decomposition cache
    and their counters flow back to the server context.

    Error discipline: retryable/escalatable failures (injected faults,
    numeric instability, non-convergence) propagate so the supervisor's
    retry -> exact-escalation ladder applies per request; everything else
    in the typed taxonomy comes back as an ``{"error": ...}`` marker --
    one bad instance costs one error response, never the batch.
    """
    # Lazy import sidesteps the analysis -> runtime -> obs import chain at
    # package-import time; the memoized per-process context (and its drain
    # registration) is exactly what the sweep workers already use.
    from ..analysis.parallel import _context_for

    spec, canon_dict = item
    ctx = _context_for(spec)
    try:
        return _solve_canonical(canon_dict, ctx, spec.backend)
    except ReproError as exc:
        if is_retryable(exc) or is_escalatable(exc):
            raise
        return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def solve_cell_exact(item: tuple[EngineSpec, dict]) -> dict:
    """Escalation twin of :func:`solve_cell`: the exact ``Fraction`` backend.

    Wired as ``supervised_map``'s ``escalate_fn``, so a request whose float
    solve keeps failing with a typed numeric error is answered exactly
    (``frac`` encodings in the response) instead of failing the client.
    Only such cells reach it: a ring whose float solve works is always
    answered (and cached) in floats.  It keeps :func:`solve_cell`'s
    non-retryable -> error-marker discipline, so a typed failure of the
    exact solve costs its own cell an error envelope, not its batch.
    """
    spec, canon_dict = item
    from ..analysis.parallel import _context_for

    ctx = _context_for(spec)
    try:
        return _solve_canonical(canon_dict, ctx, EXACT)
    except ReproError as exc:
        if is_retryable(exc) or is_escalatable(exc):
            raise
        return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def single_shot_response(
    g: WeightedGraph,
    ctx: Optional[EngineContext] = None,
    backend=None,
) -> dict:
    """Reference response: one fresh, unbatched, uncached solve of ``g``.

    This is the serving semantics stripped of every serving mechanism --
    the differential audit leg and the soak harness compare every sampled
    served response against it bit-for-bit.  ``ctx`` defaults to a fresh
    context with the cache disabled, so nothing can be reused.
    """
    if ctx is None:
        ctx = EngineContext(cache_size=0)
    key, order = canonical_form(g)
    cg = canonical_graph(g, order)
    decomp = bottleneck_decomposition(cg, backend, ctx)
    alloc = bd_allocation(cg, decomp, backend, ctx)
    return map_result(_encode_result(cg, decomp, alloc), order)
