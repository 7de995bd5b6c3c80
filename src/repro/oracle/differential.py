"""Differential oracles: re-solve against independent implementations.

Certificates (``invariants.flow_certificate_problems``) catch a solver that
is inconsistent *with itself*; they cannot catch one that confidently
returns the wrong optimum with a matching wrong cut.  The differential
layer closes that gap by re-solving sampled calls against genuinely
independent references:

* Edmonds-Karp (:mod:`repro.flow.edmonds_karp`), a second augmenting-path
  implementation and the only flow reference on the exact backend;
* ``networkx.maximum_flow_value`` -- an external implementation sharing no
  code with this library (float-capacity networks only; networkx's preflow
  push mixes ``float('inf')`` into its arithmetic, which would corrupt
  ``Fraction`` capacities);
* for decompositions on small instances, the exponential subset-enumeration
  oracle in :mod:`repro.core.bruteforce`.

Every function returns ``(problems, checks_run)`` so the auditor can feed
both the violation path and the ``--stats`` counters.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..core.bruteforce import brute_force_decomposition, brute_force_min_alpha
from ..exceptions import ReproError
from ..flow.edmonds_karp import edmonds_karp_max_flow
from ..flow.network import FlowNetwork
from ..graphs import WeightedGraph
from .invariants import _close

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.bottleneck import BottleneckDecomposition

try:  # networkx ships as a dependency, but stay importable without it
    import networkx as _nx
except ImportError:  # pragma: no cover - exercised only on trimmed installs
    _nx = None

__all__ = [
    "differential_flow_problems",
    "networkx_max_flow_value",
    "differential_decomposition_problems",
]

#: Hard cap on brute-force subset enumeration (2^n subsets per pair).
BRUTE_FORCE_LIMIT = 10


def _pristine(net: FlowNetwork) -> FlowNetwork:
    """A copy of ``net`` with construction-time capacities (no routed flow)."""
    out = net.clone()
    out.reset()
    return out


def differential_flow_problems(
    net: FlowNetwork,
    s: int,
    t: int,
    value,
    zero_tol: float,
    nx_node_limit: int = 0,
) -> tuple[list[str], int]:
    """Re-solve the original network with Edmonds-Karp (and networkx).

    ``net`` is the already-solved network (its ``orig_cap`` recovers the
    instance) and ``value`` the engine's Dinic answer under audit.  When
    ``nx_node_limit`` is positive and the network is float-capacity with
    at most that many nodes, networkx is consulted as well.
    """
    problems: list[str] = []
    checks = 1
    try:
        ek_value = edmonds_karp_max_flow(_pristine(net), s, t, zero_tol)
    except ReproError as exc:
        problems.append(
            f"reference solver 'edmonds_karp' failed on the instance: {exc}")
    else:
        if not _close(ek_value, value):
            problems.append(
                f"solver disagreement: 'dinic' = {value!r}, "
                f"'edmonds_karp' = {ek_value!r}"
            )
    if nx_node_limit and net.n <= nx_node_limit:
        nx_value = networkx_max_flow_value(net, s, t)
        if nx_value is not None:
            checks += 1
            if not _close(nx_value, value):
                problems.append(
                    f"solver disagreement: 'dinic' = {value!r}, "
                    f"networkx = {nx_value!r}"
                )
    return problems, checks


def networkx_max_flow_value(net: FlowNetwork, s: int, t: int):
    """Max-flow value per networkx, or ``None`` when not applicable.

    Applicable means: networkx importable and every capacity a float/int
    (exact ``Fraction`` networks are out of scope, see module docstring).
    Parallel forward arcs are merged by capacity addition, which preserves
    the max-flow value.
    """
    if _nx is None:
        return None
    G = _nx.DiGraph()
    G.add_nodes_from(range(net.n))
    for arc in range(0, net.num_arcs, 2):
        cap = net.orig_cap[arc]
        if not isinstance(cap, (int, float)):
            return None
        u, v = net.head[arc ^ 1], net.head[arc]
        if G.has_edge(u, v):
            prev = G[u][v].get("capacity", math.inf)
            if math.isinf(prev) or (isinstance(cap, float) and math.isinf(cap)):
                G[u][v].pop("capacity", None)  # uncapacitated in networkx
            else:
                G[u][v]["capacity"] = prev + cap
        elif isinstance(cap, float) and math.isinf(cap):
            G.add_edge(u, v)  # missing capacity attribute = infinite
        else:
            G.add_edge(u, v, capacity=cap)
    try:
        return _nx.maximum_flow_value(G, s, t)
    except Exception:
        # networkx's preflow push has internal edge cases on extreme
        # capacity magnitudes (fuzz-found: ~1e±99 spreads raise a bare
        # ValueError from relabel()).  A reference that cannot solve the
        # instance is an unavailable oracle, not a disagreement -- and
        # never an untyped crash out of the audit layer.
        return None


def differential_decomposition_problems(
    g: WeightedGraph,
    d: "BottleneckDecomposition",
    brute_limit: int = BRUTE_FORCE_LIMIT,
) -> tuple[list[str], int]:
    """Cross-check a decomposition against the subset-enumeration oracle.

    Instances above ``brute_limit`` vertices are skipped (the oracle is
    exponential).  With the exact backend the full decomposition must match
    literally; with floats only the headline quantity -- the global minimum
    alpha, i.e. the first pair's ratio -- is compared (the enumeration uses
    the same arithmetic, so agreement to relative ``1e-9`` is expected,
    while tie-breaking of *sets* near equal ratios may legitimately differ
    by an ulp's worth of rounding).
    """
    if g.n > brute_limit:
        return [], 0
    backend = d.backend
    problems: list[str] = []
    if backend.is_exact:
        try:
            ref = brute_force_decomposition(g, backend)
        except ReproError as exc:
            return [f"brute-force oracle failed on the instance: {exc}"], 1
        if len(ref.pairs) != len(d.pairs):
            problems.append(
                f"brute force finds {len(ref.pairs)} pairs, decomposition has {len(d.pairs)}"
            )
        else:
            for p, q in zip(d.pairs, ref.pairs):
                if (p.B, p.C, p.alpha) != (q.B, q.C, q.alpha):
                    problems.append(
                        f"pair {p.index} disagrees with brute force: "
                        f"(B={sorted(p.B)}, C={sorted(p.C)}, a={p.alpha}) vs "
                        f"(B={sorted(q.B)}, C={sorted(q.C)}, a={q.alpha})"
                    )
        return problems, 1
    try:
        ref_alpha = brute_force_min_alpha(g, backend=backend)
    except ReproError as exc:
        return [f"brute-force oracle failed on the instance: {exc}"], 1
    if ref_alpha is None:
        return [], 1
    first = d.pairs[0].alpha
    if not _close(first, ref_alpha):
        problems.append(
            f"first alpha {first!r} disagrees with brute-force minimum {ref_alpha!r}"
        )
    return problems, 1
