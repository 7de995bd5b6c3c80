"""Cold references for the attack searches routed through the evaluator.

Each function here is the search as it ran before the searches shared
:class:`repro.attack.evaluator.CandidateEvaluator`: every candidate builds
a validated graph, solves its decomposition cold and allocates it in
full, and the lattice is walked in index order.  The equivalence tests
(``test_evaluator.py``) hold every production search to its reference bit
for bit; nothing in ``src/`` calls these.
"""

from __future__ import annotations

import numpy as np

from repro.attack import best_split
from repro.attack.combined import CombinedBestResponse
from repro.attack.general import GeneralBestResponse, GeneralSplit, neighbor_bipartitions
from repro.attack.misreport import report_weight
from repro.attack.multi_split import (
    MultiBestResponse,
    MultiSplit,
    _simplex_grid,
    set_partitions,
)
from repro.core import bd_allocation
from repro.exceptions import AttackError, SimError
from repro.graphs import WeightedGraph, cut_index_map, cut_ring_at, require_ring


def utility_of_report(g, v, x, backend, ctx):
    report = report_weight(g, v, x, backend)
    return bd_allocation(report, backend=backend, ctx=ctx).utilities[v]


def utility_curve(g, v, xs, backend, ctx):
    return [utility_of_report(g, v, x, backend, ctx) for x in xs]


def eval_misreport(g, v, grid, backend, ctx):
    honest = float(bd_allocation(g, backend=backend, ctx=ctx).utilities[v])
    wv = float(g.weights[v])
    best = honest
    for t in range(grid):
        x = wv * t / grid
        best = max(best, float(utility_of_report(g, v, x, backend, ctx)))
    return best, honest


def eval_coalition(g, v, grid, backend, ctx, partner):
    if partner == v:
        raise SimError("coalition partner must differ from the splitter")
    alloc = bd_allocation(g, backend=backend, ctx=ctx)
    honest = float(alloc.utilities[v] + alloc.utilities[partner])
    wv = backend.scalar(g.weights[v])
    wp = backend.scalar(g.weights[partner])
    imap = cut_index_map(g, v)
    best = honest
    x_steps = 4
    for t in range(1, x_steps + 1):
        x = wp * t / x_steps
        reported = report_weight(g, partner, x, backend)
        for i in range(grid + 1):
            w1 = min(wv * i / grid, wv)
            p, v1, v2 = cut_ring_at(reported, v, w1, wv - w1)
            a = bd_allocation(p, backend=backend, ctx=ctx)
            joint = float(a.utilities[v1] + a.utilities[v2]
                          + a.utilities[imap[partner]])
            if joint > best:
                best = joint
    return best, honest


def combined_attacker_utility(g, v, w1, w2, backend, ctx):
    wv = float(g.weights[v])
    if w1 < 0 or w2 < 0 or w1 + w2 > wv * (1 + 1e-12):
        raise AttackError(f"({w1}, {w2}) outside the feasible triangle for w_v={wv}")
    p, v1, v2 = cut_ring_at(g, v, backend.scalar(w1), backend.scalar(w2))
    alloc = bd_allocation(p, backend=backend, ctx=ctx)
    return float(alloc.utilities[v1] + alloc.utilities[v2])


def best_combined_split(g, v, grid, refine, backend, ctx):
    require_ring(g)
    wv = float(g.weights[v])
    honest = float(bd_allocation(g, backend=backend, ctx=ctx).utilities[v])
    evals = 0

    def U(w1, w2):
        nonlocal evals
        evals += 1
        w1 = min(max(w1, 0.0), wv)
        w2 = min(max(w2, 0.0), wv - w1)
        return combined_attacker_utility(g, v, w1, w2, backend, ctx)

    if wv == 0:
        return CombinedBestResponse(vertex=v, w1=0.0, w2=0.0, utility=0.0,
                                    diagonal_utility=0.0, honest_utility=honest,
                                    evaluations=0)
    diag = best_split(g, v, grid=max(grid, 48), backend=backend, ctx=ctx)
    diag_best = diag.utility
    best_w, best_val = (wv, 0.0), -np.inf
    for i in range(grid + 1):
        for j in range(grid + 1 - i):
            w1 = wv * i / grid
            w2 = wv * j / grid
            val = U(w1, w2)
            if val > best_val:
                best_w, best_val = (w1, w2), val
    step = wv / grid
    for _ in range(refine):
        step /= 2
        cx, cy = best_w
        for dx in (-2, -1, 0, 1, 2):
            for dy in (-2, -1, 0, 1, 2):
                w1 = min(max(cx + dx * step, 0.0), wv)
                w2 = min(max(cy + dy * step, 0.0), wv - w1)
                val = U(w1, w2)
                if val > best_val:
                    best_w, best_val = (w1, w2), val
    if diag_best > best_val:
        best_w, best_val = (diag.w1, diag.w2), diag_best
    return CombinedBestResponse(
        vertex=v, w1=best_w[0], w2=best_w[1], utility=float(best_val),
        diagonal_utility=float(diag_best), honest_utility=honest,
        evaluations=evals,
    )


def split_multi(g, v, groups, weights, backend, ctx):
    nbrs = set(g.neighbors(v))
    m = len(groups)
    if m < 1 or m > len(nbrs):
        raise AttackError(f"need 1 <= m <= d_v = {len(nbrs)}, got m = {m}")
    if len(weights) != m:
        raise AttackError("one weight per identity required")
    flat = [u for grp in groups for u in grp]
    if len(flat) != len(set(flat)) or set(flat) != nbrs or any(not grp for grp in groups):
        raise AttackError("groups must partition Gamma(v) into nonempty parts")
    ws = [backend.scalar(x) for x in weights]
    if any(x < 0 for x in ws):
        raise AttackError("identity weights must be non-negative")
    total, want = backend.total(ws), backend.scalar(g.weights[v])
    ok = (total == want) if backend.is_exact else (
        abs(float(total) - float(want)) <= backend.tol * max(1.0, float(want)))
    if not ok:
        raise AttackError(f"identity weights must sum to w_v = {g.weights[v]!r}")
    n = g.n
    copy_id = [v] + [n + i for i in range(m - 1)]
    owner = {u: copy_id[i] for i, grp in enumerate(groups) for u in grp}
    edges = []
    for (a, b) in g.edges:
        if a == v:
            edges.append((owner[b], b))
        elif b == v:
            edges.append((a, owner[a]))
        else:
            edges.append((a, b))
    new_weights = list(g.weights) + [backend.scalar(0)] * (m - 1)
    for i, cid in enumerate(copy_id):
        new_weights[cid] = ws[i]
    labels = list(g.labels) + [f"{g.labels[v]}^{i + 2}" for i in range(m - 1)]
    g2 = WeightedGraph(n + m - 1, edges, new_weights, labels)
    alloc = bd_allocation(g2, backend=backend, ctx=ctx)
    utility = backend.total([alloc.utilities[cid] for cid in copy_id])
    return MultiSplit(graph=g2, copies=tuple(copy_id), weights=tuple(ws), utility=utility)


def best_multi_split(g, v, m, steps, refine_rounds, backend, ctx):
    if g.degree(v) < m:
        raise AttackError(f"vertex {v} has degree {g.degree(v)} < m = {m}")
    wv = backend.scalar(g.weights[v])
    honest = float(bd_allocation(g, backend=backend, ctx=ctx).utilities[v])
    best = MultiBestResponse(
        vertex=v, m=m, groups=(), weights=(), utility=honest,
        honest_utility=honest, strategies_tried=0,
    )
    if wv == 0:
        return best
    tried = 0
    for groups in set_partitions(sorted(g.neighbors(v)), m):
        tried += 1

        def U(ws):
            return float(split_multi(g, v, groups, list(ws), backend, ctx).utility)

        inc_w, inc_val = None, -np.inf
        for ws in _simplex_grid(wv, m, steps):
            val = U(ws)
            if val > inc_val:
                inc_w, inc_val = ws, val
        span = wv / steps
        for _ in range(refine_rounds):
            span /= 2
            for delta in _simplex_grid(2 * span * (m - 1), m, 2 * (m - 1)):
                cand = tuple(max(0.0, x + d - span) for x, d in zip(inc_w, delta))
                s = sum(cand)
                if s == 0:
                    continue
                cand = tuple(x * wv / s for x in cand)
                val = U(cand)
                if val > inc_val:
                    inc_w, inc_val = cand, val
        if inc_val > best.utility:
            best = MultiBestResponse(
                vertex=v, m=m, groups=tuple(tuple(grp) for grp in groups),
                weights=tuple(inc_w), utility=float(inc_val),
                honest_utility=honest, strategies_tried=tried,
            )
    return MultiBestResponse(
        vertex=best.vertex, m=m, groups=best.groups, weights=best.weights,
        utility=best.utility, honest_utility=honest, strategies_tried=tried,
    )


def split_general(g, v, side2, w1, w2, backend, ctx):
    nbrs = set(g.neighbors(v))
    side2 = frozenset(side2)
    if not side2 or side2 == nbrs:
        raise AttackError("side2 must be a proper nonempty subset of Gamma(v)")
    if not side2 <= nbrs:
        raise AttackError(f"side2 {sorted(side2)} not a subset of Gamma(v)")
    w1b, w2b = backend.scalar(w1), backend.scalar(w2)
    if w1b < 0 or w2b < 0:
        raise AttackError("split weights must be non-negative")
    total, want = w1b + w2b, backend.scalar(g.weights[v])
    ok = (total == want) if backend.is_exact else (
        abs(float(total) - float(want)) <= backend.tol * max(1.0, float(want)))
    if not ok:
        raise AttackError(f"split weights do not sum to w_v = {g.weights[v]!r}")
    n = g.n
    edges = []
    for (a, b) in g.edges:
        if a == v and b in side2:
            edges.append((n, b))
        elif b == v and a in side2:
            edges.append((a, n))
        else:
            edges.append((a, b))
    weights = list(g.weights) + [w2b]
    weights[v] = w1b
    labels = list(g.labels) + [f"{g.labels[v]}^2"]
    g2 = WeightedGraph(n + 1, edges, weights, labels)
    alloc = bd_allocation(g2, backend=backend, ctx=ctx)
    return GeneralSplit(
        graph=g2, v1=v, v2=n, w1=w1b, w2=w2b,
        utility=alloc.utilities[v] + alloc.utilities[n],
    )


def best_general_split(g, v, grid, refine_iters, backend, ctx):
    if g.degree(v) < 2:
        raise AttackError("a degree-1 vertex cannot split non-degenerately")
    wv = float(g.weights[v])
    honest = float(bd_allocation(g, backend=backend, ctx=ctx).utilities[v])
    best = GeneralBestResponse(
        vertex=v, side2=frozenset(), w1=wv, w2=0.0,
        utility=honest, honest_utility=honest, strategies_tried=0,
    )
    tried = 0
    if wv == 0:
        return best
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    for side2 in neighbor_bipartitions(g, v):
        tried += 1

        def U(w1):
            w1 = min(max(w1, 0.0), wv)
            return float(split_general(g, v, side2, w1, wv - w1, backend, ctx).utility)

        xs = list(np.linspace(0.0, wv, grid + 1))
        vals = [U(x) for x in xs]
        i = int(np.argmax(vals))
        w_best, v_best = xs[i], vals[i]
        a = max(0.0, w_best - wv / grid)
        b = min(wv, w_best + wv / grid)
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = U(c), U(d)
        for _ in range(refine_iters):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = U(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = U(d)
        for w, val in ((c, fc), (d, fd)):
            if val > v_best:
                w_best, v_best = w, val
        if v_best > best.utility:
            best = GeneralBestResponse(
                vertex=v, side2=side2, w1=float(w_best), w2=float(wv - w_best),
                utility=float(v_best), honest_utility=honest, strategies_tried=tried,
            )
    return GeneralBestResponse(
        vertex=best.vertex, side2=best.side2, w1=best.w1, w2=best.w2,
        utility=best.utility, honest_utility=honest, strategies_tried=tried,
    )
