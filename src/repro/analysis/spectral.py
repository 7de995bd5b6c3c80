"""Spectral convergence-rate analysis of proportional response.

The synchronous update ``x -> F(x)`` of Definition 1 is smooth around the
equilibrium; its local convergence rate is governed by the spectrum of the
Jacobian ``J = dF/dx`` at the fixed point: asymptotically the residual
shrinks by ``|lambda_2|`` per step (``lambda = 1`` directions correspond to
the conserved quantities / fixed-point manifold and do not contribute to
the residual decay of utilities), so

    iterations-to-tol  ~  log(tol) / log(rho),

with ``rho`` the largest sub-unit eigenvalue modulus.  On bipartite graphs
an eigenvalue at exactly ``-1`` produces the 2-cycles the simulator
detects; damping ``beta`` maps each eigenvalue ``lam`` to
``(1 - beta) lam + beta``... (we damp with ``x <- damping*x + (1-damping)
F(x)``, i.e. ``lam -> damping + (1-damping) lam``), which pulls ``-1``
strictly inside the unit circle -- the quantitative version of the
"damping kills bipartite oscillation" observation of EXP-CNV.

The Jacobian is assembled analytically: with ``U_v = sum_k x_kv``,

    dF_(v,u) / dx_(a,b) = [ (a,b) = (u,v) ] * w_v / U_v
                          - [ b = v ] * x_uv * w_v / U_v^2.

Everything is NumPy-dense; intended for the small/medium instances of the
convergence experiments (2m x 2m matrices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import bd_allocation
from ..exceptions import ReproError
from ..graphs import WeightedGraph
from ..graphs.columnar import ColumnarGraph
from ..numeric import FLOAT

__all__ = ["SpectralReport", "dynamics_jacobian", "spectral_report", "predicted_iterations"]


def dynamics_jacobian(g: WeightedGraph, x: np.ndarray | None = None) -> np.ndarray:
    """Jacobian of the synchronous update at allocation ``x``.

    ``x`` defaults to the BD equilibrium.  Rows/columns are indexed by the
    directed-edge order of
    :meth:`repro.graphs.columnar.ColumnarGraph.directed_arrays`, the same
    arrays the dynamics iterate over.
    """
    src, dst, rev, index = ColumnarGraph.from_graph(g).directed_arrays()
    E = len(src)
    w = np.asarray([float(t) for t in g.weights])
    if x is None:
        alloc = bd_allocation(g, backend=FLOAT)
        x = np.zeros(E)
        for (a, b), i in index.items():
            x[i] = float(alloc.x.get((a, b), 0.0))
    util = np.bincount(dst, weights=x, minlength=g.n)
    if np.any(util[src] <= 0):
        raise ReproError("Jacobian undefined: some vertex receives nothing")

    J = np.zeros((E, E))
    for e in range(E):
        v = src[e]
        Uv = util[v]
        # direct echo term: dF_e / dx_rev(e)
        J[e, rev[e]] += w[v] / Uv
        # normalization term: every edge (b -> v) contributes to U_v
        x_rev = x[rev[e]]
        for f in range(E):
            if dst[f] == v:
                J[e, f] -= x_rev * w[v] / (Uv * Uv)
    return J


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum summary of the linearized dynamics."""

    rho: float                # largest sub-unit eigenvalue modulus
    has_minus_one: bool       # eigenvalue at -1 (bipartite 2-cycle mode)
    unit_multiplicity: int    # eigenvalues on the unit circle at +1
    eigenvalues: np.ndarray

    def damped_rho(self, damping: float) -> float:
        """Convergence factor after mixing ``x <- d*x + (1-d)F(x)``."""
        lams = damping + (1.0 - damping) * self.eigenvalues
        mods = np.abs(lams)
        sub = mods[mods < 1.0 - 1e-9]
        return float(sub.max()) if sub.size else 0.0


def spectral_report(g: WeightedGraph, tol: float = 1e-9) -> SpectralReport:
    """Eigen-decompose the equilibrium Jacobian."""
    J = dynamics_jacobian(g)
    lams = np.linalg.eigvals(J)
    mods = np.abs(lams)
    unit = int(np.sum(np.abs(lams - 1.0) < 1e-7))
    minus_one = bool(np.any(np.abs(lams + 1.0) < 1e-7))
    sub = mods[mods < 1.0 - 1e-7]
    rho = float(sub.max()) if sub.size else 0.0
    return SpectralReport(rho=rho, has_minus_one=minus_one,
                          unit_multiplicity=unit, eigenvalues=lams)


def predicted_iterations(rho: float, tol: float) -> float:
    """``log(tol) / log(rho)`` -- the asymptotic iteration count."""
    if not (0 < rho < 1):
        return float("inf") if rho >= 1 else 1.0
    return float(np.log(tol) / np.log(rho))
