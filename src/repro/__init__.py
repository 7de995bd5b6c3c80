"""repro: resource sharing over rings -- proportional response, bottleneck
decomposition, and Sybil-attack incentive ratios.

A computational companion to Cheng, Deng & Li, "Tightening Up the Incentive
Ratio for Resource Sharing Over the Rings" (IPDPS 2020).  See README.md for
a guided tour and DESIGN.md for the paper -> module map.

Public API highlights
---------------------
Graphs:      :class:`~repro.graphs.WeightedGraph`, :func:`~repro.graphs.ring`
Mechanism:   :func:`~repro.core.bottleneck_decomposition`,
             :func:`~repro.core.bd_allocation`,
             :func:`~repro.core.proportional_response`
Attacks:     :func:`~repro.attack.split_ring`, :func:`~repro.attack.best_split`,
             :func:`~repro.attack.incentive_ratio`,
             :func:`~repro.attack.lower_bound_ring`
Engine:      :class:`~repro.engine.EngineContext` (backend, caching,
             counters -- thread one through any of the calls above)
Theory:      :mod:`repro.theory` (executable propositions/lemmas)
Experiments: :func:`repro.experiments.run_experiment` / the ``repro-exp`` CLI
"""

from ._version import __version__
from .numeric import EXACT, FLOAT, Backend, make_float_backend
from .engine import EngineContext, EngineSpec
from .exceptions import ReproError
from .graphs import WeightedGraph, ring, path, random_ring
from .core import (
    bottleneck_decomposition,
    bd_allocation,
    proportional_response,
    BottleneckDecomposition,
    Allocation,
)
from .attack import (
    split_ring,
    best_split,
    incentive_ratio,
    lower_bound_ring,
    lower_bound_series,
)

__all__ = [
    "__version__",
    "EXACT",
    "FLOAT",
    "Backend",
    "make_float_backend",
    "EngineContext",
    "EngineSpec",
    "ReproError",
    "WeightedGraph",
    "ring",
    "path",
    "random_ring",
    "bottleneck_decomposition",
    "bd_allocation",
    "proportional_response",
    "BottleneckDecomposition",
    "Allocation",
    "split_ring",
    "best_split",
    "incentive_ratio",
    "lower_bound_ring",
    "lower_bound_series",
]
