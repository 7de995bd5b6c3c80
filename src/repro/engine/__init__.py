"""Engine layer: decomposition cache, counters, context.

This package is a *leaf* of the library's import graph (it depends only on
``flow``, ``graphs``, ``numeric``, and ``exceptions``) so that ``core``,
``attack``, ``analysis``, ``experiments``, and the CLI can all thread one
:class:`EngineContext` without cycles.
"""

from .cache import DecompositionCache, decomposition_key, instance_signature
from .context import (
    DEFAULT_CACHE_SIZE,
    ENGINE_NAME,
    NULL_SPAN,
    SOLVER_NAME,
    ZERO_TOL,
    EngineContext,
    EngineSpec,
    default_context,
    resolve_context,
    set_flow_fault_hook,
    using_context,
)
from .counters import INT_COUNTER_FIELDS, Counters

__all__ = [
    "Counters",
    "INT_COUNTER_FIELDS",
    "NULL_SPAN",
    "DecompositionCache",
    "decomposition_key",
    "instance_signature",
    "set_flow_fault_hook",
    "DEFAULT_CACHE_SIZE",
    "EngineContext",
    "EngineSpec",
    "default_context",
    "resolve_context",
    "using_context",
    "ENGINE_NAME",
    "SOLVER_NAME",
    "ZERO_TOL",
]
