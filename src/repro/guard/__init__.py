"""Input-boundary hardening: validation, resource envelopes, fuzzing.

Three coupled layers (see DESIGN.md, "Error taxonomy & hardening"):

* :mod:`repro.guard.validate` -- the typed validation pass every public
  entry point (``repro.io`` loaders, corpus/checkpoint deserialization,
  the CLIs) runs over untrusted input before any math sees it;
* :mod:`repro.guard.resources` -- per-worker ``setrlimit`` envelopes,
  wired through :class:`~repro.runtime.RuntimePolicy` into the
  supervisor, and the fixed brute-force size cap;
* :mod:`repro.guard.fuzz` -- the seeded structure-aware fuzzer behind the
  ``repro-fuzz`` CLI that drives the public API with corrupted instances
  and asserts *typed error or audited-correct result, never
  crash/hang/NaN*, shrinking survivors into the replayable corpus.

Import discipline: this ``__init__`` (and ``validate``/``resources``)
depends only on :mod:`repro.exceptions` and :mod:`repro.numeric`, so the
graphs/flow/io layers can call into the guard without cycles.  The fuzzer
sits *above* the whole public API and is imported lazily
(``repro.guard.fuzz``), never from here.
"""

from .resources import (
    DEFAULT_BRUTEFORCE_LIMIT,
    RLIMITS_AVAILABLE,
    apply_rlimits,
    check_bruteforce_size,
    envelope_from_policy,
    translate_resource_errors,
)
from .validate import (
    MAX_EDGES,
    MAX_VERTICES,
    SERVE_OPS,
    check_scalar,
    graph_parts_from_dict,
    scalar_from_json,
    validate_graph_dict,
    validate_network_dict,
    validate_request_dict,
)

__all__ = [
    "MAX_VERTICES",
    "MAX_EDGES",
    "SERVE_OPS",
    "check_scalar",
    "graph_parts_from_dict",
    "scalar_from_json",
    "validate_graph_dict",
    "validate_network_dict",
    "validate_request_dict",
    "DEFAULT_BRUTEFORCE_LIMIT",
    "RLIMITS_AVAILABLE",
    "apply_rlimits",
    "envelope_from_policy",
    "check_bruteforce_size",
    "translate_resource_errors",
]
