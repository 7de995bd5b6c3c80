"""Boundary validation: one typed pass over every untrusted input shape.

The math layers (decomposition, allocation, best response) assume
well-formed instances -- finite non-negative weights, simple graphs,
consistent sizes.  Anything that enters from *outside* the process (JSON
files, corpus records, checkpoint journals, CLI arguments, fuzzed bytes)
goes through the predicates here first, so malformed input dies at the
boundary with a :class:`~repro.exceptions.MalformedInputError` instead of
surfacing deep inside the parametric machinery as a ``ZeroDivisionError``,
an ``IndexError``, or -- worst -- a silently computed ``alpha = nan``.

Every predicate is pure and cheap (no graph is constructed here); the
constructors in :mod:`repro.graphs` and :mod:`repro.flow` keep their own
structural checks and this layer handles the representation-level garbage
those checks were never meant to see.  A graph payload's pass also makes
the constructor's two structural checks (no self-loop, no duplicate
edge, both :class:`~repro.exceptions.GraphError`), so
:func:`repro.io.graph_from_dict` builds from the decoded parts without
checking anything twice.

A process-wide switch (:func:`set_validation` / :func:`validation_enabled`)
lets trusted hot paths opt out of the deep scalar re-checks; the default is
on, and the fuzz harness asserts the on-path never crashes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import index as _as_index
from typing import Any, Optional

from ..exceptions import GraphError, MalformedInputError
from ..numeric import Scalar

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
    "set_validation",
    "validation_enabled",
]

#: Hard ceiling on vertex counts accepted from untrusted input.  Large
#: enough for any sweep this library runs (the full-scale experiments top
#: out at n = 64), small enough that an adversarial ``"n": 10**18`` is
#: rejected before a single adjacency list is allocated.
MAX_VERTICES = 1 << 22

#: Matching ceiling on edge/arc list lengths.
MAX_EDGES = 1 << 24

_FRACTION_RE = re.compile(r"^(-?\d+)/(\d+)$")

#: Process-wide validation switch (see :func:`set_validation`).
_VALIDATION = True


def set_validation(enabled: bool) -> bool:
    """Toggle deep boundary validation process-wide; returns the old value.

    The fast path (``enabled=False``) is for trusted internal
    reconstructions -- e.g. re-materializing thousands of checkpointed
    cells whose scalars were validated when first computed.  Public entry
    points never consult this switch for *shape* checks, only for the
    per-scalar re-checks.
    """
    global _VALIDATION
    old = _VALIDATION
    _VALIDATION = bool(enabled)
    return old


def validation_enabled() -> bool:
    return _VALIDATION


def _reject(what: str, obj: Any) -> MalformedInputError:
    return MalformedInputError(f"{what}: {obj!r}")


def check_scalar(
    value: Any,
    *,
    what: str = "scalar",
    allow_negative: bool = False,
    allow_positive_inf: bool = False,
) -> Scalar:
    """Validate one in-memory scalar; returns it unchanged.

    Rejects non-numeric types (strings, None, bools, containers), NaN,
    infinities (``allow_positive_inf`` admits ``+inf`` for the flow
    networks' unbounded bipartite arcs), and -- unless ``allow_negative``
    -- negative values.  ``bool`` is rejected explicitly even though it
    subclasses ``int``: a weight of ``True`` is always a serialization bug
    upstream.
    """
    if not _VALIDATION:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise _reject(f"{what} is not a number", value)
    if isinstance(value, float) and not math.isfinite(value):
        if not (allow_positive_inf and value == math.inf):
            raise _reject(f"{what} is not finite", value)
    if not allow_negative and value < 0:
        raise _reject(f"{what} is negative", value)
    return value


def scalar_from_json(obj: Any, *, what: str = "scalar",
                     allow_negative: bool = False,
                     allow_positive_inf: bool = False) -> Scalar:
    """Decode one exact-serialized scalar with full boundary validation.

    Accepts the three encodings :mod:`repro.io.serialization` writes --
    plain int/float, ``{"frac": "p/q"}``, ``{"float": "<hex>"}`` -- and
    raises :class:`MalformedInputError` for everything else: unknown
    encodings, malformed or zero-denominator fraction strings, hex strings
    that decode to NaN/Inf, and negative values where the consumer
    (weights, capacities) requires non-negative.
    """
    if isinstance(obj, dict):
        if len(obj) != 1:
            # {"frac": ..., "float": ...} is ambiguous; which encoding wins
            # would depend on key-check order, so refuse outright.
            raise _reject(f"{what} encoding must have exactly one key", obj)
        if "frac" in obj:
            text = obj["frac"]
            if not isinstance(text, str):
                raise _reject(f"{what} fraction encoding is not a string", text)
            m = _FRACTION_RE.match(text)
            if m is None:
                raise _reject(f"{what} is not a 'p/q' fraction", text)
            num, den = int(m.group(1)), int(m.group(2))
            if den == 0:
                raise _reject(f"{what} has a zero denominator", text)
            return check_scalar(Fraction(num, den), what=what,
                                allow_negative=allow_negative,
                                allow_positive_inf=allow_positive_inf)
        if "float" in obj:
            text = obj["float"]
            if not isinstance(text, str):
                raise _reject(f"{what} float encoding is not a hex string", text)
            try:
                value = float.fromhex(text)
            except (ValueError, OverflowError) as exc:
                raise MalformedInputError(
                    f"{what} is not a valid float hex string: {text!r} ({exc})"
                ) from exc
            return check_scalar(value, what=what, allow_negative=allow_negative,
                                allow_positive_inf=allow_positive_inf)
        raise _reject(f"unknown {what} encoding", obj)
    return check_scalar(obj, what=what, allow_negative=allow_negative,
                        allow_positive_inf=allow_positive_inf)


def _check_count(obj: Any, what: str, limit: int) -> int:
    """An exact non-negative integer bounded by ``limit``."""
    if isinstance(obj, bool):
        raise _reject(f"{what} is not an integer", obj)
    try:
        n = _as_index(obj)
    except TypeError as exc:
        raise _reject(f"{what} is not an integer", obj) from exc
    if n < 0:
        raise _reject(f"{what} is negative", n)
    if n > limit:
        raise MalformedInputError(
            f"{what} {n} exceeds the boundary limit {limit}; refusing to "
            f"materialize"
        )
    return n


def _check_endpoint(obj: Any, n: int, what: str) -> int:
    if isinstance(obj, bool):
        raise _reject(f"{what} endpoint is not an integer", obj)
    try:
        u = _as_index(obj)
    except TypeError as exc:
        raise _reject(f"{what} endpoint is not an integer", obj) from exc
    if not 0 <= u < n:
        raise MalformedInputError(f"{what} endpoint {u} out of range for n={n}")
    return u


def validate_graph_dict(d: Any) -> dict:
    """Shape-validate a ``graph_to_dict`` payload; returns ``d`` unchanged.

    Checks everything that must hold *before* ``WeightedGraph`` is asked to
    construct: the payload is a dict with integer ``n`` (bounded by
    :data:`MAX_VERTICES`), ``edges`` is a sequence of in-range integer
    pairs, ``weights`` is a sequence of exactly ``n`` valid non-negative
    scalars, and ``labels`` (if present) is ``n`` strings.  Structural
    graph errors (self-loops, duplicate edges in either orientation) raise
    the constructor's :class:`~repro.exceptions.GraphError` taxonomy.
    """
    _check_graph_payload(d, decode=_VALIDATION)
    return d


def graph_parts_from_dict(d: Any) -> tuple[int, list, list]:
    """:func:`validate_graph_dict`'s pass that also returns what the graph
    is built from: ``(n, edges, weights)``, the edges as checked integer
    pairs and each weight decoded once (whatever the validation switch
    says)."""
    return _check_graph_payload(d, decode=True)


def _check_graph_payload(d: Any,
                         decode: bool) -> tuple[int, list, Optional[list]]:
    """The checks of :func:`validate_graph_dict`, returning ``(n, edges,
    weights)``; the weights are decoded only when ``decode`` is set."""
    if not isinstance(d, dict):
        raise _reject("graph payload is not an object", type(d).__name__)
    for key in ("n", "edges", "weights"):
        if key not in d:
            raise MalformedInputError(f"graph payload is missing field {key!r}")
    n = _check_count(d["n"], "vertex count", MAX_VERTICES)
    edges = d["edges"]
    if not isinstance(edges, (list, tuple)):
        raise _reject("graph edges is not a list", edges)
    if len(edges) > MAX_EDGES:
        raise MalformedInputError(
            f"edge count {len(edges)} exceeds the boundary limit {MAX_EDGES}"
        )
    pairs = []
    seen = set()
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise _reject("graph edge is not a (u, v) pair", e)
        u = _check_endpoint(e[0], n, "edge")
        v = _check_endpoint(e[1], n, "edge")
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(key)
        pairs.append((u, v))
    weights = d["weights"]
    if not isinstance(weights, (list, tuple)):
        raise _reject("graph weights is not a list", weights)
    if len(weights) != n:
        raise MalformedInputError(
            f"graph payload has {len(weights)} weights for n={n}"
        )
    decoded = None
    if decode:
        decoded = [scalar_from_json(w, what=f"weight of vertex {i}")
                   for i, w in enumerate(weights)]
    labels = d.get("labels")
    if labels is not None:
        if not isinstance(labels, (list, tuple)) or len(labels) != n:
            raise _reject(f"graph labels is not a list of {n} strings", labels)
        for lab in labels:
            if not isinstance(lab, str):
                raise _reject("graph label is not a string", lab)
    return n, pairs, decoded


#: Operations the ``repro-serve`` wire protocol accepts.  ``solve`` is the
#: workload; the rest are control-plane (liveness probe, counters snapshot,
#: graceful drain, immediate shutdown).
SERVE_OPS = ("solve", "ping", "stats", "drain", "shutdown")

#: Ceiling on request-id length; ids are opaque client correlation tokens
#: echoed back verbatim, so an adversarial megabyte id must die here, not
#: get copied into every response.
_MAX_REQUEST_ID_LEN = 256

#: Ceiling on a request's ``deadline_ms`` budget (24 h): a deadline is a
#: *bound* on how long the client will wait, so absurd values signal a
#: confused client (seconds vs milliseconds, say) rather than intent.
_MAX_DEADLINE_MS = 24 * 3600 * 1000


def validate_request_dict(d: Any) -> dict:
    """Shape-validate one ``repro-serve`` request envelope; returns ``d``.

    Checks the *envelope* only: the payload is a dict, ``op`` names a known
    operation, ``id`` (if present) is a bounded string/int correlation
    token, and ``deadline_ms`` (if present) is a finite positive budget in
    milliseconds.  A ``solve`` request must carry a ``graph`` field, but the graph
    payload itself is validated by :func:`validate_graph_dict` at
    construction time -- same two-stage discipline as every other boundary.
    """
    if not isinstance(d, dict):
        raise _reject("request is not an object", type(d).__name__)
    op = d.get("op")
    if not isinstance(op, str):
        raise _reject("request op is not a string", op)
    if op not in SERVE_OPS:
        raise MalformedInputError(
            f"unknown request op {op!r}; expected one of {', '.join(SERVE_OPS)}"
        )
    req_id = d.get("id")
    if req_id is not None and not isinstance(req_id, (str, int)):
        raise _reject("request id is not a string or integer", req_id)
    if isinstance(req_id, bool):
        raise _reject("request id is not a string or integer", req_id)
    if isinstance(req_id, str) and len(req_id) > _MAX_REQUEST_ID_LEN:
        raise MalformedInputError(
            f"request id length {len(req_id)} exceeds {_MAX_REQUEST_ID_LEN}"
        )
    if op == "solve" and "graph" not in d:
        raise MalformedInputError("solve request is missing field 'graph'")
    deadline_ms = d.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise _reject("request deadline_ms is not a number", deadline_ms)
        if not math.isfinite(deadline_ms) or deadline_ms <= 0:
            raise MalformedInputError(
                f"request deadline_ms must be a finite positive number of "
                f"milliseconds, got {deadline_ms!r}"
            )
        if deadline_ms > _MAX_DEADLINE_MS:
            raise MalformedInputError(
                f"request deadline_ms {deadline_ms:g} exceeds the "
                f"{_MAX_DEADLINE_MS} ms ceiling"
            )
    return d


def validate_network_dict(d: Any) -> dict:
    """Shape-validate a ``network_to_dict`` payload; returns ``d`` unchanged.

    Mirrors :func:`validate_graph_dict` for flow networks: integer ``n``
    with at least a source and a sink, and ``arcs`` as a bounded sequence
    of ``[u, v, capacity]`` triples with in-range endpoints and valid
    non-negative capacity encodings.
    """
    if not isinstance(d, dict):
        raise _reject("network payload is not an object", type(d).__name__)
    for key in ("n", "arcs"):
        if key not in d:
            raise MalformedInputError(f"network payload is missing field {key!r}")
    n = _check_count(d["n"], "node count", MAX_VERTICES)
    if n < 2:
        raise MalformedInputError(
            f"network payload needs at least a source and a sink, got n={n}"
        )
    arcs = d["arcs"]
    if not isinstance(arcs, (list, tuple)):
        raise _reject("network arcs is not a list", arcs)
    if len(arcs) > MAX_EDGES:
        raise MalformedInputError(
            f"arc count {len(arcs)} exceeds the boundary limit {MAX_EDGES}"
        )
    for a in arcs:
        if not isinstance(a, (list, tuple)) or len(a) != 3:
            raise _reject("network arc is not a [u, v, cap] triple", a)
        _check_endpoint(a[0], n, "arc")
        _check_endpoint(a[1], n, "arc")
        if _VALIDATION:
            scalar_from_json(a[2], what="arc capacity", allow_positive_inf=True)
    return d
