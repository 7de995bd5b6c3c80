"""Graph substrate: weighted undirected graphs, builders, ring helpers."""

from .weighted_graph import WeightedGraph
from .columnar import (
    ColumnarGraph,
    canonical_form,
    canonical_signature_bytes,
    graph_signature_bytes,
    graph_structure_bytes,
    weight_bytes,
)
from .builders import (
    ring,
    path,
    star,
    complete,
    grid2d,
    random_weights,
    random_ring,
    random_connected_graph,
    from_edge_list,
)
from .rings import (
    ring_order,
    ring_neighbors,
    path_order,
    path_endpoints,
    cut_index_map,
    cut_ring_at,
)
from .validation import (
    check_no_isolated,
    require_finite_weights,
    require_positive_weights,
    require_ring,
    require_simple,
)

__all__ = [
    "WeightedGraph",
    "ColumnarGraph",
    "canonical_form",
    "canonical_signature_bytes",
    "graph_signature_bytes",
    "graph_structure_bytes",
    "weight_bytes",
    "ring",
    "path",
    "star",
    "complete",
    "grid2d",
    "random_weights",
    "random_ring",
    "random_connected_graph",
    "from_edge_list",
    "ring_order",
    "ring_neighbors",
    "path_order",
    "path_endpoints",
    "cut_index_map",
    "cut_ring_at",
    "require_positive_weights",
    "require_finite_weights",
    "require_ring",
    "require_simple",
    "check_no_isolated",
]
