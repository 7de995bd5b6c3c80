"""Max-flow substrate: residual network, Dinic, and the Edmonds-Karp reference."""

from .network import FlowNetwork
from .dinic import dinic_max_flow
from .edmonds_karp import edmonds_karp_max_flow
from .mincut import min_source_side, max_source_side, cut_value
from .template import (
    FlowTemplate,
    network_from_arrays,
    network_to_arrays,
    pair_template,
    parametric_template,
)
from .verify import assert_valid_flow, node_inflow, node_outflow

__all__ = [
    "FlowNetwork",
    "FlowTemplate",
    "network_from_arrays",
    "network_to_arrays",
    "pair_template",
    "parametric_template",
    "dinic_max_flow",
    "edmonds_karp_max_flow",
    "min_source_side",
    "max_source_side",
    "cut_value",
    "assert_valid_flow",
    "node_inflow",
    "node_outflow",
]
