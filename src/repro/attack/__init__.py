"""Sybil attack machinery: splits, best responses, incentive ratios."""

from .sybil import (
    SplitOutcome,
    attacker_utility,
    honest_split,
    honest_split_from_allocation,
    split_ring,
)
from .misreport import alpha_curve, report_weight, utility_curve, utility_of_report
from .best_response import BestResponse, best_split, utility_of_split_curve
from .incentive_ratio import InstanceRatio, incentive_ratio, incentive_ratio_of_vertex
from .lower_bound import (
    ATTACKER,
    LowerBoundPoint,
    lower_bound_ratio,
    lower_bound_ring,
    lower_bound_series,
)
from .worst_case import (
    WorstCaseResult,
    scoped_rng,
    search_worst_ring,
    search_worst_ring_scoped,
)
from .combined import (
    CombinedBestResponse,
    ComposedAttack,
    best_combined_split,
    best_misreport_split,
    combined_attacker_utility,
    misreport_then_cut,
    misreport_then_split,
)
from .multi_split import (
    MultiBestResponse,
    MultiSplit,
    best_multi_split,
    set_partitions,
    split_multi,
)
from .general import (
    GeneralBestResponse,
    GeneralSplit,
    best_general_split,
    general_incentive_ratio,
    neighbor_bipartitions,
    split_general,
)

__all__ = [
    "SplitOutcome",
    "attacker_utility",
    "honest_split",
    "honest_split_from_allocation",
    "split_ring",
    "alpha_curve",
    "report_weight",
    "utility_curve",
    "utility_of_report",
    "BestResponse",
    "best_split",
    "utility_of_split_curve",
    "InstanceRatio",
    "incentive_ratio",
    "incentive_ratio_of_vertex",
    "ATTACKER",
    "LowerBoundPoint",
    "lower_bound_ratio",
    "lower_bound_ring",
    "lower_bound_series",
    "WorstCaseResult",
    "search_worst_ring",
    "scoped_rng",
    "search_worst_ring_scoped",
    "GeneralBestResponse",
    "GeneralSplit",
    "best_general_split",
    "general_incentive_ratio",
    "neighbor_bipartitions",
    "split_general",
    "MultiBestResponse",
    "MultiSplit",
    "best_multi_split",
    "set_partitions",
    "split_multi",
    "CombinedBestResponse",
    "best_combined_split",
    "combined_attacker_utility",
    "ComposedAttack",
    "misreport_then_split",
    "misreport_then_cut",
    "best_misreport_split",
]
