"""Incentive sweeps, instrumentation, and summary statistics for experiments."""

from .stats import Summary, censored_max, geometric_mean, summarize
from .instrumentation import PairEvent, SweepTrace, trace_report_sweep
from .parallel import parallel_incentive_sweep, sweep_fingerprint
from .spectral import (
    SpectralReport,
    dynamics_jacobian,
    predicted_iterations,
    spectral_report,
)

__all__ = [
    "Summary",
    "censored_max",
    "geometric_mean",
    "summarize",
    "PairEvent",
    "SweepTrace",
    "trace_report_sweep",
    "SpectralReport",
    "dynamics_jacobian",
    "predicted_iterations",
    "spectral_report",
    "parallel_incentive_sweep",
    "sweep_fingerprint",
]
