"""Auxiliary-information-based process monitoring toolkit.

The difference estimator of the process mean, sharpened by a correlated
auxiliary variable, the Shewhart/EWMA charts that plot it, a reproducible
Monte Carlo run-length engine, and analytic oracles that cross-check it —
including the studies showing how a step shift in the auxiliary mean
inflates false alarms or masks real shifts.
"""

from .charts import ChartKind, ChartSpec, difference_estimate, make_limits
from .experiments import (
    EquivalenceResult,
    MaskingDemo,
    Table1Cell,
    equivalence_check,
    masking_demo,
    profile_deviation,
    profile_equivalence_trials,
    reproduce_table1,
)
from .oracles import (
    SingularSystem,
    analytic_arl,
    calibrate_limit,
    ewma_arl_markov,
    shewhart_arl_exact,
    standardized_shift,
)
from .runlength import (
    ExcessCensoring,
    RunLengthSummary,
    SimulationConfig,
    TracePoint,
    estimate_runlength,
    trace,
)
from .stochastics import (
    ProcessModel,
    ShiftMode,
    ShiftScenario,
    sample_subgroup,
    shifted_means,
)

__version__ = "0.1.0"

__all__ = [
    "ChartKind",
    "ChartSpec",
    "EquivalenceResult",
    "ExcessCensoring",
    "MaskingDemo",
    "ProcessModel",
    "RunLengthSummary",
    "ShiftMode",
    "ShiftScenario",
    "SimulationConfig",
    "SingularSystem",
    "Table1Cell",
    "TracePoint",
    "analytic_arl",
    "calibrate_limit",
    "difference_estimate",
    "equivalence_check",
    "estimate_runlength",
    "ewma_arl_markov",
    "make_limits",
    "masking_demo",
    "profile_deviation",
    "profile_equivalence_trials",
    "reproduce_table1",
    "sample_subgroup",
    "shewhart_arl_exact",
    "shifted_means",
    "standardized_shift",
    "trace",
]
