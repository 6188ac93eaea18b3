"""``repro.core`` — the decoupling strategy (Section II of the paper).

* :mod:`~repro.core.groups` — group formation and inter-group flows.
* :mod:`~repro.core.model` — the Eq. 1-4 performance model + solvers.
* :mod:`~repro.core.categories` — the five-category suitability guide.
"""

from .adaptive import (
    AlphaController,
    EpochMeasurement,
    GranularityController,
    epoch_from_trace,
)
from .categories import (
    CATEGORY_NAMES,
    PAPER_PROFILES,
    OperationProfile,
    SuitabilityReport,
    rank_operations,
    score_operation,
)
from .groups import DecouplingPlan, Flow, GroupSpec, PlanError
from .model import (
    BetaModel,
    auto_size_plan,
    conventional_time,
    decoupled_time_beta,
    decoupled_time_full,
    decoupled_time_overlap,
    optimal_alpha,
    optimal_granularity,
    predicted_sigma,
    speedup,
)

__all__ = [
    "AlphaController", "BetaModel", "CATEGORY_NAMES", "DecouplingPlan",
    "EpochMeasurement", "Flow", "GranularityController", "GroupSpec",
    "OperationProfile", "PAPER_PROFILES", "PlanError", "SuitabilityReport",
    "auto_size_plan", "conventional_time", "decoupled_time_beta",
    "decoupled_time_full", "decoupled_time_overlap", "epoch_from_trace",
    "optimal_alpha", "optimal_granularity", "predicted_sigma",
    "rank_operations", "score_operation", "speedup",
]
