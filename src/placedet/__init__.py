"""Exact toolkit for intruder-detection sensor placement.

Evaluates the Bayes error of any placement of identical binary sensors,
searches the integer-partition placement space exhaustively, and verifies
the structural properties of the optimum (majorization monotonicity, point
count invariance, and their breakdown beyond five sensors) numerically.
"""

from .analysis import (
    M4RegionVerdict,
    RegionCell,
    RegionMap,
    VerificationReport,
    check_conjecture_chain,
    check_monotone_on_scale,
    region_predicate_m4,
    sweep_plane,
    sweep_window,
    verify_cor41,
    verify_counterexample,
    verify_prop51,
    verify_thm41,
    verify_thm42,
)
from .detection import (
    TIE_EPS,
    BudgetError,
    ErrorProbability,
    Optimum,
    closed_form_pe2,
    error_probability,
    error_probability_grid,
    map_decide,
    optimal_placements,
)
from .majorization import (
    MajorizationVerdict,
    PlacementScale,
    chain_sort,
    compare,
    is_chain,
)
from .model import (
    ObservationIndex,
    Placement,
    PmfTable,
    SensorModel,
    canonicalize_placement,
    flip_model,
    observation_index,
)
from .montecarlo import SimResult, simulate
from .partitions import enumerate_partitions, partition_count

__all__ = [
    "BudgetError",
    "ErrorProbability",
    "M4RegionVerdict",
    "MajorizationVerdict",
    "ObservationIndex",
    "Optimum",
    "Placement",
    "PlacementScale",
    "PmfTable",
    "RegionCell",
    "RegionMap",
    "SensorModel",
    "SimResult",
    "TIE_EPS",
    "VerificationReport",
    "canonicalize_placement",
    "chain_sort",
    "check_conjecture_chain",
    "check_monotone_on_scale",
    "closed_form_pe2",
    "compare",
    "enumerate_partitions",
    "error_probability",
    "error_probability_grid",
    "flip_model",
    "is_chain",
    "map_decide",
    "observation_index",
    "optimal_placements",
    "partition_count",
    "region_predicate_m4",
    "simulate",
    "sweep_plane",
    "sweep_window",
    "verify_cor41",
    "verify_counterexample",
    "verify_prop51",
    "verify_thm41",
    "verify_thm42",
]

__version__ = "0.1.0"
