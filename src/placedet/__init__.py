"""Exact toolkit for intruder-detection sensor placement.

Evaluates the Bayes error of any placement of identical binary sensors,
searches the integer-partition placement space exhaustively, and verifies
the structural properties of the optimum (majorization monotonicity, point
count invariance, and their breakdown beyond five sensors) numerically.
"""

from .analysis import (
    RegionCell,
    RegionMap,
    VerificationReport,
    check_conjecture_chain,
    check_monotone_on_scale,
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
    Placement,
    PmfTable,
    SensorModel,
    canonicalize_placement,
)
from .montecarlo import SimResult, simulate
from .partitions import enumerate_partitions, partition_count

__all__ = [
    "BudgetError",
    "ErrorProbability",
    "MajorizationVerdict",
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
    "compare",
    "enumerate_partitions",
    "error_probability",
    "error_probability_grid",
    "is_chain",
    "map_decide",
    "optimal_placements",
    "partition_count",
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
