"""aabscreen: outlier screening for camera-location view graphs."""

import os

# Honor the thread cap before numpy gets imported by the library modules;
# BLAS pools read these variables once at load time.
_threads = os.environ.get("AAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

from .aabstats import AABConfig, EdgeStatistics, ir_aab, naive_aab  # noqa: E402
from .evaluation import (  # noqa: E402
    expectation_gap,
    histogram,
    improvement,
    label_edges,
    location_errors,
    roc_auc,
)
from .graph import Locations, ViewGraph  # noqa: E402
from .screening import ScreeningPolicy, filter_edges, solvable_component  # noqa: E402
from .solvers import (  # noqa: E402
    LocationEstimate,
    align_similarity,
    solve_irls_lud,
    solve_ls_spectral,
)
from .sphere import (  # noqa: E402
    aab_inconsistency,
    aab_inconsistency_oracle,
    great_circle_distance,
)
from .synthetic import GroundTruth, UCParams, generate_uc  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "ViewGraph",
    "Locations",
    "UCParams",
    "GroundTruth",
    "generate_uc",
    "AABConfig",
    "EdgeStatistics",
    "naive_aab",
    "ir_aab",
    "ScreeningPolicy",
    "filter_edges",
    "solvable_component",
    "LocationEstimate",
    "solve_ls_spectral",
    "solve_irls_lud",
    "align_similarity",
    "label_edges",
    "roc_auc",
    "histogram",
    "location_errors",
    "improvement",
    "expectation_gap",
    "aab_inconsistency",
    "aab_inconsistency_oracle",
    "great_circle_distance",
]
