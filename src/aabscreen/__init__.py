"""aabscreen: outlier screening for camera-location view graphs.

Submodules are loaded lazily so the CLI can apply the AAB_THREADS cap before
any numerical library initializes its thread pools.
"""

__version__ = "0.1.0"

_SUBMODULES = {
    "sphere",
    "graph",
    "synthetic",
    "aabstats",
    "screening",
    "solvers",
    "evaluation",
    "verify",
    "fileio",
    "streams",
    "cli",
}

_EXPORTS = {
    "ViewGraph": "graph",
    "Locations": "graph",
    "UCParams": "synthetic",
    "GroundTruth": "synthetic",
    "generate_uc": "synthetic",
    "AABConfig": "aabstats",
    "EdgeStatistics": "aabstats",
    "naive_aab": "aabstats",
    "ir_aab": "aabstats",
    "ScreeningPolicy": "screening",
    "filter_edges": "screening",
    "solvable_component": "screening",
    "LocationEstimate": "solvers",
    "solve_ls_spectral": "solvers",
    "solve_irls_lud": "solvers",
    "align_similarity": "solvers",
    "label_edges": "evaluation",
    "roc_auc": "evaluation",
    "histogram": "evaluation",
    "location_errors": "evaluation",
    "improvement": "evaluation",
    "expectation_gap": "evaluation",
    "aab_inconsistency": "sphere",
    "aab_inconsistency_oracle": "sphere",
    "great_circle_distance": "sphere",
}

__all__ = sorted(_SUBMODULES | set(_EXPORTS))


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
