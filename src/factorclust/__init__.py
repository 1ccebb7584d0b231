"""factorclust: clustering large time-series panels via latent factor strength.

The pipeline estimates how many strong (panel-wide) and weak
(cluster-specific) factors drive a panel from the eigenvalue structure of
lagged autocovariances, recovers both loading spaces, flags series that
belong to no cluster, and groups the rest by K-means on a
loading-correlation similarity matrix.  A Monte Carlo harness replicates
the whole procedure on synthetic panels with known truth.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # panel
    "PanelError", "TimeSeriesPanel", "load_panel", "load_labels",
    # factor counting
    "FactorCountError", "FactorCountReport", "cumulative_ratio_sequence",
    "select_factor_counts", "single_matrix_ratio_baseline",
    # loadings
    "LoadingError", "LoadingMatrix", "estimate_strong_loadings",
    "estimate_weak_loadings", "oracle_weak_basis", "save_loadings_csv",
    # clustering
    "ClusteringError", "ClusteringResult", "KMeansResult", "omega_threshold",
    "detect_no_cluster", "cluster_upper_bound", "similarity_matrix", "kmeans",
    "wcss_curve", "elbow_select", "cluster_pipeline", "label_distribution",
    # evaluation
    "EvaluationError", "DetectionErrors", "SummaryTable", "projection_distance",
    "detection_errors", "misclassification_count", "aggregate_records",
    # simulation
    "SimulationError", "ScenarioSpec", "ScenarioTruth", "Example1Population",
    "MonteCarloConfig", "MonteCarloResult", "scenario_i", "scenario_ii",
    "generate_scenario", "generate_example1",
    "run_monte_carlo", "replication_record", "read_scenario_config",
]

# the stage modules, which import numpy; they are imported at the first
# lookup of a name they export, so ``--version`` and ``--help`` import none
_MODULES = ("panel", "factor_count", "loadings", "clustering", "evaluation",
            "simulation")


def __getattr__(name: str):
    if name in __all__:
        for module_name in _MODULES:
            module = importlib.import_module(f".{module_name}", __name__)
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

