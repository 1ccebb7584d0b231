"""factorclust: clustering large time-series panels via latent factor strength.

The pipeline estimates how many strong (panel-wide) and weak
(cluster-specific) factors drive a panel from the eigenvalue structure of
lagged autocovariances, recovers both loading spaces, flags series that
belong to no cluster, and groups the rest by K-means on a
loading-correlation similarity matrix.  A Monte Carlo harness replicates
the whole procedure on synthetic panels with known truth.
"""

from .clustering import (
    ClusteringError,
    ClusteringResult,
    KMeansResult,
    cluster_pipeline,
    cluster_upper_bound,
    detect_no_cluster,
    elbow_select,
    kmeans,
    label_distribution,
    omega_threshold,
    similarity_matrix,
    wcss_curve,
)
from .evaluation import (
    DetectionErrors,
    EvaluationError,
    SummaryTable,
    aggregate_records,
    detection_errors,
    misclassification_count,
    projection_distance,
)
from .factor_count import (
    FactorCountError,
    FactorCountReport,
    cumulative_ratio_sequence,
    select_factor_counts,
    single_matrix_ratio_baseline,
)
from .loadings import (
    LoadingError,
    LoadingMatrix,
    estimate_strong_loadings,
    estimate_weak_loadings,
    oracle_weak_projection,
    projection,
    save_loadings_csv,
)
from .panel import (
    PanelError,
    TimeSeriesPanel,
    load_labels,
    load_panel,
)
from .simulation import (
    Example1Population,
    MonteCarloConfig,
    MonteCarloResult,
    ScenarioSpec,
    ScenarioTruth,
    SimulationError,
    generate_example1,
    generate_scenario,
    read_scenario_config,
    replication_record,
    run_monte_carlo,
    scenario_i,
    scenario_ii,
)

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
    "estimate_weak_loadings", "projection", "oracle_weak_projection",
    "save_loadings_csv",
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
