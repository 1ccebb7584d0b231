"""The lag covariances of a panel are built once and shared by every
spectral step: the stage functions give the same numbers from a panel and
from its ``lag_stack``, and the pipeline and a Monte Carlo replication
build the stack once."""

import numpy as np
import pytest

from factorclust import (
    MonteCarloConfig,
    ScenarioSpec,
    cluster_pipeline,
    cumulative_ratio_sequence,
    estimate_strong_loadings,
    estimate_weak_loadings,
    generate_scenario,
    replication_record,
    single_matrix_ratio_baseline,
)
from factorclust import factor_count, loadings, panel as panel_module
from factorclust.panel import lag_stack

# p = 16 series over n = 120 (p <= n) or n = 12 (p > n) time points
SPECS = {
    "tall": ScenarioSpec(n=120, d=2, p1=6, p_extra=4, r0=1, r_per_cluster=2, seed=3),
    "wide": ScenarioSpec(n=12, d=2, p1=6, p_extra=4, r0=1, r_per_cluster=2, seed=3),
}


@pytest.mark.parametrize("shape", sorted(SPECS))
def test_stage_functions_equal_from_panel_and_stack(shape):
    panel, _ = generate_scenario(SPECS[shape])
    k0 = 3
    stack = lag_stack(panel, k0)
    assert (stack.basis is None) == (shape == "tall")
    for stage in (cumulative_ratio_sequence, single_matrix_ratio_baseline):
        want, got = stage(panel, k0=k0), stage(stack, k0=k0)
        np.testing.assert_array_equal(got.ratios, want.ratios)
        np.testing.assert_array_equal(got.truncated, want.truncated)
        np.testing.assert_array_equal(
            got.per_lag_eigenvalues, want.per_lag_eigenvalues
        )
        assert got.local_max_indices == want.local_max_indices
    strong = estimate_strong_loadings(panel, k0=k0, r0=1)
    np.testing.assert_array_equal(
        estimate_strong_loadings(stack, k0=k0, r0=1).matrix, strong.matrix
    )
    np.testing.assert_array_equal(
        estimate_weak_loadings(stack, strong, k0=k0, r=4).matrix,
        estimate_weak_loadings(panel, strong, k0=k0, r=4).matrix,
    )


@pytest.mark.parametrize(
    "stage, kwargs",
    [
        (cumulative_ratio_sequence, {}),
        (single_matrix_ratio_baseline, {}),
        (estimate_strong_loadings, {"r0": 1}),
    ],
)
def test_stage_rejects_stack_of_other_k0(stage, kwargs):
    panel, _ = generate_scenario(SPECS["tall"])
    with pytest.raises(panel_module.PanelError, match="k0"):
        stage(lag_stack(panel, 2), k0=3, **kwargs)


@pytest.fixture
def builds(monkeypatch):
    """k0 of every S(k) stack built, under each binding of the builder."""
    calls = []
    original = panel_module.lag_autocov_sequence

    def counting(panel, k0):
        calls.append(k0)
        return original(panel, k0)

    for module in (panel_module, factor_count, loadings):
        monkeypatch.setattr(module, "lag_autocov_sequence", counting)
    return calls


@pytest.mark.parametrize("counts", [None, (2, 6), (0, 6)])
def test_pipeline_builds_lag_covariances_once(builds, counts):
    panel, _ = generate_scenario(ScenarioSpec(n=300, d=3, p1=10, p_extra=10, seed=1))
    result = cluster_pipeline(panel, k0=4, counts=counts, seed=0)
    assert result.provenance["counts_source"] == ("override" if counts else "estimated")
    assert builds == [4]


def test_replication_builds_lag_covariances_once(builds):
    spec = ScenarioSpec(n=300, d=3, p1=10, p_extra=10, seed=1)
    config = MonteCarloConfig(k0=4, estimated_counts=True)
    record = replication_record(spec, config)
    assert "tau_est" in record and "tau" in record  # both branches ran
    assert builds == [4]
