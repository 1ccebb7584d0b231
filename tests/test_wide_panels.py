"""The p > n path: spectra and loadings computed in n dimensions.

Every result is checked against a reference built in p dimensions, from
the p x p lag covariances or the brute-force oracles.
"""

import warnings

import numpy as np
import pytest

from factorclust import (
    FactorCountReport,
    LoadingError,
    LoadingMatrix,
    MonteCarloConfig,
    ScenarioSpec,
    TimeSeriesPanel,
    cumulative_ratio_sequence,
    estimate_strong_loadings,
    estimate_weak_loadings,
    generate_scenario,
    run_monte_carlo,
    select_factor_counts,
    single_matrix_ratio_baseline,
)
from factorclust import simulation as sim
from factorclust.factor_count import FactorCountError
from factorclust.panel import lag_autocov_sequence

from oracles import (
    jacobi_eigh,
    local_maxima_oracle,
    pooled_oracle,
    projection,
    ratios_oracle,
)

P, N = 30, 12


def wide_panel(seed=0, p=P, n=N, r0=2, r=3):
    """Panel-wide factors plus block-local factors plus noise.

    Both routes compute an eigenvalue to an absolute accuracy of about
    eps times the largest, so the 1e-12 relative ratio checks need the
    noise eigenvalues within some 1e7 of the largest, as here.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (p, r0))
    b = np.zeros((p, r))
    block = p // (r + 1)
    for j in range(r):
        b[j * block:(j + 1) * block, j] = rng.uniform(0.5, 1.0, block)
    x = rng.standard_normal((r0, n)) * np.array([[6.0], [4.0]])[:r0]
    z = rng.standard_normal((r, n))
    eps = rng.standard_normal((p, n)) * 0.5
    return TimeSeriesPanel(values=a @ x + b @ z + eps)


def selection_or_error(report):
    try:
        return select_factor_counts(report)
    except FactorCountError as exc:
        return str(exc)


def top_basis(sym, r):
    _, vecs = jacobi_eigh(sym)
    return LoadingMatrix(vecs[:, :r])


def p_space_report(panel, k0, J0):
    """Ratio report from SVDs of the p x p lag covariances."""
    stack = lag_autocov_sequence(panel, k0)
    eigs = np.array([np.linalg.svd(s, compute_uv=False) ** 2 for s in stack])
    weights = 1.0 - np.arange(k0 + 1) / panel.n
    ratios, _ = ratios_oracle(weights @ eigs, J0)
    return FactorCountReport(ratios=ratios, k0=k0, n=panel.n, per_lag_eigenvalues=eigs)


class TestRatiosAgainstPSpace:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("J0", [None, P])
    def test_matches_svds_of_p_by_p_lags(self, seed, J0):
        panel = wide_panel(seed)
        report = cumulative_ratio_sequence(panel, k0=3, J0=J0)
        want = p_space_report(panel, 3, report.J0)

        np.testing.assert_array_equal(report.truncated, want.truncated)
        assert report.local_max_indices == want.local_max_indices
        assert selection_or_error(report) == selection_or_error(want)
        keep = ~want.truncated
        np.testing.assert_allclose(report.ratios[keep], want.ratios[keep], rtol=1e-12)
        np.testing.assert_array_equal(np.isinf(report.ratios), np.isinf(want.ratios))
        eigs = want.per_lag_eigenvalues
        assert report.per_lag_eigenvalues.shape == eigs.shape
        assert np.all(report.per_lag_eigenvalues[:, N:] == 0.0)
        np.testing.assert_allclose(
            report.per_lag_eigenvalues[:, :N], eigs[:, :N],
            rtol=1e-12, atol=1e-12 * eigs.max(),
        )

    def test_baseline_pads_with_exact_zeros(self):
        panel = wide_panel(2)
        report = single_matrix_ratio_baseline(panel, k0=3, J0=P)
        eigvals = np.clip(np.linalg.eigvalsh(pooled_oracle(panel.values, 3))[::-1], 0, None)
        ratios, truncated = ratios_oracle(eigvals, P)
        np.testing.assert_array_equal(report.truncated, truncated)
        assert report.local_max_indices == local_maxima_oracle(ratios, truncated)
        assert np.all(report.per_lag_eigenvalues[0, N:] == 0.0)
        keep = ~truncated
        np.testing.assert_allclose(report.ratios[keep], ratios[keep], rtol=1e-10)


class TestDefaultJ0OnWidePanels:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_true_counts_a_year_of_daily_data(self, seed):
        # 1000 series over 250 days: J0 = p / 4 = 250 would lie past
        # rank S(k) <= n - 1 and select the rank-deficiency spike
        spec = ScenarioSpec(n=250, d=10, p1=60, p_extra=400, seed=seed)
        panel, _ = generate_scenario(spec)
        report = cumulative_ratio_sequence(panel, k0=5)
        assert report.J0 == 62
        assert select_factor_counts(report) == (spec.r0, spec.r)
        past_rank = cumulative_ratio_sequence(panel, k0=5, J0=spec.p // 4)
        assert select_factor_counts(past_rank) == (2, 247)


class TestLoadingsAgainstOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_projections_match_jacobi_oracle(self, seed):
        panel = wide_panel(seed)
        k0, r0, r = 2, 2, 3
        strong = estimate_strong_loadings(panel, k0=k0, r0=r0)
        weak = estimate_weak_loadings(panel, strong, k0=k0, r=r)

        want_strong = top_basis(pooled_oracle(panel.values, k0), r0)
        np.testing.assert_allclose(projection(strong), projection(want_strong), atol=1e-10)
        q = strong.matrix
        projected = panel.values - q @ (q.T @ panel.values)
        want_weak = top_basis(pooled_oracle(projected, k0), r)
        np.testing.assert_allclose(projection(weak), projection(want_weak), atol=1e-10)

        np.testing.assert_allclose(q.T @ q, np.eye(r0), atol=1e-12)
        np.testing.assert_allclose(weak.matrix.T @ weak.matrix, np.eye(r), atol=1e-12)
        assert np.abs(q.T @ weak.matrix).max() < 1e-8


def assert_orthonormal_finite(loading):
    assert np.isfinite(loading.matrix).all()
    np.testing.assert_allclose(
        loading.matrix.T @ loading.matrix, np.eye(loading.r), atol=1e-10
    )


class TestEdgeCases:
    def test_constant_and_duplicate_series(self):
        values = wide_panel(5).values.copy()
        values[0] = 3.0
        values[7] = values[8]
        panel = TimeSeriesPanel(values=values)
        report = cumulative_ratio_sequence(panel, k0=3, J0=P)
        assert np.isfinite(report.per_lag_eigenvalues).all()
        strong = estimate_strong_loadings(panel, k0=3, r0=2)
        weak = estimate_weak_loadings(panel, strong, k0=3, r=3)
        assert_orthonormal_finite(strong)
        assert_orthonormal_finite(weak)
        # a constant series has zero rows in both loadings
        assert np.abs(strong.matrix[0]).max() < 1e-10
        assert np.abs(weak.matrix[0]).max() < 1e-10
        np.testing.assert_allclose(strong.matrix[7], strong.matrix[8], atol=1e-10)

    def test_k0_at_n_minus_one(self):
        panel = wide_panel(6)
        report = cumulative_ratio_sequence(panel, k0=N - 1, J0=P)
        assert report.per_lag_eigenvalues.shape == (N, P)
        assert np.isfinite(report.per_lag_eigenvalues).all()
        strong = estimate_strong_loadings(panel, k0=N - 1, r0=2)
        weak = estimate_weak_loadings(panel, strong, k0=N - 1, r=3)
        assert_orthonormal_finite(strong)
        assert_orthonormal_finite(weak)
        assert np.abs(strong.matrix.T @ weak.matrix).max() < 1e-8

    def test_rank_bound(self):
        panel = wide_panel(7)
        m = min(P, N)
        strong = estimate_strong_loadings(panel, k0=2, r0=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weak = estimate_weak_loadings(panel, strong, k0=2, r=m - 3)
        assert strong.r + weak.r == m - 1
        assert_orthonormal_finite(weak)
        assert np.abs(strong.matrix.T @ weak.matrix).max() < 1e-8
        with pytest.raises(LoadingError, match=r"outside \[1, 9\]"):
            estimate_weak_loadings(panel, strong, k0=2, r=m - 2)
        estimate_strong_loadings(panel, k0=2, r0=m - 1)
        with pytest.raises(LoadingError, match=r"outside \[1, 11\]"):
            estimate_strong_loadings(panel, k0=2, r0=m)

    def test_strong_span_outside_the_panel_rejected(self):
        panel = wide_panel(8)
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((P, 2)))
        with pytest.raises(LoadingError, match="column space"):
            estimate_weak_loadings(panel, LoadingMatrix(q), k0=2, r=3)


class TestMonteCarloOnWidePanel:
    """``run_monte_carlo`` on a p > n spec, 220 series over 120 periods.

    Its replications run the paths that exist for wide panels: the lag
    stack held as Householder reflectors, the rank-bounded default J0 and
    the Lanczos ``d_hat`` (LANCZOS_P_PER_K * k = 160 <= p).  Each bound is
    the worst rate of ten 20-replication runs at master seeds 0-9, rounded
    outward at two significant digits; this test runs seed 0.
    """

    SPEC = ScenarioSpec(n=120, d=3, p1=40, p_extra=100, seed=0)
    CONFIG = MonteCarloConfig(known_counts=True, estimated_counts=True)

    def test_rates_and_identical_records_on_every_path(self, monkeypatch):
        runs = {}
        for name, cpus in (("pipelined", 2), ("inline", 1)):
            monkeypatch.setattr(sim, "_cpu_count", lambda cpus=cpus: cpus)
            assert sim._helper_thread(self.SPEC, self.CONFIG, 1) is (cpus == 2)
            runs[name] = run_monte_carlo(self.SPEC, reps=20, config=self.CONFIG)
        runs["jobs=2"] = run_monte_carlo(self.SPEC, reps=20, config=self.CONFIG, jobs=2)
        result = runs["inline"]
        assert runs["pipelined"].records == result.records
        assert runs["jobs=2"].records == result.records
        assert result.failures == []

        rates = {name: mean for name, mean, _, _ in result.table.rows}
        assert rates["r0_correct"] >= 0.5
        assert rates["total_correct"] >= 0.8
        assert rates["d_hat_correct"] == 1.0
        assert rates["d_hat_correct_est"] >= 0.95
        assert rates["e1_omega_p2"] <= 0.048 and rates["e2_omega_p2"] <= 0.042
        assert rates["e1_omega_p2_est"] <= 0.057 and rates["e2_omega_p2_est"] <= 0.23
        assert rates["tau_rate"] <= 0.016
        assert rates["tau_rate_est"] <= 0.17
