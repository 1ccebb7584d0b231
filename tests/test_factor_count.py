import dataclasses
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorclust import (
    FactorCountError,
    FactorCountReport,
    ScenarioSpec,
    TimeSeriesPanel,
    cumulative_ratio_sequence,
    generate_scenario,
    select_factor_counts,
    single_matrix_ratio_baseline,
)
from factorclust import factor_count
from factorclust._blas import threads_for_dim
from factorclust.panel import lag_stack

from oracles import (
    lag_autocov_oracle,
    local_maxima_oracle,
    per_lag_spectra_oracle,
    ratios_oracle,
)


def make_report(ratios):
    ratios = np.asarray(ratios, dtype=float)
    return FactorCountReport(
        ratios=ratios, k0=0, n=100, per_lag_eigenvalues=np.zeros((1, len(ratios) + 1))
    )


def rank_one_panel(p=12, n=50, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(p)
    x = rng.standard_normal(n)
    return TimeSeriesPanel(values=np.outer(a, x))


class TestDefaultJ0:
    @pytest.mark.parametrize("p, n, want", [
        (150, 400, 37),     # scenario I
        (477, 1259, 119),   # the real-data shape
        (20, 400, 8),
        (5, 400, 5),
        (100, 100, 24),     # rho = n - 1 = 99
        (1000, 250, 62),    # a year of daily data: p / 4 = 250 > rank
        (1000, 1001, 250),  # rho = p
        (30, 12, 8),
        (30, 6, 5),
        (4, 2, 2),          # rho = 1: one ratio, still a report
    ])
    def test_values(self, p, n, want):
        assert factor_count.default_j0(p, n) == want

    def test_unchanged_while_p_below_n(self):
        for p in range(2, 300):
            assert factor_count.default_j0(p, p + 1) == min(max(8, p // 4), p)

    def test_report_uses_the_default(self):
        report = cumulative_ratio_sequence(rank_one_panel(p=40, n=30), k0=2)
        assert report.J0 == factor_count.default_j0(40, 30) == 8


class TestRatioSequence:
    def test_rank_one_panel_unique_spike(self):
        report = cumulative_ratio_sequence(rank_one_panel(), k0=2, J0=8)
        # second weighted eigenvalue sum is numerically zero: R_1 is an
        # infinite spike, everything past it is 0/0 noise
        assert report.truncated[0]
        assert np.isinf(report.ratios[0])
        assert np.all(np.isnan(report.ratios[1:]))
        assert report.local_max_indices == [1]

    def test_rank_one_selection_errors(self):
        report = cumulative_ratio_sequence(rank_one_panel(), k0=2, J0=8)
        with pytest.raises(FactorCountError, match="manually"):
            select_factor_counts(report)

    def test_k0_zero_equals_plain_lag0_ratios(self):
        rng = np.random.default_rng(1)
        panel = TimeSeriesPanel(values=rng.standard_normal((10, 80)))
        report = cumulative_ratio_sequence(panel, k0=0, J0=10)
        eig = report.per_lag_eigenvalues[0]
        np.testing.assert_array_equal(report.ratios, eig[:9] / eig[1:10])

    def test_matches_dense_eigen_oracle(self):
        # one panel-wide factor plus two pair-local factors, small noise
        rng = np.random.default_rng(2)
        p, n, k0 = 6, 200, 2
        a = rng.uniform(-1, 1, (p, 1))
        b = np.zeros((p, 2))
        b[0:2, 0] = rng.uniform(0.5, 1.0, 2)
        b[2:4, 1] = rng.uniform(0.5, 1.0, 2)
        x = rng.standard_normal((1, n)) * 3.0
        z = rng.standard_normal((2, n))
        noise = rng.standard_normal((p, n)) * 0.1
        panel = TimeSeriesPanel(values=a @ x + b @ z + noise)
        report = cumulative_ratio_sequence(panel, k0=k0, J0=p)

        weights = 1.0 - np.arange(k0 + 1) / n
        sums = np.zeros(p)
        for k in range(k0 + 1):
            s = lag_autocov_oracle(panel.values, k)
            lam = np.clip(np.linalg.eigvalsh(s @ s.T)[::-1], 0.0, None)
            sums += weights[k] * lam
        expected = sums[: p - 1] / sums[1:p]
        keep = ~report.truncated
        np.testing.assert_allclose(report.ratios[keep], expected[keep], rtol=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        panel = TimeSeriesPanel(values=rng.standard_normal((12, 100)))
        report = cumulative_ratio_sequence(panel, k0=3, J0=10)
        perm = rng.permutation(12)
        shuffled = TimeSeriesPanel(values=panel.values[perm])
        report_p = cumulative_ratio_sequence(shuffled, k0=3, J0=10)
        np.testing.assert_allclose(
            report_p.per_lag_eigenvalues, report.per_lag_eigenvalues, rtol=1e-9
        )
        np.testing.assert_allclose(report_p.ratios, report.ratios, rtol=1e-9)
        assert report_p.local_max_indices == report.local_max_indices

    def test_scale_equivariance(self):
        # a power-of-two scale shifts every eigenvalue exponent, so the
        # ratios cancel it without any rounding at all
        rng = np.random.default_rng(4)
        panel = TimeSeriesPanel(values=rng.standard_normal((9, 60)))
        report = cumulative_ratio_sequence(panel, k0=2, J0=9)
        scaled = TimeSeriesPanel(values=2.0 * panel.values)
        report_s = cumulative_ratio_sequence(scaled, k0=2, J0=9)
        np.testing.assert_array_equal(report_s.ratios, report.ratios)
        assert report_s.local_max_indices == report.local_max_indices

    def test_j0_too_small(self):
        with pytest.raises(FactorCountError, match="J0"):
            cumulative_ratio_sequence(rank_one_panel(), k0=1, J0=1)

    def test_j0_exceeds_p(self):
        with pytest.raises(FactorCountError, match="J0"):
            cumulative_ratio_sequence(rank_one_panel(p=5), k0=1, J0=6)

    @pytest.mark.parametrize("p, n", [(12, 50), (60, 30)])
    def test_stack_freed_before_report_is_built(self, monkeypatch, p, n):
        refs = []

        def recording_lag_stack(panel, k0):
            stack = lag_stack(panel, k0)
            refs.append(weakref.ref(stack.covs))
            return stack

        live_at_report = []
        ratios = factor_count._ratios

        def recording_ratios(*args):
            live_at_report.append(refs[0]() is not None)
            return ratios(*args)

        monkeypatch.setattr(factor_count, "lag_stack", recording_lag_stack)
        monkeypatch.setattr(factor_count, "_ratios", recording_ratios)
        rng = np.random.default_rng(4)
        panel = TimeSeriesPanel(values=rng.standard_normal((p, n)))
        factor_count.cumulative_ratio_sequence(panel, k0=3, J0=8)
        assert live_at_report == [False]


class TestStackedSpectra:
    """The per-lag spectra come from one stacked SVD call."""

    @pytest.mark.parametrize("spec", [
        ScenarioSpec(n=400, d=5, p1=25, p_extra=25, seed=1),
        ScenarioSpec(n=120, d=4, p1=30, p_extra=80, seed=2),
        ScenarioSpec(n=1259, d=9, p1=45, p_extra=72, seed=44),
    ], ids=["tall-150x400", "wide-200x120", "realdata-477x1259"])
    def test_equal_to_per_lag_loop(self, spec):
        panel, _ = generate_scenario(spec)
        stack = lag_stack(panel, 5)
        report = cumulative_ratio_sequence(stack, k0=5, J0=8)
        with threads_for_dim(min(panel.p, panel.n)):
            want = per_lag_spectra_oracle(stack.covs, panel.p)
        np.testing.assert_array_equal(report.per_lag_eigenvalues, want)

    @pytest.mark.parametrize("failing_lag, message", [
        (2, "eigen-solver failure at lag 2: SVD did not converge"),
        (None, "eigen-solver failure on the stacked lags"),
    ])
    def test_failure_names_the_first_failing_lag(self, monkeypatch, failing_lag,
                                                 message):
        panel = rank_one_panel()
        covs = lag_stack(panel, 3).covs
        svd = np.linalg.svd

        def failing_svd(a, *args, **kwargs):
            if a.ndim == 3 or (failing_lag is not None
                               and np.array_equal(a, covs[failing_lag])):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(FactorCountError) as raised:
            cumulative_ratio_sequence(panel, k0=3)
        assert str(raised.value) == message


# pooled sums relative to their first: exact zeros, values just below, at
# and above the 1e-14 guard, and repeated values that make equal ratios
SUM_LEVELS = [0.0, 1e-16, 5e-15, 1e-14, 2e-14, 1e-13, 1e-3, 0.25, 0.5, 1.0]


class TestDerivedFields:
    """The report's derived fields equal the loop references of the rule."""

    @settings(deadline=None, max_examples=300)
    @given(
        tail=st.lists(
            st.one_of(st.sampled_from(SUM_LEVELS), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=12,
        ),
        scale_exp=st.integers(-40, 40),
        data=st.data(),
    )
    def test_weighted_sums_match_loop_references(self, tail, scale_exp, data):
        # the sums the estimators pool are descending and nonnegative
        weighted = np.ldexp(np.array([1.0] + sorted(tail, reverse=True)), scale_exp)
        J0 = data.draw(st.integers(2, len(weighted)), label="J0")
        want, truncated = ratios_oracle(weighted, J0)
        got = factor_count._ratios(weighted, J0)
        np.testing.assert_array_equal(got, want)
        report = make_report(want)
        assert report.J0 == J0
        np.testing.assert_array_equal(report.truncated, truncated)
        assert report.local_max_indices == local_maxima_oracle(want, truncated)

    @settings(deadline=None, max_examples=300)
    @given(
        ratios=st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 5.0, np.inf, np.nan]),
            min_size=1,
            max_size=8,
        )
    )
    def test_any_sequence_matches_loop_reference(self, ratios):
        ratios = np.asarray(ratios)
        report = make_report(ratios)
        truncated = ~np.isfinite(ratios)
        np.testing.assert_array_equal(report.truncated, truncated)
        assert report.local_max_indices == local_maxima_oracle(ratios, truncated)

    def test_to_dict_lists_the_derived_fields(self):
        payload = make_report([np.inf, np.nan, 3.0, 1.0]).to_dict()
        assert payload["J0"] == 5
        assert payload["ratios"] == ["inf", "nan", 3.0, 1.0]
        assert payload["truncated"] == [True, True, False, False]
        # R_3 = 3 has a nan on its left, so only the spike is a maximum
        assert payload["local_max_indices"] == [1]
        assert payload["selected"] is None


class TestSelection:
    def test_hand_checkable_sequence(self):
        report = make_report([5.0, 1.1, 8.0, 1.0, 1.0])
        assert report.local_max_indices == [1, 3]
        r0, r = select_factor_counts(report)
        assert (r0, r) == (1, 2)

    def test_monotone_decreasing_errors(self):
        report = make_report([9.0, 3.0, 2.0, 1.5, 1.2])
        assert report.local_max_indices == [1]
        with pytest.raises(FactorCountError, match="increase J0"):
            select_factor_counts(report)

    def test_tie_break_toward_smaller_index(self):
        report = make_report([9.0, 1.0, 5.0, 1.0, 5.0, 1.0, 2.0])
        assert report.local_max_indices == [1, 3, 5, 7]
        with pytest.warns(UserWarning, match="smaller index"):
            r0, r = select_factor_counts(report)
        assert (r0, r) == (1, 2)
        # the tie is a property of the report's own ratios
        assert report.tie_break_applied

    def test_selection_properties(self):
        report = make_report([5.0, 1.1, 8.0, 1.0, 1.0])
        assert report.selected == (1, 3)
        assert not report.tie_break_applied
        tied = make_report([9.0, 1.0, 5.0, 1.0, 5.0, 1.0, 2.0])
        assert tied.selected == (1, 3)
        assert tied.tie_break_applied
        single = make_report([9.0, 3.0, 2.0, 1.5, 1.2])
        assert single.selected is None
        assert not single.tie_break_applied

    def test_report_is_frozen(self):
        report = make_report([5.0, 1.1, 8.0, 1.0, 1.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.ratios = np.ones(5)
        # the derived properties cannot be assigned either
        for name, value in [("J0", 3), ("truncated", np.zeros(5, dtype=bool)),
                            ("local_max_indices", [1, 2]), ("selected", (1, 2))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, value)

    def test_stores_only_ratios_and_their_context(self):
        names = [f.name for f in dataclasses.fields(FactorCountReport)]
        assert names == ["ratios", "k0", "n", "per_lag_eigenvalues", "method"]

    @settings(deadline=None, max_examples=200)
    @given(
        ratios=st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0]),
            min_size=1,
            max_size=12,
        )
    )
    def test_select_matches_report_properties(self, ratios):
        # a small value set makes equal maxima, and so ties at the cut, common
        report = make_report(ratios)
        if report.selected is None:
            assert len(report.local_max_indices) < 2
            with pytest.raises(FactorCountError):
                select_factor_counts(report)
            return
        s0, s1 = report.selected
        assert s0 < s1 and {s0, s1} <= set(report.local_max_indices)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert select_factor_counts(report) == (s0, s1 - s0)
        assert bool(caught) == report.tie_break_applied

    def test_noiseless_recovery_rate(self):
        # exact-rank panels: the total-count spike is the truncation
        # boundary, the strong-count spike must beat all interior maxima;
        # equal factor scales keep the within-tier eigenvalues comparable
        hits = 0
        seeds = range(50)
        for seed in seeds:
            spec = ScenarioSpec(
                n=400, d=5, p1=16, p_extra=16, r0=2, r_per_cluster=2,
                noise_innovation_var=0.0, factor_sd_range=(1.0, 1.0),
                seed=1000 + seed,
            )
            panel, truth = generate_scenario(spec)
            report = cumulative_ratio_sequence(panel, k0=5)
            try:
                r0, r = select_factor_counts(report)
            except FactorCountError:
                continue
            hits += (r0, r) == truth.intended_counts
        assert hits >= 0.95 * len(seeds)


class TestBaseline:
    def test_rank_one_spike(self):
        report = single_matrix_ratio_baseline(rank_one_panel(), k0=2, J0=8)
        assert report.method == "pooled"
        assert report.local_max_indices == [1]
        assert np.isinf(report.ratios[0])

    def test_matches_pooled_eigvals(self):
        rng = np.random.default_rng(5)
        panel = TimeSeriesPanel(values=rng.standard_normal((8, 70)))
        report = single_matrix_ratio_baseline(panel, k0=3, J0=8)
        eig = report.per_lag_eigenvalues[0]
        np.testing.assert_array_equal(report.ratios, eig[:7] / eig[1:8])

    def test_json_roundtrip(self):
        import json

        report = single_matrix_ratio_baseline(rank_one_panel(), k0=1, J0=6)
        payload = json.loads(report.to_json())
        assert payload["ratios"][0] == "inf"
        assert payload["method"] == "pooled"
        assert payload["selected"] is None
