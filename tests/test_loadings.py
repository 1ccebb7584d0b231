import weakref

import numpy as np
import pytest

from factorclust import (
    LoadingError,
    LoadingMatrix,
    TimeSeriesPanel,
    estimate_strong_loadings,
    estimate_weak_loadings,
    oracle_weak_basis,
    projection_distance,
)
from factorclust import loadings
from factorclust.loadings import _orient_columns, _top_eigenvectors
from factorclust.panel import lag_autocov_sequence, lag_stack, pooled_matrix_from_covs

from oracles import jacobi_eigh, projection, residualize_oracle


def noisy_factor_panel(p, n, r0, r, seed, noise=0.1, strong_scale=4.0):
    """Panel-wide factors plus block-local factors plus white noise."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (p, r0))
    b = np.zeros((p, r))
    block = max(2, p // (r + 1))
    for j in range(r):
        b[j * block:(j + 1) * block, j] = rng.uniform(0.5, 1.0, block)
    x = rng.standard_normal((r0, n)) * strong_scale
    z = rng.standard_normal((r, n))
    eps = rng.standard_normal((p, n)) * noise
    return TimeSeriesPanel(values=a @ x + b @ z + eps)


class TestLoadingMatrixType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(LoadingError, match="orthonormal"):
            LoadingMatrix(np.ones((4, 2)))

    def test_empty_loading_allowed(self):
        empty = LoadingMatrix(np.zeros((4, 0)))
        assert empty.r == 0


class TestStrongLoadings:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(8)
        a /= np.linalg.norm(a)
        x = rng.standard_normal(60)
        panel = TimeSeriesPanel(values=np.outer(a, x))
        est = estimate_strong_loadings(panel, k0=2, r0=1)
        np.testing.assert_allclose(projection(est), np.outer(a, a), atol=1e-10)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(1)
        panel = TimeSeriesPanel(values=rng.standard_normal((5, 120)))
        k0, r0 = 2, 3
        est = estimate_strong_loadings(panel, k0=k0, r0=r0)
        m = pooled_matrix_from_covs(lag_autocov_sequence(panel, k0))
        eigvals, eigvecs = jacobi_eigh(m)
        assert np.min(np.diff(eigvals[::-1])) != 0  # distinct spectrum
        oracle = _orient_columns(eigvecs[:, :r0])
        np.testing.assert_allclose(est.matrix, oracle, atol=1e-8)

    def test_orthonormal_output(self):
        for seed in range(5):
            panel = noisy_factor_panel(12, 80, 2, 3, seed)
            est = estimate_strong_loadings(panel, k0=3, r0=2)
            np.testing.assert_allclose(
                est.matrix.T @ est.matrix, np.eye(2), atol=1e-10
            )

    def test_r0_bounds(self):
        panel = noisy_factor_panel(6, 40, 1, 2, 0)
        with pytest.raises(LoadingError):
            estimate_strong_loadings(panel, k0=1, r0=0)
        with pytest.raises(LoadingError):
            estimate_strong_loadings(panel, k0=1, r0=6)


class TestWeakLoadings:
    def test_noop_residualization_matches_strong(self):
        # strong span orthogonal to the panel rows: projecting changes nothing
        rng = np.random.default_rng(2)
        basis, _ = np.linalg.qr(rng.standard_normal((8, 5)))
        panel = TimeSeriesPanel(values=basis[:, :3] @ rng.standard_normal((3, 60)))
        strong = LoadingMatrix(basis[:, 3:5])
        weak = estimate_weak_loadings(panel, strong, k0=2, r=2)
        direct = estimate_strong_loadings(panel, k0=2, r0=2)
        np.testing.assert_allclose(weak.matrix, direct.matrix, atol=1e-8)

    def test_compositional_oracle(self):
        # projecting the covariances == estimating on the projected panel
        panel = noisy_factor_panel(6, 150, 1, 2, seed=3)
        strong = estimate_strong_loadings(panel, k0=2, r0=1)
        weak = estimate_weak_loadings(panel, strong, k0=2, r=2)
        projected = TimeSeriesPanel(
            values=residualize_oracle(panel.values, strong.matrix)
        )
        oracle = estimate_strong_loadings(projected, k0=2, r0=2)
        np.testing.assert_allclose(
            projection(weak), projection(oracle), atol=1e-8
        )
        np.testing.assert_allclose(weak.matrix, oracle.matrix, atol=1e-6)

    def test_orthogonal_to_strong(self):
        for seed in range(5):
            panel = noisy_factor_panel(15, 100, 2, 4, seed)
            strong = estimate_strong_loadings(panel, k0=3, r0=2)
            weak = estimate_weak_loadings(panel, strong, k0=3, r=4)
            assert np.abs(strong.matrix.T @ weak.matrix).max() < 1e-8

    def test_r_bounds(self):
        panel = noisy_factor_panel(6, 40, 1, 2, 0)
        strong = estimate_strong_loadings(panel, k0=1, r0=1)
        with pytest.raises(LoadingError):
            estimate_weak_loadings(panel, strong, k0=1, r=5)

    def test_row_mismatch(self):
        panel = noisy_factor_panel(6, 40, 1, 2, 0)
        q = np.eye(7)[:, :1]
        with pytest.raises(LoadingError, match="rows"):
            estimate_weak_loadings(panel, LoadingMatrix(q), k0=1, r=2)


def oriented(vectors):
    """Columns negated where their largest-magnitude entry is negative."""
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.where(peaks < 0, -vectors, vectors)


class TestResultBuffer:
    @pytest.mark.parametrize("r", range(1, 11))
    def test_sign_fixed_in_place(self, r):
        # at r = 8 a column view steps 64 bytes, where numpy 2.4's in-place
        # np.negative misreads its input
        rng = np.random.default_rng(r)
        a = rng.standard_normal((12, 12))
        sym = a + a.T
        top = np.linalg.eigh(sym)[1][:, ::-1][:, :r]
        got = _top_eigenvectors(sym, r, "test", None, np.empty((12, r)))
        np.testing.assert_array_equal(got, oriented(top))
        # the lift lands in the C-ordered buffer, where the sign fix runs
        wide = TimeSeriesPanel(values=rng.standard_normal((30, 12)))
        basis = lag_stack(wide, 0).basis
        lifted = _top_eigenvectors(sym, r, "test", basis, np.empty((30, r)))
        np.testing.assert_array_equal(lifted, oriented(basis.lift(top)))

    @pytest.mark.parametrize("p, n", [(6, 80), (40, 20)])
    def test_stack_freed_before_result_is_wrapped(self, monkeypatch, p, n):
        refs = []

        def recording_lag_stack(panel, k0):
            stack = lag_stack(panel, k0)
            refs.append(weakref.ref(stack.covs))
            if stack.basis is not None:
                refs.append(weakref.ref(stack.basis))
            return stack

        live_at_wrap = []

        def recording_loading_matrix(matrix):
            live_at_wrap.append([ref() is not None for ref in refs])
            return LoadingMatrix(matrix)

        monkeypatch.setattr(loadings, "lag_stack", recording_lag_stack)
        monkeypatch.setattr(loadings, "LoadingMatrix", recording_loading_matrix)
        panel = noisy_factor_panel(p, n, 1, 2, seed=3)
        strong = loadings.estimate_strong_loadings(panel, k0=2, r0=1)
        loadings.estimate_weak_loadings(panel, strong, k0=2, r=2)
        per_stack = 1 if p <= n else 2
        assert live_at_wrap == [[False] * per_stack, [False] * 2 * per_stack]


class TestProjection:
    def test_single_basis_vector(self):
        q = LoadingMatrix(np.array([[1.0], [0.0]]))
        np.testing.assert_array_equal(projection(q), np.diag([1.0, 0.0]))

    def test_full_basis_is_identity(self):
        q = LoadingMatrix(np.eye(4))
        np.testing.assert_allclose(projection(q), np.eye(4), atol=1e-12)

    def test_basis_change_invariance(self):
        rng = np.random.default_rng(4)
        q1, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        angle = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        q2 = q1 @ rot
        p1 = projection(LoadingMatrix(q1))
        p2 = projection(LoadingMatrix(q2))
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_idempotent_and_trace(self):
        rng = np.random.default_rng(5)
        for r in (1, 2, 4):
            q, _ = np.linalg.qr(rng.standard_normal((7, r)))
            p = projection(LoadingMatrix(q))
            np.testing.assert_allclose(p @ p, p, atol=1e-10)
            assert abs(np.trace(p) - r) < 1e-8


class TestOracleWeakProjection:
    def test_orthogonal_case_is_bbt(self):
        rng = np.random.default_rng(6)
        basis, _ = np.linalg.qr(rng.standard_normal((9, 4)))
        a, b = basis[:, :2], basis[:, 2:4]
        got = oracle_weak_basis(a, b)
        np.testing.assert_allclose(got @ got.T, b @ b.T, atol=1e-12)

    def test_degenerate_equal_spans_error(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 2))
        with pytest.raises(LoadingError, match="rank deficient"):
            oracle_weak_basis(a, a)
        # B inside span(A) at any scale: B* is rounding noise of B's size
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((40, 3))
            m = rng.standard_normal((3, 3)) * 10.0 ** rng.integers(-3, 4)
            with pytest.raises(LoadingError, match="B_padded is rank deficient"):
                oracle_weak_basis(a, a @ m)

    def test_rank_deficient_a_error(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((8, 1))
        with pytest.raises(LoadingError, match="A_true is rank deficient"):
            oracle_weak_basis(np.hstack([a, 2.0 * a]), rng.standard_normal((8, 2)))

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 1))
        b = rng.standard_normal((8, 2))
        got = oracle_weak_basis(a, b)
        b_star = b - a @ np.linalg.lstsq(a, b, rcond=None)[0]
        want = b_star @ np.linalg.pinv(b_star)
        np.testing.assert_allclose(got @ got.T, want, atol=1e-9)

    def test_non_orthonormal_a_allowed(self):
        rng = np.random.default_rng(9)
        a = 3.0 * rng.standard_normal((8, 2))
        b = rng.standard_normal((8, 2))
        basis = oracle_weak_basis(a, b)
        assert basis.shape == (8, 2)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        assert np.abs(a.T @ basis).max() < 1e-12
        # the rank check scales with B: a tiny B spans the same space
        tiny = oracle_weak_basis(a, 1e-9 * b)
        assert max(projection_distance(tiny, basis)) < 1e-12


class TestSubspaceConsistency:
    def test_strong_error_shrinks_with_n(self):
        # orthogonal tiers and independent factors: estimation error of the
        # strong projection decays as the sample grows at fixed p
        p, r0, r = 36, 2, 6
        errors = {200: [], 800: [], 3200: []}
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            basis, _ = np.linalg.qr(rng.standard_normal((p, r0 + r)))
            a, b = basis[:, :r0], basis[:, r0:]
            for n in errors:
                phi = rng.uniform(0.5, 0.9, r0)
                x = np.empty((r0, n))
                innov = rng.standard_normal((r0, n))
                x[:, 0] = innov[:, 0]
                for t in range(1, n):
                    x[:, t] = phi * x[:, t - 1] + np.sqrt(1 - phi**2) * innov[:, t]
                x *= 6.0
                z = rng.standard_normal((r, n))
                panel = TimeSeriesPanel(values=a @ x + b @ z)
                est = estimate_strong_loadings(panel, k0=2, r0=r0)
                errors[n].append(
                    np.linalg.norm(projection(est) - a @ a.T, "fro")
                )
        means = {n: np.mean(v) for n, v in errors.items()}
        assert means[3200] < means[800] < means[200]
