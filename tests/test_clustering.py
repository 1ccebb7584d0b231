import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import factorclust

from factorclust import (
    ClusteringError,
    ScenarioSpec,
    TimeSeriesPanel,
    cluster_pipeline,
    cluster_upper_bound,
    detect_no_cluster,
    elbow_select,
    generate_scenario,
    kmeans,
    label_distribution,
    omega_threshold,
    similarity_matrix,
    wcss_curve,
)

from factorclust import clustering as clustering_module
from factorclust.clustering import (
    _candidate_inits,
    _lloyd,
    _split_farthest,
)
from oracles import (
    jacobi_eigh,
    kmeans_oracle,
    lloyd_oracle,
    partition_sets,
    similarity_oracle,
)


class TestOmegaThreshold:
    def test_p2_value_frozen(self):
        got = omega_threshold("p2", r_hat=10, p=150)
        want = math.sqrt(10.0 / (150.0 * math.log(150.0)))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.11534744360448713, rel=1e-12)
        assert abs(got - 0.1153) < 1e-3

    def test_variant_ordering(self):
        for r_hat, p in ((1, 20), (10, 150), (5, 1000)):
            w1 = omega_threshold("p1", r_hat, p)
            w2 = omega_threshold("p2", r_hat, p)
            w3 = omega_threshold("p3", r_hat, p)
            assert w1 < w2 < w3

    def test_explicit_value_passthrough(self):
        assert omega_threshold(0.05, r_hat=1, p=10) == 0.05

    def test_explicit_negative_rejected(self):
        with pytest.raises(ClusteringError, match="positive"):
            omega_threshold(-0.1, r_hat=1, p=10)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_explicit_non_finite_rejected(self, value):
        with pytest.raises(ClusteringError, match="finite and positive"):
            omega_threshold(value, r_hat=1, p=10)

    def test_p_too_small_rejected(self):
        with pytest.raises(ClusteringError, match="at least 3"):
            omega_threshold("p3", r_hat=1, p=2)
        # ln ln p > 0 for every integer p >= 3, so p3 is defined there
        assert omega_threshold("p3", r_hat=1, p=3) > 0

    def test_unknown_variant(self):
        with pytest.raises(ClusteringError, match="unknown"):
            omega_threshold("p4", r_hat=1, p=10)


class TestDetectNoCluster:
    def test_zero_row_always_included(self):
        b = np.array([[0.0, 0.0], [0.3, 0.4]])
        assert 0 in detect_no_cluster(b, omega=1e-12)

    def test_crafted_row_norms(self):
        b = np.diag([0.01, 0.2, 0.05])
        got = detect_no_cluster(b, omega=0.06)
        np.testing.assert_array_equal(got, [0, 2])

    def test_boundary_is_inclusive(self):
        b = np.array([[0.06, 0.0], [0.7, 0.0]])
        assert 0 in detect_no_cluster(b, omega=0.06)

    def test_nan_omega_rejected(self):
        with pytest.raises(ClusteringError, match="positive"):
            detect_no_cluster(np.eye(2), omega=math.nan)

    def test_monotone_in_omega(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            b = np.random.default_rng(seed).uniform(-1, 1, (15, 3)) * 0.2
            lo, hi = sorted(rng.uniform(0.01, 0.4, 2))
            small = set(detect_no_cluster(b, lo).tolist())
            large = set(detect_no_cluster(b, hi).tolist())
            assert small <= large


class TestClusterUpperBound:
    def test_exact_block_diagonal(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 5):
            cols = []
            for j in range(d):
                v = np.zeros(4 * d)
                v[4 * j:4 * (j + 1)] = rng.uniform(0.2, 1.0, 4)
                cols.append(v / np.linalg.norm(v))
            b = np.column_stack(cols)
            for n in (3, 50, 10**6):
                assert cluster_upper_bound(b, n) == d

    def test_perturbed_two_block_matches_jacobi_oracle(self):
        rng = np.random.default_rng(2)
        b = np.zeros((8, 4))
        b[:4, :2], _ = np.linalg.qr(rng.standard_normal((4, 2)))
        b[4:, 2:], _ = np.linalg.qr(rng.standard_normal((4, 2)))
        b = b + 1e-3 * rng.standard_normal(b.shape)
        n = 400
        got = cluster_upper_bound(b, n)
        eigvals, _ = jacobi_eigh(np.abs(b @ b.T))
        want = int(np.sum(eigvals > 1 - 1 / math.log(n)))
        assert got == want == 2

    def test_small_n_rejected(self):
        with pytest.raises(ClusteringError, match="n"):
            cluster_upper_bound(np.eye(4), 2)


def _dense_count(b, n):
    """The count from the full spectrum of |B B^T|, built as it always was."""
    s = np.abs(b @ b.T)
    s = (s + s.T) / 2.0
    return int(np.count_nonzero(np.linalg.eigvalsh(s) > 1.0 - 1.0 / math.log(n)))


def _grouped_loadings(p, r, groups, kind, duplicates, seed):
    """(p, r) loadings whose rows cluster around ``groups`` directions:
    orthonormal columns, or plain rows of about the same size; with
    ``duplicates`` the last rows repeat earlier ones."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(groups, size=p)
    b = rng.standard_normal((groups, r))[labels] + 0.3 * rng.standard_normal((p, r))
    if kind == "orthonormal" and r > 0:
        b, _ = np.linalg.qr(b)
    else:
        b *= rng.uniform(0.5, 1.5) / math.sqrt(p)
    if duplicates:
        b[p - duplicates:] = b[:duplicates]
    return b


class _Spy:
    """Wraps a function and records each result."""

    def __init__(self, fn):
        self.fn, self.results = fn, []

    def __call__(self, *args, **kwargs):
        out = self.fn(*args, **kwargs)
        self.results.append(out)
        return out


@pytest.fixture()
def spies(monkeypatch):
    eigsh = _Spy(scipy.sparse.linalg.eigsh)
    eigvalsh = _Spy(np.linalg.eigvalsh)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return eigsh, eigvalsh


def _diagonal_loadings(p, values):
    """Loadings with orthogonal rows, so |B B^T| = diag(values, 0, ...)."""
    b = np.zeros((p, len(values)))
    b[np.arange(len(values)), np.arange(len(values))] = np.sqrt(values)
    return b


def _arpack_no_convergence(s, k, **kwargs):
    raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))


class TestClusterUpperBoundPartialSpectrum:
    """The Lanczos count under the Frobenius bound equals the full-spectrum
    count, and each fallback to the full spectrum is taken."""

    @settings(deadline=None, max_examples=60)
    @given(
        p=st.integers(20, 600),
        r=st.integers(0, 16),
        groups=st.integers(1, 12),
        kind=st.sampled_from(["orthonormal", "plain"]),
        dup_share=st.sampled_from([0.0, 0.1, 0.5]),
        n=st.sampled_from([3, 30, 250, 1259, 10**6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_full_spectrum_count(self, p, r, groups, kind, dup_share, n, seed):
        b = _grouped_loadings(p, r, groups, kind, int(dup_share * p), seed)
        assert cluster_upper_bound(b, n) == _dense_count(b, n)

    @pytest.mark.parametrize("p, dense", [(600, False), (20, True)])
    def test_path_follows_the_size_rule(self, spies, p, dense):
        eigsh, eigvalsh = spies
        b = _grouped_loadings(p, 8, 4, "orthonormal", 0, seed=3)
        got = cluster_upper_bound(b, 250)
        assert bool(eigvalsh.results) == dense
        assert bool(eigsh.results) != dense
        assert got == _dense_count(b, 250)

    @pytest.mark.parametrize("offset, dense", [(1e-14, True), (-1e-14, True), (1e-3, False)])
    def test_ritz_value_near_the_cut_takes_the_full_spectrum(self, spies, offset, dense):
        eigsh, eigvalsh = spies
        n = 250
        c = 1.0 - 1.0 / math.log(n)
        b = _diagonal_loadings(200, [c + offset, 0.5, 0.3, 0.2])
        got = cluster_upper_bound(b, n)
        (ritz,) = eigsh.results
        near = np.abs(ritz - c).min() <= clustering_module.RITZ_MARGIN
        assert near == dense
        assert len(eigvalsh.results) == int(dense)
        assert got == _dense_count(b, n)

    @pytest.mark.parametrize("fake_eigsh", [
        lambda s, k, **kwargs: np.full(k, 0.99),  # even the k-th Ritz value is above c
        _arpack_no_convergence,
    ])
    def test_arpack_answer_not_trusted_takes_the_full_spectrum(self, monkeypatch, fake_eigsh):
        b = _grouped_loadings(600, 8, 4, "orthonormal", 0, seed=3)
        want = _dense_count(b, 250)
        eigvalsh = _Spy(np.linalg.eigvalsh)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fake_eigsh)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert cluster_upper_bound(b, 250) == want
        assert len(eigvalsh.results) == 1

    def test_no_columns(self, spies):
        # S = 0: ARPACK reports an error, the full spectrum counts nothing
        eigsh, eigvalsh = spies
        assert cluster_upper_bound(np.zeros((300, 0)), 250) == 0
        assert not eigsh.results and len(eigvalsh.results) == 1

    @pytest.mark.parametrize("p", [4, 20])
    def test_k_at_least_p_takes_the_full_spectrum(self, spies, p):
        eigsh, eigvalsh = spies
        b = np.eye(p)[:, : p - 1]
        # ||S||_F^2 = p - 1, so k = floor((p - 1) / c^2) + 1 >= p
        assert cluster_upper_bound(b, 10**6) == p - 1
        assert not eigsh.results and len(eigvalsh.results) == 1

    def test_blas_thread_count_leaves_d_hat_unchanged(self):
        # the wide benchmark shape: 1000 series over 250 days
        script = (
            "import math\n"
            "import numpy as np\n"
            "from factorclust import *\n"
            "spec = ScenarioSpec(n=250, d=10, p1=60, p_extra=400, seed=0)\n"
            "panel, _ = generate_scenario(spec)\n"
            "report = cumulative_ratio_sequence(panel, k0=5, J0=50)\n"
            "r0, r = select_factor_counts(report)\n"
            "strong = estimate_strong_loadings(panel, k0=5, r0=r0)\n"
            "weak = estimate_weak_loadings(panel, strong, k0=5, r=r)\n"
            "s = np.abs(weak.matrix @ weak.matrix.T)\n"
            "dense = np.linalg.eigvalsh((s + s.T) / 2.0) > 1.0 - 1.0 / math.log(panel.n)\n"
            "print(cluster_upper_bound(weak, panel.n), np.count_nonzero(dense))\n"
        )
        src = str(Path(factorclust.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout.split())
        assert outputs[0] == outputs[1] == ["10", "10"]


class TestSimilarityMatrix:
    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((10, 4))
        sim = similarity_matrix(f)
        np.testing.assert_array_equal(np.diag(sim), 1.0)
        np.testing.assert_array_equal(sim, sim.T)
        assert sim.min() >= 0.0 and sim.max() <= 1.0

    def test_orthogonal_rows(self):
        sim = similarity_matrix(np.eye(3))
        np.testing.assert_allclose(sim, np.eye(3), atol=1e-14)

    def test_analytic_cosine(self):
        sim = similarity_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert sim[0, 1] == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((7, 3))
        np.testing.assert_allclose(
            similarity_matrix(f), similarity_oracle(f), atol=1e-12
        )

    def test_row_scaling_and_sign_invariance(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((6, 3))
        sim = similarity_matrix(f)
        scaled = f * rng.uniform(0.5, 3.0, (6, 1))
        scaled[2] *= -1.0
        flipped_col = scaled.copy()
        flipped_col[:, 1] *= -1.0
        np.testing.assert_allclose(similarity_matrix(scaled), sim, atol=1e-12)
        # sign flip of a whole column of F changes nothing either
        np.testing.assert_allclose(
            similarity_matrix(flipped_col[:, [0, 1, 2]]),
            similarity_matrix(scaled),
            atol=1e-12,
        )

    def test_zero_norm_row_rejected(self):
        f = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ClusteringError, match="zero-norm row 1"):
            similarity_matrix(f)


class TestKMeans:
    def test_every_point_its_own_center(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((5, 2))
        fit = kmeans(pts, d=5, restarts=5, seed=0)
        assert fit.wcss == pytest.approx(0.0, abs=1e-12)
        assert len(set(fit.assignments.tolist())) == 5

    def test_line_points_split(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        fit = kmeans(pts, d=2, restarts=4, seed=0)
        assert fit.assignments[0] == fit.assignments[1]
        assert fit.assignments[2] == fit.assignments[3]
        assert fit.assignments[0] != fit.assignments[2]
        best_wcss, best_codes = kmeans_oracle(pts, 2)
        assert fit.wcss == pytest.approx(best_wcss, abs=1e-12)
        assert partition_sets(fit.assignments) == partition_sets(best_codes)

    def test_identical_points_zero_wcss(self):
        pts = np.ones((6, 3))
        for d in (1, 2, 4):
            fit = kmeans(pts, d=d, restarts=3, seed=1)
            assert fit.wcss == 0.0
            assert np.bincount(fit.assignments, minlength=d).min() >= 1

    def test_wcss_trace_monotone(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            pts = np.random.default_rng(seed).standard_normal((30, 3))
            fit = kmeans(pts, d=4, restarts=3, seed=seed)
            trace = np.array(fit.wcss_trace)
            assert 2 <= len(trace) <= 300
            assert np.all(np.diff(trace) <= 1e-9 * max(1.0, trace[0]))

    def test_d_out_of_bounds(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ClusteringError, match="d="):
            kmeans(pts, d=4)

    def test_restarts_below_one_rejected(self):
        pts = np.random.default_rng(9).standard_normal((40, 3))
        for restarts in (0, -2):
            with pytest.raises(ClusteringError, match=f"restarts={restarts}"):
                kmeans(pts, d=3, restarts=restarts)

    @pytest.mark.filterwarnings("error")
    def test_duplicate_heavy_points_repair_cleanly(self):
        # heavy duplication forces empty-cluster repair; stealing a sole
        # member used to cascade into an empty mean
        from oracles import kmeans_oracle

        for trial in range(30):
            r = np.random.default_rng(777_000 + trial)
            m = int(r.integers(4, 13))
            d = int(r.integers(1, 4))
            q = int(r.integers(1, 4))
            base = r.standard_normal((max(2, m // 2), q))
            pts = base[r.integers(0, len(base), m)]
            pts = pts + 1e-12 * r.standard_normal((m, q))
            fit = kmeans(pts, d, restarts=10, seed=trial)
            assert np.bincount(fit.assignments, minlength=d).min() >= 1
            best, _ = kmeans_oracle(pts, d)
            assert fit.wcss == pytest.approx(best, abs=1e-9)

    def test_curve_non_increasing(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            pts = np.random.default_rng(100 + seed).standard_normal((25, 4))
            curve = wcss_curve(pts, d_max=6, restarts=5, seed=seed)
            values = [curve[d].wcss for d in range(1, 7)]
            assert all(
                values[i + 1] <= values[i] + 1e-9 for i in range(len(values) - 1)
            )


def _blobs(m, q, centers, seed, spread=0.6):
    rng = np.random.default_rng(seed)
    means = 3.0 * rng.standard_normal((centers, q))
    return means[rng.integers(0, centers, m)] + spread * rng.standard_normal((m, q))


def _duplicates(m, q, seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((max(2, m // 3), q))
    return base[rng.integers(0, len(base), m)]


def _winner(wcss):
    """Index ``kmeans`` keeps: the smallest WCSS, the earliest on a tie."""
    return min(range(len(wcss)), key=lambda i: (wcss[i], i))


def _warm_inits(pts, d, seed):
    """``wcss_curve``'s candidates at d: the split of the d - 1 fit first."""
    warm = _split_farthest(pts, kmeans(pts, d - 1, restarts=20, seed=seed))
    sq = np.sum(pts**2, axis=1)
    return [warm] + _candidate_inits(pts, sq, d, 20, seed + 1)


def _far_center_inits(pts, d, seed):
    """Spread seeds plus one set with a center no point is nearest to, so
    the empty-cluster repair fires on the first iteration."""
    sq = np.sum(pts**2, axis=1)
    inits = _candidate_inits(pts, sq, d, 8, seed)
    far = inits[0].copy()
    far[-1] = 1e3
    return [far] + inits


LOCKSTEP_CASES = {
    # spread seeding, restarts that settle at different iterations
    "spread": lambda: (_blobs(150, 6, 5, 1), 5, None),
    "warm_start": lambda: (_blobs(120, 4, 6, 2), 4, "warm"),
    "repair_far_center": lambda: (_blobs(60, 3, 4, 3), 4, "far"),
    "d_is_1": lambda: (_blobs(300, 5, 3, 4), 1, None),
    "d_is_m": lambda: (_blobs(7, 2, 3, 5), 7, None),
    "exhaustive_subsets": lambda: (_blobs(10, 2, 3, 6), 3, None),
    "duplicates": lambda: (_duplicates(40, 3, 7), 6, None),
    "duplicates_exhaustive": lambda: (_duplicates(9, 2, 8), 4, None),
}


class TestLockstepLloyd:
    """All restarts in one batch equal one restart at a time."""

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_matches_per_restart_reference(self, case):
        pts, d, kind = LOCKSTEP_CASES[case]()
        sq = np.sum(pts**2, axis=1)
        if kind == "warm":
            inits = _warm_inits(pts, d, seed=11)
        elif kind == "far":
            inits = _far_center_inits(pts, d, seed=12)
        else:
            inits = _candidate_inits(pts, sq, d, 20, seed=13)
        got = _lloyd(pts, sq, inits)
        want = [lloyd_oracle(pts, sq, init) for init in inits]
        assert len(got) == len(want) == len(inits)
        for (labels, centers, trace), (w_labels, w_centers, w_trace) in zip(
            got, want
        ):
            np.testing.assert_array_equal(labels, w_labels)
            assert len(trace) == len(w_trace)
            np.testing.assert_allclose(trace, w_trace, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(centers, w_centers, rtol=1e-12, atol=1e-12)
        assert _winner([t[-1] for *_, t in got]) == _winner([t[-1] for *_, t in want])

    def test_cases_cover_the_paths(self):
        # the batch must see restarts leave at different iterations, the
        # repair, and the exhaustive-subset path
        pts, d, _ = LOCKSTEP_CASES["spread"]()
        sq = np.sum(pts**2, axis=1)
        runs = _lloyd(pts, sq, _candidate_inits(pts, sq, d, 20, 13))
        assert len({len(trace) for *_, trace in runs}) > 1
        pts, d, _ = LOCKSTEP_CASES["repair_far_center"]()
        init = _far_center_inits(pts, d, seed=12)[0]
        gaps = np.sum((pts[:, None, :] - init[None, :, :]) ** 2, axis=2)
        assert np.bincount(np.argmin(gaps, axis=1), minlength=d).min() == 0
        pts, d, _ = LOCKSTEP_CASES["exhaustive_subsets"]()
        sq = np.sum(pts**2, axis=1)
        assert len(_candidate_inits(pts, sq, d, 20, 13)) == math.comb(10, 3)

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_kmeans_keeps_the_reference_winner(self, case):
        pts, d, _ = LOCKSTEP_CASES[case]()
        sq = np.sum(pts**2, axis=1)
        inits = _candidate_inits(pts, sq, d, 20, 13)
        want = [lloyd_oracle(pts, sq, init) for init in inits]
        best = want[_winner([t[-1] for *_, t in want])]
        fit = kmeans(pts, d, restarts=20, seed=13)
        np.testing.assert_array_equal(fit.assignments, best[0])
        assert fit.wcss == pytest.approx(best[2][-1], rel=1e-12)
        assert len(fit.wcss_trace) == len(best[2])


def _first_seen_labels(assignments) -> str:
    """Partition as a string, clusters numbered by first appearance."""
    seen: dict[int, int] = {}
    return "".join(str(seen.setdefault(int(a), len(seen))) for a in assignments)


# wcss_curve(sim, 8, seed=3) on the similarity matrix of
# ScenarioSpec(n=300, d=4, p1=20, p_extra=20, seed=5) with the true counts
# (81 retained series), recorded with the per-cluster mean update that
# the one-hot matmul update replaced
PINNED_CURVE = {
    1: ("0" * 81, 460.36424032650393),
    2: ("000000101000000000000000010000000010000000011000000011001010011110000001101000100",
        349.38219467446874),
    3: ("011110212110111111110001020111110121100111022111001122102120022221101112212111210",
        256.5019732528969),
    4: ("011120323220111121120002030222220232100112033222002233103230033332101213313111320",
        201.87138353237685),
    5: ("011123434233111121120003040332320343100113044223002344104340044443101214414111420",
        170.88674482591753),
    6: ("012134545344121231130004050443430454100214055334003455205450055554201325515212530",
        147.9045387821211),
    7: ("012130456350121231130005040555530565100215046335003544206560046465201326616212650",
        128.97736146488896),
    8: ("012134546744121271170004050337370463100214056773007355206460056564201726636212630",
        110.2395082260008),
}


class TestPinnedCurve:
    @pytest.fixture(scope="class")
    def curve_and_points(self):
        spec = ScenarioSpec(n=300, d=4, p1=20, p_extra=20, seed=5)
        panel, _ = generate_scenario(spec)
        result = cluster_pipeline(
            panel, counts=(spec.r0, spec.r_per_cluster * spec.d), seed=0
        )
        sim = similarity_matrix(result.weak.matrix[result.retained_indices])
        return wcss_curve(sim, 8, seed=3), sim

    def test_partitions(self, curve_and_points):
        curve, _ = curve_and_points
        got = {d: _first_seen_labels(fit.assignments) for d, fit in curve.items()}
        assert got == {d: labels for d, (labels, _) in PINNED_CURVE.items()}
        for d, (_, wcss) in PINNED_CURVE.items():
            assert curve[d].wcss == pytest.approx(wcss, rel=1e-12)

    def test_wcss_is_direct_sum_of_squares(self, curve_and_points):
        curve, pts = curve_and_points
        for fit in curve.values():
            direct = float(np.sum((pts - fit.centers[fit.assignments]) ** 2))
            assert fit.wcss == pytest.approx(direct, rel=1e-12)

    def test_traces_never_increase(self, curve_and_points):
        curve, _ = curve_and_points
        for fit in curve.values():
            trace = np.array(fit.wcss_trace)
            assert trace[-1] == fit.wcss
            assert np.all(np.diff(trace) <= 1e-9 * max(1.0, trace[0]))


class TestElbow:
    def test_hand_curve(self):
        curve = {1: 10.0, 2: 1.0, 3: 0.98, 4: 0.97}
        assert elbow_select(curve, 4) == 2

    def test_geometric_curve_never_stabilizes(self):
        curve = {d: 2.0 ** (-d) for d in range(1, 7)}
        assert elbow_select(curve, 6) == 6

    def test_zero_wcss_stabilizes(self):
        curve = {1: 5.0, 2: 0.0, 3: 0.0}
        assert elbow_select(curve, 3) == 2

    def test_single_d(self):
        assert elbow_select({1: 3.0}, 1) == 1


class TestPipeline:
    def test_single_cluster_degenerate(self):
        rng = np.random.default_rng(9)
        p, n = 30, 300
        a = rng.uniform(-1, 1, p)
        x = rng.standard_normal(n) * 5.0
        panel = TimeSeriesPanel(values=np.outer(a, x) + 0.01 * rng.standard_normal((p, n)))
        result = cluster_pipeline(panel, k0=2, counts=(1, 1), seed=0)
        assert result.d_used == 1
        assert np.all(result.assignments == 0)

    def test_label_distribution_row_sums(self):
        spec = ScenarioSpec(n=300, d=3, p1=8, p_extra=4, r0=1, r_per_cluster=1, seed=11)
        panel, truth = generate_scenario(spec)
        names = ("none", "alpha", "beta", "gamma")
        labeled = TimeSeriesPanel(
            values=panel.values,
            labels=tuple(names[m] for m in truth.membership),
        )
        result = cluster_pipeline(labeled, k0=3, counts=(1, 3), seed=1)
        cats, dist = label_distribution(
            result.assignments,
            [labeled.labels[i] for i in result.retained_indices],
            result.d_used,
        )
        np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=1e-12)
        # direct counting oracle
        for i, cat in enumerate(cats):
            member = [
                a for a, idx in zip(result.assignments, result.retained_indices)
                if labeled.labels[idx] == cat
            ]
            for j in range(result.d_used):
                assert dist[i, j] == pytest.approx(
                    member.count(j) / len(member), abs=1e-15
                )

    def test_everything_detected_raises(self):
        rng = np.random.default_rng(12)
        panel = TimeSeriesPanel(values=rng.standard_normal((10, 60)))
        with pytest.raises(ClusteringError, match="retained"):
            cluster_pipeline(panel, k0=1, counts=(1, 2), omega=1e6)

    def test_d_override_beyond_d_hat(self):
        spec = ScenarioSpec(n=250, d=2, p1=8, p_extra=2, r0=1, r_per_cluster=1, seed=13)
        panel, _ = generate_scenario(spec)
        result = cluster_pipeline(panel, k0=2, counts=(1, 2), d=4, seed=0)
        assert result.d_used == 4
        assert result.provenance["d_source"] == "override"

    def test_invalid_counts_override(self):
        spec = ScenarioSpec(n=100, d=2, p1=5, p_extra=2, r0=1, r_per_cluster=1, seed=14)
        panel, _ = generate_scenario(spec)
        with pytest.raises(ClusteringError, match="counts"):
            cluster_pipeline(panel, counts=(-1, 2))

    @pytest.mark.parametrize("counts", [(-1, 2), (1, 0)], ids=["r0-negative", "r-zero"])
    def test_invalid_counts_rejected_before_the_lag_stack(self, monkeypatch, counts):
        built = []
        monkeypatch.setattr(clustering_module, "lag_stack",
                            lambda *args: built.append(args))
        rng = np.random.default_rng(14)
        panel = TimeSeriesPanel(values=rng.standard_normal((12, 60)))
        with pytest.raises(ClusteringError, match="invalid counts override"):
            cluster_pipeline(panel, counts=counts)
        assert built == []

    def test_permutation_equivariance(self):
        spec = ScenarioSpec(n=250, d=3, p1=8, p_extra=4, r0=1, r_per_cluster=1, seed=21)
        panel, _ = generate_scenario(spec)
        perm = np.random.default_rng(99).permutation(panel.p)
        shuffled = TimeSeriesPanel(values=panel.values[perm])
        kwargs = dict(k0=3, counts=(1, 3), omega="p2", seed=5, restarts=20)
        base = cluster_pipeline(panel, **kwargs)
        moved = cluster_pipeline(shuffled, **kwargs)
        inverse = np.argsort(perm)  # old index i now sits at row inverse[i]
        assert set(moved.no_cluster_indices.tolist()) == {
            int(inverse[i]) for i in base.no_cluster_indices
        }
        assert base.d_hat == moved.d_hat
        assert base.d_used == moved.d_used
        base_map = dict(zip(base.retained_indices.tolist(), base.assignments.tolist()))
        moved_map = dict(zip(moved.retained_indices.tolist(), moved.assignments.tolist()))
        for old_idx, label in base_map.items():
            assert moved_map[int(inverse[old_idx])] == label

    def test_result_serializes(self):
        import json

        spec = ScenarioSpec(n=200, d=2, p1=6, p_extra=2, r0=1, r_per_cluster=1, seed=31)
        panel, _ = generate_scenario(spec)
        result = cluster_pipeline(panel, k0=2, counts=(1, 2), seed=0)
        payload = json.loads(result.to_json())
        assert payload["d_used"] == result.d_used
        assert len(payload["assignments"]) == len(result.retained_indices)
        assert payload["provenance"]["omega_variant"] == "p2"
