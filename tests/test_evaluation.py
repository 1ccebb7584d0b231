import math
import tracemalloc

import numpy as np
import pytest

from factorclust import (
    EvaluationError,
    SummaryTable,
    aggregate_records,
    detection_errors,
    misclassification_count,
    projection_distance,
)

from oracles import frobenius_oracle, misclassification_oracle


def random_basis(p, r, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((p, r)))[0]


class TestProjectionDistance:
    def test_same_subspace_different_bases(self):
        rng = np.random.default_rng(0)
        q1, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        rot = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        op, fro = projection_distance(q1, q1 @ rot)
        assert op < 1e-10 and fro < 1e-10

    def test_orthogonal_lines_analytic(self):
        op, fro = projection_distance(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        assert op == pytest.approx(1.0, rel=1e-12)
        assert fro == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_frobenius_matches_entrywise_oracle(self):
        a = random_basis(6, 2, seed=1)
        b = random_basis(6, 3, seed=2)
        _, fro = projection_distance(a, b)
        assert fro == pytest.approx(frobenius_oracle(a @ a.T - b @ b.T), abs=1e-12)

    def test_operator_leq_frobenius(self):
        for seed in range(10):
            a = random_basis(7, 2, seed=seed)
            b = random_basis(7, 2, seed=seed + 100)
            op, fro = projection_distance(a, b)
            assert op <= fro + 1e-12

    def test_triangle_inequality(self):
        for seed in range(15):
            a = random_basis(5, 2, seed=seed)
            b = random_basis(5, 2, seed=seed + 50)
            c = random_basis(5, 1, seed=seed + 100)
            for idx in (0, 1):
                ab = projection_distance(a, b)[idx]
                ac = projection_distance(a, c)[idx]
                cb = projection_distance(c, b)[idx]
                assert ab <= ac + cb + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(EvaluationError, match="shape"):
            projection_distance(random_basis(3, 2, seed=0), random_basis(4, 2, seed=1))
        with pytest.raises(EvaluationError, match="shape"):
            projection_distance(np.ones(3) / np.sqrt(3.0), random_basis(3, 1, seed=0))

    def test_non_orthonormal_rejected(self):
        good = random_basis(6, 2, seed=3)
        sheared = good.copy()
        sheared[:, 1] += 1e-6 * good[:, 0]
        for bad in (1.001 * good, sheared, np.ones((6, 1))):
            with pytest.raises(EvaluationError, match="B columns are not orthonormal"):
                projection_distance(good, bad)
            with pytest.raises(EvaluationError, match="A columns are not orthonormal"):
                projection_distance(bad, good)

    def test_no_p_by_p_array(self):
        # one p x p float64 array would be 3.2 GB; the bases are 0.8 MB each
        a = random_basis(20_000, 5, seed=4)
        b = random_basis(20_000, 5, seed=5)
        tracemalloc.start()
        try:
            projection_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestDetectionErrors:
    def test_perfect_detection(self):
        errs = detection_errors({3, 7}, {3, 7}, p=10)
        assert (errs.e1, errs.e2) == (0.0, 0.0)

    def test_everything_flagged(self):
        errs = detection_errors(set(range(10)), {8, 9}, p=10)
        assert errs.e1 == 1.0 and errs.e2 == 0.0

    def test_hand_case(self):
        # true free set {8, 9}; detected {7, 9}
        errs = detection_errors({7, 9}, {8, 9}, p=10)
        assert errs.e1 == pytest.approx(1.0 / 8.0)
        assert errs.e2 == pytest.approx(1.0 / 2.0)

    def test_empty_truth_convention(self):
        errs = detection_errors({1}, set(), p=5)
        assert errs.e2 == 0.0

    def test_full_truth_convention(self):
        errs = detection_errors(set(), set(range(5)), p=5)
        assert errs.e1 == 0.0

    def test_out_of_range(self):
        with pytest.raises(EvaluationError, match="outside"):
            detection_errors({5}, {0}, p=5)

    def test_self_detection_is_zero_for_any_set(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(2, 30))
            j = set(rng.choice(p, size=rng.integers(0, p + 1), replace=False).tolist())
            errs = detection_errors(j, j, p=p)
            assert (errs.e1, errs.e2) == (0.0, 0.0)


class TestMisclassification:
    def test_label_swap_is_zero(self):
        truth = [1, 1, 2, 2, 3]
        swapped = [2, 2, 1, 1, 3]
        assert misclassification_count(swapped, truth) == 0

    def test_hand_case(self):
        assert misclassification_count([1, 2, 1, 2], [1, 1, 2, 2]) == 2

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        for seed in range(30):
            r = np.random.default_rng(seed)
            m = int(r.integers(4, 20))
            d = int(r.integers(2, 5))
            a = r.integers(1, d + 1, m)
            t = r.integers(1, d + 1, m)
            assert misclassification_count(a, t) == misclassification_oracle(a, t)
        # all d labels on both sides, for every d up to 8, where the
        # bijections are few enough to enumerate
        for d in range(2, 9):
            for seed in range(3):
                r = np.random.default_rng(1000 * d + seed)
                m = int(r.integers(d, 13))
                a = r.permutation(np.r_[np.arange(d), r.integers(0, d, m - d)])
                t = r.permutation(np.r_[np.arange(d), r.integers(0, d, m - d)])
                assert misclassification_count(a, t) == misclassification_oracle(a, t)

    def test_symmetry_and_bijection_invariance(self):
        rng = np.random.default_rng(5)
        for seed in range(15):
            r = np.random.default_rng(seed + 200)
            m = int(r.integers(5, 15))
            a = r.integers(0, 3, m)
            t = r.integers(0, 3, m)
            base = misclassification_count(a, t)
            assert misclassification_count(t, a) == base
            relabel = np.array([2, 0, 1])
            assert misclassification_count(relabel[a], t) == base

    def test_hungarian_branch_agrees_with_exhaustive(self):
        # d = 9, one label more than the other oracle checks; still small
        # enough to brute force
        rng = np.random.default_rng(6)
        a = rng.integers(0, 9, 40)
        t = rng.integers(0, 9, 40)
        got = misclassification_count(a, t)
        assert got == misclassification_oracle(a, t)

    def test_unequal_label_counts(self):
        a = [0, 0, 1, 1, 2]
        t = [0, 0, 1, 1, 1]
        assert misclassification_count(a, t) == 1

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError, match="length"):
            misclassification_count([1, 2], [1])


class TestAggregation:
    def test_single_replication(self):
        table = aggregate_records([{"e1": 0.25, "e2": 0.0, "d_hat_correct": True}])
        assert table.rows == [("e1", 0.25, 0.0, 1), ("e2", 0.0, 0.0, 1),
                              ("d_hat_correct", 1.0, 0.0, 1)]

    def test_two_value_rate(self):
        table = aggregate_records([{"rate": 0.0}, {"rate": 1.0}])
        [(_, mean, sd, n)] = table.rows
        assert mean == pytest.approx(0.5)
        assert sd == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert n == 2

    def test_matches_streaming_oracle(self):
        rng = np.random.default_rng(7)
        records = [{"x": float(v)} for v in rng.standard_normal(200)]
        [(_, mean, sd, n)] = aggregate_records(records).rows
        # Welford streaming mean/variance
        count, m, m2 = 0, 0.0, 0.0
        for rec in records:
            count += 1
            delta = rec["x"] - m
            m += delta / count
            m2 += delta * (rec["x"] - m)
        assert mean == pytest.approx(m, rel=1e-12)
        assert sd == pytest.approx(math.sqrt(m2 / (count - 1)), rel=1e-10)
        assert n == 200

    def test_none_skipped_and_bools_counted(self):
        table = aggregate_records(
            [{"a": 1.0, "flag": True}, {"a": None, "flag": False}, {"a": 3.0, "flag": True}]
        )
        (a_name, a_mean, _, a_n), (flag_name, flag_mean, _, _) = table.rows
        assert (a_name, a_n, flag_name) == ("a", 2, "flag")
        assert a_mean == pytest.approx(2.0)
        assert flag_mean == pytest.approx(2.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError, match="no replications"):
            aggregate_records([])

    def test_csv_output(self, tmp_path):
        table = SummaryTable(rows=[("metric_a", 0.5, 0.1, 10)])
        out = tmp_path / "summary.csv"
        table.write_csv(out)
        text = out.read_text().splitlines()
        assert text[0] == "metric,mean,sd,n_reps"
        assert text[1].startswith("metric_a,0.5,")
