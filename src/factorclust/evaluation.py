"""Ground-truth metrics: subspace errors, detection error rates, and
misclassification counts, plus mean/sd aggregation across replications."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EvaluationError",
    "DetectionErrors",
    "SummaryTable",
    "projection_distance",
    "detection_errors",
    "misclassification_count",
    "aggregate_records",
]


class EvaluationError(ValueError):
    """Incompatible inputs to an evaluation metric."""


def projection_distance(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    """Operator and Frobenius norms of A A^T - B B^T for orthonormal bases A
    (p x a) and B (p x b), without forming either p x p projection.

    The singular values of C = A^T B are the cosines of the principal angles
    between the spans (Bjorck & Golub 1973; Golub & Van Loan, *Matrix
    Computations*, section 6.4.3).  Hence the squared Frobenius norm is
    a + b - 2 ||C||_F^2 = ||B - A C||_F^2 + ||A - B C^T||_F^2, and the
    operator norm is 1 if a != b, 0 if a = b = 0, and otherwise
    sin theta_max = ||B - A C||_2.  Both are taken from the residuals,
    which do not cancel at small angles.  Raises ``EvaluationError``
    unless A and B are 2-d with as many rows and orthonormal columns
    within 1e-8.
    """
    a = np.asarray(A, dtype=float)
    b = np.asarray(B, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise EvaluationError(f"shape mismatch: {a.shape} vs {b.shape}")
    for name, m in (("A", a), ("B", b)):
        if np.abs(m.T @ m - np.eye(m.shape[1])).max(initial=0.0) > 1e-8:
            raise EvaluationError(f"{name} columns are not orthonormal within 1e-8")
    c = a.T @ b
    resid_b = b - a @ c
    fro = math.hypot(np.linalg.norm(resid_b), np.linalg.norm(a - b @ c.T))
    if a.shape[1] != b.shape[1]:
        return 1.0, fro
    if a.shape[1] == 0:
        return 0.0, fro
    return float(np.linalg.norm(resid_b, 2)), fro


@dataclass(frozen=True)
class DetectionErrors:
    """No-cluster detection error rates.

    e1 is the fraction of truly clustered series wrongly flagged as
    no-cluster; e2 the fraction of true no-cluster series that were
    retained.  When a denominator set is empty the rate is 0 by
    convention.
    """

    e1: float
    e2: float


def detection_errors(
    J_hat: Iterable[int], J_true: Iterable[int], p: int
) -> DetectionErrors:
    """Exact set arithmetic of the two detection error rates (0-based)."""
    hat = set(int(i) for i in J_hat)
    true = set(int(i) for i in J_true)
    for name, s in (("J_hat", hat), ("J_true", true)):
        if any(i < 0 or i >= p for i in s):
            raise EvaluationError(f"{name} contains indices outside range(0, {p})")
    complement = set(range(p)) - true
    e1 = len(complement & hat) / len(complement) if complement else 0.0
    e2 = len(true - hat) / len(true) if true else 0.0
    return DetectionErrors(e1=e1, e2=e2)


def _compact(labels: np.ndarray) -> tuple[np.ndarray, int]:
    uniq, codes = np.unique(labels, return_inverse=True)
    return codes, len(uniq)


def misclassification_count(assignments: Sequence[int], truth: Sequence[int]) -> int:
    """Minimum number of disagreements over all cluster label matchings.

    The best matching is the optimal assignment on the confusion matrix
    (Kuhn 1955), which maximizes the agreement over every one-to-one map
    between the two label sets, also when they differ in size.  Any number of
    distinct labels is accepted on either side.
    """
    # imported at first use, as ARPACK is in cluster_upper_bound:
    # scipy.optimize adds about 0.23 s to start-up, and only the scoring
    # against a known truth (simulate) needs it
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(assignments)
    t = np.asarray(truth)
    if a.shape != t.shape or a.ndim != 1:
        raise EvaluationError(f"length mismatch: {a.shape} vs {t.shape}")
    m = len(a)
    if m == 0:
        return 0
    a_codes, d_a = _compact(a)
    t_codes, d_t = _compact(t)
    confusion = np.zeros((d_a, d_t), dtype=int)
    np.add.at(confusion, (a_codes, t_codes), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    return m - int(confusion[rows, cols].sum())


@dataclass
class SummaryTable:
    """Per-metric mean, sample sd and replication count."""

    rows: list[tuple[str, float, float, int]]

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "mean", "sd", "n_reps"])
            for name, mean, sd, n in self.rows:
                writer.writerow([name, f"{mean:.17g}", f"{sd:.17g}", n])


def aggregate_records(records: Sequence[dict]) -> SummaryTable:
    """Mean/sd per numeric key, relative frequency per boolean key.

    None values are skipped per key; a single observation has sd 0.
    """
    if not records:
        raise EvaluationError("no replications to aggregate")
    keys: list[str] = []
    for rec in records:
        for key in rec:
            if key not in keys:
                keys.append(key)
    rows: list[tuple[str, float, float, int]] = []
    for key in keys:
        values = [rec[key] for rec in records if rec.get(key) is not None]
        if not values:
            continue
        if isinstance(values[0], (bool, np.bool_)):
            arr = np.array([1.0 if v else 0.0 for v in values])
        elif isinstance(values[0], (int, float, np.integer, np.floating)):
            arr = np.array([float(v) for v in values])
        else:
            continue
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        rows.append((key, mean, sd, len(arr)))
    return SummaryTable(rows=rows)

