"""Ground-truth metrics: subspace errors, detection error rates, and
misclassification counts, plus mean/sd aggregation across replications."""

from __future__ import annotations

import csv
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


def projection_distance(P: np.ndarray, Q: np.ndarray) -> tuple[float, float]:
    """Operator and Frobenius norms of the difference of two projections.

    The operator norm is the largest absolute eigenvalue of the symmetric
    difference.  Both inputs must be symmetric within 1e-8.
    """
    a = np.asarray(P, dtype=float)
    b = np.asarray(Q, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EvaluationError(f"shape mismatch: {a.shape} vs {b.shape}")
    for name, m in (("P", a), ("Q", b)):
        if np.abs(m - m.T).max() > 1e-8 * max(1.0, np.abs(m).max()):
            raise EvaluationError(f"{name} is not symmetric within 1e-8")
    diff = a - b
    fro = float(np.linalg.norm(diff, "fro"))
    sym = (diff + diff.T) / 2.0
    op = float(np.abs(np.linalg.eigvalsh(sym)).max())
    return op, fro


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

    def as_dict(self) -> dict[str, tuple[float, float, int]]:
        return {name: (mean, sd, n) for name, mean, sd, n in self.rows}

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
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

