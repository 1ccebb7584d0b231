"""No-cluster detection, similarity matrix, K-means, and the full pipeline.

Series whose weak-loading row norm falls at or below a threshold omega are
set aside as belonging to no cluster.  The remaining rows F of the weak
loading matrix define a correlation-type similarity

    rho[l, m] = |f_l . f_m| / (||f_l|| ||f_m||),

and K-means with L2 distance on the rows of that similarity matrix
recovers the clusters.  An upper bound d_hat for the number of clusters is
the count of eigenvalues of |B B^T| (entry-wise absolute values) exceeding
c = 1 - 1/log(n); the within-cluster sum of squares curve over d = 1..d_hat
feeds an elbow rule, which is advisory only and can be overridden.

The eigenvalues of S = |B B^T| satisfy sum_i lambda_i^2 = ||S||_F^2, which
is r for orthonormal B, so fewer than ||S||_F^2 / c^2 of them exceed c.
d_hat therefore needs only the k = floor(||S||_F^2 / c^2) + 1 largest
eigenvalues, which the Lanczos method (ARPACK, ``eigsh``) finds without
the full O(p^3) spectrum.  The full spectrum (``eigvalsh``) is the one
fallback: it gives the count when p is too small for Lanczos to pay, when
ARPACK fails, when even the k-th Ritz value exceeds c, or when a Ritz
value lies within ``RITZ_MARGIN`` of c.  ``scipy.sparse.linalg`` is
imported at the first Lanczos call, not with the package: it takes
0.2-0.3 s, and no run below the Lanczos size needs it.  That import
loads scipy's OpenBLAS build, which ARPACK runs on, so the call then has
the BLAS thread controls look for it (``_blas.rescan_once``).

Both |B B^T| and the similarity are Gram products X X^T of a C-contiguous
X.  numpy computes such a product by the symmetric rank-k (syrk) BLAS
routine, which fills one triangle, and copies that triangle into the
other, so both matrices equal their transposes bit for bit at any BLAS
thread count and nothing symmetrizes them afterwards.  Each function reads
its input with ``np.ascontiguousarray``: that copies only a strided view,
the one layout for which numpy would take a general product instead.

K-means runs in kernel form (Dhillon, Guan & Kulis 2004) on the Gram
matrix K = X X^T alone, built once per ``wcss_curve`` (once per direct
``kmeans`` call) and shared by every d, restart and warm split.  A set of
d centers is an m x d weight matrix W with centers W^T X: unit columns at
seeded points, ``onehot / counts`` for means, and for a warm split the
previous fit's mean weights plus one unit column.  One GEMM K W gives

    ||x_i - c_j||^2 = sq[i] - 2 (K W)[i, j] + ||c_j||^2,
    ||c_j||^2 = sum_i W[i, j] (K W)[i, j],

with sq[i] = ||x_i||^2, and for means the within-cluster sum of squares

    WCSS = sum_i sq[i] - sum_j n_j ||c_j||^2   (clipped at 0).

Seeding reads point-to-point distances off the same K, and the
empty-cluster repair reads its gaps off the distances and moves labels.
The restarts of one fit run in lockstep, one K W GEMM per iteration for
all still iterating; a restart whose labels settle leaves the batch.
Since the WCSS is sum_i sq[i] less the explained part, restarts within
``WCSS_TIE_RTOL`` times that sum of the best WCSS are tied, and the
earliest wins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import _blas
from .factor_count import (
    FactorCountReport,
    cumulative_ratio_sequence,
    select_factor_counts,
)
from .loadings import LoadingMatrix, estimate_strong_loadings, estimate_weak_loadings
from .panel import TimeSeriesPanel, lag_stack

__all__ = [
    "ClusteringError",
    "ClusteringResult",
    "KMeansResult",
    "omega_threshold",
    "detect_no_cluster",
    "cluster_upper_bound",
    "similarity_matrix",
    "kmeans",
    "wcss_curve",
    "elbow_select",
    "cluster_pipeline",
    "label_distribution",
]

DEFAULT_RESTARTS = 20
DEFAULT_MAX_ITER = 300
ELBOW_THRESHOLD = 0.10

# cluster_upper_bound asks ARPACK for k eigenvalues only when
# LANCZOS_P_PER_K * k <= p.  Medians on 2 vCPUs, full eigvalsh against
# Lanczos: p = 150, k = 15 (scenario I) 1.0 against 1.0 ms; p = 477,
# k = 25 (the real-data shape) 13.2 against 8.7 ms; p = 1000, k = 30
# 71 against 26 ms; p = 4000, k = 30 3.9 against 0.69 s.
LANCZOS_P_PER_K = 16
# a Ritz value within this distance of the cut, relative to the largest
# Ritz value (at least 1), sends the count to the full spectrum
RITZ_MARGIN = 1e-9


class ClusteringError(ValueError):
    """Invalid clustering input or an empty retained set."""


def omega_threshold(variant, r_hat: int, p: int) -> float:
    """Row-norm threshold for the no-cluster test.

    Variants (r = r_hat):

    - ``"p1"``: sqrt(r / p) / ln p        (strictest, keeps more series)
    - ``"p2"``: sqrt(r / (p ln p))        (default elsewhere; works best)
    - ``"p3"``: sqrt(r / (p ln ln p))     (loosest, drops more series)

    A numeric value must be finite and positive; it is passed through
    unchanged.
    """
    if isinstance(variant, (int, float, np.integer, np.floating)) and not isinstance(
        variant, bool
    ):
        value = float(variant)
        if not (math.isfinite(value) and value > 0):
            raise ClusteringError(
                f"explicit omega must be finite and positive, got {value}"
            )
        return value
    if r_hat < 1:
        raise ClusteringError(f"r_hat must be at least 1, got {r_hat}")
    if p < 3:
        raise ClusteringError(f"p must be at least 3, got {p}")
    log_p = math.log(p)
    if variant == "p1":
        return math.sqrt(r_hat / p) / log_p
    if variant == "p2":
        return math.sqrt(r_hat / (p * log_p))
    if variant == "p3":
        return math.sqrt(r_hat / (p * math.log(log_p)))
    raise ClusteringError(f"unknown omega variant {variant!r}")


def detect_no_cluster(weak, omega: float) -> np.ndarray:
    """Sorted 0-based indices of rows with norm <= omega.

    ``weak`` may be a LoadingMatrix or a plain (p, r) array.
    """
    if not omega > 0:
        raise ClusteringError(f"omega must be positive, got {omega}")
    b = np.asarray(getattr(weak, "matrix", weak), dtype=float)
    norms = np.linalg.norm(b, axis=1)
    return np.flatnonzero(norms <= omega)


def cluster_upper_bound(weak, n: int) -> int:
    """Count of eigenvalues of S = |B B^T| strictly above c = 1 - 1/log(n).

    ``weak`` may be a LoadingMatrix or a plain (p, r) array.  S is built
    in one p x p buffer from B read C-contiguous, so B B^T takes numpy's
    syrk path and S equals its transpose bit for bit.

    The squared eigenvalues of S sum to ||S||_F^2 (r for orthonormal B),
    so fewer than ||S||_F^2 / c^2 of them exceed c.  ARPACK's Lanczos
    iteration computes the k = floor(||S||_F^2 (1 + 1e-12) / c^2) + 1
    largest, and the count is the number of those Ritz values above c.
    ``eigvalsh`` on the whole of S counts instead when
    ``LANCZOS_P_PER_K * k > p``, when ARPACK fails or does not converge,
    when the smallest Ritz value exceeds c, or when a Ritz value lies
    within ``RITZ_MARGIN`` of c.
    """
    if n < 3:
        raise ClusteringError(f"n must be at least 3, got {n}")
    b = np.ascontiguousarray(getattr(weak, "matrix", weak), dtype=float)
    p = b.shape[0]
    c = 1.0 - 1.0 / math.log(n)
    s = b @ b.T
    np.abs(s, out=s)
    k = int(float(np.vdot(s, s)) * (1.0 + 1e-12) / c**2) + 1
    if LANCZOS_P_PER_K * k <= p:
        from scipy.sparse.linalg import ArpackError, eigsh

        _blas.rescan_once()
        try:
            ritz = eigsh(s, k, which="LA", v0=np.ones(p), return_eigenvectors=False)
        except ArpackError:
            pass
        else:
            margin = RITZ_MARGIN * max(1.0, float(ritz.max()))
            if ritz.min() <= c and np.all(np.abs(ritz - c) > margin):
                return int(np.count_nonzero(ritz > c))
    return int(np.count_nonzero(np.linalg.eigvalsh(s) > c))


def similarity_matrix(weak_retained: np.ndarray) -> np.ndarray:
    """Absolute cosine similarity between rows of the retained loadings.

    Symmetric, unit diagonal, entries in [0, 1].  F is read C-contiguous,
    so F F^T takes numpy's syrk path and equals its transpose bit for bit;
    the absolute value and the division by the outer product of the norms
    run in place on that one m x m buffer.

    Raises
    ------
    ClusteringError
        On a zero-norm row, which means the no-cluster detection step
        was skipped.
    """
    f = np.ascontiguousarray(weak_retained, dtype=float)
    if f.ndim != 2:
        raise ClusteringError(f"retained loadings must be 2-d, got shape {f.shape}")
    norms = np.linalg.norm(f, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise ClusteringError(
            f"zero-norm row {bad}: run the no-cluster detection step first"
        )
    sim = f @ f.T
    np.abs(sim, out=sim)
    sim /= np.outer(norms, norms)
    np.clip(sim, 0.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    return sim


@dataclass
class KMeansResult:
    """One fitted K-means solution (best of all restarts)."""

    assignments: np.ndarray  # (m,) labels 0..d-1, no empty cluster
    wcss: float
    wcss_trace: list[float]  # per-iteration values of the winning restart


def _gram(points) -> tuple[np.ndarray, np.ndarray]:
    """K = X X^T of the points, by syrk (X is read C-contiguous), and the
    squared row norms."""
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim != 2:
        raise ClusteringError(f"points must be 2-d, got shape {pts.shape}")
    return pts @ pts.T, np.sum(pts**2, axis=1)


def _spread_init(
    sq: np.ndarray,
    gram: np.ndarray,
    d: int,
    first: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Indices of d spread-out points, the first one given.

    Each further point is the one farthest from the chosen set when ``rng``
    is None, otherwise a draw with probability proportional to the squared
    distance to the chosen set.  Distances come from the cached norms and
    Gram matrix, so each chosen point costs O(m).
    """
    m = sq.shape[0]
    chosen = [first]
    dist = np.maximum(sq + sq[first] - 2.0 * gram[first], 0.0)
    for _ in range(1, d):
        if rng is None:
            nxt = int(np.argmax(dist))
        else:
            total = dist.sum()
            if total <= 0.0:
                nxt = int(rng.integers(m))
            else:
                nxt = int(rng.choice(m, p=dist / total))
        chosen.append(nxt)
        dist = np.minimum(dist, np.maximum(sq + sq[nxt] - 2.0 * gram[nxt], 0.0))
    return np.array(chosen)


# below this many d-point subsets, try them all instead of restarting
EXHAUSTIVE_INIT_LIMIT = 256


def _candidate_inits(
    sq: np.ndarray, gram: np.ndarray, d: int, restarts: int, seed: int
) -> list[np.ndarray]:
    """Initial center weights for the restart loop, one (m, d) matrix of
    unit columns at the seeded points per candidate.

    Tiny problems get every d-subset of the points (deterministic and, in
    practice, relentless about the global optimum).  Larger ones get one
    deterministic farthest-point spread plus seeded distance-weighted
    spreads, first centers cycling through a seeded permutation.
    """
    m = sq.shape[0]
    if not 1 <= d <= m:
        raise ClusteringError(f"d={d} outside [1, {m}]")
    if restarts < 1:
        raise ClusteringError(f"restarts={restarts} must be at least 1")
    if math.comb(m, d) <= max(restarts, EXHAUSTIVE_INIT_LIMIT):
        seeds = [list(combo) for combo in combinations(range(m), d)]
    else:
        children = np.random.SeedSequence(int(seed) % 2**63).spawn(restarts)
        order = np.random.default_rng(children[0]).permutation(m)
        seeds = [_spread_init(sq, gram, d, int(order[0]))]
        for i in range(1, restarts):
            child_rng = np.random.default_rng(children[i])
            seeds.append(_spread_init(sq, gram, d, int(order[i % m]), child_rng))
    inits = [np.zeros((m, d)) for _ in seeds]
    for weights, chosen in zip(inits, seeds):
        weights[chosen, np.arange(d)] = 1.0
    return inits


def _repair_empty(dist: np.ndarray, labels: np.ndarray, d: int) -> np.ndarray:
    """Move into each empty cluster the point farthest from its center that
    is not the sole member of its own cluster (m >= d guarantees one),
    reading the gaps off the (m, d) distances ``dist``; changes only
    ``labels``, in place, and returns the cluster sizes."""
    gaps = dist[np.arange(labels.size), labels]
    while True:
        counts = np.bincount(labels, minlength=d)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return counts
        gaps[counts[labels] <= 1] = -1.0
        labels[int(np.argmax(gaps))] = int(empties[0])


def _lloyd(
    gram: np.ndarray, sq: np.ndarray, inits: list[np.ndarray]
) -> list[tuple[np.ndarray, list[float]]]:
    """Lloyd iterations with empty-cluster repair from every initial (m, d)
    weight matrix at once; each run stops when its labels settle or after
    ``DEFAULT_MAX_ITER`` iterations.  Returns, per initial weights and in
    order, the labels and the WCSS trace, whose last value is the WCSS.

    The A runs still iterating share one (m, A d) GEMM ``K @ W`` per
    iteration, which gives their distances and center norms; a run whose
    labels settle leaves the batch.
    """
    m = sq.shape[0]
    d = inits[0].shape[1]
    sq_total = float(sq.sum())
    weights = np.stack(inits, axis=1)                 # (m, R, d)
    labels = np.full((len(inits), m), -1, dtype=int)
    traces: list[list[float]] = [[] for _ in inits]
    active = np.arange(len(inits))
    for it in range(DEFAULT_MAX_ITER + 1):
        a = active.size
        w = weights[:, active]
        kw = (gram @ w.reshape(m, a * d)).reshape(m, a, d)
        norms = np.sum(w * kw, axis=0)                # (a, d) ||c||^2
        if it:
            # w holds the means of the labels set in the last iteration
            for run, row in zip(active, counts * norms):
                # fsum: the value must not depend on how the clusters are numbered
                traces[run].append(max(sq_total - math.fsum(row), 0.0))
        if it == DEFAULT_MAX_ITER:
            break
        dist = sq[:, None, None] - 2.0 * kw + norms[None, :, :]
        new_labels = np.ascontiguousarray(np.argmin(dist, axis=2).T)  # (a, m)
        offsets = d * np.arange(a)[:, None]
        counts = np.bincount(
            (new_labels + offsets).ravel(), minlength=a * d
        ).reshape(a, d)
        for j in np.flatnonzero((counts == 0).any(axis=1)):
            counts[j] = _repair_empty(dist[:, j], new_labels[j], d)
        settled = (new_labels == labels[active]).all(axis=1)
        for run in active[settled]:
            traces[run].append(traces[run][-1])
        keep = np.flatnonzero(~settled)
        if keep.size == 0:
            break
        active = active[keep]
        labels[active] = new_labels[keep]
        counts = counts[keep]
        onehot = np.zeros((m, keep.size * d))
        onehot[np.arange(m)[None, :], labels[active] + offsets[: keep.size]] = 1.0
        weights[:, active] = (onehot / counts.ravel()).reshape(m, keep.size, d)
    return [(labels[i], traces[i]) for i in range(len(inits))]


# restarts within WCSS_TIE_RTOL * sum_i ||x_i||^2 of the best WCSS are tied
WCSS_TIE_RTOL = 1e-12


def _best_fit(gram: np.ndarray, sq: np.ndarray, inits: list) -> KMeansResult:
    """The earliest Lloyd run from ``inits`` among those tied for the best
    WCSS."""
    runs = _lloyd(gram, sq, inits)
    cut = min(trace[-1] for _, trace in runs) + WCSS_TIE_RTOL * float(sq.sum())
    labels, trace = next(run for run in runs if run[1][-1] <= cut)
    return KMeansResult(assignments=labels, wcss=trace[-1], wcss_trace=trace)


def kmeans(
    points: np.ndarray,
    d: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> KMeansResult:
    """K-means with L2 distance, spread seeding, best of restarts.

    When the number of d-point subsets is small every subset serves as an
    initialization (deterministic); otherwise each restart draws spread-out
    centers from its own child generator, first centers cycling through a
    seeded permutation of the points.  Restarts within ``WCSS_TIE_RTOL``
    of the best WCSS are tied, and the earliest wins.  All candidates
    iterate together on one Gram matrix (``_lloyd``); each one stops when
    its labels settle or after ``DEFAULT_MAX_ITER`` Lloyd iterations.

    Raises
    ------
    ClusteringError
        If d is outside [1, m] or ``restarts`` is below 1.
    """
    gram, sq = _gram(points)
    return _best_fit(gram, sq, _candidate_inits(sq, gram, d, restarts, seed))


def _split_farthest(
    gram: np.ndarray, sq: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Weights of the means of a fitted partition plus a unit column at the
    point farthest from its mean."""
    means = np.eye(int(labels.max()) + 1)[labels]
    means /= means.sum(axis=0)
    kw = gram @ means
    norms = np.sum(means * kw, axis=0)
    gaps = sq - 2.0 * kw[np.arange(labels.size), labels] + norms[labels]
    split = np.zeros((labels.size, 1))
    split[int(np.argmax(gaps))] = 1.0
    return np.hstack([means, split])


def wcss_curve(
    points: np.ndarray,
    d_max: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> dict[int, KMeansResult]:
    """Best K-means fit for every d = 1..d_max, all from one Gram matrix.

    Each d > 1 also receives a warm start splitting the previous best
    solution, evaluated before all restarts, which keeps the reported
    curve non-increasing in d.  Every restart runs at most
    ``DEFAULT_MAX_ITER`` Lloyd iterations.
    """
    gram, sq = _gram(points)
    curve: dict[int, KMeansResult] = {}
    for d in range(1, d_max + 1):
        inits = _candidate_inits(sq, gram, d, restarts, seed + d)
        if d > 1:
            inits.insert(0, _split_farthest(gram, sq, curve[d - 1].assignments))
        curve[d] = _best_fit(gram, sq, inits)
    return curve


def elbow_select(wcss_by_d: dict[int, float], d_max: int) -> int:
    """Smallest d whose relative WCSS drop to d+1 falls below
    ``ELBOW_THRESHOLD`` (0.10).

    Returns d_max when the curve never stabilizes.  Advisory only; report
    the whole curve alongside.
    """
    for d in range(1, d_max):
        w = wcss_by_d[d]
        w_next = wcss_by_d[d + 1]
        drop = 0.0 if w <= 0.0 else (w - w_next) / w
        if drop < ELBOW_THRESHOLD:
            return d
    return d_max


def _canonical_labels(assignments: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Relabel clusters by a geometry-based order so label ids do not depend
    on the input row order: size desc, then center norm desc, then the
    sorted member-norm profile."""
    d = int(assignments.max()) + 1
    keys = []
    for c in range(d):
        members = points[assignments == c]
        center = members.mean(axis=0)
        profile = tuple(np.sort(np.linalg.norm(members, axis=1))[::-1])
        keys.append((-members.shape[0], -float(np.linalg.norm(center)), profile, c))
    order = [k[-1] for k in sorted(keys)]
    relabel = np.empty(d, dtype=int)
    for new, old in enumerate(order):
        relabel[old] = new
    return relabel[assignments]


@dataclass
class ClusteringResult:
    """Output of the five-step pipeline over one panel.

    ``assignments`` has one 0-based cluster id per retained series, in the
    order of ``retained_indices`` (ascending).  ``wcss_by_d`` maps each
    explored d to its best within-cluster sum of squares.
    """

    no_cluster_indices: np.ndarray
    omega: float
    d_hat: int
    d_used: int
    assignments: np.ndarray
    wcss_by_d: dict[int, float]
    retained_indices: np.ndarray
    counts: tuple[int, int]  # (r0, r) actually used
    strong: LoadingMatrix
    weak: LoadingMatrix
    factor_report: FactorCountReport | None
    provenance: dict = field(default_factory=dict)
    series_ids: tuple[str, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.assignments) != len(self.retained_indices):
            raise ClusteringError("one assignment per retained series required")
        present = np.unique(self.assignments)
        if not np.array_equal(present, np.arange(self.d_used)):
            raise ClusteringError(
                f"assignments must cover 0..{self.d_used - 1} with no empty cluster"
            )

    def to_dict(self) -> dict:
        ids = self.series_ids

        def _name(i: int) -> str | int:
            return ids[i] if ids is not None else int(i)

        out = {
            "provenance": dict(self.provenance),
            "counts": {"r0": int(self.counts[0]), "r": int(self.counts[1])},
            "omega": float(self.omega),
            "no_cluster": [_name(i) for i in self.no_cluster_indices],
            "d_hat": int(self.d_hat),
            "d_used": int(self.d_used),
            "wcss_by_d": {str(d): float(w) for d, w in sorted(self.wcss_by_d.items())},
            "retained": [_name(i) for i in self.retained_indices],
            "assignments": [int(a) for a in self.assignments],
        }
        if self.labels is not None:
            categories, dist = label_distribution(
                self.assignments,
                [self.labels[i] for i in self.retained_indices],
                self.d_used,
            )
            out["label_distribution"] = {
                "categories": categories,
                "rows": [[float(v) for v in row] for row in dist],
            }
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def label_distribution(
    assignments: np.ndarray, labels: list[str], d_used: int
) -> tuple[list[str], np.ndarray]:
    """Category-by-cluster share matrix; every row sums to one.

    Entry (i, j) is the fraction of retained series in category i assigned
    to cluster j.  Categories are sorted; only categories present among
    the retained series appear.
    """
    if len(labels) != len(assignments):
        raise ClusteringError("one label per retained series required")
    categories = sorted(set(labels))
    dist = np.zeros((len(categories), d_used))
    for cat, cluster in zip(labels, assignments):
        dist[categories.index(cat), cluster] += 1.0
    dist /= dist.sum(axis=1, keepdims=True)
    return categories, dist


def cluster_pipeline(
    panel: TimeSeriesPanel,
    k0: int = 5,
    J0: int | None = None,
    counts: tuple[int, int] | None = None,
    omega="p2",
    d: int | None = None,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> ClusteringResult:
    """Run the whole pipeline: counts, loadings, detection, K-means.

    S(0..k0) is built once (``panel.lag_stack``) for every spectral step.
    Estimated counts come from ``select_factor_counts``; the result's
    ``factor_report`` carries them as its ``selected`` property.  Every
    K-means restart runs at most ``DEFAULT_MAX_ITER`` Lloyd iterations, a
    value the provenance records.

    Parameters
    ----------
    counts : (r0, r), optional
        Overrides the ratio-based estimation of the factor numbers
        (r0 may be 0 to skip the strong stage).
    omega : variant name or finite positive float
        Threshold rule for the no-cluster test.
    d : int, optional
        Overrides the elbow choice; may exceed d_hat, which is only an
        asymptotic upper bound.
    """
    p, n = panel.p, panel.n
    factor_report: FactorCountReport | None = None
    counts_source = "override"
    if counts is not None:
        r0, r = counts
        if r0 < 0 or r < 1:
            raise ClusteringError(f"invalid counts override (r0={r0}, r={r})")
    stack = lag_stack(panel, k0)
    if counts is None:
        factor_report = cumulative_ratio_sequence(stack, k0=k0, J0=J0)
        r0, r = select_factor_counts(factor_report)
        counts_source = "estimated"
    if r0 == 0:
        strong = LoadingMatrix(matrix=np.zeros((p, 0)))
    else:
        strong = estimate_strong_loadings(stack, k0=k0, r0=r0)
    weak = estimate_weak_loadings(stack, strong, k0=k0, r=r)

    omega_value = omega_threshold(omega, r_hat=r, p=p)
    no_cluster = detect_no_cluster(weak, omega_value)
    retained = np.setdiff1d(np.arange(p), no_cluster)
    if len(retained) < 2:
        raise ClusteringError(
            f"only {len(retained)} series retained after the no-cluster test; "
            "nothing to cluster"
        )
    d_hat = cluster_upper_bound(weak, n)

    f_retained = weak.matrix[retained]
    sim = similarity_matrix(f_retained)

    m = len(retained)
    if d is not None and not 1 <= d <= m:
        raise ClusteringError(f"d override {d} outside [1, {m}]")
    d_cap = min(max(d_hat, 1), m)
    d_top = d_cap if d is None else max(d, d_cap)
    curve = wcss_curve(sim, d_top, restarts=restarts, seed=seed)
    wcss_by_d = {dd: res.wcss for dd, res in curve.items()}
    if d is None:
        d_used = elbow_select(wcss_by_d, d_cap)
    else:
        d_used = d
    final = curve[d_used]
    assignments = _canonical_labels(final.assignments, sim)

    provenance = {
        "k0": int(k0),
        "J0": int(factor_report.J0) if factor_report is not None else J0,
        "omega_variant": omega if isinstance(omega, str) else "explicit",
        "omega_value": float(omega_value),
        "counts_source": counts_source,
        "r0": int(r0),
        "r": int(r),
        "d_source": "override" if d is not None else "elbow",
        "d_hat": int(d_hat),
        "seed": int(seed),
        "restarts": int(restarts),
        "max_iter": DEFAULT_MAX_ITER,
        "elbow_threshold": ELBOW_THRESHOLD,
    }
    return ClusteringResult(
        no_cluster_indices=no_cluster,
        omega=omega_value,
        d_hat=d_hat,
        d_used=d_used,
        assignments=assignments,
        wcss_by_d=wcss_by_d,
        retained_indices=retained,
        counts=(r0, r),
        strong=strong,
        weak=weak,
        factor_report=factor_report,
        provenance=provenance,
        series_ids=panel.series_ids,
        labels=panel.labels,
    )
