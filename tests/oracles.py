"""Independent brute-force reference implementations used by the tests.

Everything here deliberately avoids the code paths of the package:
covariances by explicit double loops over matrix entries, eigenpairs by
cyclic Jacobi rotations, K-means by exhaustive enumeration of label
vectors, Lloyd's algorithm one restart at a time, and label matching by
trying every bijection.  Slow but unambiguous.  The OpenBLAS thread
controls of numpy and scipy are found from each package's own install,
not from the process's maps.
"""

from __future__ import annotations

import ctypes
import importlib.util
import math
import os
from itertools import permutations
from pathlib import Path

import numpy as np

from factorclust.clustering import DEFAULT_MAX_ITER


def lag_autocov_oracle(values: np.ndarray, k: int) -> np.ndarray:
    """Entry-wise S(k)[i, j] = (1/n) sum_t (y[i, t+k] - m[i]) (y[j, t] - m[j])."""
    p, n = values.shape
    mean = np.array([sum(values[i]) / n for i in range(p)])
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            acc = 0.0
            for t in range(n - k):
                acc += (values[i, t + k] - mean[i]) * (values[j, t] - mean[j])
            out[i, j] = acc / n
    return out


def pooled_oracle(values: np.ndarray, k0: int) -> np.ndarray:
    """Sum of S(k) S(k)^T with each S(k) built by the loop oracle."""
    p = values.shape[0]
    total = np.zeros((p, p))
    for k in range(k0 + 1):
        s = lag_autocov_oracle(values, k)
        total += s @ s.T
    return (total + total.T) / 2.0


def per_lag_spectra_oracle(covs: np.ndarray, p: int) -> np.ndarray:
    """Row k: the squared singular values of S(k), from one SVD per lag,
    zero-padded to p entries."""
    out = np.zeros((len(covs), p))
    for k, cov in enumerate(covs):
        out[k, : len(cov)] = np.linalg.svd(cov, compute_uv=False) ** 2
    return out


def residualize_oracle(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Column-by-column subtraction of the projection onto span(q)."""
    out = np.empty_like(values)
    for t in range(values.shape[1]):
        col = values[:, t]
        out[:, t] = col - q @ (q.T @ col)
    return out


def jacobi_eigh(sym: np.ndarray, tol: float = 1e-13, max_sweeps: int = 100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns eigenvalues (descending) and the matching eigenvector columns.
    """
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.abs(a).max(), 1e-300)
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off = max(off, abs(a[i, j]))
        if off <= tol * scale:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                if abs(a[i, j]) <= 1e-300:
                    continue
                theta = (a[j, j] - a[i, i]) / (2.0 * a[i, j])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[i, i] = rot[j, j] = c
                rot[i, j] = s
                rot[j, i] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


def similarity_oracle(rows: np.ndarray) -> np.ndarray:
    """Double-loop absolute cosine similarity."""
    m = rows.shape[0]
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            num = abs(float(np.dot(rows[i], rows[j])))
            den = float(np.sqrt(np.dot(rows[i], rows[i]) * np.dot(rows[j], rows[j])))
            out[i, j] = num / den
    return out


def frobenius_oracle(diff: np.ndarray) -> float:
    """Entry-wise sum of squares, then square root."""
    acc = 0.0
    for row in diff:
        for x in row:
            acc += float(x) * float(x)
    return float(np.sqrt(acc))


def kmeans_oracle(points: np.ndarray, d: int) -> tuple[float, np.ndarray]:
    """Globally optimal WCSS over every assignment into at most d groups.

    Enumerates all d**m label vectors (vectorized); empty groups simply
    contribute nothing, so the optimum over "at most d" equals the
    optimum over exactly d nonempty groups whenever splitting helps.
    """
    m, q = points.shape
    n_combos = d**m
    codes = (np.arange(n_combos)[:, None] // d ** np.arange(m)[None, :]) % d
    onehot = codes[:, :, None] == np.arange(d)[None, None, :]
    counts = onehot.sum(axis=1).astype(float)          # (N, d)
    sums = np.einsum("nmd,mq->ndq", onehot, points)     # (N, d, q)
    total = float(np.sum(points**2))
    with np.errstate(divide="ignore", invalid="ignore"):
        explained = np.where(
            counts > 0, np.sum(sums**2, axis=2) / counts, 0.0
        ).sum(axis=1)
    wcss = total - explained
    best = int(np.argmin(wcss))
    return float(wcss[best]), codes[best]


def lloyd_oracle(
    points: np.ndarray, sq: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations with empty-cluster repair; stops when labels settle
    or after ``DEFAULT_MAX_ITER`` iterations.  Returns the labels, the
    centers and the WCSS trace, whose last value is the WCSS.

    The package's single-restart loop from before its restarts ran in
    lockstep, kept verbatim as the per-restart reference.
    """
    m = points.shape[0]
    d = centers.shape[0]
    sq_total = float(sq.sum())
    centers = centers.copy()
    labels = np.full(m, -1, dtype=int)
    trace: list[float] = []
    for _ in range(DEFAULT_MAX_ITER):
        d2 = (
            sq[:, None]
            - 2.0 * points @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        new_labels = np.argmin(d2, axis=1)
        # repair: reseed each empty cluster at the farthest point that is
        # not the sole member of its own cluster (m >= d guarantees one)
        while True:
            counts = np.bincount(new_labels, minlength=d)
            empties = np.flatnonzero(counts == 0)
            if empties.size == 0:
                break
            c = int(empties[0])
            gaps = np.sum((points - centers[new_labels]) ** 2, axis=1)
            gaps[counts[new_labels] <= 1] = -1.0
            far = int(np.argmax(gaps))
            centers[c] = points[far]
            new_labels[far] = c
        if np.array_equal(new_labels, labels):
            trace.append(trace[-1])
            return labels, centers, trace
        labels = new_labels
        onehot = (labels[:, None] == np.arange(d)).astype(float)
        centers = (onehot.T @ points) / counts[:, None]
        # fsum: the value must not depend on how the clusters are numbered
        explained = math.fsum(counts * np.sum(centers**2, axis=1))
        trace.append(max(sq_total - explained, 0.0))
    return labels, centers, trace


def misclassification_oracle(assignments, truth) -> int:
    """Minimum disagreement count over every label bijection, elementwise."""
    a = list(assignments)
    t = list(truth)
    labels_a = sorted(set(a))
    labels_t = sorted(set(t))
    big = labels_a if len(labels_a) >= len(labels_t) else labels_t
    small = labels_t if big is labels_a else labels_a
    best = len(a)
    for perm in permutations(big, len(small)):
        mapping = dict(zip(small, perm))
        if big is labels_a:
            # map truth labels into assignment labels
            mistakes = sum(1 for x, y in zip(a, t) if x != mapping[y])
        else:
            mistakes = sum(1 for x, y in zip(a, t) if mapping[x] != y)
        best = min(best, mistakes)
    return best


def partition_sets(labels) -> set[frozenset]:
    """Partition of indices induced by a label vector (for label-free compares)."""
    groups: dict = {}
    for idx, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(idx)
    return {frozenset(g) for g in groups.values()}


def bundled_openblas(package: str):
    """(setter, getter) of the OpenBLAS build bundled with ``package``
    (numpy or scipy), found from its install without importing it; None
    when the package bundles none or its build is not loaded."""
    origin = Path(importlib.util.find_spec(package).origin).resolve()
    libs = origin.parent.parent / f"{package}.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded
            continue
        for suffix in ("64_", ""):
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def numpy_openblas():
    """(setter, getter) of numpy's bundled OpenBLAS thread count; None
    when absent."""
    return bundled_openblas("numpy")
