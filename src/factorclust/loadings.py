"""Estimation of factor loading spaces from pooled autocovariance eigenvectors.

Only the spans are identified, so estimates are returned as matrices with
orthonormal columns and compared through their principal angles.  The
strong loadings are the leading eigenvectors of the pooled matrix M; the
weak loadings repeat the eigenanalysis after projecting the panel onto the
orthocomplement of the strong span, which sharpens the weaker structure.

When p > n both eigenanalyses run in n dimensions: with the thin QR
X = U R of the centered panel, S(k) = U C(k) U^T (see ``panel``), so the
pooled matrix is U (sum_k C(k) C(k)^T) U^T and its eigenvectors are U
times those of the n x n pool.  The strong span is projected out in the
same space through U^T Q.  U is applied from its Householder reflectors
(``panel.HouseholderBasis``) and never formed.  Since rank S(k) <=
min(p, n - 1), only min(p, n) - 1 directions are identified: r0 <= m - 1
and r <= m - r0 - 1 with m = min(p, n); larger counts raise
``LoadingError``.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .panel import (
    HouseholderBasis,
    LagStack,
    TimeSeriesPanel,
    lag_stack,
    pooled_matrix_from_covs,
)
from .panel import lag_autocov_sequence  # noqa: F401 - perfbench/tracer.py wraps this binding

__all__ = [
    "LoadingError",
    "LoadingMatrix",
    "estimate_strong_loadings",
    "estimate_weak_loadings",
    "oracle_weak_basis",
    "save_loadings_csv",
]


class LoadingError(ValueError):
    """Invalid loading matrix or eigen-estimation failure."""


@dataclass(frozen=True)
class LoadingMatrix:
    """p x r matrix with orthonormal columns; r = 0 is an explicit empty fit."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise LoadingError(f"loading must be 2-d, got shape {m.shape}")
        r = m.shape[1]
        if r > 0:
            gram = m.T @ m
            if np.abs(gram - np.eye(r)).max() > 1e-8:
                raise LoadingError("loading columns are not orthonormal within 1e-8")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def r(self) -> int:
        return self.matrix.shape[1]


def _orient_columns(vectors: np.ndarray) -> np.ndarray:
    """Fix eigenvector signs in place: largest-magnitude entry positive, ties
    by lowest index; returns ``vectors``."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            vectors[:, j] = -col
    return vectors


def _top_eigenvectors(
    sym: np.ndarray, r: int, what: str, basis: HouseholderBasis | None,
    out: np.ndarray,
) -> np.ndarray:
    """Leading r eigenvectors of a symmetric matrix, descending, lifted by
    ``basis`` (if given), written into ``out``, sign-fixed there and
    returned.

    The callers allocate ``out`` before the lag stack and wrap it after the
    stack is freed.  A result allocated while the stack's p x n blocks are
    live can land above them in the heap and keep the allocator from
    returning their pages, and whether it does varies from process to
    process.
    """
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise LoadingError(f"eigen-solver failure for {what}: {exc}") from exc
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    p = sym.shape[0]
    if r < p:
        gap = eigvals[r - 1] - eigvals[r]
        scale = abs(eigvals[0]) or 1.0
        if gap < 1e-12 * scale:
            warnings.warn(
                f"eigenvalue gap at the cut r={r} is below 1e-12 relative; "
                "the returned basis spans a poorly separated eigenspace",
                stacklevel=3,
            )
    vecs = eigvecs[:, :r]
    out[...] = vecs if basis is None else basis.lift(vecs)
    return _orient_columns(out)


def estimate_strong_loadings(
    panel: TimeSeriesPanel | LagStack, k0: int = 5, r0: int = 1
) -> LoadingMatrix:
    """Leading r0 eigenvectors of the pooled matrix M of the panel.

    ``panel`` may be the panel's ``lag_stack`` built with the same k0.

    Raises
    ------
    LoadingError
        If r0 is outside [1, min(p, n) - 1] or the eigen-solver fails.
    """
    m = min(panel.p, panel.n)
    if not 1 <= r0 < m:
        raise LoadingError(f"r0={r0} outside [1, {m - 1}]")
    vecs = np.empty((panel.p, r0))
    stack = lag_stack(panel, k0)
    pooled = pooled_matrix_from_covs(stack.covs)
    _top_eigenvectors(pooled, r0, "strong loadings", stack.basis, vecs)
    del stack, pooled
    return LoadingMatrix(matrix=vecs)


def estimate_weak_loadings(
    panel: TimeSeriesPanel | LagStack, strong: LoadingMatrix, k0: int = 5, r: int = 1
) -> LoadingMatrix:
    """Leading r eigenvectors of the pooled matrix of the projected panel.

    The panel is first projected onto the orthocomplement of the strong
    span (equivalently, each lag covariance S(k) becomes E S(k) E with
    E = I - Q Q^T), so the returned columns are orthogonal to every strong
    column.  For p > n the strong span must lie in the column space of the
    centered panel, as that of ``estimate_strong_loadings`` does.  ``panel``
    may be the panel's ``lag_stack`` built with the same k0.

    Raises
    ------
    LoadingError
        On a row-count mismatch, r outside [1, min(p, n) - r0 - 1], or, for
        p > n, a strong span outside the column space of the centered panel.
    """
    p = panel.p
    if strong.p != p:
        raise LoadingError(f"strong loading has {strong.p} rows, panel has {p}")
    m = min(p, panel.n)
    if not 1 <= r < m - strong.r:
        raise LoadingError(f"r={r} outside [1, {m - strong.r - 1}]")
    vecs = np.empty((p, r))
    stack = lag_stack(panel, k0)
    basis, covs = stack.basis, stack.covs
    q = strong.matrix
    if strong.r > 0:
        qs = q if basis is None else basis.project(q)
        if basis is not None and np.abs(q - basis.lift(qs)).max() > 1e-8:
            raise LoadingError(
                "strong loading leaves the column space of the centered panel"
            )
        # E S(k) E with E = I - Q Q^T, one lag at a time as the pool sums them
        covs = (s - qs @ (qs.T @ s) for s in covs)
        covs = (s - (s @ qs) @ qs.T for s in covs)
    pooled = pooled_matrix_from_covs(covs)
    _top_eigenvectors(pooled, r, "weak loadings", basis, vecs)
    del stack, basis, covs, pooled
    if strong.r > 0:
        overlap = np.abs(q.T @ vecs).max()
        if overlap > 1e-8:
            # eigenvectors attached to (numerically) zero eigenvalues can
            # drift into the strong span; project back and re-orthonormalize
            warnings.warn(
                "weak eigenvectors overlap the strong span "
                f"(max |Q^T v| = {overlap:.2e}); re-orthogonalizing",
                stacklevel=2,
            )
            vecs = vecs - q @ (q.T @ vecs)
            vecs, _ = np.linalg.qr(vecs)
            vecs = _orient_columns(vecs)
    return LoadingMatrix(matrix=vecs)


def oracle_weak_basis(A_true: np.ndarray, B_padded: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the population weak loading space given the
    true loadings.

    The basis spans B* = (I - P_A) B_padded, where P_A is the projection
    onto the span of A_true.  Neither input needs orthonormal columns: P_A
    comes from a thin QR of A_true, and the result is the Q of a thin QR
    of B*.

    Raises
    ------
    LoadingError
        If A_true has condition number above 1e6, or the smallest
        singular value of B* is at most 1e-6 times the largest of
        B_padded (B_padded lies in span(A_true) or is rank deficient).
    """
    a = np.asarray(A_true, dtype=float)
    b = np.asarray(B_padded, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise LoadingError(
            f"incompatible shapes {a.shape} and {b.shape} for the true loadings"
        )
    # a thin QR's R has the singular values of the matrix itself
    q_a, r_a = np.linalg.qr(a)
    if a.shape[1] > a.shape[0] or np.linalg.cond(r_a) > 1e6:
        raise LoadingError("A_true is rank deficient (condition number > 1e6)")
    q, r_b = np.linalg.qr(b - q_a @ (q_a.T @ b))
    if not np.linalg.svd(r_b, compute_uv=False)[-1] > 1e-6 * np.linalg.norm(b, 2):
        raise LoadingError(
            "B* = (I - P_A) B_padded is rank deficient "
            "(smallest singular value <= 1e-6 ||B_padded||_2)"
        )
    return q


def save_loadings_csv(loading: LoadingMatrix, path: str | Path) -> None:
    """Write the loading matrix as CSV, 17 significant digits per entry."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in loading.matrix:
            writer.writerow([f"{v:.17g}" for v in row])
