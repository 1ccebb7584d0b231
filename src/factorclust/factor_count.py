"""Estimating the numbers of strong and weak factors from eigenvalue ratios.

For each lag k the descending eigenvalues lam[k, 1] >= ... >= lam[k, p] of
S(k) S(k)^T are pooled across lags with weights (1 - k/n) into sums
W_j = sum_k (1 - k/n) lam[k, j], and the ratio sequence is

    R_0 = 1,   R_j = W_j / W_{j+1},   j = 1..J0-1.

The indices of the two largest local maxima of the ratio sequence locate
the number of strong factors (smaller index) and the total number of
factors (larger index).  Denominators below a relative floor are treated
as zero: the first such position, if its numerator is still above the
floor, is an infinite spike and remains an admissible local maximum
(the panel is numerically rank-deficient there); positions where both
sides are below the floor are 0/0 noise and are excluded from the search.

A single-matrix baseline applies the same selection rule to the plain
eigenvalue ratios of the pooled matrix M; it is known to be unstable when
strong and weak factors coexist, and is provided for comparison.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from ._blas import threads_for_dim
from .panel import LagStack, TimeSeriesPanel, lag_stack, pooled_matrix_from_covs
from .panel import lag_autocov_sequence  # noqa: F401 - perfbench/tracer.py wraps this binding

__all__ = [
    "FactorCountError",
    "FactorCountReport",
    "cumulative_ratio_sequence",
    "select_factor_counts",
    "single_matrix_ratio_baseline",
    "default_j0",
]

# Relative floor under which a weighted eigenvalue sum counts as zero.
DENOMINATOR_GUARD = 1e-14


class FactorCountError(ValueError):
    """Ratio sequence unusable for selecting the factor numbers."""


@dataclass(frozen=True)
class FactorCountReport:
    """Ratio sequence, truncation flags and the selection they imply.

    Attributes
    ----------
    ratios : ndarray, shape (J0 - 1,)
        R_1..R_{J0-1}; ``inf`` marks the single admissible spike caused by
        a zero denominator, ``nan`` marks excluded 0/0 positions.
    truncated : ndarray of bool
        True where the denominator fell below the zero guard.
    local_max_indices : list of int
        1-based positions s with R_s > max(R_{s-1}, R_{s+1}), using
        R_0 = 1 and a left-sided test at s = J0 - 1.
    per_lag_eigenvalues : ndarray, shape (rows, p)
        Row k holds the descending eigenvalues of S(k) S(k)^T; for the
        single-matrix baseline a single row holds the eigenvalues of M.
        Entries past min(p, n) are exact zeros: for p > n the spectra are
        computed in n dimensions (see ``panel.lag_stack``).
    method : {"cumulative", "pooled"}

    The report is frozen: no field can be reassigned.  The properties
    ``selected`` and ``tie_break_applied`` are derived from ``ratios`` and
    ``local_max_indices``.
    """

    ratios: np.ndarray
    truncated: np.ndarray
    local_max_indices: list[int]
    J0: int
    k0: int
    n: int
    per_lag_eigenvalues: np.ndarray
    method: str = "cumulative"

    @property
    def selected(self) -> tuple[int, int] | None:
        """(r0_hat, r0_hat + r_hat): the indices of the two largest local
        maxima in ascending order, or None with fewer than two maxima."""
        ranked = _ranked_maxima(self)
        if len(ranked) < 2:
            return None
        tau1, tau2 = sorted(ranked[:2])
        return tau1, tau2

    @property
    def tie_break_applied(self) -> bool:
        """True when the second and third largest maxima have equal ratios,
        so the smaller-index rule decided the cut."""
        values = [self.ratios[j - 1] for j in _ranked_maxima(self)[1:3]]
        return len(values) == 2 and bool(values[0] == values[1])

    def to_dict(self) -> dict:
        """JSON-ready representation (inf/nan ratios become strings)."""

        def _num(x: float):
            if np.isnan(x):
                return "nan"
            if np.isinf(x):
                return "inf"
            return float(x)

        return {
            "method": self.method,
            "J0": int(self.J0),
            "k0": int(self.k0),
            "n": int(self.n),
            "ratios": [_num(x) for x in self.ratios],
            "truncated": [bool(b) for b in self.truncated],
            "local_max_indices": [int(i) for i in self.local_max_indices],
            "selected": None if self.selected is None else
                {"r0": int(self.selected[0]), "r0_plus_r": int(self.selected[1])},
            "tie_break_applied": bool(self.tie_break_applied),
            "per_lag_eigenvalues": [[float(v) for v in row]
                                    for row in np.atleast_2d(self.per_lag_eigenvalues)],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def default_j0(p: int, n: int) -> int:
    """Default truncation point: floor(rho/4), at least 8, at most rho.

    rho = min(p, n - 1) bounds the rank of every S(k), so the ratios stop
    before the rank-deficiency spike of a panel with p >= n.  A two-point
    panel (rho = 1) gets J0 = 2, the one ratio its report can hold.
    """
    rho = min(p, n - 1)
    return max(2, min(max(8, rho // 4), rho))


def _checked_j0(J0: int | None, p: int, n: int) -> int:
    """J0, or its default for a p x n panel, after checking 2 <= J0 <= p."""
    if J0 is None:
        J0 = default_j0(p, n)
    if J0 < 2:
        raise FactorCountError(f"J0 must be at least 2, got {J0}")
    if J0 > p:
        raise FactorCountError(f"J0={J0} exceeds the number of series p={p}")
    return J0


def _ratios_from_weighted_sums(weighted: np.ndarray, j0: int):
    """Build R_1..R_{J0-1} with truncation flags from the pooled sums."""
    guard = DENOMINATOR_GUARD * weighted[0]
    ratios = np.empty(j0 - 1)
    truncated = np.zeros(j0 - 1, dtype=bool)
    for j in range(1, j0):
        num, den = weighted[j - 1], weighted[j]
        if den < guard or den <= 0.0:
            truncated[j - 1] = True
            ratios[j - 1] = np.inf if num >= guard and num > 0.0 else np.nan
        else:
            ratios[j - 1] = num / den
    return ratios, truncated


def _local_maxima(ratios: np.ndarray, truncated: np.ndarray) -> list[int]:
    """1-based indices of admissible local maxima of the ratio sequence.

    R_0 = 1 on the left; the last position J0-1 only needs to beat its
    left neighbour.  Excluded (nan) entries cannot be maxima; the single
    inf spike always qualifies.
    """
    m = len(ratios)
    out: list[int] = []
    for j in range(1, m + 1):
        value = ratios[j - 1]
        if truncated[j - 1]:
            if np.isinf(value):
                out.append(j)
            continue
        left = 1.0 if j == 1 else ratios[j - 2]
        if not value > left:
            continue
        if j < m and not value > ratios[j]:
            continue
        out.append(j)
    return out


def _ratio_report(
    weighted: np.ndarray, J0: int, k0: int, n: int, eigs: np.ndarray, method: str
) -> FactorCountReport:
    """Report of the ratios of ``weighted`` up to J0."""
    ratios, truncated = _ratios_from_weighted_sums(weighted, J0)
    return FactorCountReport(
        ratios=ratios,
        truncated=truncated,
        local_max_indices=_local_maxima(ratios, truncated),
        J0=J0,
        k0=k0,
        n=n,
        per_lag_eigenvalues=eigs,
        method=method,
    )


def cumulative_ratio_sequence(
    panel: TimeSeriesPanel | LagStack, k0: int = 5, J0: int | None = None
) -> FactorCountReport:
    """Lag-pooled eigenvalue-ratio sequence of a panel and its selection.

    Parameters
    ----------
    panel : TimeSeriesPanel, or its ``lag_stack`` built with the same k0
    k0 : int
        Largest lag pooled; small values (<= 5) work well since serial
        correlation concentrates at short lags.
    J0 : int, optional
        Ratio truncation point; defaults to ``default_j0(p, n)``.

    The singular values of all k0 + 1 min(p, n)-square lag covariances come
    from one stacked ``np.linalg.svd`` call, which runs the same LAPACK
    routine on each lag as a call per lag would, bit for bit.  numpy
    releases the GIL for that call once (k0 + 1) * min(p, n) > 500, so
    another Python thread can run beside it (``simulation`` does).  The
    call runs on one BLAS thread when min(p, n) <=
    ``_blas.ONE_THREAD_MAX_DIM``, where that is faster; the caller's
    thread count is restored afterwards.

    Raises
    ------
    FactorCountError
        If J0 < 2 or the eigenvalue computation fails; the message names
        the first lag whose decomposition fails on its own.
    """
    p, n = panel.p, panel.n
    J0 = _checked_j0(J0, p, n)
    # allocated before the lag stack, which is freed before the report is
    # built (see loadings._top_eigenvectors)
    eigs = np.zeros((k0 + 1, p))
    covs = lag_stack(panel, k0).covs
    with threads_for_dim(min(p, n)):
        try:
            singular = np.linalg.svd(covs, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise _failing_lag(covs) from exc
    del covs
    # singular values of S(k), squared == eigenvalues of S(k) S(k)^T
    np.square(singular, out=eigs[:, : singular.shape[1]])
    weights = 1.0 - np.arange(k0 + 1) / n
    return _ratio_report(weights @ eigs, J0, k0, n, eigs, "cumulative")


def _failing_lag(covs: np.ndarray) -> FactorCountError:
    """The error naming the first lag whose SVD fails on its own."""
    for k, cov in enumerate(covs):
        try:
            np.linalg.svd(cov, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            return FactorCountError(f"eigen-solver failure at lag {k}: {exc}")
    return FactorCountError("eigen-solver failure on the stacked lags")


def single_matrix_ratio_baseline(
    panel: TimeSeriesPanel | LagStack, k0: int = 5, J0: int | None = None
) -> FactorCountReport:
    """Baseline: plain eigenvalue ratios of the pooled matrix M.

    Same selection rule as the cumulative method but with
    R_j = lam_j(M) / lam_{j+1}(M).  ``panel`` may be the panel's
    ``lag_stack`` built with the same k0.
    """
    J0 = _checked_j0(J0, panel.p, panel.n)
    pooled = pooled_matrix_from_covs(lag_stack(panel, k0).covs)
    eigvals = np.zeros(panel.p)
    try:
        eigvals[: len(pooled)] = np.linalg.eigvalsh(pooled)[::-1]
    except np.linalg.LinAlgError as exc:
        raise FactorCountError(f"eigen-solver failure on pooled matrix: {exc}") from exc
    eigvals = np.clip(eigvals, 0.0, None)
    return _ratio_report(eigvals, J0, k0, panel.n, eigvals[np.newaxis, :], "pooled")


def _ranked_maxima(report: FactorCountReport) -> list[int]:
    """Local maxima by (ratio desc, index asc); inf spikes rank first."""
    return sorted(report.local_max_indices, key=lambda j: (-report.ratios[j - 1], j))


def select_factor_counts(report: FactorCountReport) -> tuple[int, int]:
    """(r0_hat, r_hat) from the report's ``selected`` maxima.

    Ties in ratio value are broken toward the smaller index (the
    stronger-factor reading), with a warning when the rule actually
    decided the cut (``report.tie_break_applied``).

    Raises
    ------
    FactorCountError
        With fewer than two local maxima (``report.selected`` is None);
        raise J0 or supply the factor counts manually.
    """
    selected = report.selected
    if selected is None:
        raise FactorCountError(
            f"found {len(report.local_max_indices)} local maxima in the ratio "
            "sequence; increase J0 or supply the factor counts manually"
        )
    if report.tie_break_applied:
        # the value at the selection cut is ambiguous
        warnings.warn(
            "equal ratio values at different indices; smaller index preferred",
            stacklevel=2,
        )
    tau1, tau2 = selected
    return tau1, tau2 - tau1
