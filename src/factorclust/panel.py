"""Panel data model, CSV ingestion and lagged autocovariances.

A panel holds ``p`` observed series over ``n`` equally spaced time points.
The sample lag-k autocovariance is

    S(k) = (1/n) * sum_{t=1..n-k} (y_{t+k} - ybar)(y_t - ybar)^T,

with the full-sample mean ``ybar`` and divisor ``n`` for every lag (no
small-sample correction).  Pooling the lags gives

    M = sum_{k=0..k0} S(k) S(k)^T,

a symmetric positive semidefinite matrix whose leading eigenvectors carry
the factor loading spaces.

Every S(k) has rank at most min(p, n - 1).  When p > n the spectral work is
therefore done in n dimensions: the thin QR of the centered p x n panel,
X = U R with orthonormal U (p x n) and square R (n x n), gives

    S(k) = U C(k) U^T,   C(k) = R[:, k:] R[:, :n-k]^T / n,

so S(k) and C(k) share their singular values, and the eigenvectors of M
are U times those of sum_k C(k) C(k)^T.  At most m - 1 = min(p, n) - 1
loading directions are identified, so the loading estimators require
r0 + r <= min(p, n) - 1.

``lag_stack`` builds S(0..k0), or C(0..k0) and U, once per panel; every
spectral step accepts that ``LagStack`` in place of the panel.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

__all__ = [
    "PanelError",
    "TimeSeriesPanel",
    "load_panel",
    "load_labels",
    "lag_autocov",
    "pooled_matrix",
]


class PanelError(ValueError):
    """Malformed panel input or an operation called outside its domain."""


@dataclass(frozen=True)
class TimeSeriesPanel:
    """Immutable p x n panel of real observations.

    Parameters
    ----------
    values : ndarray, shape (p, n)
        One row per series, one column per time point.
    series_ids : tuple of str, optional
        Unique identifier per series.
    labels : tuple of str, optional
        Category label per series (e.g. industry sector).
    """

    values: np.ndarray
    series_ids: tuple[str, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        # own copy: the panel is immutable and must not freeze caller arrays
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise PanelError(f"panel values must be 2-d, got shape {values.shape}")
        p, n = values.shape
        if p < 2:
            raise PanelError(f"panel needs at least 2 series, got {p}")
        if n < 2:
            raise PanelError(f"panel needs at least 2 time points, got {n}")
        if not np.isfinite(values).all():
            i, t = np.argwhere(~np.isfinite(values))[0]
            raise PanelError(f"non-finite value at series {i}, time {t}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.series_ids is not None:
            ids = tuple(str(s) for s in self.series_ids)
            if len(ids) != p:
                raise PanelError(f"expected {p} series ids, got {len(ids)}")
            if len(set(ids)) != p:
                raise PanelError("series ids must be unique")
            object.__setattr__(self, "series_ids", ids)
        if self.labels is not None:
            labs = tuple(str(s) for s in self.labels)
            if len(labs) != p:
                raise PanelError(f"expected {p} labels, got {len(labs)}")
            object.__setattr__(self, "labels", labs)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@contextmanager
def _open_text(source: str | Path | IO[str] | IO[bytes]) -> Iterator[IO[str]]:
    """Text view of a CSV source; a caller's stream stays open, files and
    bytes decode as UTF-8 as they are read.

    Bytes that are not UTF-8 raise ``PanelError``, naming the decoder's
    reason but no offset: the decoder counts from the start of its chunk,
    not of the file.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8", newline="") as fh:
                yield fh
        elif isinstance(source, io.TextIOBase):
            yield source
        elif isinstance(source, (io.BufferedIOBase, io.RawIOBase)):
            text = io.TextIOWrapper(source, encoding="utf-8", newline="")
            try:
                yield text
            finally:
                text.detach()  # closing the wrapper would close the caller's stream
        elif hasattr(source, "read"):
            data = source.read()
            yield io.StringIO(data.decode("utf-8") if isinstance(data, bytes) else data)
        else:
            raise PanelError(f"unsupported CSV source type {type(source)!r}")
    except UnicodeDecodeError as exc:
        raise PanelError(f"input is not UTF-8 text: {exc.reason}") from None


def _parse_cell(cell: str, row: int, col: int, col_name: str | None = None) -> float:
    """``float(cell)``, or a ``PanelError`` naming the stripped cell and its
    location."""
    where = f"row {row}, column {col}" + (f" ({col_name})" if col_name else "")
    try:
        value = float(cell)
    except ValueError:
        raise PanelError(f"non-numeric cell {cell.strip()!r} at {where}") from None
    if not math.isfinite(value):
        raise PanelError(f"non-finite cell {cell.strip()!r} at {where}")
    return value


def _parse_row(
    cells: list[str], row: int, first_col: int, col_names: Iterable[str]
) -> np.ndarray:
    """One CSV row as floats, each cell read by ``float()``.

    The per-cell parser runs only to locate an error: a cell ``float()``
    rejects, or the first non-finite value.
    """
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        for j, (cell, name) in enumerate(zip(cells, col_names)):
            _parse_cell(cell, row, first_col + j, name)
    return values


def _body_lines(fh: IO[str]) -> Iterator[str]:
    """Non-blank lines of ``fh``, for ``np.loadtxt``; ValueError at a line
    holding a character that loadtxt would strip and ``float()`` rejects."""
    for line in fh:
        # loadtxt strips U+001C..U+001F from the ends of a cell like spaces
        if any(c in line for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError("separator character in a cell")
        if line.strip():
            yield line


def _load_rows_as_time_fast(
    fh: IO[str],
) -> tuple[tuple[str, ...], np.ndarray] | None:
    """Header and (p, n) values of a rows-as-time CSV parsed in one C-level
    pass, or None, with ``fh`` back where it was, for input the streaming
    parser must read: anything ``np.loadtxt`` rejects, a ragged, blank-led
    or non-finite panel, or fewer than 2 time points."""
    try:
        start = fh.tell()
    except OSError:  # a text stream being iterated cannot report its position
        return None
    try:
        first = next(csv.reader([fh.readline()]), None)
        if first and any(c.strip() for c in first):
            lines = _body_lines(fh)
            # too few rows would make loadtxt warn about an empty input
            head = list(itertools.islice(lines, 2))
            if len(head) == 2:
                body = np.loadtxt(
                    itertools.chain(head, lines),
                    delimiter=",", comments=None, ndmin=2, dtype=float,
                )
                if body.shape[1] == len(first) and np.isfinite(body).all():
                    return tuple(c.strip() for c in first), body.T
    except (ValueError, csv.Error):
        pass
    fh.seek(start)
    return None


def _load_streamed(
    fh: IO[str], orientation: str
) -> tuple[tuple[str, ...], np.ndarray]:
    """Series ids and (p, n) values, parsed row by row with ``csv`` and
    ``float()``; the parser that names every input error."""
    rows = (r for r in csv.reader(fh) if r and any(c.strip() for c in r))
    first = next(rows, None)
    if first is None:
        raise PanelError("empty CSV input")
    block: list[np.ndarray] = []
    if orientation == "rows-as-time":
        header = [c.strip() for c in first]
        p = len(header)
        # too few time points is reported before any cell is parsed
        head = list(itertools.islice(rows, 2))
        if len(head) < 2:
            raise PanelError(f"panel needs at least 2 time points, got {len(head)}")
        for i, row in enumerate(itertools.chain(head, rows)):
            if len(row) != p:
                raise PanelError(
                    f"ragged row {i + 2}: expected {p} cells, got {len(row)}"
                )
            block.append(_parse_row(row, i + 2, 1, header))
        return tuple(header), np.array(block).T
    else:
        ids_list: list[str] = []
        width = len(first)
        if width < 3:
            raise PanelError(f"panel needs at least 2 time points, got {width - 1}")
        for i, row in enumerate(itertools.chain([first], rows)):
            if len(row) != width:
                raise PanelError(
                    f"ragged row {i + 1}: expected {width} cells, got {len(row)}"
                )
            ids_list.append(row[0].strip())
            block.append(
                _parse_row(row[1:], i + 1, 2, itertools.repeat(ids_list[-1]))
            )
        return tuple(ids_list), np.array(block)


def load_panel(
    source: str | Path | IO[str] | IO[bytes],
    orientation: str = "rows-as-time",
    labels: dict[str, str] | None = None,
) -> TimeSeriesPanel:
    """Read a panel from CSV.

    Two layouts are supported.  With ``orientation="rows-as-time"`` (the
    default, matching common panel exports) the first row is a header of
    series identifiers and every subsequent row holds one time point.
    With ``orientation="rows-as-series"`` there is no header; each row is
    ``series_id, v_1, ..., v_n``.

    Parameters
    ----------
    source : path or file-like
        CSV input; files and bytes are decoded as UTF-8.
    orientation : {"rows-as-time", "rows-as-series"}
    labels : dict, optional
        Mapping series_id -> category; attached where ids match.

    A rows-as-time CSV on a seekable text source (a path always is one)
    is first parsed in one C-level pass by ``np.loadtxt``.  Its result is
    used only when the body is rectangular, has at least 2 rows, matches
    the header and holds only finite values; otherwise the source is
    rewound and the streaming parser reads it.  That parser also reads
    every rows-as-series CSV and every non-seekable caller stream.  It
    turns each row into floats with ``float()`` as the row is read, and it
    alone names errors, so the accepted cells and every error text are
    those of a per-cell ``float()`` parse.  Blank and whitespace-only rows
    are skipped and do not count in row numbers.

    Raises
    ------
    PanelError
        On input that is not UTF-8, ragged rows, non-numeric cells
        (reported with row/column location), or fewer than 2 series / 2
        time points.
    """
    if orientation not in ("rows-as-time", "rows-as-series"):
        raise PanelError(f"unknown orientation {orientation!r}")
    with _open_text(source) as fh:
        parsed = None
        if orientation == "rows-as-time" and fh.seekable():
            parsed = _load_rows_as_time_fast(fh)
        if parsed is None:
            parsed = _load_streamed(fh, orientation)
    ids, values = parsed

    if values.shape[0] < 2:
        raise PanelError(f"panel needs at least 2 series, got {values.shape[0]}")
    label_tuple = None
    if labels is not None:
        label_tuple = tuple(labels.get(s, "") for s in ids)
    return TimeSeriesPanel(values=values, series_ids=ids, labels=label_tuple)


def load_labels(source: str | Path | IO[str] | IO[bytes]) -> dict[str, str]:
    """Read a two-column sidecar CSV mapping series_id -> category.

    A first row literally starting with ``series_id`` is treated as a
    header and skipped.
    """
    with _open_text(source) as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    mapping: dict[str, str] = {}
    for i, row in enumerate(rows):
        if len(row) != 2:
            raise PanelError(f"label row {i + 1}: expected 2 cells, got {len(row)}")
        key, value = row[0].strip(), row[1].strip()
        if i == 0 and key == "series_id":
            continue
        mapping[key] = value
    return mapping


def lag_autocov(panel: TimeSeriesPanel, k: int) -> np.ndarray:
    """Sample lag-k autocovariance S(k) with full-sample centering, divisor n.

    Returns a new p x p array.

    Raises
    ------
    PanelError
        If ``k`` is negative or ``k >= n``.
    """
    n = panel.n
    if k < 0 or k >= n:
        raise PanelError(f"lag k={k} outside [0, {n - 1}]")
    centered = panel.values - panel.values.mean(axis=1, keepdims=True)
    lead = centered[:, k:]
    trail = centered[:, : n - k]
    return (lead @ trail.T) / n


def lag_autocov_sequence(panel: TimeSeriesPanel, k0: int) -> np.ndarray:
    """Read-only stack of S(0)..S(k0), shape (k0 + 1, p, p), one centering pass.

    Slice k equals ``lag_autocov(panel, k)``.

    Raises
    ------
    PanelError
        If ``k0`` is negative or ``k0 >= n``.
    """
    n = panel.n
    if k0 < 0 or k0 >= n:
        raise PanelError(f"k0={k0} outside [0, {n - 1}]")
    centered = panel.values - panel.values.mean(axis=1, keepdims=True)
    stack = np.empty((k0 + 1, panel.p, panel.p))
    for k in range(k0 + 1):
        stack[k] = (centered[:, k:] @ centered[:, : n - k].T) / n
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class LagStack:
    """Read-only S(0..k0) of a p x n panel, or C(0..k0) and ``basis`` U if p > n."""

    covs: np.ndarray
    basis: np.ndarray | None
    p: int
    n: int


def lag_stack(panel: TimeSeriesPanel | LagStack, k0: int) -> LagStack:
    """The panel's ``LagStack`` up to lag k0; a given stack is returned as is.

    When p > n the stack holds U and the C(k) of the thin QR X = U R of the
    centered panel: the lag covariances of the n x n panel R, which
    ``lag_autocov_sequence`` centers once more.

    Raises ``PanelError`` if k0 is outside [0, n - 1] or differs from a given stack's.
    """
    if isinstance(panel, LagStack):
        if len(panel.covs) != k0 + 1:
            raise PanelError(f"lag stack holds k0={len(panel.covs) - 1}, not {k0}")
        return panel
    if panel.p <= panel.n:
        return LagStack(lag_autocov_sequence(panel, k0), None, panel.p, panel.n)
    centered = panel.values - panel.values.mean(axis=1, keepdims=True)
    u, r = np.linalg.qr(centered)
    covs = lag_autocov_sequence(TimeSeriesPanel(values=r), k0)
    return LagStack(covs, u, panel.p, panel.n)


def pooled_matrix_from_covs(covs: Iterable[np.ndarray]) -> np.ndarray:
    """Pool M = sum_k S(k) S(k)^T of p x p lag covariances, a p x p array.

    The sum is symmetrized after accumulation.  ``covs`` is consumed once,
    so it may be a generator.

    Raises
    ------
    PanelError
        If ``covs`` is empty.
    """
    acc: np.ndarray | None = None
    for cov in covs:
        term = cov @ cov.T
        acc = term if acc is None else acc + term
    if acc is None:
        raise PanelError("no lag covariances supplied")
    return (acc + acc.T) / 2.0


def pooled_matrix(panel: TimeSeriesPanel, k0: int) -> np.ndarray:
    """M = sum_{k=0..k0} S(k) S(k)^T of the panel, a symmetric p x p array."""
    return pooled_matrix_from_covs(lag_autocov_sequence(panel, k0))
