import io

import numpy as np
import pytest

from factorclust import (
    PanelError,
    TimeSeriesPanel,
    lag_autocov,
    load_labels,
    load_panel,
    pooled_matrix,
)

from factorclust.panel import lag_autocov_sequence, lag_stack
from oracles import lag_autocov_oracle, pooled_oracle


def random_panel(p, n, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeriesPanel(values=rng.standard_normal((p, n)))


class TestPanelType:
    def test_rejects_single_series(self):
        with pytest.raises(PanelError, match="2 series"):
            TimeSeriesPanel(values=np.ones((1, 5)))

    def test_rejects_single_time_point(self):
        with pytest.raises(PanelError, match="2 time points"):
            TimeSeriesPanel(values=np.ones((5, 1)))

    def test_rejects_nan(self):
        values = np.ones((3, 4))
        values[1, 2] = np.nan
        with pytest.raises(PanelError, match="series 1, time 2"):
            TimeSeriesPanel(values=values)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(PanelError, match="unique"):
            TimeSeriesPanel(values=np.ones((2, 3)), series_ids=("a", "a"))

    def test_rejects_wrong_label_count(self):
        with pytest.raises(PanelError, match="labels"):
            TimeSeriesPanel(values=np.ones((2, 3)), labels=("x",))


class TestLoadPanel:
    def test_rows_as_time_tiny(self):
        panel = load_panel(io.StringIO("a,b\n1,0\n2,1"))
        assert panel.p == 2 and panel.n == 2
        np.testing.assert_array_equal(panel.values, [[1.0, 2.0], [0.0, 1.0]])
        assert panel.series_ids == ("a", "b")

    def test_rows_as_series(self):
        panel = load_panel(
            io.StringIO("a,1,2,3\nb,0,1,0"), orientation="rows-as-series"
        )
        assert panel.p == 2 and panel.n == 3
        np.testing.assert_array_equal(panel.values[0], [1.0, 2.0, 3.0])

    def test_bytes_source(self):
        panel = load_panel(io.BytesIO(b"a,b\n1,0\n2,1"))
        assert panel.p == 2

    def test_nan_cell_names_location(self):
        with pytest.raises(PanelError, match=r"row 3, column 2 \(b\)"):
            load_panel(io.StringIO("a,b\n1,0\n2,NaN"))

    def test_non_numeric_cell(self):
        with pytest.raises(PanelError, match="row 2, column 1"):
            load_panel(io.StringIO("a,b\nx,0\n2,1"))

    def test_ragged_row(self):
        with pytest.raises(PanelError, match="ragged row 3"):
            load_panel(io.StringIO("a,b\n1,0\n2,1,7"))

    def test_too_few_series(self):
        with pytest.raises(PanelError, match="2 series"):
            load_panel(io.StringIO("a\n1\n2"))

    def test_too_few_time_points(self):
        with pytest.raises(PanelError, match="2 time points"):
            load_panel(io.StringIO("a,b\n1,0"))

    def test_stock_file_shape(self):
        # a daily-returns panel of 477 series over 1259 observations
        rng = np.random.default_rng(7)
        p, n = 477, 1259
        data = rng.standard_normal((n, p))
        buf = io.StringIO()
        buf.write(",".join(f"s{i}" for i in range(p)) + "\n")
        np.savetxt(buf, data, delimiter=",", fmt="%.6g")
        buf.seek(0)
        panel = load_panel(buf)
        assert panel.p == 477 and panel.n == 1259

    def test_labels_sidecar(self):
        mapping = load_labels(io.StringIO("series_id,label\na,fin\nb,tech"))
        assert mapping == {"a": "fin", "b": "tech"}
        panel = load_panel(io.StringIO("a,b\n1,0\n2,1"), labels=mapping)
        assert panel.labels == ("fin", "tech")

    @pytest.mark.parametrize("as_bytes", [False, True])
    @pytest.mark.parametrize(
        "orientation, text",
        [
            ("rows-as-time", "a,b,c\r\n1,0.5,2\r\n\n2,1,-3e-2\n4,4,4\n"),
            ("rows-as-series", "a,1,2,3\r\nb,0,1,0\n\nc,5,.5,1e3\n"),
        ],
    )
    def test_caller_stream_left_open(self, tmp_path, as_bytes, orientation, text):
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode())
        want = load_panel(path, orientation=orientation)
        buf = io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)
        got = load_panel(buf, orientation=orientation)
        assert not buf.closed
        np.testing.assert_array_equal(got.values, want.values)
        assert got.series_ids == want.series_ids

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_labels_caller_stream_left_open(self, as_bytes):
        text = "series_id,label\na,fin\nb,tech\n"
        buf = io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)
        assert load_labels(buf) == {"a": "fin", "b": "tech"}
        assert not buf.closed


def _csv_text(cells_by_row, pad="", blank_every=0):
    """Join rows of cell strings, padding each cell and inserting blank and
    whitespace-only lines after every ``blank_every``-th row."""
    lines = []
    for i, row in enumerate(cells_by_row):
        lines.append(",".join(f"{pad}{c}{pad}" for c in row))
        if blank_every and i % blank_every == 0:
            lines.extend(["", "  \t ", " , ,"])
    return "\n".join(lines) + "\n"


class TestLoadPanelContract:
    """Ingest equals a per-cell ``float()`` parse and keeps every error text."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("fmt", ["%.6g", "%.17g"])
    @pytest.mark.parametrize("pad", ["", "  "])
    @pytest.mark.parametrize("blank_every", [0, 3])
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_rows_as_time_matches_float_reference(
        self, seed, fmt, pad, blank_every, as_bytes
    ):
        rng = np.random.default_rng(seed)
        p, n = int(rng.integers(2, 9)), int(rng.integers(2, 30))
        data = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-5, 6, (n, p))
        cells = [[fmt % v for v in row] for row in data]
        ids = [f"s{j}" for j in range(p)]
        text = _csv_text([ids] + cells, pad=pad, blank_every=blank_every)
        source = io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)
        panel = load_panel(source)
        want = np.array([[float(c) for c in row] for row in cells]).T
        np.testing.assert_array_equal(panel.values, want)
        assert panel.series_ids == tuple(ids)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("fmt", ["%.6g", "%.17g"])
    @pytest.mark.parametrize("pad", ["", " "])
    @pytest.mark.parametrize("blank_every", [0, 2])
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_rows_as_series_matches_float_reference(
        self, seed, fmt, pad, blank_every, as_bytes
    ):
        rng = np.random.default_rng(100 + seed)
        p, n = int(rng.integers(2, 9)), int(rng.integers(2, 30))
        data = rng.standard_normal((p, n)) * 10.0 ** rng.integers(-5, 6, (p, n))
        cells = [[f"id{i}"] + [fmt % v for v in row] for i, row in enumerate(data)]
        text = _csv_text(cells, pad=pad, blank_every=blank_every)
        source = io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)
        panel = load_panel(source, orientation="rows-as-series")
        want = np.array([[float(c) for c in row[1:]] for row in cells])
        np.testing.assert_array_equal(panel.values, want)
        assert panel.series_ids == tuple(f"id{i}" for i in range(p))

    @pytest.mark.parametrize(
        "text, orientation, message",
        [
            ("a,b\n1,0\n\n2,1,7\n", "rows-as-time",
             "ragged row 3: expected 2 cells, got 3"),
            ("a,1,2\n\nb,1\n", "rows-as-series",
             "ragged row 2: expected 3 cells, got 2"),
            ("a,b\n1,0\n2, x1 \n", "rows-as-time",
             "non-numeric cell 'x1' at row 3, column 2 (b)"),
            ("a,1,2\nb,1,zz\n", "rows-as-series",
             "non-numeric cell 'zz' at row 2, column 3 (b)"),
            ("a,b\n1,0\n \n2,NaN\n", "rows-as-time",
             "non-finite cell 'NaN' at row 3, column 2 (b)"),
            ("a,b\n1,-inf\n2,x\n", "rows-as-time",
             "non-finite cell '-inf' at row 2, column 2 (b)"),
            ("a,b\n1,y\n2,nan\n", "rows-as-time",
             "non-numeric cell 'y' at row 2, column 2 (b)"),
            ("a,1,inf\nb,1,2\n", "rows-as-series",
             "non-finite cell 'inf' at row 1, column 3 (a)"),
            ("a,b\n1,0\n2,1,7,8\n3,nan\n", "rows-as-time",
             "ragged row 3: expected 2 cells, got 4"),
            ("a\n1\n2\n", "rows-as-time", "panel needs at least 2 series, got 1"),
            ("a,1,2\n", "rows-as-series", "panel needs at least 2 series, got 1"),
            ("a,b\n1,0\n", "rows-as-time",
             "panel needs at least 2 time points, got 1"),
            ("a,b\n1,x,3\n", "rows-as-time",
             "panel needs at least 2 time points, got 1"),
            ("a,1\nb,2\n", "rows-as-series",
             "panel needs at least 2 time points, got 1"),
            ("", "rows-as-time", "empty CSV input"),
            ("\n \n,\n", "rows-as-series", "empty CSV input"),
        ],
    )
    def test_error_text(self, text, orientation, message):
        with pytest.raises(PanelError) as info:
            load_panel(io.StringIO(text), orientation=orientation)
        assert str(info.value) == message


class TestLagAutocov:
    def test_constant_panel_is_zero(self):
        panel = TimeSeriesPanel(values=np.full((3, 10), 5.0))
        for k in range(4):
            np.testing.assert_allclose(lag_autocov(panel, k), 0.0, atol=1e-14)

    def test_lag0_symmetric_psd(self):
        panel = random_panel(5, 40, seed=1)
        s0 = lag_autocov(panel, 0)
        np.testing.assert_allclose(s0, s0.T, atol=1e-12)
        assert np.linalg.eigvalsh(s0).min() >= -1e-12

    def test_small_panel_matches_loop_oracle(self):
        panel = TimeSeriesPanel(values=np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]))
        got = lag_autocov(panel, 1)
        want = lag_autocov_oracle(panel.values, 1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_integer_panels_match_oracle_all_lags(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            values = rng.integers(-4, 5, size=(4, 9)).astype(float)
            panel = TimeSeriesPanel(values=values)
            stack = lag_autocov_sequence(panel, panel.n - 1)
            assert stack.shape == (panel.n, panel.p, panel.p)
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0
            for k in range(panel.n):
                np.testing.assert_allclose(
                    lag_autocov(panel, k),
                    lag_autocov_oracle(values, k),
                    atol=1e-12,
                )
                np.testing.assert_array_equal(stack[k], lag_autocov(panel, k))

    def test_lag_out_of_range(self):
        panel = random_panel(3, 6)
        with pytest.raises(PanelError, match="lag"):
            lag_autocov(panel, 6)
        with pytest.raises(PanelError, match="lag"):
            lag_autocov(panel, -1)


class TestPooledMatrix:
    def test_k0_zero_is_gram_of_lag0(self):
        panel = random_panel(4, 20, seed=2)
        s0 = lag_autocov(panel, 0)
        got = pooled_matrix(panel, 0)
        np.testing.assert_allclose(got, (s0 @ s0.T + (s0 @ s0.T).T) / 2, atol=1e-14)

    def test_psd_for_random_panels(self):
        for seed in range(8):
            panel = random_panel(6, 30, seed=seed)
            m = pooled_matrix(panel, 3)
            bound = -1e-10 * np.linalg.norm(m, 2)
            assert np.linalg.eigvalsh(m).min() >= bound

    def test_small_panel_matches_oracle(self):
        rng = np.random.default_rng(11)
        panel = TimeSeriesPanel(values=rng.standard_normal((3, 6)))
        got = pooled_matrix(panel, 2)
        want = pooled_oracle(panel.values, 2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_k0_out_of_range(self):
        panel = random_panel(3, 5)
        with pytest.raises(PanelError):
            pooled_matrix(panel, 5)


class TestLagStack:
    @pytest.mark.parametrize("p, n", [(4, 20), (30, 12), (6, 6)])
    def test_holds_the_lag_covariances(self, p, n):
        panel = random_panel(p, n, seed=3)
        stack = lag_stack(panel, 3)
        full = lag_autocov_sequence(panel, 3)
        assert (stack.p, stack.n, len(stack.covs)) == (p, n, 4)
        assert not stack.covs.flags.writeable
        if p <= n:
            assert stack.basis is None
            np.testing.assert_array_equal(stack.covs, full)
        else:
            u = stack.basis
            assert u.shape == (p, n) and stack.covs.shape == (4, n, n)
            for k in range(4):
                np.testing.assert_allclose(
                    u @ stack.covs[k] @ u.T, full[k], atol=1e-14
                )

    def test_wide_panel_lags_lift_exactly(self):
        # p > n: S(k) = U C(k) U^T with orthonormal U and the held C(k)
        panel = random_panel(30, 12, seed=9)
        stack = lag_stack(panel, 11)
        u = stack.basis
        assert (stack.p, stack.n) == (30, 12)
        assert u.shape == (30, 12) and stack.covs.shape == (12, 12, 12)
        assert not stack.covs.flags.writeable
        np.testing.assert_allclose(u.T @ u, np.eye(12), atol=1e-14)
        full = lag_autocov_sequence(panel, 11)
        for k in range(12):
            np.testing.assert_allclose(
                u @ stack.covs[k] @ u.T, full[k], atol=1e-14
            )

    def test_stack_returned_unchanged(self):
        stack = lag_stack(random_panel(5, 30), 2)
        assert lag_stack(stack, 2) is stack

    @pytest.mark.parametrize("k0", [0, 1, 3])
    def test_other_k0_rejected(self, k0):
        stack = lag_stack(random_panel(5, 30), 2)
        with pytest.raises(PanelError, match=f"k0=2, not {k0}"):
            lag_stack(stack, k0)

    def test_k0_out_of_range(self):
        with pytest.raises(PanelError):
            lag_stack(random_panel(3, 5), 5)
