import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from factorclust import (
    PanelError,
    TimeSeriesPanel,
    lag_autocov,
    load_labels,
    load_panel,
    pooled_matrix,
)

from factorclust import panel as panel_module
from factorclust.panel import (
    _load_rows_as_time_fast,
    lag_autocov_sequence,
    lag_stack,
)
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

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(PanelError, match="not UTF-8 text: invalid start byte$"):
            load_panel(io.BytesIO(b"a,b\n1,0\n2,\xff1\n3,2"))

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


class _OneWayBytes(io.BytesIO):
    """A byte stream that cannot seek, like a pipe."""

    def seekable(self):
        return False


def _outcome(load):
    """(values, ids) of a load, or the type and text of its error."""
    try:
        panel = load()
    except (PanelError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return panel.values, panel.series_ids


def _assert_same_outcome(got, want):
    if isinstance(want[0], str):
        assert got == want
        return
    values, ids = got
    assert ids == want[1]
    assert values.shape == want[0].shape
    assert values.tobytes(order="A") == want[0].tobytes(order="A")
    assert values.flags.f_contiguous == want[0].flags.f_contiguous


_NUMBER = st.floats(allow_nan=False, allow_infinity=False, width=64)
_PLAIN_CELL = st.one_of(_NUMBER.map(repr), _NUMBER.map(lambda v: "%.6g" % v))
_ODD_CELL = st.sampled_from([
    "nan", "-inf", "Infinity", "1_0", "\u0661", "0x10", "nan(123)", "1d5",
    "1\x00", "1e+", "", " ", "x", "+.5", "5.", "1E5", "--1", "1 2",
])
_PAD = st.sampled_from(
    ["", " ", "\t", "\x0b", "\x0c", "\xa0", "\u2003", "\x85", "\x1c", "\x1f"]
)
_BLANK_ROW = st.sampled_from(["", "  ", "\t", " , ", ","])


@st.composite
def _csv_texts(draw):
    """Rows-as-time CSV text: mostly clean numbers, sometimes odd cells,
    padding, quoting, blank rows and any of the three line endings."""
    clean = draw(st.booleans())
    p = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quote = draw(st.booleans()) and not clean

    def cell(value):
        if quote and draw(st.booleans()):
            return f'"{value}"'
        return value

    lines = [",".join(cell(f"s{j}") for j in range(p))]
    for _ in range(n):
        width = p if clean or draw(st.integers(0, 9)) else draw(st.integers(1, 5))
        cells = []
        for _ in range(width):
            value = draw(_PLAIN_CELL if clean or draw(st.integers(0, 9)) else _ODD_CELL)
            if not clean:
                value = draw(_PAD) + value + draw(_PAD)
            cells.append(cell(value))
        lines.append(",".join(cells))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_BLANK_ROW))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestLoadPanelFastPath:
    """The C-level parse of a rows-as-time body gives what the streaming
    parser gives: the same bits and ids, or the same error."""

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fast") / "panel.csv"

    @pytest.mark.filterwarnings("error")
    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=_csv_texts())
    def test_matches_streaming_parser(self, csv_path, text):
        data = text.encode()
        csv_path.write_bytes(data)
        with mock.patch.object(panel_module, "_load_rows_as_time_fast", return_value=None):
            want = _outcome(lambda: load_panel(csv_path))
        for source in (csv_path, io.BytesIO(data), _OneWayBytes(data)):
            _assert_same_outcome(_outcome(lambda: load_panel(source)), want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n1,2,3\n4,5,6\n",       # rectangular body wider than the header
            "a,b,c\n1,2\n4,5\n",         # narrower
            " , \n1,2\n3,4\n5,6\n",      # blank-looking first line
            "\na,b\n1,2\n3,4\n",          # blank first line
            "a,b\n\n \n\t\n",            # header and blank lines only
            "a,b\n1,2\n\n",              # one time point
            "a,b\n1,2\n , \n3,4\n",       # whitespace-only row between
            '"a","b"\n1,2\n3,4\n',        # quoted header
            '"a\nb",c\n1,2\n3,4\n',       # header cell spanning two lines
            'a,b\n"1",2\n3,4\n',          # quoted cell
            "a,b\n1,2\n3,inf\n",          # non-finite value
        ],
    )
    def test_fallback_cases_match_streaming_parser(self, tmp_path, text):
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(panel_module, "_load_rows_as_time_fast", return_value=None):
            want = _outcome(lambda: load_panel(path))
        _assert_same_outcome(_outcome(lambda: load_panel(path)), want)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("as_path", [True, False])
    def test_clean_body_takes_the_fast_path(self, tmp_path, eol, as_path):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-5, 6, (7, 4))
        rows = ["a,b,c,d"] + [",".join("%.17g" % v for v in row) for row in data]
        raw = (eol.join(rows[:3]) + eol + eol + eol.join(rows[3:]) + eol).encode()
        path = tmp_path / "panel.csv"
        path.write_bytes(raw)
        source = path if as_path else io.BytesIO(raw)
        with mock.patch.object(panel_module, "_load_streamed", side_effect=AssertionError):
            panel = load_panel(source)
        np.testing.assert_array_equal(panel.values, data.T)
        assert panel.values.flags.f_contiguous
        assert panel.series_ids == ("a", "b", "c", "d")

    @pytest.mark.parametrize(
        "cell",
        ["0x10", "nan(123)", "1d5", "1\x00", "1e+", "1_0", "\u0661",
         "\x1c1", "1\x1d", "\x1e1", "1\x1f", " 1\x1c ", "nan", "inf"],
    )
    def test_fast_path_accepts_no_cell_float_rejects(self, cell):
        text = f"a,b\n{cell},1\n1,1\n"
        fast = _load_rows_as_time_fast(io.StringIO(text, newline=""))
        try:
            value = float(cell)
        except ValueError:
            value = None
        if fast is None or value is None:
            assert fast is None
        else:
            assert fast[1][0, 0] == value
        with mock.patch.object(panel_module, "_load_rows_as_time_fast", return_value=None):
            want = _outcome(lambda: load_panel(io.StringIO(text)))
        _assert_same_outcome(_outcome(lambda: load_panel(io.StringIO(text))), want)

    @settings(max_examples=300, deadline=None)
    @given(
        cell=st.tuples(
            st.text(st.characters(blacklist_characters=",\r\n"), max_size=3),
            st.sampled_from(["1", "-2.5", "3e-7", ".5", "nan", "inf", "", "1_0"]),
            st.text(st.characters(blacklist_characters=",\r\n"), max_size=3),
        ).map("".join)
    )
    def test_fast_path_cells_parse_as_float(self, cell):
        fast = _load_rows_as_time_fast(io.StringIO(f"a,b\n{cell},1\n1,1\n", newline=""))
        if fast is not None:
            assert np.float64(float(cell)).tobytes() == fast[1][0, 0].tobytes()

    def test_separator_padded_cell_is_a_panel_error(self):
        # str.strip drops U+001C, float() does not: the cell is rejected
        with pytest.raises(PanelError, match=r"^non-numeric cell '1' at row 2, column 1"):
            load_panel(io.StringIO("a,b\n1\x1c,0\n2,1\n"))

    def test_text_file_mid_iteration(self, tmp_path):
        # next() on a text file disables tell(); the streaming parser reads on
        path = tmp_path / "panel.csv"
        path.write_text("# exported\na,b\n1,0\n2,1\n")
        with open(path, newline="") as fh:
            next(fh)
            panel = load_panel(fh)
        np.testing.assert_array_equal(panel.values, [[1.0, 2.0], [0.0, 1.0]])

    def test_non_seekable_stream_is_streamed(self):
        raw = b"a,b\n1,0\n2,1\n"
        with mock.patch.object(panel_module, "_load_rows_as_time_fast") as fast:
            panel = load_panel(_OneWayBytes(raw))
            load_panel(io.BytesIO(b"a,1,2\nb,0,1\n"), orientation="rows-as-series")
        fast.assert_not_called()
        np.testing.assert_array_equal(panel.values, [[1.0, 2.0], [0.0, 1.0]])


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
