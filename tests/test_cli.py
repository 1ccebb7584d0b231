import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import factorclust
from factorclust import ScenarioSpec, TimeSeriesPanel, generate_scenario
from factorclust.cli import main


def write_panel_csv(path, panel, ids=None):
    ids = ids or [f"s{i:03d}" for i in range(panel.p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ids)
        for t in range(panel.n):
            writer.writerow([f"{v:.12g}" for v in panel.values[:, t]])
    return ids


def _python(*args, **env_vars):
    """Run the interpreter on ``args`` with the package importable and
    ``env_vars`` added to the environment."""
    src = str(Path(factorclust.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def _missing_input(command, tmp_path):
    """The input arguments of ``command`` naming a file that does not exist."""
    missing = str(tmp_path / "missing.csv")
    return ["--config", missing] if command == "simulate" else [missing]


@pytest.fixture()
def small_panel(tmp_path):
    spec = ScenarioSpec(n=300, d=3, p1=8, p_extra=4, r0=1, r_per_cluster=1, seed=17)
    panel, truth = generate_scenario(spec)
    path = tmp_path / "panel.csv"
    write_panel_csv(path, panel)
    return path, panel, truth


class TestClusterCommand:
    def test_writes_outputs(self, small_panel, tmp_path, capsys):
        path, _, _ = small_panel
        out = tmp_path / "out"
        code = main(["cluster", str(path), "--r0", "1", "--r", "3",
                     "--k0", "3", "--seed", "4", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "clustering_result.json").read_text())
        assert doc["counts"] == {"r0": 1, "r": 3}
        assert doc["provenance"]["seed"] == 4
        assert (out / "strong_loadings.csv").is_file()
        assert (out / "weak_loadings.csv").is_file()
        # loadings carry >= 15 significant digits
        first = (out / "weak_loadings.csv").read_text().splitlines()[0]
        mantissa = first.split(",")[0].lstrip("-0.").replace(".", "")
        assert len(mantissa) >= 15

    def test_estimated_counts_writes_report(self, small_panel, tmp_path):
        path, _, _ = small_panel
        out = tmp_path / "est"
        assert main(["cluster", str(path), "--k0", "3", "--out", str(out)]) == 0
        report = json.loads((out / "factor_count_report.json").read_text())
        assert report["selected"] is not None

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["cluster", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("E_INPUT_NOT_FOUND:")
        assert "nope.csv" in err

    def test_malformed_csv_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,x\n2,3\n")
        code = main(["cluster", str(bad), "--out", str(tmp_path)])
        assert code != 0
        assert capsys.readouterr().err.startswith("E_INPUT_FORMAT:")

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_non_utf8_input_one_line(self, small_panel, tmp_path, capsys, sidecar):
        path, _, _ = small_panel
        bad = tmp_path / "bad.csv"
        if sidecar:
            bad.write_bytes(b"series_id,label\ns000,caf\xe9\n")
            argv = ["cluster", str(path), "--labels", str(bad)]
        else:
            bad.write_bytes(b"a,b\n1,0\n2,\xff1\n3,2\n")
            argv = ["cluster", str(bad)]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("E_INPUT_FORMAT: cluster: input is not UTF-8 text: ")

    def test_mismatched_count_override(self, small_panel, tmp_path, capsys):
        path, _, _ = small_panel
        code = main(["cluster", str(path), "--r0", "1", "--out", str(tmp_path)])
        assert code != 0
        assert "both counts" in capsys.readouterr().err

    def test_sector_panel_distribution_matrix(self, tmp_path):
        # 11 labeled categories, forced r0=1/r=15 and d=9: the emitted
        # share matrix must be 11 x 9 with unit row sums
        spec = ScenarioSpec(n=350, d=11, p1=6, p_extra=4, r0=1,
                            r_per_cluster=1, seed=23)
        panel, truth = generate_scenario(spec)
        path = tmp_path / "sector_panel.csv"
        ids = write_panel_csv(path, panel)
        sectors = ["sec_none"] + [f"sec_{j:02d}" for j in range(1, 12)]
        labels_path = tmp_path / "labels.csv"
        with open(labels_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series_id", "label"])
            for i, sid in enumerate(ids):
                writer.writerow([sid, sectors[truth.membership[i]]])
        out = tmp_path / "sector_out"
        code = main(["cluster", str(path), "--labels", str(labels_path),
                     "--r0", "1", "--r", "15", "--d", "9", "--k0", "5",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        with (out / "label_distribution.csv").open() as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[1:] == [f"cluster_{j}" for j in range(1, 10)]
        assert len(body) <= 12 and len(body[0]) == 10
        for row in body:
            assert abs(sum(float(v) for v in row[1:]) - 1.0) < 1e-12

    def test_counts_past_rank_bound_on_wide_panel(self, tmp_path, capsys):
        # p = 30 > n = 12: r0 + r may reach min(p, n) - 1 = 11, not 12
        rng = np.random.default_rng(3)
        path = tmp_path / "wide.csv"
        write_panel_csv(path, TimeSeriesPanel(values=rng.standard_normal((30, 12))))
        code = main(["cluster", str(path), "--r0", "2", "--r", "10",
                     "--k0", "2", "--out", str(tmp_path / "out")])
        assert code != 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("E_LOADINGS: cluster:")


    @pytest.mark.parametrize("spec", [
        ScenarioSpec(n=300, d=3, p1=20, p_extra=10, seed=5),    # 70 x 300
        ScenarioSpec(n=120, d=3, p1=60, p_extra=40, seed=5),    # 220 x 120
    ], ids=["p<=n", "p>n"])
    def test_decisions_independent_of_blas_threads(self, tmp_path, spec):
        # the per-lag SVDs (and for p > n the thin QR) run on one thread at
        # either setting; the lag products and eigh follow OPENBLAS_NUM_THREADS
        path = tmp_path / "panel.csv"
        write_panel_csv(path, generate_scenario(spec)[0])
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            done = _python("-m", "factorclust", "cluster", str(path), "--k0", "3",
                           "--out", str(out), OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            runs.append((json.loads((out / "clustering_result.json").read_text()),
                         json.loads((out / "factor_count_report.json").read_text())))
        (one, one_report), (two, two_report) = runs
        assert one["counts"] == two["counts"] == {"r0": spec.r0, "r": spec.r}
        for key in ("no_cluster", "retained", "d_hat", "d_used", "assignments"):
            assert one[key] == two[key], key
        assert one_report["selected"] == two_report["selected"]
        ratios = [np.array([float(x) for x in report["ratios"]])
                  for report in (one_report, two_report)]
        np.testing.assert_allclose(ratios[0], ratios[1], rtol=1e-12)

    @pytest.mark.parametrize("restarts, missing", [
        pytest.param("0", False, id="0"),
        pytest.param("-2", False, id="-2"),
        pytest.param("0", True, id="0-missing-input"),  # usage is checked first
    ])
    def test_restarts_below_one(self, small_panel, tmp_path, capsys, restarts, missing):
        path = tmp_path / "missing.csv" if missing else small_panel[0]
        code = main(["cluster", str(path), "--r0", "1", "--r", "2", "--d", "3",
                     "--restarts", restarts, "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"E_USAGE: --restarts {restarts}: "
            "the number of K-means restarts must be at least 1"
        ]
        assert not (tmp_path / "out").exists()

    def test_nan_omega_rejected(self, small_panel, tmp_path, capsys):
        path, _, _ = small_panel
        out = tmp_path / "out"
        code = main(["cluster", str(path), "--r0", "1", "--r", "2",
                     "--omega", "nan", "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("E_USAGE: --omega nan:")
        assert not (out / "clustering_result.json").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--omega", "nan"), ("--omega", "0"), ("--omega", "-1"),
                        ("--omega", "inf"), ("--d", "0")],
    )
    def test_usage_checked_before_input(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        code = main(["cluster", str(tmp_path / "nope.csv"), flag, value,
                     "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"E_USAGE: {flag} {value}: ")
        assert not out.exists()


@pytest.mark.parametrize("command, flags, detail", [
    pytest.param("cluster", ["--r0", "2"], "--r0/--r", id="r0-only"),
    pytest.param("cluster", ["--r", "2"], "--r0/--r", id="r-only"),
    pytest.param("cluster", ["--r0", "-1", "--r", "3"], "--r0 -1", id="r0-negative"),
    pytest.param("cluster", ["--r0", "1", "--r", "0"], "--r 0", id="r-zero"),
    pytest.param("cluster", ["--j0", "1"], "--j0 1", id="cluster-j0-1"),
    pytest.param("factor-count", ["--j0", "1"], "--j0 1", id="factor-count-j0-1"),
    pytest.param("simulate", ["--k0", "-1"], "--k0 -1", id="simulate-k0-negative"),
    pytest.param("simulate", ["--j0", "1"], "--j0 1", id="simulate-j0-1"),
])
def test_counts_and_j0_checked_before_input(tmp_path, capsys, command, flags, detail):
    out = tmp_path / "out"
    code = main([command, *_missing_input(command, tmp_path), *flags,
                 "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"E_USAGE: {detail}: ")
    assert not out.exists()


class TestFactorCountCommand:
    def test_report_written(self, small_panel, tmp_path):
        path, _, _ = small_panel
        out = tmp_path / "fc"
        assert main(["factor-count", str(path), "--k0", "3",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "factor_count_report.json").read_text())
        assert doc["method"] == "cumulative"
        assert doc["provenance"]["version"]
        assert doc["provenance"]["seed"] is None  # counting draws nothing

    def test_selection_failure_still_writes(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(10)
        x = rng.standard_normal(40)
        path = tmp_path / "rank1.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"s{i}" for i in range(10)])
            for t in range(40):
                writer.writerow([f"{a[i] * x[t]:.12g}" for i in range(10)])
        out = tmp_path / "fc2"
        assert main(["factor-count", str(path), "--k0", "2", "--out", str(out)]) == 0
        doc = json.loads((out / "factor_count_report.json").read_text())
        assert doc["selected"] is None
        assert "manually" in doc["selection_error"]

    def test_two_point_panel_still_writes(self, tmp_path):
        # rank S(k) <= n - 1 = 1: the default J0 is 2, one ratio
        path = tmp_path / "two.csv"
        path.write_text("a,b,c,d\n1,2,3,5\n2,1,7,3\n")
        out = tmp_path / "fc3"
        assert main(["factor-count", str(path), "--k0", "1", "--out", str(out)]) == 0
        doc = json.loads((out / "factor_count_report.json").read_text())
        assert doc["J0"] == 2 and doc["selected"] is None
        assert "manually" in doc["selection_error"]


@pytest.mark.parametrize("command", ["cluster", "factor-count"])
@pytest.mark.parametrize("k0, missing", [
    pytest.param("-1", False, id="-1"),
    pytest.param("300", False, id="300"),
    pytest.param("5000", False, id="5000"),
    pytest.param("-1", True, id="-1-missing-input"),  # usage is checked first
])
def test_k0_out_of_range_usage_error(
    small_panel, tmp_path, capsys, command, k0, missing
):
    # the small panel has n = 300 time points, so k0 must lie in [0, 299]
    path = tmp_path / "missing.csv" if missing else small_panel[0]
    code = main([command, str(path), "--k0", k0, "--out", str(tmp_path / "out")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"E_USAGE: --k0 {k0}: ")
    assert not (tmp_path / "out").exists()


class TestSimulateCommand:
    def test_summary_and_provenance(self, tmp_path):
        out = tmp_path / "sim"
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "n=150\nd=2\np1=6\np_extra=3\nr0=1\nr_per_cluster=1\nseed=3\n"
        )
        code = main(["simulate", "--config", str(cfg), "--reps", "3",
                     "--k0", "2", "--out", str(out)])
        assert code == 0
        with (out / "summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "mean", "sd", "n_reps"]
        assert all(row[3] == "3" for row in rows[1:])
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["reps"] == 3 and prov["master_seed"] == 3
        assert prov["failures"] == []

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["simulate", "--scenario", "I", "--p1", "6",
                         "--reps", "2", "--seed", "5", "--k0", "2",
                         "--out", str(out)])
            assert code == 0
            outs.append((out / "summary.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_output_independent_of_blas_threads(self, tmp_path):
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            done = _python("-m", "factorclust", "simulate", "--scenario", "I",
                           "--p1", "10", "--reps", "3", "--k0", "3",
                           "--estimated-counts", "--out", str(out),
                           OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            written.append({path.name: path.read_bytes()
                            for path in sorted(out.iterdir())})
        assert sorted(written[0]) == ["provenance.json", "summary.csv"]
        assert written[0] == written[1]

    def test_zero_reps_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "I", "--reps", "0",
                     "--out", str(tmp_path)])
        assert code != 0
        assert "E_USAGE" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_usage_error(self, tmp_path, capsys, jobs):
        code = main(["simulate", "--scenario", "I", "--reps", "1",
                     "--jobs", jobs, "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"E_USAGE: --jobs {jobs}:")
        assert not (tmp_path / "out").exists()

    def test_bad_number_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n=300\nd=abc\n")
        code = main(["simulate", "--config", str(cfg), "--reps", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"E_CONFIG: simulate: {cfg}:2: d: invalid value 'abc'"]

    def test_non_utf8_config_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n=300\n# caf\xe9\nd=2\n")
        code = main(["simulate", "--config", str(cfg), "--reps", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"E_CONFIG: simulate: {cfg}: not UTF-8 text: "
                         "invalid continuation byte"]

    def test_k0_checked_before_replications(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "I", "--p1", "4", "--reps", "2",
                     "--k0", "-1", "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["E_USAGE: --k0 -1: the largest lag must be at least 0"]
        assert not (tmp_path / "out").exists()

    def test_j0_checked_before_replications(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "I", "--p1", "5", "--reps", "3",
                     "--j0", "1", "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            "E_USAGE: --j0 1: the ratio truncation point must be at least 2"
        ]
        assert not (tmp_path / "out").exists()

    def test_needs_config_or_scenario(self, tmp_path, capsys):
        for extra in ([], ["--p1", "7"]):
            code = main(["simulate", *extra, "--reps", "1", "--out", str(tmp_path)])
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [
                "E_USAGE: simulate: give --config FILE or --scenario I|II"
            ]

    @pytest.mark.parametrize("extra", [["--scenario", "II"], ["--p1", "7"],
                                       ["--scenario", "II", "--p1", "7"],
                                       ["--p1", "25"]])
    def test_config_takes_no_scenario_options(self, tmp_path, capsys, extra):
        # the config is never read: a missing file would be E_INPUT_NOT_FOUND
        code = main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                     *extra, "--reps", "1", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "E_USAGE: simulate: --config FILE takes neither --scenario nor --p1"
        ]
        assert not (tmp_path / "out").exists()


class TestExample1Command:
    def test_eigenvalue_table(self, tmp_path):
        out = tmp_path / "e1"
        code = main(["example1", "--p", "50,100", "--delta", "0.5",
                     "--out", str(out)])
        assert code == 0
        with (out / "example1_eigenvalues.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["p", "lambda1"]
        for row in rows[1:]:
            lam3, analytic = float(row[3]), float(row[4])
            assert lam3 == pytest.approx(analytic, rel=1e-8)

    @pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf", "abc"])
    def test_nonpositive_delta_usage_error(self, tmp_path, capsys, delta):
        # p = 2 would fail as E_CONFIG when its size is generated
        out = tmp_path / "out"
        code = main(["example1", "--p", "2", "--delta", delta, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"E_USAGE: --delta {delta}: delta must be a finite positive number"
        ]
        assert not out.exists()

    def test_small_positive_delta_accepted(self, tmp_path):
        # below 0.5 the closed form holds only as p grows
        out = tmp_path / "e1"
        code = main(["example1", "--p", "50,500", "--delta", "0.25",
                     "--out", str(out)])
        assert code == 0
        with (out / "example1_eigenvalues.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        shares = [float(row[3]) / float(row[4]) for row in rows]
        assert shares[0] == pytest.approx(0.68, abs=0.01)
        assert shares[1] == pytest.approx(1.0, rel=1e-6)

    def test_non_integer_size_usage_error(self, tmp_path, capsys):
        code = main(["example1", "--p", "abc", "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("E_USAGE: --p abc:")

    def test_no_output_directory_on_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["example1", "--p", "50,2", "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("E_CONFIG: example1: ")
        assert not out.exists()


# each bounded integer option of each command, with a value just below its
# bound and one far below it
BOUNDED = {"--k0": ("-1", "-50"), "--j0": ("1", "-2"), "--r0": ("-1", "-9"),
           "--r": ("0", "-1"), "--d": ("0", "-3"), "--restarts": ("0", "-20"),
           "--reps": ("0", "-1"), "--jobs": ("0", "-4")}
BOUNDED_BY_COMMAND = {
    "cluster": ("--k0", "--j0", "--r0", "--r", "--d", "--restarts"),
    "factor-count": ("--k0", "--j0"),
    "simulate": ("--k0", "--j0", "--reps", "--jobs"),
}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for command, flags in BOUNDED_BY_COMMAND.items()
    for flag in flags
    for value in BOUNDED[flag]
])
def test_every_bound_checked_before_input(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    code = main([command, *_missing_input(command, tmp_path), flag, value,
                 "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"E_USAGE: {flag} {value}: ")
    assert not out.exists()


@pytest.mark.parametrize("flags, detail", [
    pytest.param(["--d", "0", "--k0", "-1"], "--d 0", id="d-first"),
    pytest.param(["--k0", "-1", "--d", "0"], "--k0 -1", id="k0-first"),
    pytest.param(["--r0", "-1"], "--r0 -1", id="bound-before-pairing"),
])
def test_first_wrong_option_reported(tmp_path, capsys, flags, detail):
    code = main(["cluster", str(tmp_path / "missing.csv"), *flags])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"E_USAGE: {detail}: ")


@pytest.mark.parametrize("argv", [
    pytest.param(["cluster", "x.csv", "--k0", "abc"], id="not-an-int"),
    pytest.param(["cluster", "x.csv", "--orientation", "foo"], id="bad-choice"),
    pytest.param(["cluster"], id="missing-input"),
    pytest.param(["cluster", "x.csv", "--bogus"], id="unknown-option"),
    pytest.param(["factor-count", "x.csv", "--seed", "3"], id="factor-count-seed"),
    pytest.param([], id="no-subcommand"),
])
def test_parser_error_is_one_usage_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("E_USAGE: ")
    assert "usage:" not in captured.err + captured.out


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["simulate", "--help"]])
def test_help_and_version_exit_zero_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_outputs_are_utf8_under_an_ascii_locale(small_panel, tmp_path):
    path, panel, _ = small_panel
    labels = tmp_path / "labels.csv"
    labels.write_text("series_id,label\n" + "".join(
        f"s{i:03d},{'Énergie' if i % 2 else 'Santé'}\n" for i in range(panel.p)
    ), encoding="utf-8")
    out = tmp_path / "out"
    done = _python("-m", "factorclust", "cluster", str(path), "--labels", str(labels),
                   "--r0", "1", "--r", "3", "--k0", "3", "--out", str(out),
                   LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert done.returncode == 0, done.stderr
    rows = (out / "label_distribution.csv").read_text(encoding="utf-8").splitlines()
    assert sorted(row.split(",")[0] for row in rows[1:]) == ["Santé", "Énergie"]


def test_module_entry_point_help():
    done = _python("-m", "factorclust", "--help")
    assert done.returncode == 0, done.stderr
    assert "cluster" in done.stdout


# modules of scipy and of the process pool; a run that needs none of them
# does not pay for their import
LATE_MODULES = ("scipy", "multiprocessing", "concurrent")
LOADED = f"sorted(m for m in sys.modules if m.split('.')[0] in {LATE_MODULES!r})"


def test_import_leaves_scipy_and_the_pool_unloaded():
    done = _python("-c", f"import sys, factorclust.cli; print({LOADED})")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_commands_below_the_lanczos_size_never_load_scipy(small_panel, tmp_path):
    # scenario I at p1 = 25 is 150 x 400: cluster_upper_bound counts on the
    # full spectrum there
    panel, _ = generate_scenario(ScenarioSpec(n=400, d=5, p1=25, p_extra=25,
                                              r0=2, r_per_cluster=2, seed=3))
    scenario = tmp_path / "scenario.csv"
    write_panel_csv(scenario, panel)
    runs = [
        ["factor-count", str(small_panel[0]), "--out", str(tmp_path / "fc")],
        ["example1", "--p", "50", "--out", str(tmp_path / "e1")],
        ["cluster", str(scenario), "--out", str(tmp_path / "cl")],
    ]
    script = (
        "import json, sys\n"
        "from factorclust.cli import main\n"
        "seen = [(main(argv), %s) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(seen))\n" % LOADED
    )
    done = _python("-c", script, json.dumps(runs))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, []]] * len(runs)
    assert (tmp_path / "cl" / "clustering_result.json").is_file()
