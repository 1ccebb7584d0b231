import concurrent.futures
import itertools
import multiprocessing
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorclust import (
    MonteCarloConfig,
    ScenarioSpec,
    SimulationError,
    generate_example1,
    generate_scenario,
    read_scenario_config,
    replication_record,
    run_monte_carlo,
    scenario_i,
    scenario_ii,
)
import factorclust._blas as blas
import factorclust.simulation as sim
from factorclust.cli import main
from factorclust.simulation import _ar1_paths, _draw_coefficients, _ma1_paths

from oracles import ar1_paths_oracle, numpy_openblas, scenario_values_oracle


class TestScenarioSpec:
    def test_scenario_i_sizes(self):
        spec = scenario_i(p1=25)
        assert (spec.p, spec.r) == (150, 10)
        assert spec.p == spec.d * spec.p1 + spec.p_extra
        assert spec.r == spec.d * spec.r_per_cluster

    def test_scenario_ii_sizes(self):
        spec = scenario_ii(p1=25)
        assert (spec.n, spec.d, spec.p, spec.r) == (800, 10, 375, 20)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(SimulationError):
            ScenarioSpec(n=1)
        with pytest.raises(SimulationError):
            ScenarioSpec(r0=0)

    @pytest.mark.parametrize("field, bounds, message", [
        ("ar_range", (0.5, 1.5), "ar_range must lie in [0, 1), got 0.5, 1.5"),
        ("ar_range", (1.0, 1.0), "ar_range must lie in [0, 1), got 1.0, 1.0"),
        ("ar_range", (-0.2, 0.5), "ar_range must be nonnegative, got -0.2, 0.5"),
        ("ma_range", (-0.5, 0.5), "ma_range must be nonnegative, got -0.5, 0.5"),
        ("factor_sd_range", (2.0, -1.0),
         "factor_sd_range must be finite with low <= high, got 2.0, -1.0"),
        ("loading_range", (float("nan"), 1.0),
         "loading_range must be finite with low <= high, got nan, 1.0"),
        ("ma_range", (0.4, float("inf")),
         "ma_range must be finite with low <= high, got 0.4, inf"),
    ])
    def test_invalid_ranges_rejected(self, field, bounds, message):
        with pytest.raises(SimulationError) as info:
            ScenarioSpec(**{field: bounds})
        assert str(info.value) == message

    @pytest.mark.parametrize("field, bounds", [
        ("loading_range", (0.0, 0.0)),
        ("loading_range", (-2.0, -1.0)),
        ("factor_sd_range", (1.0, 1.0)),
        ("ar_range", (0.0, 0.999)),
        ("ma_range", (0.0, 3.0)),
    ])
    def test_degenerate_but_valid_ranges_accepted(self, field, bounds):
        assert getattr(ScenarioSpec(**{field: bounds}), field) == bounds

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "# comment\nn=300\nd=4\np1=10\np_extra=5\nr0=1\nr_per_cluster=2\n"
            "shuffle=false\nseed=9\nar_range=0.5,0.9\n"
        )
        spec = read_scenario_config(cfg)
        assert spec.n == 300 and spec.d == 4 and not spec.shuffle
        assert spec.ar_range == (0.5, 0.9)

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate=1\n")
        with pytest.raises(SimulationError, match="unknown key"):
            read_scenario_config(cfg)

    def test_config_bad_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for text, message in [
            ("n=abc\n", "bad.cfg:1: n: invalid value 'abc'"),
            ("# c\nn=300\nnoise_innovation_var=1e\n",
             "bad.cfg:3: noise_innovation_var: invalid value '1e'"),
            ("ar_range=0.5,x\n", "bad.cfg:1: ar_range needs two floats"),
        ]:
            cfg.write_text(text)
            with pytest.raises(SimulationError) as info:
                read_scenario_config(cfg)
            assert str(info.value) == f"{tmp_path}/{message}"

    def test_config_bad_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n 300\n")
        with pytest.raises(SimulationError, match="key=value"):
            read_scenario_config(cfg)


class TestGenerateScenario:
    def test_deterministic(self):
        spec = ScenarioSpec(n=100, d=2, p1=6, p_extra=3, seed=42)
        p1, t1 = generate_scenario(spec)
        p2, t2 = generate_scenario(spec)
        np.testing.assert_array_equal(p1.values, p2.values)
        np.testing.assert_array_equal(t1.permutation, t2.permutation)

    def test_block_structure_exact(self):
        spec = ScenarioSpec(n=80, d=3, p1=5, p_extra=4, r0=1, r_per_cluster=2, seed=1)
        _, truth = generate_scenario(spec)
        b, membership = truth.B_padded, truth.membership
        for j in range(spec.d):
            rows = membership == j + 1
            assert rows.sum() == spec.p1
            cols = slice(j * spec.r_per_cluster, (j + 1) * spec.r_per_cluster)
            block = b[rows, cols]
            assert np.all(block != 0.0)
            outside = b[rows].copy()
            outside[:, cols] = 0.0
            assert np.all(outside == 0.0)
        assert np.all(b[membership == 0] == 0.0)

    def test_membership_consistent_with_permutation(self):
        spec = ScenarioSpec(n=60, d=2, p1=4, p_extra=2, seed=3)
        _, truth = generate_scenario(spec)
        expected = np.array([1] * 4 + [2] * 4 + [0] * 2)
        np.testing.assert_array_equal(truth.membership, expected[truth.permutation])
        np.testing.assert_array_equal(
            truth.J_true, np.flatnonzero(truth.membership == 0)
        )

    def test_no_shuffle_keeps_order(self):
        spec = ScenarioSpec(n=60, d=2, p1=4, p_extra=2, seed=3, shuffle=False)
        _, truth = generate_scenario(spec)
        assert truth.permutation is None
        np.testing.assert_array_equal(truth.membership[:4], 1)

    def test_ar_paths_match_drawn_coefficient(self):
        # lag-1 sample autocorrelation of each component tracks its phi
        rng = np.random.default_rng(7)
        phi = _draw_coefficients(rng, 20, (0.4, 0.95))
        paths = _ar1_paths(rng, phi, np.ones(20), n=2000)
        for i in range(20):
            x = paths[i] - paths[i].mean()
            acf1 = (x[1:] @ x[:-1]) / (x @ x)
            assert abs(acf1 - phi[i]) < 0.1

    def test_ma_paths_unit_variance(self):
        rng = np.random.default_rng(8)
        theta = _draw_coefficients(rng, 10, (0.4, 0.95))
        paths = _ma1_paths(rng, theta, np.ones(10), n=4000)
        assert np.all(np.abs(paths.var(axis=1) - 1.0) < 0.15)

    def test_noise_variance_law(self):
        # zero loadings leave the panel equal to the MA(1) noise alone
        spec = ScenarioSpec(
            n=400, d=2, p1=15, p_extra=30, loading_range=(0.0, 0.0), seed=5,
        )
        panel, _ = generate_scenario(spec)
        variances = panel.values.var(axis=1)
        # per-series MA(1) variance 0.25 (1 + theta^2), theta in +-(0.4, 0.95)
        assert variances.min() > 0.25 * 1.16 * 0.80
        assert variances.max() < 0.25 * 1.9025 * 1.25
        expected_mean = 0.25 * (1.0 + (0.95**3 - 0.4**3) / (3 * 0.55))
        assert abs(variances.mean() - expected_mean) < 0.15 * expected_mean

    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=6),
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_ar_paths_equal_the_per_step_oracle(self, phi, n, seed, data):
        phi = np.array(phi)
        sds = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=len(phi),
                                          max_size=len(phi))))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        paths = _ar1_paths(rng, phi, sds, n)
        expected = ar1_paths_oracle(oracle_rng, phi, sds, n)
        assert paths.tobytes() == expected.tobytes()
        # both consumed the same draws
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("noise", [0.25, 0.0], ids=["noise", "no-noise"])
    @pytest.mark.parametrize("shuffle", [True, False], ids=["shuffled", "ordered"])
    @pytest.mark.parametrize("scenario", [scenario_i, scenario_ii], ids=["I", "II"])
    def test_panel_equals_the_oracle_assembly(self, scenario, shuffle, noise):
        spec = replace(scenario(seed=21), shuffle=shuffle, noise_innovation_var=noise)
        panel, _ = generate_scenario(spec)
        expected = scenario_values_oracle(spec)
        assert panel.values.tobytes() == expected.tobytes()

    def test_coefficient_law_excludes_near_zero(self):
        rng = np.random.default_rng(9)
        coefs = _draw_coefficients(rng, 500, (0.4, 0.95))
        assert np.all((np.abs(coefs) >= 0.4) & (np.abs(coefs) <= 0.95))
        assert (coefs > 0).any() and (coefs < 0).any()


class TestExample1:
    def test_lambda3_matches_analytic(self):
        for p, delta in ((100, 0.5), (200, 0.3)):
            _, pop = generate_example1(p, delta, n=50, seed=0)
            lam = np.linalg.eigvalsh(pop.pooled())[::-1]
            assert lam[2] == pytest.approx(pop.lambda3_analytic(), rel=1e-10)

    def test_all_ratio_gaps_grow_like_p_delta(self):
        # both lambda1/lambda2 and lambda2/lambda3 diverge at the same rate,
        # so no single stable spike separates the tiers
        delta = 0.5
        sizes = [100, 400, 1600]
        r12, r23 = [], []
        for p in sizes:
            _, pop = generate_example1(p, delta, n=20, seed=1)
            lam = np.linalg.eigvalsh(pop.pooled())[::-1]
            r12.append(lam[0] / lam[1])
            r23.append(lam[1] / lam[2])
        logs = np.log(sizes)
        slope12 = np.polyfit(logs, np.log(r12), 1)[0]
        slope23 = np.polyfit(logs, np.log(r23), 1)[0]
        assert abs(slope12 - delta) < 0.15
        assert abs(slope23 - delta) < 0.15

    def test_single_lag_eigenvector_spans_coincide(self):
        _, pop = generate_example1(150, 0.5, n=20, seed=2)
        m0 = pop.sigma0 @ pop.sigma0.T
        m1 = pop.sigma1 @ pop.sigma1.T
        u0 = np.linalg.eigh((m0 + m0.T) / 2)[1][:, ::-1][:, :3]
        u1 = np.linalg.eigh((m1 + m1.T) / 2)[1][:, ::-1][:, :3]
        np.testing.assert_allclose(u0 @ u0.T, u1 @ u1.T, atol=1e-8)
        # same span, genuinely different bases
        cross = np.abs(u0.T @ u1)
        assert np.abs(cross - np.eye(3)).max() > 1e-3

    def test_sample_panel_tracks_population(self):
        panel, pop = generate_example1(40, 0.5, n=5000, seed=3)
        centered = panel.values - panel.values.mean(axis=1, keepdims=True)
        sample0 = centered @ centered.T / panel.n
        rel = np.linalg.norm(sample0 - pop.sigma0, "fro") / np.linalg.norm(
            pop.sigma0, "fro"
        )
        assert rel < 0.25

    def test_degenerate_coefficients_warn(self):
        with pytest.warns(UserWarning, match="degenerate"):
            generate_example1(50, 0.5, a1=0.6, a2=0.6, n=10, seed=4)

    def test_orthonormal_construction(self):
        _, pop = generate_example1(30, 0.4, n=10, seed=5)
        assert abs(np.linalg.norm(pop.A) - 1.0) < 1e-12
        np.testing.assert_allclose(pop.B.T @ pop.B, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(pop.A.T @ pop.B, 0.0, atol=1e-12)


class TestMonteCarlo:
    def test_single_replication_table(self):
        spec = ScenarioSpec(n=120, d=2, p1=6, p_extra=3, r0=1, r_per_cluster=1, seed=8)
        config = MonteCarloConfig(k0=2, include_baseline=False)
        result = run_monte_carlo(spec, reps=1, config=config)
        assert result.n_completed == 1
        record = result.records[0]
        for key, mean, sd, n in result.table.rows:
            assert n == 1 and sd == 0.0
            assert mean == pytest.approx(float(record[key]))

    def test_parallel_schedule_identical(self):
        spec = ScenarioSpec(n=120, d=2, p1=6, p_extra=3, r0=1, r_per_cluster=1, seed=9)
        config = MonteCarloConfig(k0=2)
        serial = run_monte_carlo(spec, reps=6, config=config, jobs=1)
        parallel = run_monte_carlo(spec, reps=6, config=config, jobs=2)
        assert serial.records == parallel.records
        assert serial.table.rows == parallel.table.rows

    def test_replication_seeds_differ(self):
        spec = ScenarioSpec(n=100, d=2, p1=5, p_extra=2, seed=10)
        config = MonteCarloConfig(k0=1, include_baseline=False)
        result = run_monte_carlo(spec, reps=4, config=config)
        assert result.n_completed == 4
        assert result.provenance["master_seed"] == 10

    def test_failures_recorded_not_dropped(self, monkeypatch):
        import factorclust.simulation as sim

        calls = {"n": 0}
        original = sim.replication_record

        def flaky(spec, config, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic breakdown")
            return original(spec, config, **kwargs)

        monkeypatch.setattr(sim, "replication_record", flaky)
        spec = ScenarioSpec(n=100, d=2, p1=5, p_extra=2, seed=11)
        config = MonteCarloConfig(k0=1, include_baseline=False)
        result = sim.run_monte_carlo(spec, reps=3, config=config, jobs=1)
        assert result.n_completed == 2
        assert len(result.failures) == 1
        assert result.failures[0][0] == 1
        assert "synthetic breakdown" in result.failures[0][1]

    def test_reps_must_be_positive(self):
        with pytest.raises(SimulationError, match="reps"):
            run_monte_carlo(scenario_i(), reps=0)


def _child_pids() -> set[int]:
    pids = {child.pid for child in multiprocessing.active_children()}
    for path in Path("/proc/self/task").glob("*/children"):
        pids.update(int(pid) for pid in path.read_text().split())
    return pids


@pytest.fixture()
def recording_pool(monkeypatch):
    """Stands in for the process pool: records the arguments of every pool
    made and runs its tasks in this process."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            started.append({"max_workers": max_workers, "mp_context": mp_context})

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started


class TestOneBlasThread:
    SMALL = ScenarioSpec(n=100, d=2, p1=5, p_extra=2, seed=12)
    SMALL_CONFIG = MonteCarloConfig(k0=1, include_baseline=False)

    def test_scenario_size_identical_across_jobs(self):
        # p = 150: two BLAS threads would split these products, one does not
        spec = scenario_i(p1=25, seed=13)
        config = MonteCarloConfig(k0=5, estimated_counts=True)
        serial = run_monte_carlo(spec, reps=6, config=config, jobs=1)
        parallel = run_monte_carlo(spec, reps=6, config=config, jobs=2)
        assert any("strong_err_op_est" in rec for rec in serial.records)
        assert serial.records == parallel.records
        assert serial.table.rows == parallel.table.rows

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replications_see_one_thread(self, monkeypatch, caller_on_two_blas_threads,
                                         jobs):
        getter = caller_on_two_blas_threads
        monkeypatch.setattr(sim, "replication_record",
                            lambda spec, config, **kwargs: {"blas_threads": getter()})
        result = sim.run_monte_carlo(self.SMALL, reps=4, config=self.SMALL_CONFIG,
                                     jobs=jobs)
        assert [rec["blas_threads"] for rec in result.records] == [1] * 4
        assert getter() == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_count_restored_when_every_replication_fails(
            self, monkeypatch, caller_on_two_blas_threads, jobs):
        getter = caller_on_two_blas_threads

        def broken(spec, config, **kwargs):
            raise RuntimeError(f"broken on {getter()} threads")

        monkeypatch.setattr(sim, "replication_record", broken)
        with pytest.raises(SimulationError, match="broken on 1 threads"):
            sim.run_monte_carlo(self.SMALL, reps=3, config=self.SMALL_CONFIG,
                                jobs=jobs)
        assert getter() == 2

    def test_count_restored_when_the_body_raises(self, caller_on_two_blas_threads):
        getter = caller_on_two_blas_threads
        with pytest.raises(KeyboardInterrupt):
            with blas._one_blas_thread():
                assert getter() == 1
                raise KeyboardInterrupt
        assert getter() == 2

    def test_no_child_process_left(self):
        before = _child_pids()
        result = run_monte_carlo(self.SMALL, reps=4, config=self.SMALL_CONFIG, jobs=2)
        assert result.n_completed == 4
        assert _child_pids() - before == set()

    def test_runs_when_no_openblas_is_found(self, monkeypatch):
        monkeypatch.setattr(blas, "_openblas_thread_controls", lambda: ())
        found_nothing = sim.run_monte_carlo(self.SMALL, reps=3,
                                            config=self.SMALL_CONFIG, jobs=2)
        monkeypatch.undo()
        assert found_nothing.records == run_monte_carlo(
            self.SMALL, reps=3, config=self.SMALL_CONFIG).records

    def test_lookup_finds_nothing_without_proc(self, monkeypatch):
        def no_proc(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        monkeypatch.setattr(blas, "open", no_proc, raising=False)
        # the lookup keeps what it found per process: look again; the
        # builds found before come back when the test ends
        monkeypatch.setattr(blas, "_builds", None)
        assert blas._openblas_thread_controls() == ()
        with blas._one_blas_thread():
            pass

    def test_lookup_finds_numpy_build(self):
        if numpy_openblas() is None:
            pytest.skip("numpy does not bundle a scipy-openblas build")
        assert len(blas._openblas_thread_controls()) >= 1

    @pytest.mark.parametrize("reps, jobs, workers", [
        (1, 3, None), (2, 3, 2), (5, 3, 3), (4, 1, None),
    ])
    def test_pool_never_larger_than_reps(self, recording_pool, reps, jobs, workers):
        result = sim.run_monte_carlo(self.SMALL, reps=reps, config=self.SMALL_CONFIG,
                                     jobs=jobs)
        assert result.n_completed == reps
        started = [pool["max_workers"] for pool in recording_pool]
        assert started == ([] if workers is None else [workers])

    def test_pool_forks_its_workers(self, recording_pool):
        # forked workers inherit the one-thread setting; a forkserver or
        # spawn pool would not, and would leave a resource tracker running
        result = sim.run_monte_carlo(self.SMALL, reps=2, config=self.SMALL_CONFIG,
                                     jobs=2)
        assert result.n_completed == 2
        [pool] = recording_pool
        assert pool["mp_context"].get_start_method() == "fork"


@pytest.fixture(params=[8, 1], ids=["8-cpus", "1-cpu"])
def cpus(request, monkeypatch):
    """Forces the CPU count that decides on the helper thread: with 8 a
    serial run draws each replication's stage 1 ahead on it, with 1 never."""
    monkeypatch.setattr(sim, "_cpu_count", lambda: request.param)
    return request.param


def _ratio_threads(monkeypatch) -> list[str]:
    """Names of the threads that run each ratio report, as they run."""
    names = []
    ratio = sim.cumulative_ratio_sequence

    def recording(*args, **kwargs):
        names.append(threading.current_thread().name)
        return ratio(*args, **kwargs)

    monkeypatch.setattr(sim, "cumulative_ratio_sequence", recording)
    return names


def _on_helper(name: str) -> bool:
    return name.startswith("factorclust-helper")


def _fail(monkeypatch, name: str, when=lambda *args: True, error=RuntimeError):
    """Make ``sim.<name>`` raise ``error("<name> failed")`` on the calls
    for which ``when(*args)`` holds; returns the list of all its calls."""
    original = getattr(sim, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        if when(*args):
            raise error(f"{name} failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(sim, name, failing)
    return calls


def _fail_call(monkeypatch, name: str, index: int, error=RuntimeError):
    """Make only call number ``index`` (from 0) of ``sim.<name>`` fail."""
    counter = itertools.count()
    return _fail(monkeypatch, name, lambda *args: next(counter) == index, error)


class TestHelperThread:
    """Serial replications pipelined: stage 1 of replication i + 1 (panel,
    lag stack, ratio report) on a helper thread while the caller runs
    stage 2 of replication i."""

    # (k0 + 1) * min(p, n) = 8 * 70 = 560: the stacked SVD runs without the GIL
    WIDE = ScenarioSpec(n=100, d=2, p1=30, p_extra=10, seed=12)
    CONFIG = MonteCarloConfig(k0=7)

    @pytest.mark.parametrize("k0, p, n, workers, cpus, expected", [
        (4, 100, 200, 1, 2, False),  # 5 * 100 = 500 rows: the GIL is held
        (2, 167, 200, 1, 2, True),   # 3 * 167 = 501 rows
        (2, 200, 167, 1, 2, True),   # min(p, n) counts
        (2, 167, 200, 1, 1, False),  # no CPU for the helper
        (2, 167, 200, 2, 3, False),  # pool workers run each replication inline
        (2, 167, 200, 2, 4, False),  # also with two CPUs per worker
    ])
    def test_when_it_runs(self, monkeypatch, k0, p, n, workers, cpus, expected):
        monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
        spec = ScenarioSpec(n=n, d=1, p1=p - 1, p_extra=1)
        assert spec.p == p
        config = MonteCarloConfig(k0=k0)
        assert sim._helper_thread(spec, config, workers) is expected
        # stage 1 is the same with or without a known-counts branch
        no_branch = MonteCarloConfig(k0=k0, known_counts=False, estimated_counts=True)
        assert sim._helper_thread(spec, no_branch, workers) is expected

    def test_serial_replications_use_it_with_a_spare_cpu(self, monkeypatch, cpus):
        names = _ratio_threads(monkeypatch)
        run_monte_carlo(self.WIDE, reps=3, config=self.CONFIG)
        assert [_on_helper(name) for name in names] == [cpus >= 2] * 3

    def test_small_panels_and_direct_calls_run_inline(self, monkeypatch, cpus):
        names = _ratio_threads(monkeypatch)
        # 2 * 12 = 24 rows: the stacked SVD holds the GIL
        run_monte_carlo(ScenarioSpec(n=100, d=2, p1=5, p_extra=2, seed=12), reps=2,
                        config=MonteCarloConfig(k0=1))
        replication_record(self.WIDE, self.CONFIG)
        assert names == [threading.current_thread().name] * 3

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_pool_workers_run_inline(self, monkeypatch, recording_pool, cpus):
        monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
        names = _ratio_threads(monkeypatch)
        pooled = sim.run_monte_carlo(self.WIDE, reps=2, config=self.CONFIG, jobs=2)
        assert names == [threading.current_thread().name] * 2
        assert pooled.records == sim.run_monte_carlo(self.WIDE, reps=2,
                                                     config=self.CONFIG).records

    def test_stage_one_drawn_one_replication_ahead(self, monkeypatch):
        # the helper draws replication i + 1 while the caller scores i, and
        # no further: each branch starts after at most one draw past its own
        monkeypatch.setattr(sim, "_cpu_count", lambda: 8)
        events = []
        draw, branch = sim._draw, sim._evaluate_branch

        def drawing(spec, config):
            events.append(("draw", spec.seed))
            return draw(spec, config)

        def scoring(stack, truth, r0, r, config, seed, **kwargs):
            events.append(("score", seed))
            return branch(stack, truth, r0, r, config, seed, **kwargs)

        monkeypatch.setattr(sim, "_draw", drawing)
        monkeypatch.setattr(sim, "_evaluate_branch", scoring)
        sim.run_monte_carlo(self.WIDE, reps=4, config=self.CONFIG)
        seeds = [sim._replication_seed(self.WIDE.seed, rep) for rep in range(4)]
        assert [seed for kind, seed in events if kind == "draw"] == seeds
        assert [seed for kind, seed in events if kind == "score"] == seeds
        for rep, seed in enumerate(seeds):
            drawn = events[:events.index(("score", seed))].count
            assert sum(drawn(("draw", s)) for s in seeds) <= rep + 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_thread_outlives_the_run(self, monkeypatch, jobs):
        monkeypatch.setattr(sim, "_cpu_count", lambda: 8)
        before = set(threading.enumerate())
        # replication 1 fails in its branch, the others complete
        failing_seed = sim._replication_seed(self.WIDE.seed, 1)
        _fail(monkeypatch, "_evaluate_branch",
              lambda stack, truth, r0, r, config, seed: seed == failing_seed)
        result = sim.run_monte_carlo(self.WIDE, reps=3, config=self.CONFIG, jobs=jobs)
        assert result.failures == [(1, "RuntimeError: _evaluate_branch failed")]
        assert set(threading.enumerate()) <= before
        # every replication fails in its ratio step
        with pytest.raises(SimulationError):
            sim.run_monte_carlo(self.WIDE, reps=3, jobs=jobs,
                                config=MonteCarloConfig(k0=7, J0=80))
        assert set(threading.enumerate()) <= before

    def test_ratio_failure_recorded_as_before(self, cpus):
        # J0 past p = 70 fails the ratio step of every replication
        with pytest.raises(SimulationError) as raised:
            run_monte_carlo(self.WIDE, reps=2, config=MonteCarloConfig(k0=7, J0=80))
        assert str(raised.value) == (
            "all 2 replications failed; first error: FactorCountError: "
            "J0=80 exceeds the number of series p=70"
        )

    @pytest.mark.parametrize("name, index", [
        # stage 1, on the helper when pipelined
        ("generate_scenario", 1),
        ("lag_stack", 1),
        ("cumulative_ratio_sequence", 1),
        # stage 2, on the caller; two count selections per replication
        ("select_factor_counts", 2),
        ("single_matrix_ratio_baseline", 1),
        ("_evaluate_branch", 1),
    ])
    def test_failure_lands_on_its_replication(self, monkeypatch, cpus, name, index):
        # the call made for replication 1 fails; 0 and 2 complete as inline
        expected = run_monte_carlo(self.WIDE, reps=3, config=self.CONFIG).records
        _fail_call(monkeypatch, name, index)
        result = sim.run_monte_carlo(self.WIDE, reps=3, config=self.CONFIG)
        assert result.failures == [(1, f"RuntimeError: {name} failed")]
        assert result.records == [expected[0], expected[2]]

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "inline"])
    @pytest.mark.parametrize("failing, first", [
        (["cumulative_ratio_sequence", "_evaluate_branch"], "cumulative_ratio_sequence"),
        (["single_matrix_ratio_baseline", "_evaluate_branch"],
         "single_matrix_ratio_baseline"),
        (["_evaluate_branch"], "_evaluate_branch"),
    ])
    def test_first_failure_in_stage_order(self, monkeypatch, helper, failing, first):
        for name in failing:
            _fail(monkeypatch, name)
        task = (self.WIDE, self.CONFIG, 0)
        if helper:
            with concurrent.futures.ThreadPoolExecutor(1) as pool:
                drawn = pool.submit(sim._draw, self.WIDE, self.CONFIG)
                outcome = sim._worker(task, drawn)
        else:
            outcome = sim._worker(task)
        assert outcome == (0, None, f"RuntimeError: {first} failed")

    def test_inline_ratio_failure_skips_the_branch(self, monkeypatch):
        _fail(monkeypatch, "cumulative_ratio_sequence")
        branch = _fail(monkeypatch, "_evaluate_branch", lambda *args: False)
        with pytest.raises(RuntimeError, match="cumulative_ratio_sequence failed"):
            replication_record(self.WIDE, self.CONFIG)
        assert branch == []

    def _interrupted_run(self, monkeypatch, name: str) -> list:
        """Run with call 0 of ``sim.<name>`` raising ``KeyboardInterrupt``;
        returns the calls of ``generate_scenario`` made."""
        monkeypatch.setattr(sim, "_cpu_count", lambda: 8)
        _fail_call(monkeypatch, name, 0, error=KeyboardInterrupt)
        draws = _fail(monkeypatch, "generate_scenario", lambda *args: False)
        with pytest.raises(KeyboardInterrupt, match=f"{name} failed"):
            sim.run_monte_carlo(self.WIDE, reps=5, config=self.CONFIG)
        return draws

    def test_interrupt_in_the_branch_is_not_held(self, monkeypatch):
        # raised out of the run at once, with the helper joined and no draw
        # started past the one ahead
        before = set(threading.enumerate())
        draws = self._interrupted_run(monkeypatch, "_evaluate_branch")
        assert set(threading.enumerate()) <= before
        assert len(draws) <= 2

    def test_interrupt_in_stage_one_is_not_held(self, monkeypatch):
        # raised on the helper, carried by the replication's future
        before = set(threading.enumerate())
        draws = self._interrupted_run(monkeypatch, "cumulative_ratio_sequence")
        assert set(threading.enumerate()) <= before
        assert len(draws) <= 2

    def test_helper_sees_one_blas_thread(self, monkeypatch, caller_on_two_blas_threads):
        # stage 1 on the helper runs inside the run's one-thread setting,
        # and the caller's count is back after a run and after an interrupt
        getter = caller_on_two_blas_threads
        monkeypatch.setattr(sim, "_cpu_count", lambda: 8)
        seen, draw = [], sim._draw

        def drawing(spec, config):
            seen.append((threading.current_thread().name, getter()))
            return draw(spec, config)

        monkeypatch.setattr(sim, "_draw", drawing)
        run_monte_carlo(self.WIDE, reps=3, config=self.CONFIG)
        assert [(_on_helper(name), count) for name, count in seen] == [(True, 1)] * 3
        assert getter() == 2
        self._interrupted_run(monkeypatch, "_evaluate_branch")
        assert getter() == 2

    def test_concurrent_runs_share_the_blas_setting(self, monkeypatch,
                                                    caller_on_two_blas_threads):
        # more Python threads than cores, switching often: three runs, each
        # with its helper, enter and leave one-thread bodies at once
        getter = caller_on_two_blas_threads
        monkeypatch.setattr(sim, "_cpu_count", lambda: 8)
        names = _ratio_threads(monkeypatch)
        spec = scenario_i(p1=20, seed=5)
        expected = run_monte_carlo(spec, reps=2).records
        results, errors = [], []

        def work():
            try:
                results.append(run_monte_carlo(spec, reps=2).records)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [threading.Thread(target=work) for _ in range(3)]
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(run.is_alive() for run in runs)
        assert errors == [] and results == [expected] * 3
        assert all(_on_helper(name) for name in names) and len(names) == 8
        assert getter() == 2

    @pytest.mark.parametrize("scenario, p1", [("I", 20), ("II", 10)])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outputs_identical_with_and_without_it(self, tmp_path, monkeypatch,
                                                   scenario, p1, jobs):
        # (k0 + 1) * p = 720 and 900: the stacked SVD runs without the GIL
        spec = (scenario_i if scenario == "I" else scenario_ii)(p1=p1, seed=3)
        config = MonteCarloConfig(k0=5, estimated_counts=True)
        records, written = {}, {}
        for cpus in (8, 1):
            monkeypatch.setattr(sim, "_cpu_count", lambda cpus=cpus: cpus)
            result = sim.run_monte_carlo(spec, reps=3, config=config, jobs=jobs)
            records[cpus] = [list(rec.items()) for rec in result.records]
            out = tmp_path / str(cpus)
            assert main(["simulate", "--scenario", scenario, "--p1", str(p1),
                         "--reps", "3", "--estimated-counts", "--jobs", str(jobs),
                         "--out", str(out)]) == 0
            written[cpus] = {path.name: path.read_bytes()
                             for path in sorted(out.iterdir())}
        assert any(name == "strong_err_op_est" for name, _ in records[8][0])
        assert records[8] == records[1]
        assert written[8] == written[1]
