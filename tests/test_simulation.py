import concurrent.futures
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from factorclust import (
    MonteCarloConfig,
    ScenarioSpec,
    SimulationError,
    generate_example1,
    generate_scenario,
    read_scenario_config,
    run_monte_carlo,
    scenario_i,
    scenario_ii,
)
import factorclust._blas as blas
import factorclust.simulation as sim
from factorclust.simulation import _ar1_paths, _draw_coefficients, _ma1_paths

from oracles import numpy_openblas


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
        stats = result.table.as_dict()
        record = result.records[0]
        for key, (mean, sd, n) in stats.items():
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

        def flaky(spec, config):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic breakdown")
            return original(spec, config)

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
                            lambda spec, config: {"blas_threads": getter()})
        result = sim.run_monte_carlo(self.SMALL, reps=4, config=self.SMALL_CONFIG,
                                     jobs=jobs)
        assert [rec["blas_threads"] for rec in result.records] == [1] * 4
        assert getter() == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_count_restored_when_every_replication_fails(
            self, monkeypatch, caller_on_two_blas_threads, jobs):
        getter = caller_on_two_blas_threads

        def broken(spec, config):
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
