"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion (run with ``-s`` to
see them live).  The Monte Carlo batches are shared module-scoped
fixtures; worker count comes from FACTORCLUST_JOBS (default 2) and does
not affect any result.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from factorclust import (
    LoadingMatrix,
    TimeSeriesPanel,
    MonteCarloConfig,
    ScenarioSpec,
    cluster_pipeline,
    detect_no_cluster,
    estimate_strong_loadings,
    estimate_weak_loadings,
    generate_example1,
    generate_scenario,
    kmeans,
    lag_autocov,
    misclassification_count,
    pooled_matrix,
    projection,
    run_monte_carlo,
    scenario_i,
    scenario_ii,
    similarity_matrix,
    wcss_curve,
)

from oracles import (
    kmeans_oracle,
    lag_autocov_oracle,
    misclassification_oracle,
    pooled_oracle,
    similarity_oracle,
)

JOBS = int(os.environ.get("FACTORCLUST_JOBS", "2"))
SEED_SCENARIO_I = 101
SEED_SCENARIO_II = 20260809


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def scenario_i_stats():
    config = MonteCarloConfig(
        k0=5, known_counts=True, estimated_counts=False, include_baseline=False,
    )
    result = run_monte_carlo(
        scenario_i(p1=25, seed=SEED_SCENARIO_I), reps=200, config=config, jobs=JOBS
    )
    assert not result.failures
    return result


@pytest.fixture(scope="module")
def scenario_ii_stats():
    config = MonteCarloConfig(
        k0=5, known_counts=False, estimated_counts=False, include_baseline=True,
    )
    result = run_monte_carlo(
        scenario_ii(p1=25, seed=SEED_SCENARIO_II), reps=100, config=config, jobs=JOBS
    )
    assert not result.failures
    return result


def test_criterion_1_factor_count_frequencies(scenario_i_stats):
    stats = scenario_i_stats.table.as_dict()
    freq_r0 = stats["r0_correct"][0]
    freq_total = stats["total_correct"][0]
    ok = (0.751 - 0.07 <= freq_r0 <= 0.751 + 0.07) and (
        0.998 - 0.02 <= freq_total <= 1.0
    )
    report(
        1, ok,
        f"freq(r0 correct)={freq_r0:.3f} target .751±.07, "
        f"freq(total correct)={freq_total:.3f} target .998±.02, 200 reps",
    )


def test_criterion_2_cumulative_beats_single_matrix(scenario_ii_stats):
    stats = scenario_ii_stats.table.as_dict()
    cumulative = stats["total_correct"][0]
    baseline = stats["baseline_total_correct"][0]
    ok = cumulative >= 0.95 and baseline < 0.75 and cumulative > baseline
    report(
        2, ok,
        f"cumulative total-count accuracy={cumulative:.3f} (>= .95), "
        f"single-matrix baseline={baseline:.3f} (< .75), 100 reps",
    )


def test_criterion_3_subspace_errors(scenario_i_stats):
    stats = scenario_i_stats.table.as_dict()
    strong = stats["strong_err_fro"][0]
    weak = stats["weak_err_fro"][0]
    ok = abs(strong - 0.230) <= 0.03 and abs(weak - 0.528) <= 0.03
    report(
        3, ok,
        f"mean strong-projection error={strong:.3f} target .230±.03, "
        f"mean weak-projection error={weak:.3f} target .528±.03",
    )


def test_criterion_4_detection_errors(scenario_i_stats):
    stats = scenario_i_stats.table.as_dict()
    e1_p1 = stats["e1_omega_p1"][0]
    e1_p2 = stats["e1_omega_p2"][0]
    e1_p3 = stats["e1_omega_p3"][0]
    e2_p2 = stats["e2_omega_p2"][0]
    ok = (
        abs(e1_p2 - 0.073) <= 0.02
        and e2_p2 <= 0.01
        and e1_p1 < e1_p2 < e1_p3
    )
    report(
        4, ok,
        f"E1(p2)={e1_p2:.3f} target .073±.02, E2(p2)={e2_p2:.4f} (<= .01), "
        f"ordering E1: {e1_p1:.3f} < {e1_p2:.3f} < {e1_p3:.3f}",
    )


def test_criterion_5_clustering_errors(scenario_i_stats):
    stats = scenario_i_stats.table.as_dict()
    tau_rate = stats["tau_rate"][0]
    d_freq = stats["d_hat_correct"][0]
    ok = tau_rate <= 0.005 and d_freq >= 0.99
    report(
        5, ok,
        f"mean misclassification rate={tau_rate:.5f} (<= .005), "
        f"freq(d_hat = d)={d_freq:.3f} (>= .99)",
    )


def test_criterion_6_population_eigenvalue_structure():
    delta = 0.5
    sizes = [100, 400, 1600]
    ratios, rel_errors = [], []
    for p in sizes:
        _, pop = generate_example1(p, delta, n=10, seed=0)
        lam = np.linalg.eigvalsh(pop.pooled())[::-1][:3]
        rel_errors.append(abs(lam[2] - pop.lambda3_analytic()) / pop.lambda3_analytic())
        ratios.append(lam[1] / lam[2])
    slope = np.polyfit(np.log(sizes), np.log(ratios), 1)[0]
    ok = max(rel_errors) <= 1e-6 and abs(slope - delta) <= 0.1
    report(
        6, ok,
        f"lambda3 max relative error={max(rel_errors):.2e} (<= 1e-6), "
        f"log-log slope of lambda2/lambda3={slope:.3f} target {delta}±0.1",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst = {"lag": 0.0, "pool": 0.0, "sim": 0.0, "kmeans": 0.0, "tau": 0}
    for trial in range(100):
        r = np.random.default_rng(9000 + trial)

        p = int(r.integers(2, 7))
        n = int(r.integers(4, 16))
        values = r.standard_normal((p, n)) * r.uniform(0.5, 3.0)
        panel = TimeSeriesPanel(values=values)
        k = int(r.integers(0, min(4, n)))
        scale = max(np.abs(values).max() ** 2, 1.0)
        diff = np.abs(
            lag_autocov(panel, k) - lag_autocov_oracle(values, k)
        ).max() / scale
        worst["lag"] = max(worst["lag"], diff)

        k0 = int(r.integers(0, min(3, n)))
        diff = np.abs(
            pooled_matrix(panel, k0) - pooled_oracle(values, k0)
        ).max() / scale**2
        worst["pool"] = max(worst["pool"], diff)

        m = int(r.integers(2, 9))
        q = int(r.integers(1, 4))
        f = r.standard_normal((m, q)) + 0.05
        diff = np.abs(similarity_matrix(f) - similarity_oracle(f)).max()
        worst["sim"] = max(worst["sim"], diff)

        m = int(r.integers(4, 13))
        d = int(r.integers(1, 4))
        d = min(d, m)
        pts = r.standard_normal((m, 2)) * r.uniform(0.5, 2.0)
        fit = kmeans(pts, d, restarts=m, seed=trial)
        best_wcss, _ = kmeans_oracle(pts, d)
        worst["kmeans"] = max(worst["kmeans"], abs(fit.wcss - best_wcss))

        m = int(r.integers(3, 25))
        d = int(r.integers(2, 5))
        a = r.integers(0, d, m)
        t = r.integers(0, d, m)
        worst["tau"] = max(
            worst["tau"],
            abs(misclassification_count(a, t) - misclassification_oracle(a, t)),
        )
    ok = (
        worst["lag"] <= 1e-9
        and worst["pool"] <= 1e-9
        and worst["sim"] <= 1e-9
        and worst["kmeans"] <= 1e-9
        and worst["tau"] == 0
    )
    report(
        7, ok,
        "100 seeded instances; worst deviations: "
        f"lag-cov={worst['lag']:.1e}, pooled={worst['pool']:.1e}, "
        f"similarity={worst['sim']:.1e}, kmeans WCSS={worst['kmeans']:.1e}, "
        f"tau exact={worst['tau']}",
    )


def test_criterion_8_invariant_suite():
    failures: list[str] = []

    # orthonormality, orthogonality of tiers, projection idempotence
    for seed in range(50):
        r = np.random.default_rng(40_000 + seed)
        spec = ScenarioSpec(
            n=120, d=2, p1=5, p_extra=2, r0=1, r_per_cluster=1,
            seed=int(r.integers(0, 2**31)),
        )
        panel, _ = generate_scenario(spec)
        strong = estimate_strong_loadings(panel, k0=2, r0=1)
        weak = estimate_weak_loadings(panel, strong, k0=2, r=2)
        for loading in (strong, weak):
            gram = loading.matrix.T @ loading.matrix
            if np.abs(gram - np.eye(loading.r)).max() > 1e-8:
                failures.append(f"orthonormality seed {seed}")
        if np.abs(strong.matrix.T @ weak.matrix).max() > 1e-8:
            failures.append(f"tier orthogonality seed {seed}")
        proj = projection(weak)
        if np.abs(proj @ proj - proj).max() > 1e-10:
            failures.append(f"idempotence seed {seed}")

    # detection monotone in omega
    for seed in range(50):
        r = np.random.default_rng(41_000 + seed)
        b = r.uniform(-1, 1, (14, 3)) * 0.3
        lo, hi = np.sort(r.uniform(0.01, 0.5, 2))
        if not set(detect_no_cluster(b, lo).tolist()) <= set(
            detect_no_cluster(b, hi).tolist()
        ):
            failures.append(f"detection monotonicity seed {seed}")

    # per-iteration and per-d WCSS monotonicity
    for seed in range(50):
        r = np.random.default_rng(42_000 + seed)
        pts = r.standard_normal((20, 3))
        fit = kmeans(pts, d=3, restarts=4, seed=seed)
        trace = np.array(fit.wcss_trace)
        if not np.all(np.diff(trace) <= 1e-9 * max(1.0, trace[0])):
            failures.append(f"lloyd monotonicity seed {seed}")
        curve = wcss_curve(pts, d_max=5, restarts=4, seed=seed)
        values = [curve[d].wcss for d in range(1, 6)]
        if not all(values[i + 1] <= values[i] + 1e-9 for i in range(4)):
            failures.append(f"curve monotonicity seed {seed}")

    # full-pipeline permutation equivariance
    for seed in range(50):
        spec = ScenarioSpec(
            n=200, d=2, p1=7, p_extra=3, r0=1, r_per_cluster=1, seed=43_000 + seed,
        )
        panel, _ = generate_scenario(spec)
        perm = np.random.default_rng(seed).permutation(panel.p)
        shuffled = TimeSeriesPanel(values=panel.values[perm])
        kwargs = dict(k0=2, counts=(1, 2), seed=7, restarts=10)
        base = cluster_pipeline(panel, **kwargs)
        moved = cluster_pipeline(shuffled, **kwargs)
        inverse = np.argsort(perm)
        same_sets = set(moved.no_cluster_indices.tolist()) == {
            int(inverse[i]) for i in base.no_cluster_indices
        }
        base_map = dict(zip(base.retained_indices.tolist(), base.assignments.tolist()))
        moved_map = dict(zip(moved.retained_indices.tolist(), moved.assignments.tolist()))
        same_labels = all(
            moved_map.get(int(inverse[i])) == lab for i, lab in base_map.items()
        )
        if not (same_sets and same_labels and base.d_used == moved.d_used):
            failures.append(f"permutation equivariance seed {seed}")

    # Monte Carlo determinism under parallelism
    config = MonteCarloConfig(k0=1, include_baseline=False)
    for seed in range(50):
        spec = ScenarioSpec(
            n=60, d=2, p1=3, p_extra=2, r0=1, r_per_cluster=1, seed=44_000 + seed,
        )
        serial = run_monte_carlo(spec, reps=2, config=config, jobs=1)
        parallel = run_monte_carlo(spec, reps=2, config=config, jobs=2)
        if serial.records != parallel.records or serial.table.rows != parallel.table.rows:
            failures.append(f"monte carlo determinism seed {seed}")

    ok = not failures
    detail = "all invariants hold on 50 seeds" if ok else "; ".join(failures[:5])
    report(8, ok, detail)
