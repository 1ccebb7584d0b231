"""Replicated experiment: generate panels with known truth, run the whole
pipeline, and aggregate every error metric into one summary table.

Uses a reduced replication count so it finishes in a few seconds; raise
``reps`` (and ``jobs``) for tighter estimates.  The result is identical
for every ``jobs`` value because replication seeds are split from the
master seed by a counter scheme.
"""

from factorclust import MonteCarloConfig, run_monte_carlo, scenario_i


def main() -> None:
    config = MonteCarloConfig(
        k0=5,
        known_counts=True,        # subspace/detection/clustering metrics at true counts
        estimated_counts=False,
        include_baseline=True,    # single-matrix factor counting for comparison
    )
    result = run_monte_carlo(scenario_i(p1=25, seed=1), reps=30, config=config, jobs=2)

    print(f"completed {result.n_completed} replications, {len(result.failures)} failures")
    print(f"{'metric':30s} {'mean':>10} {'sd':>10}")
    for name, mean, sd, _ in result.table.rows:
        print(f"{name:30s} {mean:>10.4f} {sd:>10.4f}")

    print("\nreading the table:")
    print("  r0_correct / total_correct    : how often the factor counts are right")
    print("  strong_err_fro / weak_err_fro : projection-matrix estimation errors")
    print("  e1_omega_*                    : clustered series wrongly flagged free")
    print("  e2_omega_*                    : free series wrongly retained")
    print("  d_hat_correct, tau_rate       : cluster count bound and K-means errors")


# the pool's workers import this file; under the spawn start method (the
# default on macOS and Windows) an unguarded body would run again in each
if __name__ == "__main__":
    main()
