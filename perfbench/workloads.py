"""The benchmark's workloads: seeded inputs, one operation, output checks.

Every panel comes from ``generate_scenario``, so the truth is known and
each operation's output is checked against it.  Besides the truth checks,
each operation yields a digest of its decisions; the runner requires it to
repeat within a run and to match the digest recorded in ``digests.json``
for that seed and size.

Stage functions are always reached through their module attribute
(``cli.main``, ``factor_count.cumulative_ratio_sequence``, ...) at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from factorclust import cli, clustering, factor_count, loadings, simulation
from factorclust.simulation import MonteCarloConfig, ScenarioSpec

K0 = 5


def digest(decisions) -> str:
    text = json.dumps(decisions, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def misclassified(pred: np.ndarray, true: np.ndarray) -> int:
    """Series outside the best one-to-one matching of predicted to true
    clusters (computed here, independently of the package's evaluation)."""
    _, p_codes = np.unique(pred, return_inverse=True)
    _, t_codes = np.unique(true, return_inverse=True)
    table = np.zeros((p_codes.max() + 1, t_codes.max() + 1), dtype=int)
    np.add.at(table, (p_codes, t_codes), 1)
    rows, cols = linear_sum_assignment(-table)
    return int(len(pred) - table[rows, cols].sum())


def detection_rates(detected, membership: np.ndarray) -> tuple[float, float]:
    """(share of clustered series flagged, share of free series kept)."""
    flagged = np.zeros(len(membership), dtype=bool)
    flagged[np.asarray(detected, dtype=int)] = True
    free = membership == 0
    return float(flagged[~free].mean()), float((~flagged[free]).mean())


@dataclass
class Outcome:
    """Result of checking one operation."""

    problems: list[str]
    digest: str
    units: int              # operations of the program this covers
    bytes_written: int = 0


class RealdataCli:
    """One ``factorclust cluster <csv> --out <dir>`` call, counts estimated,
    on a panel of the paper's real-data shape (477 series x 1259 days)."""

    name = "realdata_cli"
    sizes = {
        "full": dict(n=1259, d=9, p1=45, p_extra=72),
        "tiny": dict(n=800, d=4, p1=30, p_extra=30),
    }
    TAU_SHARE = 0.01        # misclassified share of clustered, retained series
    DETECT_BOUND = 0.15     # each of the two detection error rates

    def setup(self, seed: int, size: str, workdir: Path) -> dict:
        spec = ScenarioSpec(seed=seed, **self.sizes[size])
        panel, truth = simulation.generate_scenario(spec)
        ids = [f"s{i:03d}" for i in range(panel.p)]
        path = workdir / "panel.csv"
        np.savetxt(path, panel.values.T, fmt="%.17g", delimiter=",",
                   header=",".join(ids), comments="")
        return {"spec": spec, "truth": truth, "ids": ids, "csv": path,
                "out": workdir / "out", "cells": panel.p * panel.n}

    def operation(self, state: dict):
        out = state["out"]
        if out.exists():
            shutil.rmtree(out)
        argv = ["cluster", str(state["csv"]), "--out", str(out)]
        return lambda: cli.main(argv)

    def check(self, state: dict, code) -> Outcome:
        spec, truth, out = state["spec"], state["truth"], state["out"]
        problems: list[str] = []
        if code != 0:
            return Outcome([f"exit code {code}"], "", 1)
        doc = json.loads((out / "clustering_result.json").read_text())
        json.loads((out / "factor_count_report.json").read_text())
        counts = (doc["counts"]["r0"], doc["counts"]["r"])
        for kind, cols in (("strong", counts[0]), ("weak", counts[1])):
            with open(out / f"{kind}_loadings.csv", newline="") as fh:
                mat = np.array([[float(v) for v in row] for row in csv.reader(fh)])
            if mat.shape != (spec.p, cols) or not np.isfinite(mat).all():
                problems.append(f"{kind} loadings shape {mat.shape}")
        if counts != truth.intended_counts:
            problems.append(f"counts {counts} != {truth.intended_counts}")
        if doc["d_used"] != spec.d:
            problems.append(f"d_used {doc['d_used']} != {spec.d}")
        index = {s: i for i, s in enumerate(state["ids"])}
        retained = np.array([index[s] for s in doc["retained"]], dtype=int)
        detected = [index[s] for s in doc["no_cluster"]]
        if sorted(detected + retained.tolist()) != list(range(spec.p)):
            problems.append("retained and no-cluster sets do not partition the panel")
        e1, e2 = detection_rates(detected, truth.membership)
        if max(e1, e2) > self.DETECT_BOUND:
            problems.append(f"detection errors e1={e1:.3f} e2={e2:.3f}")
        assignments = np.array(doc["assignments"], dtype=int)
        if len(assignments) != len(retained):
            problems.append("one assignment per retained series required")
        else:
            clustered = truth.membership[retained] > 0
            tau = misclassified(assignments[clustered],
                                truth.membership[retained][clustered])
            if tau > self.TAU_SHARE * clustered.sum():
                problems.append(f"{tau} misclassified series")
        decisions = {"counts": counts, "no_cluster": doc["no_cluster"],
                     "d_used": doc["d_used"], "assignments": doc["assignments"]}
        written = sum(f.stat().st_size for f in out.iterdir())
        return Outcome(problems, digest(decisions), 1, written)

    def corrupt(self, state: dict, code):
        """Flip the cluster of the first retained series in the output."""
        path = state["out"] / "clustering_result.json"
        doc = json.loads(path.read_text())
        doc["assignments"][0] = (doc["assignments"][0] + 1) % doc["d_used"]
        path.write_text(json.dumps(doc))
        return code


class WideFactors:
    """Ratio selection, both loading fits, detection and the d_hat bound on a
    p >> n panel: all p x p spectral work, no ingest and no K-means."""

    name = "wide_factors"
    sizes = {
        "full": dict(n=250, d=10, p1=60, p_extra=400),
        "tiny": dict(n=200, d=4, p1=50, p_extra=200),
    }
    # past rank(X) <= n - 1 the default J0 = max(8, p/4) selects the
    # rank-deficiency spike, so the truncation point is passed explicitly
    J0 = {"full": 50, "tiny": 30}
    DETECT_BOUND = 0.10

    def setup(self, seed: int, size: str, workdir: Path) -> dict:
        spec = ScenarioSpec(seed=seed, **self.sizes[size])
        panel, truth = simulation.generate_scenario(spec)
        return {"spec": spec, "truth": truth, "panel": panel,
                "J0": self.J0[size], "cells": 0}

    def operation(self, state: dict):
        panel, J0 = state["panel"], state["J0"]

        def run():
            report = factor_count.cumulative_ratio_sequence(panel, k0=K0, J0=J0)
            r0, r = factor_count.select_factor_counts(report)
            strong = loadings.estimate_strong_loadings(panel, k0=K0, r0=r0)
            weak = loadings.estimate_weak_loadings(panel, strong, k0=K0, r=r)
            omega = clustering.omega_threshold("p2", r_hat=r, p=panel.p)
            detected = clustering.detect_no_cluster(weak, omega)
            d_hat = clustering.cluster_upper_bound(weak, panel.n)
            return {"counts": (r0, r), "weak": weak.matrix,
                    "no_cluster": detected, "d_hat": d_hat}

        return run

    def check(self, state: dict, result: dict) -> Outcome:
        spec, truth = state["spec"], state["truth"]
        problems: list[str] = []
        counts = tuple(int(c) for c in result["counts"])
        if counts != truth.intended_counts:
            problems.append(f"counts {counts} != {truth.intended_counts}")
        if result["d_hat"] != spec.d:
            problems.append(f"d_hat {result['d_hat']} != {spec.d}")
        weak = result["weak"]
        if weak.shape != (spec.p, counts[1]) or not np.allclose(
                weak.T @ weak, np.eye(counts[1]), atol=1e-8):
            problems.append("weak loadings are not a p x r orthonormal basis")
        e1, e2 = detection_rates(result["no_cluster"], truth.membership)
        if max(e1, e2) > self.DETECT_BOUND:
            problems.append(f"detection errors e1={e1:.3f} e2={e2:.3f}")
        decisions = {"counts": counts, "d_hat": int(result["d_hat"]),
                     "no_cluster": [int(i) for i in result["no_cluster"]]}
        return Outcome(problems, digest(decisions), 1)

    def corrupt(self, state: dict, result: dict) -> dict:
        """Report one weak factor too many."""
        r0, r = result["counts"]
        return dict(result, counts=(r0, r + 1))


class McScenarioI:
    """One serial ``run_monte_carlo`` batch on scenario I (150 x 400) with the
    CLI ``simulate`` configuration: known counts plus the single-matrix
    baseline."""

    name = "mc_scenario_i"
    sizes = {"full": dict(p1=25, reps=20), "tiny": dict(p1=10, reps=4)}
    CONFIG = MonteCarloConfig(k0=K0, J0=None, known_counts=True,
                              estimated_counts=False, include_baseline=True)

    def setup(self, seed: int, size: str, workdir: Path) -> dict:
        params = self.sizes[size]
        spec = simulation.scenario_i(p1=params["p1"], seed=seed)
        return {"spec": spec, "reps": params["reps"], "cells": 0}

    def operation(self, state: dict, jobs: int = 1):
        spec, reps = state["spec"], state["reps"]
        return lambda: simulation.run_monte_carlo(
            spec, reps=reps, config=self.CONFIG, jobs=jobs)

    def check(self, state: dict, result) -> Outcome:
        reps = state["reps"]
        problems: list[str] = []
        if result.failures:
            problems.append(f"failed replications: {result.failures[:3]}")
        if result.n_completed != reps:
            problems.append(f"{result.n_completed} of {reps} replications completed")
        names = {row[0] for row in result.table.rows}
        for needed in ("r0_correct", "baseline_r0_correct", "tau", "d_hat"):
            if needed not in names:
                problems.append(f"summary table lacks {needed}")
        rows = [[name, f"{mean:.10g}", f"{sd:.10g}", n]
                for name, mean, sd, n in result.table.rows]
        return Outcome(problems, digest(rows), reps)

    def corrupt(self, state: dict, result):
        """Record one replication as failed."""
        result.failures.append((0, "RuntimeError: injected"))
        return result


WORKLOADS = {w.name: w for w in (RealdataCli(), WideFactors(), McScenarioI())}
