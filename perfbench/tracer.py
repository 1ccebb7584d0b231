"""Span tracing of factorclust from outside the package.

A ``Tracer`` replaces stage functions, under the module attributes the
program looks them up by, with thin wrappers that record one span
``(name, start, end, parent)`` per call and then call the original.  The
``numpy.linalg`` decompositions are wrapped as counters instead of spans,
so they never take time away from the stage that called them.  Wrappers
only time and count: arguments and results pass through untouched, so the
traced program makes exactly the same decisions.

Spans stay in memory; ``Tracer.dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  One function is reached under several
# module names (``from .x import f`` binds a new name), and each binding is
# wrapped where the caller looks it up.
STAGES = [
    ("factorclust.cli", "main", "cli.main"),
    ("factorclust.cli", "load_panel", "panel.load_panel"),
    ("factorclust.cli", "cluster_pipeline", "clustering.pipeline"),
    ("factorclust.cli", "_write_json", "cli.serialize"),
    ("factorclust.cli", "save_loadings_csv", "cli.serialize"),
    ("factorclust.clustering", "ClusteringResult.to_dict", "cli.serialize"),
    ("factorclust.factor_count", "FactorCountReport.to_dict", "cli.serialize"),
    ("factorclust.factor_count", "lag_autocov_sequence", "panel.lag_autocov"),
    ("factorclust.loadings", "lag_autocov_sequence", "panel.lag_autocov"),
    ("factorclust.factor_count", "pooled_matrix_from_covs", "panel.pooled"),
    ("factorclust.loadings", "pooled_matrix_from_covs", "panel.pooled"),
    ("factorclust.factor_count", "cumulative_ratio_sequence", "factor_count.ratio"),
    ("factorclust.clustering", "cumulative_ratio_sequence", "factor_count.ratio"),
    ("factorclust.simulation", "cumulative_ratio_sequence", "factor_count.ratio"),
    ("factorclust.factor_count", "select_factor_counts", "factor_count.select"),
    ("factorclust.clustering", "select_factor_counts", "factor_count.select"),
    ("factorclust.simulation", "select_factor_counts", "factor_count.select"),
    ("factorclust.simulation", "single_matrix_ratio_baseline", "factor_count.baseline"),
    ("factorclust.loadings", "estimate_strong_loadings", "loadings.strong"),
    ("factorclust.clustering", "estimate_strong_loadings", "loadings.strong"),
    ("factorclust.simulation", "estimate_strong_loadings", "loadings.strong"),
    ("factorclust.loadings", "estimate_weak_loadings", "loadings.weak"),
    ("factorclust.clustering", "estimate_weak_loadings", "loadings.weak"),
    ("factorclust.simulation", "estimate_weak_loadings", "loadings.weak"),
    ("factorclust.clustering", "detect_no_cluster", "clustering.detect"),
    ("factorclust.simulation", "detect_no_cluster", "clustering.detect"),
    ("factorclust.clustering", "cluster_upper_bound", "clustering.d_hat"),
    ("factorclust.simulation", "cluster_upper_bound", "clustering.d_hat"),
    ("factorclust.clustering", "similarity_matrix", "clustering.similarity"),
    ("factorclust.simulation", "similarity_matrix", "clustering.similarity"),
    ("factorclust.clustering", "wcss_curve", "clustering.wcss_curve"),
    ("factorclust.clustering", "kmeans", "clustering.kmeans"),
    ("factorclust.simulation", "kmeans", "clustering.kmeans"),
    ("factorclust.simulation", "projection_distance", "evaluation.metrics"),
    ("factorclust.simulation", "detection_errors", "evaluation.metrics"),
    ("factorclust.simulation", "misclassification_count", "evaluation.metrics"),
    ("factorclust.simulation", "aggregate_records", "evaluation.metrics"),
    ("factorclust.simulation", "generate_scenario", "simulation.generate"),
    ("factorclust.simulation", "replication_record", "simulation.replication"),
    ("factorclust.simulation", "run_monte_carlo", "simulation.run"),
]

DECOMPOSITIONS = ("svd", "eigh", "eigvalsh")


def _resolve(module_name: str, attr: str):
    """The object holding the attribute and the attribute's last name."""
    owner = importlib.import_module(module_name)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def _decomp_size(a) -> tuple[int, int]:
    """Largest dimension and the computed dim^3-style operation count."""
    m, k = a.shape[-2], a.shape[-1]
    return max(m, k), m * k * min(m, k)


class Tracer:
    """Installs the wrappers around one traced operation at a time."""

    def __init__(self) -> None:
        # (name, start, end, parent id, op index, id); ids count per op
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self.op_walls: list[float] = []
        self.linalg_per_op: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1
        self._next_id = 0
        self._linalg: dict = {}

    def _span_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((name, start, end, parent, tracer._op, idx))

        return wrapper

    def _counter_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                counts = tracer._linalg
                counts["seconds"] += time.perf_counter() - start
                dim, work = _decomp_size(a)
                counts["calls"] += 1
                counts["max_dim"] = max(counts["max_dim"], dim)
                counts["dim3_sum"] += work

        return wrapper

    def _install(self) -> None:
        import numpy.linalg

        for module_name, attr, name in STAGES:
            owner, last = _resolve(module_name, attr)
            original = getattr(owner, last)
            self._saved.append((owner, last, original))
            setattr(owner, last, self._span_wrapper(original, name))
        for name in DECOMPOSITIONS:
            original = getattr(numpy.linalg, name)
            self._saved.append((numpy.linalg, name, original))
            setattr(numpy.linalg, name, self._counter_wrapper(original))

    def _uninstall(self) -> None:
        while self._saved:
            owner, last, original = self._saved.pop()
            setattr(owner, last, original)

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` with every wrapper installed and return its result."""
        self._op += 1
        self._next_id = 0
        self._linalg = {"calls": 0, "max_dim": 0, "dim3_sum": 0, "seconds": 0.0}
        self._install()
        try:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.op_walls.append(time.perf_counter() - start)
        finally:
            self._uninstall()
            self.linalg_per_op.append(self._linalg)

    def per_op(self) -> list[dict]:
        """For each traced operation: self seconds, inclusive seconds and
        calls by span name, the linalg counters and the wall time.

        Self time is a span's duration minus its direct children's.
        Inclusive time skips spans nested in a span of the same name.
        """
        by_op: dict[int, list] = defaultdict(list)
        for span in self.spans:
            by_op[span[4]].append(span)
        out = []
        for op, wall in enumerate(self.op_walls):
            spans = by_op.get(op, [])
            info = {idx: (name, parent) for name, _, _, parent, _, idx in spans}
            child_s: dict[int, float] = defaultdict(float)
            for _, start, end, parent, _, _ in spans:
                child_s[parent] += end - start
            self_s: dict[str, float] = defaultdict(float)
            inclusive_s: dict[str, float] = defaultdict(float)
            calls: dict[str, int] = defaultdict(int)
            for name, start, end, parent, _, idx in spans:
                self_s[name] += (end - start) - child_s[idx]
                calls[name] += 1
                up = parent
                while up >= 0 and info[up][0] != name:
                    up = info[up][1]
                if up < 0:
                    inclusive_s[name] += end - start
            out.append({
                "wall_s": wall,
                "self_s": dict(self_s),
                "inclusive_s": dict(inclusive_s),
                "calls": dict(calls),
                "linalg": self.linalg_per_op[op],
            })
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span, with times relative to the first, as JSON."""
        origin = min((s[1] for s in self.spans), default=0.0)
        doc = {
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent", "op", "id"],
            "spans": [
                [name, round(start - origin, 9), round(end - origin, 9),
                 parent, op, idx]
                for name, start, end, parent, op, idx in self.spans
            ],
            "op_wall_s": self.op_walls,
            "linalg_per_op": self.linalg_per_op,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
