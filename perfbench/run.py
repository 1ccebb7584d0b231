"""factorclust benchmark: one workload, one seed, one run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload realdata_cli --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times operations with nothing wrapped and
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced operations and reports the per-layer metrics (see
``perfbench/README.md``).  The last line of standard output is the result
object; the line before it records the environment, the line before that
the decision digest.  Every operation's output is checked, and a failed
check counts the operation as failed.

The package is imported from ``src/`` of the current directory only; if it
is missing the run exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 3            # measured operations per run, whatever --seconds says
SETUP_SAMPLES = 3      # set-ups per run (one here, the rest in fresh processes)
POOL_BATCHES = 3       # jobs=2 batches of the Monte Carlo pool probe
# inputs per size whose decisions digests.json records; --seed picks one
RECORDED_INPUTS = {"full": 100, "tiny": 10}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt every output before it is checked (self-test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one import plus set-up and print it (internal)")
    return ap.parse_args(argv)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def cap_blas_threads() -> dict:
    """At most nproc BLAS threads; returns the values as found."""
    nproc = len(os.sched_getaffinity(0))
    found = {var: os.environ.get(var) for var in THREAD_VARS}
    for var, value in found.items():
        if value is None or not value.isdigit() or int(value) > nproc:
            os.environ[var] = str(nproc)
    return found


def import_package(root: Path) -> float:
    """Import factorclust from ``root/src``; returns the import seconds."""
    src = root / "src"
    if not (src / "factorclust" / "__init__.py").is_file():
        die(f"no factorclust package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import factorclust
    import factorclust.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(factorclust.__file__).resolve().parent != (src / "factorclust").resolve():
        die(f"factorclust imported from {factorclust.__file__}")
    return elapsed


def environment(seed: int, size: str, found: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env_found": found,
        "threads_env_used": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "input_seed": input_seed(seed, size),
    }


def input_seed(seed: int, size: str) -> int:
    """The generator seed of the input that ``--seed`` stands for.

    Any ``--seed`` maps onto one of the recorded inputs, so every operation
    is checked against decisions recorded for its very input, including
    the inputs on which the method misses the truth.
    """
    return seed % RECORDED_INPUTS[size]


def recorded(workload: str, size: str, seed: int) -> dict | None:
    """The decisions recorded for this input: {"digest", "misses"}."""
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(workload, {}).get(size, {}).get(str(seed))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs, checks and counts the operations of one workload."""

    def __init__(self, wl, state: dict, args, expected: dict | None):
        self.wl, self.state, self.args = wl, state, args
        self.expected = expected          # recorded decisions, if any
        self.seen: str | None = None      # digest of the first operation
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.truth_misses: list[str] = []  # recorded misses, reproduced

    def once(self, call=None, **op_kwargs) -> tuple[float, object]:
        """One checked operation; returns (wall seconds, check outcome)."""
        fn = self.wl.operation(self.state, **op_kwargs)
        outcome = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = call(fn) if call else fn()
            elapsed = time.perf_counter() - start
            if self.args.corrupt:
                result = self.wl.corrupt(self.state, result)
            outcome = self.wl.check(self.state, result)
            problems = list(outcome.problems)
            if self.expected is not None:
                # a recorded truth miss passes only as the very same output
                if outcome.digest != self.expected["digest"]:
                    problems.append(f"digest {outcome.digest} != recorded "
                                    f"{self.expected['digest']}")
                elif problems == self.expected["misses"]:
                    self.truth_misses = problems
                    problems = []
            if outcome.digest != (self.seen or outcome.digest):
                problems.append(f"digest {outcome.digest} != first {self.seen}")
            self.seen = self.seen or outcome.digest
            units = outcome.units
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"]
            units = self.state.get("reps", 1)
        self.attempted += units
        if problems:
            self.failed += units
            self.problems.extend(problems[:3])
        return elapsed, outcome


def set_up(wl, args, root: Path, tag: str) -> tuple[dict, float, Path]:
    workdir = root / ".perfbench" / f"work-{wl.name}-{os.getpid()}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    state = wl.setup(input_seed(args.seed, args.size), args.size, workdir)
    return state, time.perf_counter() - start, workdir


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def median_op_s(runner: Runner, seconds: float) -> float:
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        times.append(runner.once()[0])
    return statistics.median(times)


def layer_metrics(per_op: list[dict], state: dict) -> dict:
    """Median over traced operations of each per-layer number."""
    reps = state.get("reps", 1)

    def med(fn):
        return statistics.median(fn(op) for op in per_op)

    def self_s(name):
        return med(lambda op: op["self_s"].get(name, 0.0))

    def calls(name):
        return statistics.median_low(op["calls"].get(name, 0) for op in per_op)

    def linalg(key):
        return statistics.median_low(op["linalg"][key] for op in per_op)

    def per_rep_ms(name):
        return self_s(name) / reps * 1e3 if "reps" in state else 0.0

    load_s = self_s("panel.load_panel")
    kmeans_calls = calls("clustering.kmeans")
    kmeans_s = med(lambda op: op["inclusive_s"].get("clustering.kmeans", 0.0))
    coverage = med(lambda op: sum(
        op["self_s"].values()) / op["wall_s"] * 100.0)
    return {
        "panel.load_panel_s": (load_s, "s"),
        "panel.cells_per_s": (state["cells"] / load_s if load_s else 0.0, "cells/s"),
        "panel.lag_autocov_calls": (calls("panel.lag_autocov"), "count"),
        "panel.lag_autocov_s": (self_s("panel.lag_autocov"), "s"),
        "panel.pooled_calls": (calls("panel.pooled"), "count"),
        "panel.pooled_s": (self_s("panel.pooled"), "s"),
        "factor_count.ratio_s": (self_s("factor_count.ratio"), "s"),
        "factor_count.select_s": (self_s("factor_count.select"), "s"),
        "factor_count.baseline_s": (self_s("factor_count.baseline"), "s"),
        "loadings.strong_s": (self_s("loadings.strong"), "s"),
        "loadings.weak_s": (self_s("loadings.weak"), "s"),
        "clustering.pipeline_s": (self_s("clustering.pipeline"), "s"),
        "clustering.detect_s": (self_s("clustering.detect"), "s"),
        "clustering.d_hat_s": (self_s("clustering.d_hat"), "s"),
        "clustering.similarity_s": (self_s("clustering.similarity"), "s"),
        "clustering.wcss_curve_s": (med(lambda op: op["inclusive_s"].get(
            "clustering.wcss_curve", 0.0)), "s"),
        "clustering.kmeans_calls": (kmeans_calls, "count"),
        "clustering.kmeans_ms_per_call": (
            kmeans_s / kmeans_calls * 1e3 if kmeans_calls else 0.0, "ms"),
        "linalg.decomp_calls": (linalg("calls"), "count"),
        "linalg.max_dim": (linalg("max_dim"), "count"),
        "linalg.dim3_sum": (linalg("dim3_sum"), "computed"),
        "linalg.decomp_s": (med(lambda op: op["linalg"]["seconds"]), "s"),
        "cli.main_s": (self_s("cli.main"), "s"),
        "cli.serialize_s": (self_s("cli.serialize"), "s"),
        "evaluation.metrics_ms_per_rep": (per_rep_ms("evaluation.metrics"), "ms"),
        "simulation.generate_ms_per_rep": (per_rep_ms("simulation.generate"), "ms"),
        "simulation.replication_ms_per_rep": (
            per_rep_ms("simulation.replication"), "ms"),
        "trace.coverage_pct": (coverage, "%"),
    }


def measure_layers(runner: Runner, seconds: float, trace_path: Path,
                   meta: dict) -> dict:
    from tracer import Tracer

    state = runner.state
    tracer = Tracer()
    # the pool probe counts against --seconds, so a traced run takes about
    # as long as an untraced one however slow the pool is
    deadline = time.perf_counter() + seconds
    pool = [runner.once(jobs=2)[0] / state["reps"] * 1e3
            for _ in range(POOL_BATCHES if "reps" in state else 0)]
    plain, traced, written = [], [], []
    while len(traced) < MIN_OPS or time.perf_counter() < deadline:
        plain.append(runner.once()[0])
        elapsed, outcome = runner.once(call=tracer.run)
        traced.append(elapsed)
        if outcome is not None:
            written.append(outcome.bytes_written)
    tracer.dump(trace_path, meta)
    metrics = layer_metrics(tracer.per_op(), state)
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["cli.bytes_written"] = (statistics.median(written or [0]), "bytes")
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1.0) * 100.0, "%")
    metrics["trace.ops"] = (len(traced), "count")

    serial_ms = pool_ms = spread = speedup = 0.0
    if pool:
        serial_ms = plain_s / state["reps"] * 1e3
        pool_ms = statistics.median(pool)
        spread = (max(pool) - min(pool)) / pool_ms
        speedup = serial_ms / pool_ms
    metrics["simulation.ms_per_rep"] = (serial_ms, "ms")
    metrics["simulation.pool_ms_per_rep"] = (pool_ms, "ms")
    metrics["simulation.pool_ms_per_rep_spread"] = (spread, "ratio")
    metrics["simulation.pool_speedup"] = (speedup, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    found = cap_blas_threads()
    import_s = import_package(root)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    if args.setup_only:
        _, setup_s, workdir = set_up(wl, args, root, "setup")
        shutil.rmtree(workdir, ignore_errors=True)
        print(import_s + setup_s)
        return 0

    state, setup_s, workdir = set_up(wl, args, root, "run")
    try:
        env = environment(args.seed, args.size, found)
        runner = Runner(wl, state, args, recorded(
            wl.name, args.size, input_seed(args.seed, args.size)))
        runner.once()  # warm-up, checked and counted but not timed
        if args.trace:
            trace_path = root / ".perfbench" / f"trace-{wl.name}-{args.seed}.json"
            metrics = measure_layers(runner, args.seconds, trace_path,
                                     {"workload": wl.name, "env": env})
        else:
            setups = [import_s + setup_s] + [
                setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
            metrics = {
                "op_s": (median_op_s(runner, args.seconds), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "pass_rate": (1.0 - runner.failed / runner.attempted, "ratio"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in runner.problems[:10]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for miss in runner.truth_misses:
        print(f"perfbench: recorded truth miss reproduced: {miss}", file=sys.stderr)
    print(json.dumps({"digest": runner.seen, "recorded": runner.expected}))
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
