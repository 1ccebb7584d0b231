"""Command-line entry point.

Subcommands
-----------
cluster      run the full pipeline on a panel CSV
factor-count ratio sequence and factor-number selection only
simulate     replicate a synthetic scenario and write summary tables
example1     population eigenvalues of the rank-blind-spot construction

Every output file carries the tuning provenance (seed, k0, J0, omega,
overrides) needed to reproduce it.  Errors print one machine-parsable
line ``E_<CODE>: <detail>: <message>`` on stderr and exit nonzero.
All tables are written as CSV; plotting is left to downstream tools.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import ClusteringError, cluster_pipeline
from .evaluation import EvaluationError
from .factor_count import (
    FactorCountError,
    cumulative_ratio_sequence,
    select_factor_counts,
)
from .loadings import LoadingError, save_loadings_csv
from .panel import PanelError, load_labels, load_panel
from .simulation import (
    MonteCarloConfig,
    SimulationError,
    generate_example1,
    read_scenario_config,
    run_monte_carlo,
    scenario_i,
    scenario_ii,
)

__all__ = ["main", "build_parser"]


class CliError(Exception):
    """Carries a machine-parsable code plus a human message."""

    def __init__(self, code: str, detail: str, message: str):
        super().__init__(f"E_{code}: {detail}: {message}")
        self.code = code


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError("INPUT_NOT_FOUND", str(p), "no such file")
    return p


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_k0(k0: int, n: int | None = None) -> None:
    """Usage error for a negative ``--k0`` or, once n is known, k0 >= n."""
    if k0 < 0:
        raise CliError("USAGE", f"--k0 {k0}", "the largest lag must be at least 0")
    if n is not None and k0 >= n:
        raise CliError("USAGE", f"--k0 {k0}", f"the largest lag must be below n={n}")


def _check_j0(j0: int | None) -> None:
    """Usage error for a ``--j0`` below 2; J0 <= p is checked with the panel."""
    if j0 is not None and j0 < 2:
        raise CliError(
            "USAGE", f"--j0 {j0}", "the ratio truncation point must be at least 2"
        )


def _counts_override(r0: int | None, r: int | None) -> tuple[int, int] | None:
    """``(--r0, --r)`` as the counts override, or None when neither is given."""
    if (r0 is None) != (r is None):
        raise CliError("USAGE", "--r0/--r", "override both counts or neither")
    if r0 is None:
        return None
    if r0 < 0:
        raise CliError(
            "USAGE", f"--r0 {r0}", "the number of strong factors must be at least 0"
        )
    if r < 1:
        raise CliError(
            "USAGE", f"--r {r}", "the number of weak factors must be at least 1"
        )
    return r0, r


def _parse_omega(text: str):
    """``--omega`` as a variant name or a finite positive float."""
    if text in ("p1", "p2", "p3"):
        return text
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < float("inf"):  # also false for nan
        raise CliError(
            "USAGE", f"--omega {text}",
            "omega must be p1, p2, p3 or a finite positive number",
        )
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _common_provenance(args: argparse.Namespace) -> dict:
    return {
        "tool": "factorclust",
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
    }


def _cmd_cluster(args: argparse.Namespace) -> int:
    # usage errors come before any file is read
    omega = _parse_omega(args.omega)
    if args.d is not None and args.d < 1:
        raise CliError(
            "USAGE", f"--d {args.d}", "the cluster count must be at least 1"
        )
    if args.restarts < 1:
        raise CliError(
            "USAGE", f"--restarts {args.restarts}",
            "the number of K-means restarts must be at least 1",
        )
    _check_k0(args.k0)
    _check_j0(args.j0)
    counts = _counts_override(args.r0, args.r)
    path = _require_file(args.input)
    labels = None
    if args.labels:
        labels = load_labels(_require_file(args.labels))
    panel = load_panel(path, orientation=args.orientation, labels=labels)
    _check_k0(args.k0, panel.n)
    result = cluster_pipeline(
        panel,
        k0=args.k0,
        J0=args.j0,
        counts=counts,
        omega=omega,
        d=args.d,
        seed=args.seed,
        restarts=args.restarts,
    )
    out = _out_dir(args.out)
    doc = result.to_dict()
    doc["provenance"].update(_common_provenance(args))
    doc["provenance"]["input"] = str(path)
    _write_json(out / "clustering_result.json", doc)
    save_loadings_csv(result.strong, out / "strong_loadings.csv")
    save_loadings_csv(result.weak, out / "weak_loadings.csv")
    if result.factor_report is not None:
        report = result.factor_report.to_dict()
        report["provenance"] = _common_provenance(args)
        _write_json(out / "factor_count_report.json", report)
    if "label_distribution" in doc:
        dist = doc["label_distribution"]
        with open(out / "label_distribution.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["category"] + [f"cluster_{j + 1}" for j in range(result.d_used)]
            )
            for cat, row in zip(dist["categories"], dist["rows"]):
                writer.writerow([cat] + [f"{v:.17g}" for v in row])
    print(f"wrote clustering outputs to {out}")
    return 0


def _cmd_factor_count(args: argparse.Namespace) -> int:
    _check_k0(args.k0)
    _check_j0(args.j0)
    path = _require_file(args.input)
    panel = load_panel(path, orientation=args.orientation)
    _check_k0(args.k0, panel.n)
    report = cumulative_ratio_sequence(panel, k0=args.k0, J0=args.j0)
    doc_error = None
    try:
        select_factor_counts(report)
    except FactorCountError as exc:
        doc_error = str(exc)
    doc = report.to_dict()
    doc["selection_error"] = doc_error
    doc["provenance"] = _common_provenance(args)
    doc["provenance"]["input"] = str(path)
    out = _out_dir(args.out)
    _write_json(out / "factor_count_report.json", doc)
    print(f"wrote factor count report to {out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise CliError("USAGE", f"--reps {args.reps}", "need at least one replication")
    if args.jobs < 1:
        raise CliError("USAGE", f"--jobs {args.jobs}", "need at least one worker")
    if args.config:
        spec = read_scenario_config(_require_file(args.config))
    elif args.scenario == "I":
        spec = scenario_i(p1=args.p1)
    elif args.scenario == "II":
        spec = scenario_ii(p1=args.p1)
    else:
        raise CliError("USAGE", "simulate", "give --config FILE or --scenario I|II")
    _check_k0(args.k0, spec.n)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    config = MonteCarloConfig(
        k0=args.k0,
        J0=args.j0,
        known_counts=True,
        estimated_counts=args.estimated_counts,
        include_baseline=True,
    )
    result = run_monte_carlo(spec, reps=args.reps, config=config, jobs=args.jobs)
    out = _out_dir(args.out)
    result.table.write_csv(out / "summary.csv")
    provenance = dict(result.provenance)
    provenance.update(_common_provenance(args))
    provenance["failures"] = [
        {"replication": rep, "error": msg} for rep, msg in result.failures
    ]
    _write_json(out / "provenance.json", provenance)
    print(
        f"wrote summary over {result.n_completed} replications to {out} "
        f"({len(result.failures)} failed)"
    )
    return 0


def _cmd_example1(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.p.split(",")]
    except ValueError:
        raise CliError(
            "USAGE", f"--p {args.p}", "panel sizes must be comma-separated integers"
        ) from None
    rows = []
    for p in sizes:
        _, pop = generate_example1(
            p, args.delta, a1=args.a1, a2=args.a2, a3=args.a3, n=args.n,
            seed=args.seed,
        )
        eigvals = np.linalg.eigvalsh(pop.pooled())[::-1][:3]
        rows.append((p, *eigvals, pop.lambda3_analytic()))
    out = _out_dir(args.out)
    with open(out / "example1_eigenvalues.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["p", "lambda1", "lambda2", "lambda3", "lambda3_analytic"]
        )
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.17g}" for v in row[1:]])
    provenance = _common_provenance(args)
    provenance.update(
        {"delta": args.delta, "a1": args.a1, "a2": args.a2, "a3": args.a3,
         "n": args.n, "sizes": sizes}
    )
    _write_json(out / "provenance.json", provenance)
    print(f"wrote population eigenvalues for p in {sizes} to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorclust",
        description="Factor-strength based clustering of time-series panels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tuning(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k0", type=int, default=5,
                       help="largest pooled lag (default 5)")
        p.add_argument("--j0", type=int, default=None,
                       help="ratio truncation point (default max(8, rho/4) "
                            "capped at rho, rho = min(p, n - 1))")
        p.add_argument("--out", default=".", help="output directory")

    pc = sub.add_parser("cluster", help="cluster a panel CSV")
    pc.add_argument("input", help="panel CSV")
    pc.add_argument("--labels", help="sidecar CSV: series_id,category")
    pc.add_argument("--orientation", default="rows-as-time",
                    choices=["rows-as-time", "rows-as-series"])
    add_tuning(pc)
    pc.add_argument("--omega", default="p2",
                    help="p1 | p2 | p3 | explicit positive value (default p2)")
    pc.add_argument("--r0", type=int, default=None,
                    help="override number of strong factors")
    pc.add_argument("--r", type=int, default=None,
                    help="override number of weak factors")
    pc.add_argument("--d", type=int, default=None,
                    help="override the elbow choice of the cluster count")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--restarts", type=int, default=20)
    pc.set_defaults(func=_cmd_cluster)

    pf = sub.add_parser("factor-count", help="ratio sequence and selection only")
    pf.add_argument("input", help="panel CSV")
    pf.add_argument("--orientation", default="rows-as-time",
                    choices=["rows-as-time", "rows-as-series"])
    add_tuning(pf)
    pf.add_argument("--seed", type=int, default=0)
    pf.set_defaults(func=_cmd_factor_count)

    ps = sub.add_parser("simulate", help="Monte Carlo over a synthetic scenario")
    ps.add_argument("--config", help="flat key=value scenario file")
    ps.add_argument("--scenario", choices=["I", "II"],
                    help="built-in scenario instead of --config")
    ps.add_argument("--p1", type=int, default=25,
                    help="cluster size for --scenario (default 25)")
    ps.add_argument("--reps", type=int, default=100)
    ps.add_argument("--seed", type=int, default=None,
                    help="master seed (overrides the config seed)")
    ps.add_argument("--jobs", type=int, default=1,
                    help="parallel workers, the only parallelism: each "
                         "replication runs on one BLAS thread; the result does "
                         "not depend on it")
    ps.add_argument("--estimated-counts", action="store_true",
                    help="also evaluate the pipeline with estimated counts")
    add_tuning(ps)
    ps.set_defaults(func=_cmd_simulate)

    pe = sub.add_parser("example1", help="population eigenvalues of the "
                                         "equal-growth-rate construction")
    pe.add_argument("--p", default="100,400,1600",
                    help="comma-separated panel sizes")
    pe.add_argument("--delta", type=float, default=0.5)
    pe.add_argument("--a1", type=float, default=0.8)
    pe.add_argument("--a2", type=float, default=-0.5)
    pe.add_argument("--a3", type=float, default=0.6)
    pe.add_argument("--n", type=int, default=200)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", default=".")
    pe.set_defaults(func=_cmd_example1)
    return parser


_ERROR_CODES = {
    PanelError: "INPUT_FORMAT",
    FactorCountError: "FACTOR_COUNT",
    LoadingError: "LOADINGS",
    ClusteringError: "CLUSTERING",
    EvaluationError: "EVALUATION",
    SimulationError: "CONFIG",
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return 1
    except tuple(_ERROR_CODES) as exc:
        code = next(c for cls, c in _ERROR_CODES.items() if isinstance(exc, cls))
        print(f"E_{code}: {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"E_IO: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
