"""Command-line entry point.

Subcommands
-----------
cluster      run the full pipeline on a panel CSV
factor-count ratio sequence and factor-number selection only
simulate     replicate a synthetic scenario and write summary tables
example1     population eigenvalues of the rank-blind-spot construction

Every output file carries the tuning provenance (seed, k0, J0, omega,
overrides) needed to reproduce it.  Errors print one machine-parsable
line ``E_<CODE>: <detail>: <message>`` on stderr and exit 1; a malformed
command line is one ``E_USAGE`` line, not argparse's usage text.  The
parser checks every bound, so each fails before any file is read and the
first wrong option is the one reported: ``--k0 >= 0``, ``--j0 >= 2``,
``--r0 >= 0``, ``--r >= 1``, ``--d >= 1``, ``--restarts``, ``--reps`` and
``--jobs >= 1``, ``--omega`` p1, p2, p3 or a finite positive number,
``example1 --p`` comma-separated integers and ``example1 --delta`` a
finite positive number.  The commands check the
``--r0``/``--r`` pairing, and ``--config`` or else ``--scenario`` (with
``--p1`` only beside ``--scenario``), before any file is read, and
``--k0 < n`` once n is known.  All tables are written
as CSV and every text output as UTF-8; plotting is left to downstream
tools.
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


def _check_k0(k0: int, n: int) -> None:
    """Usage error for a ``--k0`` at or past the panel's n time points."""
    if k0 >= n:
        raise CliError("USAGE", f"--k0 {k0}", f"the largest lag must be below n={n}")


def _add_bounded(parser, flag: str, low: int, message: str, **kwargs) -> None:
    """Add an integer option whose values below ``low`` are usage errors."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise CliError("USAGE", f"{flag} {value}", message)
        return value

    convert.__name__ = "int"  # argparse names the type in its own errors
    parser.add_argument(flag, type=convert, **kwargs)


def _counts_override(r0: int | None, r: int | None) -> tuple[int, int] | None:
    """``(--r0, --r)`` as the counts override, or None when neither is given."""
    if (r0 is None) != (r is None):
        raise CliError("USAGE", "--r0/--r", "override both counts or neither")
    return None if r0 is None else (r0, r)


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


def _parse_delta(text: str) -> float:
    """``example1 --delta`` as a finite positive float.

    At delta <= 0 the weak factors are at least as strong as the strong
    one, and lambda3 is far from its closed form (0.32 of it at delta = 0).
    """
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < float("inf"):  # also false for nan
        raise CliError("USAGE", f"--delta {text}",
                       "delta must be a finite positive number")
    return value


def _parse_sizes(text: str) -> list[int]:
    """``example1 --p`` as a list of panel sizes."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise CliError(
            "USAGE", f"--p {text}", "panel sizes must be comma-separated integers"
        ) from None


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _common_provenance(args: argparse.Namespace) -> dict:
    return {
        "tool": "factorclust",
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
    }


def _cmd_cluster(args: argparse.Namespace) -> int:
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
        omega=args.omega,
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
        with open(out / "label_distribution.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["category"] + [f"cluster_{j + 1}" for j in range(result.d_used)]
            )
            for cat, row in zip(dist["categories"], dist["rows"]):
                writer.writerow([cat] + [f"{v:.17g}" for v in row])
    print(f"wrote clustering outputs to {out}")
    return 0


def _cmd_factor_count(args: argparse.Namespace) -> int:
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
    if args.config and (args.scenario or args.p1 is not None):
        raise CliError("USAGE", "simulate",
                       "--config FILE takes neither --scenario nor --p1")
    p1 = 25 if args.p1 is None else args.p1
    if args.config:
        spec = read_scenario_config(_require_file(args.config))
    elif args.scenario == "I":
        spec = scenario_i(p1=p1)
    elif args.scenario == "II":
        spec = scenario_ii(p1=p1)
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
    rows = []
    for p in args.p:
        _, pop = generate_example1(
            p, args.delta, a1=args.a1, a2=args.a2, a3=args.a3, n=args.n,
            seed=args.seed,
        )
        eigvals = np.linalg.eigvalsh(pop.pooled())[::-1][:3]
        rows.append((p, *eigvals, pop.lambda3_analytic()))
    out = _out_dir(args.out)
    with open(out / "example1_eigenvalues.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["p", "lambda1", "lambda2", "lambda3", "lambda3_analytic"]
        )
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.17g}" for v in row[1:]])
    provenance = _common_provenance(args)
    provenance.update(
        {"delta": args.delta, "a1": args.a1, "a2": args.a2, "a3": args.a3,
         "n": args.n, "sizes": args.p}
    )
    _write_json(out / "provenance.json", provenance)
    print(f"wrote population eigenvalues for p in {args.p} to {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one ``E_USAGE`` line, not usage text."""

    def error(self, message: str):
        raise CliError("USAGE", self.prog, message)


def build_parser() -> argparse.ArgumentParser:
    """The CLI; a usage error of any one option is raised while parsing."""
    parser = _Parser(
        prog="factorclust",
        description="Factor-strength based clustering of time-series panels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tuning(p: argparse.ArgumentParser) -> None:
        _add_bounded(p, "--k0", 0, "the largest lag must be at least 0",
                     default=5, help="largest pooled lag (default 5)")
        _add_bounded(p, "--j0", 2, "the ratio truncation point must be at least 2",
                     help="ratio truncation point (default max(8, rho/4) "
                          "capped at rho, rho = min(p, n - 1))")
        p.add_argument("--out", default=".", help="output directory")

    pc = sub.add_parser("cluster", help="cluster a panel CSV")
    pc.add_argument("input", help="panel CSV")
    pc.add_argument("--labels", help="sidecar CSV: series_id,category")
    pc.add_argument("--orientation", default="rows-as-time",
                    choices=["rows-as-time", "rows-as-series"])
    add_tuning(pc)
    pc.add_argument("--omega", type=_parse_omega, default="p2",
                    help="p1 | p2 | p3 | explicit positive value (default p2)")
    _add_bounded(pc, "--r0", 0, "the number of strong factors must be at least 0",
                 help="override number of strong factors")
    _add_bounded(pc, "--r", 1, "the number of weak factors must be at least 1",
                 help="override number of weak factors")
    _add_bounded(pc, "--d", 1, "the cluster count must be at least 1",
                 help="override the elbow choice of the cluster count")
    pc.add_argument("--seed", type=int, default=0)
    _add_bounded(pc, "--restarts", 1,
                 "the number of K-means restarts must be at least 1", default=20)
    pc.set_defaults(func=_cmd_cluster)

    pf = sub.add_parser("factor-count", help="ratio sequence and selection only")
    pf.add_argument("input", help="panel CSV")
    pf.add_argument("--orientation", default="rows-as-time",
                    choices=["rows-as-time", "rows-as-series"])
    add_tuning(pf)
    pf.set_defaults(func=_cmd_factor_count)

    ps = sub.add_parser("simulate", help="Monte Carlo over a synthetic scenario")
    ps.add_argument("--config", help="flat key=value scenario file")
    ps.add_argument("--scenario", choices=["I", "II"],
                    help="built-in scenario instead of --config")
    ps.add_argument("--p1", type=int,
                    help="cluster size for --scenario (default 25)")
    _add_bounded(ps, "--reps", 1, "need at least one replication", default=100)
    ps.add_argument("--seed", type=int, default=None,
                    help="master seed (overrides the config seed)")
    _add_bounded(ps, "--jobs", 1, "need at least one worker", default=1,
                 help="parallel worker processes; each replication runs "
                      "on one BLAS thread, and the result does not depend "
                      "on it")
    ps.add_argument("--estimated-counts", action="store_true",
                    help="also evaluate the pipeline with estimated counts")
    add_tuning(ps)
    ps.set_defaults(func=_cmd_simulate)

    pe = sub.add_parser("example1", help="population eigenvalues of the "
                                         "equal-growth-rate construction")
    pe.add_argument("--p", type=_parse_sizes, default="100,400,1600",
                    help="comma-separated panel sizes")
    pe.add_argument("--delta", type=_parse_delta, default=0.5,
                    help="weak-factor exponent, > 0 (default 0.5). lambda3 "
                         "equals its closed form from 0.5 up; below 0.5 only "
                         "as p grows (0.68 of it at p = 50 and delta = 0.25, "
                         "equal from p = 500)")
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
    try:
        args = build_parser().parse_args(argv)
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
