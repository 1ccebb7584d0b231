"""Synthetic panel generators and the Monte Carlo replication driver.

Panels follow y_t = A x_t + (B; 0) z_t + eps_t with a block-diagonal weak
loading matrix B: every cluster owns its own weak factors, a trailing set
of series loads on no weak factor at all, and the observed series order is
scrambled by a seeded permutation.  Strong factor components are AR(1),
weak components MA(1); the idiosyncratic noise is MA(1) with fixed
innovation variance.  Component scales are drawn uniformly so no two draws
share the same signal strength, and AR paths start from their stationary
law (no burn-in).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._blas import _one_blas_thread
from .clustering import (
    cluster_upper_bound,
    detect_no_cluster,
    kmeans,
    omega_threshold,
    similarity_matrix,
)
from .evaluation import (
    SummaryTable,
    aggregate_records,
    detection_errors,
    misclassification_count,
    projection_distance,
)
from .factor_count import (
    FactorCountError,
    FactorCountReport,
    cumulative_ratio_sequence,
    select_factor_counts,
    single_matrix_ratio_baseline,
)
from .loadings import (
    estimate_strong_loadings,
    estimate_weak_loadings,
    oracle_weak_basis,
)
from .panel import LagStack, TimeSeriesPanel, lag_stack, pooled_matrix_from_covs

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "SimulationError",
    "ScenarioSpec",
    "ScenarioTruth",
    "Example1Population",
    "MonteCarloConfig",
    "MonteCarloResult",
    "scenario_i",
    "scenario_ii",
    "generate_scenario",
    "generate_example1",
    "run_monte_carlo",
    "replication_record",
    "read_scenario_config",
]


class SimulationError(ValueError):
    """Invalid scenario specification."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Full parameterization of one synthetic panel draw.

    ``ar_range`` and ``ma_range`` give the magnitude interval of the
    serial-correlation coefficients; each drawn coefficient takes a random
    sign, so the law is uniform on (-b, -a) union (a, b).  Every range is
    finite with low <= high; ``ar_range`` lies in [0, 1), and ``ma_range``
    and ``factor_sd_range`` are nonnegative.
    """

    n: int = 400
    d: int = 5
    p1: int = 25
    p_extra: int = 25
    r0: int = 2
    r_per_cluster: int = 2
    ar_range: tuple[float, float] = (0.4, 0.95)
    ma_range: tuple[float, float] = (0.4, 0.95)
    factor_sd_range: tuple[float, float] = (1.0, 2.0)
    noise_innovation_var: float = 0.25
    loading_range: tuple[float, float] = (-1.0, 1.0)
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2 or self.d < 1 or self.p1 < 1 or self.p_extra < 0:
            raise SimulationError(
                f"invalid sizes n={self.n}, d={self.d}, p1={self.p1}, "
                f"p_extra={self.p_extra}"
            )
        if self.r0 < 1 or self.r_per_cluster < 1:
            raise SimulationError(
                f"factor counts must be positive, got r0={self.r0}, "
                f"r_j={self.r_per_cluster}"
            )
        if self.noise_innovation_var < 0:
            raise SimulationError("noise innovation variance must be nonnegative")
        for name in ("ar_range", "ma_range", "factor_sd_range", "loading_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise SimulationError(
                    f"{name} must be finite with low <= high, got {lo}, {hi}"
                )
            if name != "loading_range" and lo < 0:
                raise SimulationError(f"{name} must be nonnegative, got {lo}, {hi}")
        if self.ar_range[1] >= 1:
            # |phi| >= 1 has no stationary AR(1) path to start from
            raise SimulationError(
                f"ar_range must lie in [0, 1), got {self.ar_range[0]}, {self.ar_range[1]}"
            )
        if self.seed < 0:
            raise SimulationError(f"seed must be nonnegative, got {self.seed}")

    @property
    def p0(self) -> int:
        return self.d * self.p1

    @property
    def p(self) -> int:
        return self.p0 + self.p_extra

    @property
    def r(self) -> int:
        return self.d * self.r_per_cluster


def scenario_i(p1: int = 25, seed: int = 0) -> ScenarioSpec:
    """n=400, d=5, two factors per tier, as many free series as one cluster."""
    return ScenarioSpec(
        n=400, d=5, p1=p1, p_extra=p1, r0=2, r_per_cluster=2, seed=seed
    )


def scenario_ii(p1: int = 25, seed: int = 0) -> ScenarioSpec:
    """n=800, d=10, two factors per tier, five clusters' worth of free series."""
    return ScenarioSpec(
        n=800, d=10, p1=p1, p_extra=5 * p1, r0=2, r_per_cluster=2, seed=seed
    )


@dataclass(frozen=True)
class ScenarioTruth:
    """Ground truth of a generated panel, in observed (permuted) order."""

    A: np.ndarray                    # (p, r0)
    B_padded: np.ndarray             # (p, r), zero rows for free series
    membership: np.ndarray           # (p,) 0 = no cluster, 1..d otherwise
    J_true: np.ndarray               # sorted indices of the free series
    permutation: np.ndarray | None   # observed = original[permutation]
    intended_counts: tuple[int, int]


def _draw_coefficients(rng: np.random.Generator, count: int,
                       magnitude: tuple[float, float]) -> np.ndarray:
    mags = rng.uniform(magnitude[0], magnitude[1], size=count)
    signs = rng.integers(0, 2, size=count) * 2 - 1
    return mags * signs


def _ar1_paths(rng: np.random.Generator, phi: np.ndarray, sds: np.ndarray,
               n: int) -> np.ndarray:
    """Unit-variance AR(1) paths scaled by sds; stationary start.

    The recursion runs in Python floats, one series at a time: the same
    IEEE operations as one numpy step per time point, bit for bit, without
    the per-step array overhead.
    """
    innov = rng.standard_normal((len(phi), n))
    scale = np.sqrt(1.0 - phi**2)
    w = np.empty_like(innov)
    for i, (ph, sc) in enumerate(zip(phi.tolist(), scale.tolist())):
        path = innov[i].tolist()
        for t in range(1, n):
            path[t] = ph * path[t - 1] + sc * path[t]
        w[i] = path
    return sds[:, None] * w


def _ma1_paths(rng: np.random.Generator, theta: np.ndarray, sds: np.ndarray,
               n: int) -> np.ndarray:
    """Unit-variance MA(1) paths scaled by sds; one presample innovation."""
    k = len(theta)
    innov = rng.standard_normal((k, n + 1))
    w = (innov[:, 1:] + theta[:, None] * innov[:, :-1]) / np.sqrt(
        1.0 + theta[:, None] ** 2
    )
    return sds[:, None] * w


def generate_scenario(spec: ScenarioSpec) -> tuple[TimeSeriesPanel, ScenarioTruth]:
    """Draw one panel and its ground truth; deterministic in spec.seed."""
    rng = np.random.default_rng(spec.seed)
    p, n, r0, r = spec.p, spec.n, spec.r0, spec.r
    lo, hi = spec.loading_range

    a_mat = rng.uniform(lo, hi, size=(p, r0))

    b_padded = np.zeros((p, r))
    membership = np.zeros(p, dtype=int)
    for j in range(spec.d):
        rows = slice(j * spec.p1, (j + 1) * spec.p1)
        cols = slice(j * spec.r_per_cluster, (j + 1) * spec.r_per_cluster)
        b_padded[rows, cols] = rng.uniform(
            lo, hi, size=(spec.p1, spec.r_per_cluster)
        )
        membership[rows] = j + 1

    phi = _draw_coefficients(rng, r0, spec.ar_range)
    x_sds = rng.uniform(*spec.factor_sd_range, size=r0)
    x = _ar1_paths(rng, phi, x_sds, n)

    theta = _draw_coefficients(rng, r, spec.ma_range)
    z_sds = rng.uniform(*spec.factor_sd_range, size=r)
    z = _ma1_paths(rng, theta, z_sds, n)

    # summed in place, term by term in the order of A x + B z + e_t + c e_{t-1}
    values = a_mat @ x
    values += b_padded @ z
    if spec.noise_innovation_var > 0:
        noise_theta = _draw_coefficients(rng, p, spec.ma_range)
        eta = rng.normal(0.0, math.sqrt(spec.noise_innovation_var), size=(p, n + 1))
        values += eta[:, 1:]
        values += noise_theta[:, None] * eta[:, :-1]

    permutation = None
    if spec.shuffle:
        permutation = rng.permutation(p)
        values = values[permutation]
        a_mat = a_mat[permutation]
        b_padded = b_padded[permutation]
        membership = membership[permutation]

    truth = ScenarioTruth(
        A=a_mat,
        B_padded=b_padded,
        membership=membership,
        J_true=np.flatnonzero(membership == 0),
        permutation=permutation,
        intended_counts=(r0, r),
    )
    return TimeSeriesPanel(values=values), truth


def _example1_core(p: int, delta: float, a1: float, a2: float, a3: float,
                   k: int) -> np.ndarray:
    """3x3 coordinate block of the population covariance at lag k."""
    if k == 0:
        xx = p * (2.0 + a1**2 + a2**2)
        xz = p ** (1.0 - delta / 2.0) * (1.0 + a2**2)
        z1 = p ** (1.0 - delta) * (1.0 + a2**2)
        z2 = p ** (1.0 - delta) * (1.0 + a3**2)
    elif k == 1:
        xx = p * (a1 + a2)
        xz = p ** (1.0 - delta / 2.0) * a2
        z1 = p ** (1.0 - delta) * a2
        z2 = p ** (1.0 - delta) * a3
    else:
        return np.zeros((3, 3))
    return np.array([[xx, xz, 0.0], [xz, z1, 0.0], [0.0, 0.0, z2]])


@dataclass(frozen=True)
class Example1Population:
    """Rank-three construction whose pooled-matrix eigenvalue ratios all
    diverge at the same rate, defeating single-matrix ratio selection.

    One strong factor and two weak factors are driven by three shared
    MA(1) components; the strong factor and the first weak factor share an
    innovation stream, which couples the top two eigenvalues.  The exact
    population lag-0/lag-1 covariances are available in closed form.
    """

    p: int
    delta: float
    a1: float
    a2: float
    a3: float
    A: np.ndarray        # (p, 1) orthonormal
    B: np.ndarray        # (p, 2) orthonormal, orthogonal to A
    sigma0: np.ndarray   # population lag-0 covariance
    sigma1: np.ndarray   # population lag-1 covariance

    def pooled(self) -> np.ndarray:
        return pooled_matrix_from_covs((self.sigma0, self.sigma1))

    def lambda3_analytic(self) -> float:
        """Third-largest pooled eigenvalue in closed form."""
        return self.p ** (2.0 - 2.0 * self.delta) * (
            (1.0 + self.a3**2) ** 2 + self.a3**2
        )


def generate_example1(
    p: int,
    delta: float,
    a1: float = 0.8,
    a2: float = -0.5,
    a3: float = 0.6,
    n: int = 200,
    seed: int = 0,
) -> tuple[TimeSeriesPanel, Example1Population]:
    """Sample panel plus exact population covariances of the construction.

    Warns (but still generates) when (a1 - a2)^2 (1 - a1 a2) = 0, in which
    case the strong/weak coupling degenerates and the middle eigenvalue
    loses its advertised growth rate.
    """
    if p < 3 or n < 2:
        raise SimulationError(f"need p >= 3 and n >= 2, got p={p}, n={n}")
    if abs((a1 - a2) ** 2 * (1.0 - a1 * a2)) < 1e-12:
        warnings.warn(
            "degenerate coefficients: (a1 - a2)^2 (1 - a1 a2) = 0; the "
            "second eigenvalue gap collapses",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((p, 3)))
    a_mat = basis[:, :1]
    b_mat = basis[:, 1:3]

    u = rng.standard_normal((3, n + 1))
    v = u[:, 1:] + np.array([a1, a2, a3])[:, None] * u[:, :-1]
    x = math.sqrt(p) * (v[0] + v[1])
    scale_z = p ** ((1.0 - delta) / 2.0)
    z = scale_z * v[1:3]
    values = a_mat @ x[None, :] + b_mat @ z

    sigma0 = basis @ _example1_core(p, delta, a1, a2, a3, 0) @ basis.T
    sigma1 = basis @ _example1_core(p, delta, a1, a2, a3, 1) @ basis.T
    pop = Example1Population(
        p=p, delta=delta, a1=a1, a2=a2, a3=a3, A=a_mat, B=b_mat,
        sigma0=sigma0, sigma1=sigma1,
    )
    return TimeSeriesPanel(values=values), pop


# Thresholds scored per replication; clustering uses OMEGA_MAIN's detection.
OMEGA_VARIANTS = ("p1", "p2", "p3")
OMEGA_MAIN = "p2"
KMEANS_RESTARTS = 10


@dataclass(frozen=True)
class MonteCarloConfig:
    """Which count branches a replication evaluates, and its tuning values.

    ``known_counts`` and ``estimated_counts`` select the branches (the true
    counts, the selected counts); every branch scores the strong and weak
    subspace errors, detection at each omega variant, and the clustering.
    ``include_baseline`` adds the single-matrix ratio baseline.
    """

    k0: int = 5
    J0: int | None = None
    known_counts: bool = True
    estimated_counts: bool = False
    include_baseline: bool = True


@dataclass
class MonteCarloResult:
    """Aggregated tables of a replicated experiment."""

    table: SummaryTable
    records: list[dict]
    failures: list[tuple[int, str]]
    provenance: dict = field(default_factory=dict)

    @property
    def n_completed(self) -> int:
        return len(self.records)


def _evaluate_branch(
    stack: LagStack,
    truth: ScenarioTruth,
    r0: int,
    r: int,
    config: MonteCarloConfig,
    seed: int,
    true_bases: tuple[np.ndarray, np.ndarray],
    suffix: str = "",
) -> dict:
    """Subspace, detection and clustering metrics for given factor counts,
    against orthonormal bases of the true strong and weak loading spaces."""
    out: dict = {}
    strong = estimate_strong_loadings(stack, k0=config.k0, r0=r0)
    weak = estimate_weak_loadings(stack, strong, k0=config.k0, r=r)

    op, fro = projection_distance(strong.matrix, true_bases[0])
    out[f"strong_err_op{suffix}"] = op
    out[f"strong_err_fro{suffix}"] = fro
    op, fro = projection_distance(weak.matrix, true_bases[1])
    out[f"weak_err_op{suffix}"] = op
    out[f"weak_err_fro{suffix}"] = fro

    p = stack.p
    detected = {}
    for variant in OMEGA_VARIANTS:
        omega = omega_threshold(variant, r_hat=r, p=p)
        detected[variant] = detect_no_cluster(weak, omega)
        errs = detection_errors(detected[variant], truth.J_true, p)
        out[f"e1_omega_{variant}{suffix}"] = errs.e1
        out[f"e2_omega_{variant}{suffix}"] = errs.e2

    d_hat = cluster_upper_bound(weak, stack.n)
    d_true = int(truth.membership.max())
    out[f"d_hat{suffix}"] = d_hat
    out[f"d_hat_correct{suffix}"] = bool(d_hat == d_true)
    retained = np.setdiff1d(np.arange(p), detected[OMEGA_MAIN])
    if len(retained) >= 2:
        sim = similarity_matrix(weak.matrix[retained])
        d_used = min(max(d_hat, 1), len(retained))
        fit = kmeans(sim, d_used, restarts=KMEANS_RESTARTS, seed=seed)
        truly_clustered = truth.membership[retained] > 0
        sel = np.flatnonzero(truly_clustered)
        if len(sel) > 0:
            tau = misclassification_count(
                fit.assignments[sel], truth.membership[retained][sel]
            )
            out[f"tau{suffix}"] = tau
            out[f"tau_rate{suffix}"] = tau / len(sel)
    return out


# numpy's stacked SVD releases the GIL once stack count * rows exceeds
# this; below it, two overlapping calls run no faster than one after the
# other (ROADMAP, dead ends)
GIL_FREE_STACK_ROWS = 500


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_thread(spec: ScenarioSpec, config: MonteCarloConfig, workers: int) -> bool:
    """Whether ``run_monte_carlo`` draws each replication's stage 1 ahead
    on a helper thread.

    Only in a serial run, where the process may run on a second CPU, and
    where the ratio report's stacked SVD releases the GIL.
    """
    return (
        workers == 1
        and (config.k0 + 1) * min(spec.p, spec.n) > GIL_FREE_STACK_ROWS
        and _cpu_count() >= 2
    )


def _draw(
    spec: ScenarioSpec, config: MonteCarloConfig
) -> tuple[ScenarioTruth, LagStack, FactorCountReport]:
    """Stage 1 of a replication: its panel's truth, lag stack and ratio
    report.  The panel itself is freed once the stack is built."""
    panel, truth = generate_scenario(spec)
    stack = lag_stack(panel, config.k0)
    del panel
    return truth, stack, cumulative_ratio_sequence(stack, k0=config.k0, J0=config.J0)


def replication_record(
    spec: ScenarioSpec, config: MonteCarloConfig, *, drawn: Future | None = None
) -> dict:
    """All metrics of one replication (factor counts plus both branches).

    A replication runs in two stages.  Stage 1 (``_draw``) generates the
    panel, builds its lag stack and the ratio report.  Stage 2 selects the
    counts and runs the baseline, the known-counts branch and the
    estimated branch, in that order.  ``drawn`` is stage 1 of this
    replication already submitted elsewhere (``run_monte_carlo`` runs it
    on a helper thread); its result, or the exception it raised, stands in
    for running stage 1 here, so the record and the first failure raised
    are the same either way.
    """
    truth, stack, report = _draw(spec, config) if drawn is None else drawn.result()
    r0_true, r_true = truth.intended_counts
    out: dict = {}

    selection: tuple[int, int] | None = None
    try:
        r0_hat, r_hat = select_factor_counts(report)
        selection = (r0_hat, r_hat)
        out["r0_correct"] = bool(r0_hat == r0_true)
        out["total_correct"] = bool(r0_hat + r_hat == r0_true + r_true)
    except FactorCountError:
        out["r0_correct"] = False
        out["total_correct"] = False
        out["count_selection_failed"] = True

    if config.include_baseline:
        baseline = single_matrix_ratio_baseline(stack, k0=config.k0, J0=config.J0)
        try:
            b_r0, b_r = select_factor_counts(baseline)
            out["baseline_r0_correct"] = bool(b_r0 == r0_true)
            out["baseline_total_correct"] = bool(b_r0 + b_r == r0_true + r_true)
        except FactorCountError:
            out["baseline_r0_correct"] = False
            out["baseline_total_correct"] = False

    branches = [(r0_true, r_true, "")] if config.known_counts else []
    if config.estimated_counts and selection is not None:
        r0_hat, r_hat = selection
        m = min(stack.p, stack.n)
        if 1 <= r0_hat < m and 1 <= r_hat < m - r0_hat:
            branches.append((r0_hat, r_hat, "_est"))
    if branches:
        # the true spans, the same for every branch
        true_bases = np.linalg.qr(truth.A)[0], oracle_weak_basis(truth.A, truth.B_padded)
    for r0, r, suffix in branches:
        out.update(_evaluate_branch(stack, truth, r0, r, config, spec.seed,
                                    true_bases=true_bases, suffix=suffix))
    return out


def _replication_seed(master_seed: int, rep: int) -> int:
    """Counter-based stream splitting; independent of execution order."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _worker(task: tuple[ScenarioSpec, MonteCarloConfig, int],
            drawn: Future | None = None):
    spec, config, rep = task
    try:
        return rep, replication_record(spec, config, drawn=drawn), None
    except Exception as exc:  # noqa: BLE001 - recorded, never dropped silently
        return rep, None, f"{type(exc).__name__}: {exc}"


def _pipelined(tasks: list) -> list:
    """``_worker`` over ``tasks`` in order, with stage 1 of each replication
    drawn on one helper thread while the caller runs stage 2 of the one
    before.  The helper is joined before this returns or raises."""
    # imported here: only a pipelined run needs it
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1, thread_name_prefix="factorclust-helper")
    try:
        ahead = pool.submit(_draw, *tasks[0][:2])
        raw = []
        for i, task in enumerate(tasks):
            drawn = ahead
            if i + 1 < len(tasks):
                ahead = pool.submit(_draw, *tasks[i + 1][:2])
            raw.append(_worker(task, drawn))
        return raw
    finally:
        pool.shutdown(cancel_futures=True)


def run_monte_carlo(
    spec: ScenarioSpec,
    reps: int,
    config: MonteCarloConfig | None = None,
    jobs: int = 1,
) -> MonteCarloResult:
    """Replicate the experiment and aggregate per-metric means and sds.

    Replication seeds are split from ``spec.seed`` by a counter scheme, so
    the result is identical for any ``jobs`` value; failed replications
    are excluded from the aggregation but counted in ``failures``.

    Every replication runs on one BLAS thread, serially or in a pool of
    ``min(jobs, reps)`` workers, so the result does not depend on the
    OpenBLAS thread count either.  A serial run where the process may run
    on two CPUs pipelines its replications: one helper thread draws stage
    1 of replication i + 1 (``replication_record``) while the caller runs
    stage 2 of replication i, once (k0 + 1) * min(p, n) >
    ``GIL_FREE_STACK_ROWS``.  Each replication's record and failure are
    the same as inline, and the helper is joined before this returns.
    Pool workers run each replication inline.  The workers are forked
    whatever the default start method, so they inherit the setting and
    leave no helper process behind.
    The setting is process-wide while the replications run, and the
    caller's thread count is restored when they end.
    """
    if reps < 1:
        raise SimulationError(f"reps must be at least 1, got {reps}")
    config = config or MonteCarloConfig()
    workers = min(jobs, reps)
    tasks = [
        (replace(spec, seed=_replication_seed(spec.seed, rep)), config, rep)
        for rep in range(reps)
    ]
    with _one_blas_thread():
        if workers > 1:
            # imported here: a serial run needs neither
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
                raw = list(pool.map(_worker, tasks))
        elif _helper_thread(spec, config, workers):
            raw = _pipelined(tasks)
        else:
            raw = [_worker(task) for task in tasks]
    raw.sort(key=lambda item: item[0])
    records = [rec for _, rec, err in raw if err is None]
    failures = [(rep, err) for rep, _, err in raw if err is not None]
    if not records:
        raise SimulationError(
            f"all {reps} replications failed; first error: {failures[0][1]}"
        )
    table = aggregate_records(records)
    provenance = {
        "master_seed": int(spec.seed),
        "reps": int(reps),
        "completed": len(records),
        "failed": len(failures),
        "k0": config.k0,
        "J0": config.J0,
        "omega_variants": list(OMEGA_VARIANTS),
        "omega_main": OMEGA_MAIN,
        "scenario": {
            "n": spec.n, "d": spec.d, "p1": spec.p1, "p_extra": spec.p_extra,
            "r0": spec.r0, "r_per_cluster": spec.r_per_cluster,
            "shuffle": spec.shuffle,
        },
        "loadings_redrawn_each_replication": True,
    }
    return MonteCarloResult(
        table=table, records=records, failures=failures, provenance=provenance
    )


def read_scenario_config(path: str | Path) -> ScenarioSpec:
    """Parse a flat key=value text file into a ScenarioSpec.

    The keys are ``ScenarioSpec``'s fields, each parsed by the type of its
    default: n, d, p1, p_extra, r0, r_per_cluster, seed (int),
    noise_innovation_var (float), shuffle (true/false), ar_range, ma_range,
    factor_sd_range, loading_range (two comma-separated floats).
    Lines starting with ``#`` are ignored.  The file is read as UTF-8;
    other bytes raise ``SimulationError``.
    """
    types = {f.name: type(f.default) for f in fields(ScenarioSpec)}
    kwargs: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SimulationError(f"{path}: not UTF-8 text: {exc.reason}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SimulationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        kind = types.get(key)
        if kind is None:
            raise SimulationError(f"{path}:{lineno}: unknown key {key!r}")
        if kind is bool:
            if value.lower() not in ("true", "false"):
                raise SimulationError(f"{path}:{lineno}: {key} must be true|false")
            kwargs[key] = value.lower() == "true"
        elif kind is tuple:
            try:
                parts = [float(v) for v in value.split(",")]
            except ValueError:
                parts = []
            if len(parts) != 2:
                raise SimulationError(f"{path}:{lineno}: {key} needs two floats")
            kwargs[key] = (parts[0], parts[1])
        else:
            try:
                kwargs[key] = kind(value)
            except ValueError:
                raise SimulationError(
                    f"{path}:{lineno}: {key}: invalid value {value!r}"
                ) from None
    return ScenarioSpec(**kwargs)
