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
from functools import partial
from pathlib import Path

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
    cumulative_ratio_sequence,
    select_factor_counts,
    single_matrix_ratio_baseline,
)
from .loadings import (
    estimate_strong_loadings,
    estimate_weak_loadings,
    oracle_weak_projection,
    projection,
)
from .panel import LagStack, TimeSeriesPanel, lag_stack, pooled_matrix_from_covs

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
    sign, so the law is uniform on (-b, -a) union (a, b).
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
    """Unit-variance AR(1) paths scaled by sds; stationary start."""
    k = len(phi)
    innov = rng.standard_normal((k, n))
    w = np.empty((k, n))
    w[:, 0] = innov[:, 0]
    scale = np.sqrt(1.0 - phi**2)
    for t in range(1, n):
        w[:, t] = phi * w[:, t - 1] + scale * innov[:, t]
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

    values = a_mat @ x + b_padded @ z
    if spec.noise_innovation_var > 0:
        noise_theta = _draw_coefficients(rng, p, spec.ma_range)
        eta = rng.normal(0.0, math.sqrt(spec.noise_innovation_var), size=(p, n + 1))
        values = values + eta[:, 1:] + noise_theta[:, None] * eta[:, :-1]

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
    suffix: str = "",
) -> dict:
    """Subspace, detection and clustering metrics for given factor counts."""
    out: dict = {}
    strong = estimate_strong_loadings(stack, k0=config.k0, r0=r0)
    weak = estimate_weak_loadings(stack, strong, k0=config.k0, r=r)

    # Q Q^T of a C-contiguous Q takes numpy's syrk path: symmetric bit for bit
    q = np.ascontiguousarray(np.linalg.qr(truth.A)[0])
    op, fro = projection_distance(projection(strong), q @ q.T)
    out[f"strong_err_op{suffix}"] = op
    out[f"strong_err_fro{suffix}"] = fro
    p_weak = oracle_weak_projection(truth.A, truth.B_padded)
    op, fro = projection_distance(projection(weak), p_weak)
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
    """Whether ``run_monte_carlo`` runs each ratio report on a helper thread.

    Only where there is a known-counts branch to run beside it, the
    report's stacked SVD releases the GIL, and every worker has a CPU
    for its helper besides its own.
    """
    return (
        config.known_counts
        and (config.k0 + 1) * min(spec.p, spec.n) > GIL_FREE_STACK_ROWS
        and _cpu_count() >= 2 * workers
    )


def _settled(fn):
    """Call ``fn`` now; return a callable that gives its value or raises
    its exception again."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - raised again when called
        error = exc

        def settled():
            raise error
    else:
        def settled():
            return value
    return settled


def replication_record(
    spec: ScenarioSpec, config: MonteCarloConfig, *, helper: bool = False
) -> dict:
    """All metrics of one replication (factor counts plus both branches).

    With ``helper``, the ratio report runs on a helper thread beside the
    known-counts branch; its stacked SVD runs without the GIL once
    (k0 + 1) * min(p, n) > ``GIL_FREE_STACK_ROWS`` (see
    ``cumulative_ratio_sequence``), and ``run_monte_carlo`` sets it only
    then.  The helper is joined, also on an error, before the counts are
    selected.  The record, and the first failure raised, are those of the
    stages run one after another: ratio report, count selection,
    baseline, known-counts branch, estimated branch.
    """
    panel, truth = generate_scenario(spec)
    r0_true, r_true = truth.intended_counts
    out: dict = {}

    stack = lag_stack(panel, config.k0)
    known = partial(_evaluate_branch, stack, truth, r0_true, r_true, config, spec.seed)
    if helper and config.known_counts:
        # imported here: only a run with a helper needs it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1, thread_name_prefix="factorclust-helper") as pool:
            ratio = pool.submit(cumulative_ratio_sequence, stack, k0=config.k0,
                                J0=config.J0)
            known = _settled(known)
        report = ratio.result()
    else:
        report = cumulative_ratio_sequence(stack, k0=config.k0, J0=config.J0)
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

    if config.known_counts:
        out.update(known())
    if config.estimated_counts and selection is not None:
        r0_hat, r_hat = selection
        m = min(panel.p, panel.n)
        if 1 <= r0_hat < m and 1 <= r_hat < m - r0_hat:
            out.update(
                _evaluate_branch(
                    stack, truth, r0_hat, r_hat, config, spec.seed, suffix="_est"
                )
            )
    return out


def _replication_seed(master_seed: int, rep: int) -> int:
    """Counter-based stream splitting; independent of execution order."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _worker(args: tuple[ScenarioSpec, MonteCarloConfig, int, bool]):
    spec, config, rep, helper = args
    try:
        return rep, replication_record(spec, config, helper=helper), None
    except Exception as exc:  # noqa: BLE001 - recorded, never dropped silently
        return rep, None, f"{type(exc).__name__}: {exc}"


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
    OpenBLAS thread count either.  Each replication also runs its ratio
    report on a helper thread beside its known-counts branch
    (``replication_record``) where the process may run on two CPUs per
    worker and (k0 + 1) * min(p, n) > ``GIL_FREE_STACK_ROWS``; the helper
    is joined before the replication returns.  The workers are forked
    whatever the default start method, so they inherit the setting and
    leave no helper process behind.
    The setting is process-wide while the replications run, and the
    caller's thread count is restored when they end.
    """
    if reps < 1:
        raise SimulationError(f"reps must be at least 1, got {reps}")
    config = config or MonteCarloConfig()
    workers = min(jobs, reps)
    helper = _helper_thread(spec, config, workers)
    tasks = [
        (replace(spec, seed=_replication_seed(spec.seed, rep)), config, rep, helper)
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
        else:
            raw = [_worker(t) for t in tasks]
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
