"""The pooled matrices, |B B^T| and the similarity equal their transposes
bit for bit, as built.

Each is a Gram product X X^T of a C-contiguous X, which numpy computes by
the symmetric rank-k (syrk) BLAS routine and mirrors, so the package never
symmetrizes them afterwards.  These tests check every such matrix the
pipeline builds on small panels of the three benchmark shapes, at one and
at two BLAS threads, and on column-strided inputs, the layout for which
numpy would take a general, slightly asymmetric product.
"""

import numpy as np
import pytest

from factorclust import (
    MonteCarloConfig,
    ScenarioSpec,
    cluster_pipeline,
    cluster_upper_bound,
    generate_scenario,
    replication_record,
    scenario_i,
    similarity_matrix,
)
from factorclust import clustering, factor_count, loadings, simulation
from factorclust.panel import pooled_matrix_from_covs

from oracles import numpy_openblas

# small panels of the benchmark shapes: realdata_cli (p < n),
# wide_factors (p > n) and mc_scenario_i (scenario I, p < n)
PIPELINE_SHAPES = {
    "realdata_cli": dict(n=300, d=3, p1=25, p_extra=40),
    "wide_factors": dict(n=60, d=3, p1=40, p_extra=120),
}
MC_CONFIG = MonteCarloConfig(k0=5, J0=None, known_counts=True,
                             estimated_counts=False, include_baseline=True)


@pytest.fixture(params=[1, 2], ids=["1-thread", "2-threads"])
def blas_threads(request):
    """numpy's OpenBLAS set to the parametrized thread count for the test."""
    controls = numpy_openblas()
    if controls is None:
        pytest.skip("numpy does not bundle a scipy-openblas build")
    setter, getter = controls
    before = getter()
    setter(request.param)
    try:
        if getter() != request.param:
            pytest.skip(f"OpenBLAS cannot run {request.param} threads here")
        yield request.param
    finally:
        setter(before)


class _Recorder:
    """Wraps a function and records one of its arrays per call: the first
    argument with ``arg=True``, otherwise the result."""

    def __init__(self, fn, arg=False):
        self.fn, self.arg, self.seen = fn, arg, []

    def __call__(self, *args, **kwargs):
        out = self.fn(*args, **kwargs)
        self.seen.append(args[0] if self.arg else out)
        return out


@pytest.fixture()
def built(monkeypatch):
    """Records every pooled matrix, |B B^T| and similarity the package builds."""
    pools = _Recorder(pooled_matrix_from_covs)
    sims = _Recorder(similarity_matrix)
    # every count goes to ARPACK first, so its spy sees each |B B^T|
    d_hat = _Recorder(clustering.eigsh, arg=True)
    monkeypatch.setattr(clustering, "LANCZOS_P_PER_K", 0)
    monkeypatch.setattr(clustering, "eigsh", d_hat)
    for module in (loadings, factor_count):
        monkeypatch.setattr(module, "pooled_matrix_from_covs", pools)
    for module in (clustering, simulation):
        monkeypatch.setattr(module, "similarity_matrix", sims)
    return {"pool": pools.seen, "d_hat": d_hat.seen, "similarity": sims.seen}


def _assert_all_symmetric(built, kinds):
    for kind in kinds:
        assert built[kind], f"no {kind} matrix was built"
        for mat in built[kind]:
            assert mat.ndim == 2 and mat.shape[0] == mat.shape[1]
            np.testing.assert_array_equal(mat, mat.T, err_msg=kind)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", sorted(PIPELINE_SHAPES))
def test_pipeline_matrices_are_exactly_symmetric(built, blas_threads, shape, seed):
    spec = ScenarioSpec(seed=seed, **PIPELINE_SHAPES[shape])
    panel, truth = generate_scenario(spec)
    assert (panel.p > panel.n) == (shape == "wide_factors")
    cluster_pipeline(panel, counts=truth.intended_counts, seed=seed)
    # the strong and the weak pool
    assert len(built["pool"]) == 2
    _assert_all_symmetric(built, ("pool", "d_hat", "similarity"))


@pytest.mark.parametrize("seed", [0, 1])
def test_monte_carlo_matrices_are_exactly_symmetric(built, blas_threads, seed):
    replication_record(scenario_i(p1=6, seed=seed), MC_CONFIG)
    # the strong and the weak pool of the known counts, and the baseline's
    assert len(built["pool"]) == 3
    _assert_all_symmetric(built, ("pool", "d_hat", "similarity"))


def _strided(rows, cols, seed, orthonormal=False):
    """A (rows, cols) view taking every other column of a C-contiguous array."""
    x = np.random.default_rng(seed).standard_normal((rows, 2 * cols))
    if orthonormal:
        x, _ = np.linalg.qr(x)
    view = x[:, ::2]
    assert not view.flags.c_contiguous and not view.flags.f_contiguous
    return view


@pytest.mark.parametrize("seed", range(3))
def test_column_strided_inputs_give_symmetric_matrices(built, blas_threads, seed):
    # the real-data shape's weak loadings: 477 series, 18 factors
    b = _strided(477, 18, seed, orthonormal=True)
    covs = [_strided(60, 60, seed + k) for k in range(3)]

    pool = pooled_matrix_from_covs(iter(covs))
    np.testing.assert_array_equal(pool, pool.T)
    np.testing.assert_array_equal(
        pool, pooled_matrix_from_covs(np.ascontiguousarray(c) for c in covs)
    )

    sim = similarity_matrix(b)
    np.testing.assert_array_equal(sim, sim.T)
    np.testing.assert_array_equal(sim, similarity_matrix(np.ascontiguousarray(b)))

    assert cluster_upper_bound(b, 1259) == cluster_upper_bound(
        np.ascontiguousarray(b), 1259
    )
    (s, s_copy) = built["d_hat"]
    np.testing.assert_array_equal(s, s.T)
    np.testing.assert_array_equal(s, s_copy)
