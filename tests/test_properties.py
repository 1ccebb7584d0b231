"""Property-based checks of the algebraic invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from factorclust import (
    LoadingMatrix,
    TimeSeriesPanel,
    detect_no_cluster,
    detection_errors,
    misclassification_count,
    projection_distance,
    similarity_matrix,
)
from factorclust.panel import lag_autocov_sequence, lag_stack, pooled_matrix_from_covs

from oracles import (
    lag_autocov_oracle,
    misclassification_oracle,
    projection,
    projection_distance_oracle,
)

settings.register_profile("numeric", deadline=None, max_examples=40)
settings.load_profile("numeric")


int_panels = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(2, 6), st.integers(2, 12)),
    elements=st.integers(-5, 5),
)


@given(values=int_panels, k0=st.integers(0, 11))
@example(values=np.arange(12).reshape(3, 4) % 5, k0=3)  # p <= n: S(k) held
@example(values=np.arange(18).reshape(6, 3) % 7, k0=2)  # p > n: U and C(k) held
def test_lag_stack_matches_loop_oracle(values, k0):
    panel = TimeSeriesPanel(values=values.astype(float))
    k0 = k0 % panel.n
    stack = lag_stack(panel, k0)
    # every |S(k)| entry is at most max|S(0)|, by Cauchy-Schwarz
    want = [lag_autocov_oracle(panel.values, k) for k in range(k0 + 1)]
    atol = 1e-12 * np.abs(want[0]).max()
    u = None if stack.basis is None else stack.basis.lift(np.eye(panel.n))
    for k in range(k0 + 1):
        got = stack.covs[k] if u is None else u @ stack.covs[k] @ u.T
        np.testing.assert_allclose(got, want[k], rtol=0, atol=atol)


@given(values=int_panels, k0=st.integers(0, 5))
def test_pooled_matrix_symmetric_psd(values, k0):
    panel = TimeSeriesPanel(values=values.astype(float))
    k0 = k0 % panel.n
    m = pooled_matrix_from_covs(lag_autocov_sequence(panel, k0))
    np.testing.assert_array_equal(m, m.T)
    scale = np.linalg.norm(m, 2)
    assert np.linalg.eigvalsh(m).min() >= -1e-10 * max(scale, 1.0)


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(2, 8),
    q=st.integers(1, 4),
)
def test_similarity_invariant_to_row_scaling_and_sign(seed, m, q):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((m, q)) + 0.1
    sim = similarity_matrix(f)
    scales = rng.uniform(0.25, 4.0, (m, 1)) * rng.choice([-1.0, 1.0], (m, 1))
    np.testing.assert_allclose(similarity_matrix(f * scales), sim, atol=1e-12)
    assert sim.min() >= 0.0 and sim.max() <= 1.0


@given(
    seed=st.integers(0, 2**31 - 1),
    lo=st.floats(1e-3, 0.5),
    hi=st.floats(1e-3, 0.5),
)
def test_detection_monotone_in_omega(seed, lo, hi):
    lo, hi = sorted((lo, hi))
    b = np.random.default_rng(seed).uniform(-1, 1, (12, 3)) * 0.3
    small = set(detect_no_cluster(b, lo).tolist())
    large = set(detect_no_cluster(b, hi).tolist())
    assert small <= large


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(2, 12),
    d=st.integers(2, 4),
)
def test_misclassification_invariances(seed, m, d):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, d, m)
    t = rng.integers(0, d, m)
    base = misclassification_count(a, t)
    assert base == misclassification_oracle(a, t)
    assert misclassification_count(t, a) == base
    perm = rng.permutation(d)
    assert misclassification_count(perm[a], t) == base
    assert misclassification_count(a, a) == 0


@given(
    seed=st.integers(0, 2**31 - 1),
    p=st.integers(2, 20),
)
def test_detection_errors_identity(seed, p):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, p + 1))
    j = set(rng.choice(p, size=size, replace=False).tolist())
    errs = detection_errors(j, j, p=p)
    assert errs.e1 == 0.0 and errs.e2 == 0.0


def _basis(m: np.ndarray) -> np.ndarray:
    return np.linalg.qr(m)[0]


@given(
    seed=st.integers(0, 2**31 - 1),
    p=st.integers(1, 12),
    a=st.integers(0, 12),
    b=st.integers(0, 12),
    near=st.booleans(),
)
@example(seed=0, p=6, a=0, b=0, near=False)
@example(seed=1, p=6, a=0, b=3, near=False)
@example(seed=2, p=6, a=2, b=3, near=False)
@example(seed=3, p=9, a=3, b=3, near=True)  # principal angles of about 1e-6
def test_projection_distance_matches_p_by_p_reference(seed, p, a, b, near):
    rng = np.random.default_rng(seed)
    a = min(a, p)
    A = _basis(rng.standard_normal((p, a)))
    if near:
        b = a
        B = _basis(A + 1e-6 * rng.standard_normal((p, a)))
    else:
        b = min(b, p)
        B = _basis(rng.standard_normal((p, b)))
    got = projection_distance(A, B)
    want = projection_distance_oracle(
        projection(LoadingMatrix(A)), projection(LoadingMatrix(B))
    )
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # only the spans count: right-rotating either basis changes nothing
    rotated_A = projection_distance(A @ _basis(rng.standard_normal((a, a))), B)
    rotated_B = projection_distance(A, B @ _basis(rng.standard_normal((b, b))))
    np.testing.assert_allclose(rotated_A, got, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rotated_B, got, rtol=0, atol=1e-12)
