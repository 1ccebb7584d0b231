"""The p > n lag stack keeps U as the QR's Householder reflectors.

Each result is checked against ``oracles.reduced_qr_stack``, the stack
that forms U by the reduced-mode QR: the lag covariances, the ratio report
and the per-lag eigenvalues bit for bit, the loadings within 1e-13.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorclust import (
    LoadingMatrix,
    TimeSeriesPanel,
    cumulative_ratio_sequence,
    estimate_strong_loadings,
    estimate_weak_loadings,
    projection_distance,
)
from factorclust.panel import HouseholderBasis, lag_stack

from oracles import reduced_qr_stack


def factor_panel(p, n, r0, r, seed):
    """Panel-wide factors of distinct scales, block-local factors, noise."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (p, r0))
    b = np.zeros((p, r))
    block = p // (r + 1)
    for j in range(r):
        b[j * block:(j + 1) * block, j] = rng.uniform(0.5, 1.0, block)
    x = rng.standard_normal((r0, n)) * (8.0 - 2.0 * np.arange(r0))[:, None]
    z = rng.standard_normal((r, n)) * (2.0 - 0.3 * np.arange(r))[:, None]
    eps = rng.standard_normal((p, n)) * 0.2
    return TimeSeriesPanel(values=a @ x + b @ z + eps)


def integer_panel(p, n, r0, r, seed):
    """A factor panel rounded to integers whose series 1..p-1 sit exactly at
    their mean at t = 0: the centered panel's first column is zero below
    its first entry, so the QR's first reflector is the identity (tau 0)."""
    values = np.round(10 * factor_panel(p, n, r0, r, seed).values)
    rest = values[1:, 1:].sum(axis=1)
    # make each row's sum over t >= 1 a multiple of n - 1, the value at t = 0
    values[1:, -1] -= np.mod(rest, n - 1)
    values[1:, 0] = values[1:, 1:].sum(axis=1) / (n - 1)
    return TimeSeriesPanel(values=values)


def shape(p, n, k0, r0, r, make=factor_panel):
    return pytest.param(p, n, k0, r0, r, make, id=f"{p}-{n}-{k0}-{r0}-{r}")


# (p, n, k0, r0, r): n = 65 spans three reflector blocks, the last of one
SHAPES = [shape(30, 12, 3, 2, 3), shape(30, 12, 11, 2, 3), shape(220, 120, 5, 2, 4),
          shape(220, 65, 4, 2, 3), shape(60, 40, 3, 2, 3, integer_panel)]


def test_integer_panel_has_an_identity_reflector():
    basis = lag_stack(integer_panel(60, 40, 2, 3, seed=63), 3).basis
    assert basis.tau[0] == 0 and np.all(basis.tau[1:] != 0)


@pytest.mark.parametrize("p, n, k0, r0, r, make", SHAPES)
class TestAgainstReducedQrStack:
    def test_covariances_and_ratios_bit_for_bit(self, p, n, k0, r0, r, make):
        panel = make(p, n, r0, r, seed=p + k0)
        stack, oracle = lag_stack(panel, k0), reduced_qr_stack(panel, k0)
        np.testing.assert_array_equal(stack.covs, oracle.covs)
        got = cumulative_ratio_sequence(stack, k0=k0)
        want = cumulative_ratio_sequence(oracle, k0=k0)
        np.testing.assert_array_equal(got.ratios, want.ratios)
        np.testing.assert_array_equal(got.per_lag_eigenvalues,
                                      want.per_lag_eigenvalues)
        assert got.selected == want.selected

    def test_loadings_within_1e_13(self, p, n, k0, r0, r, make):
        panel = make(p, n, r0, r, seed=p + k0)
        oracle = reduced_qr_stack(panel, k0)
        strong = estimate_strong_loadings(panel, k0=k0, r0=r0)
        want_strong = estimate_strong_loadings(oracle, k0=k0, r0=r0)
        np.testing.assert_allclose(strong.matrix, want_strong.matrix, rtol=0, atol=1e-13)
        weak = estimate_weak_loadings(panel, strong, k0=k0, r=r)
        want_weak = estimate_weak_loadings(oracle, want_strong, k0=k0, r=r)
        np.testing.assert_allclose(weak.matrix, want_weak.matrix, rtol=0, atol=1e-13)


class TestLiftAndProject:
    @pytest.mark.parametrize("cols", [1, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_read_only_arguments_unchanged(self, cols, order):
        # a (p, 1) array is both C- and Fortran-ordered as it stands
        panel = factor_panel(40, 16, 1, 2, seed=1)
        basis = lag_stack(panel, 2).basis
        formed = reduced_qr_stack(panel, 2).basis
        rng = np.random.default_rng(cols)
        q = np.array(np.linalg.qr(rng.standard_normal((40, cols)))[0], order=order)
        v = np.array(rng.standard_normal((16, cols)), order=order)
        kept = {}
        for name, arg in (("q", q), ("v", v)):
            arg.setflags(write=False)
            kept[name] = arg.copy()
        projected, lifted = basis.project(q), basis.lift(v)
        np.testing.assert_array_equal(q, kept["q"])
        np.testing.assert_array_equal(v, kept["v"])
        np.testing.assert_allclose(projected, formed.project(q), rtol=0, atol=1e-14)
        np.testing.assert_allclose(lifted, formed.lift(v), rtol=0, atol=1e-14)

    def test_weak_loadings_at_one_strong_factor(self):
        panel = factor_panel(60, 20, 1, 3, seed=43)
        strong = estimate_strong_loadings(panel, k0=3, r0=1)
        assert strong.matrix.flags.f_contiguous and not strong.matrix.flags.writeable
        kept = strong.matrix.copy()
        weak = estimate_weak_loadings(panel, strong, k0=3, r=3)
        np.testing.assert_array_equal(strong.matrix, kept)
        oracle = reduced_qr_stack(panel, 3)
        want = estimate_weak_loadings(oracle, LoadingMatrix(kept), k0=3, r=3)
        np.testing.assert_allclose(weak.matrix, want.matrix, rtol=0, atol=1e-13)

    def test_calls_on_one_basis_from_several_threads(self):
        # the threads race on the basis's first product, which builds its
        # blocks, and then share them; every call must return the product
        # of a lone call on a twin basis
        stack = lag_stack(factor_panel(2000, 24, 1, 2, seed=2), 0)
        basis = HouseholderBasis(stack.basis.reflectors, stack.basis.tau)
        v = np.random.default_rng(2).standard_normal((24, 64))
        want = stack.basis.lift(v)
        mismatches = []

        def work():
            for _ in range(60):
                if not np.array_equal(basis.lift(v), want):
                    mismatches.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert mismatches == []
        assert np.array_equal(basis.lift(v), want)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40), extra=st.integers(1, 80),
       r0=st.integers(1, 2), r=st.integers(1, 3), k0=st.integers(0, 5))
def test_loadings_orthonormal_and_span_the_oracles(seed, n, extra, r0, r, k0):
    panel = factor_panel(n + extra, n, r0, r, seed)
    k0 = min(k0, n - 1)
    strong = estimate_strong_loadings(panel, k0=k0, r0=r0)
    weak = estimate_weak_loadings(panel, strong, k0=k0, r=r)
    for loading in (strong, weak):
        gram = loading.matrix.T @ loading.matrix
        assert np.abs(gram - np.eye(loading.r)).max() <= 1e-12
    assert np.abs(strong.matrix.T @ weak.matrix).max() <= 1e-12
    oracle = reduced_qr_stack(panel, k0)
    want_strong = estimate_strong_loadings(oracle, k0=k0, r0=r0)
    want_weak = estimate_weak_loadings(oracle, want_strong, k0=k0, r=r)
    assert projection_distance(strong.matrix, want_strong.matrix)[0] <= 1e-10
    assert projection_distance(weak.matrix, want_weak.matrix)[0] <= 1e-10
