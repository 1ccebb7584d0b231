"""One BLAS thread for the thin QR and the per-lag SVDs of small panels,
and for the products with the QR's reflectors at every size.

Each decomposition is observed from inside: a wrapper around the
``numpy.linalg`` function, or scipy's ``dormqr``, reads the OpenBLAS
thread counts when it is called.  The bound is lowered around small
panels, so no test factorizes a matrix above the real bound.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import factorclust
import factorclust._blas as blas
from factorclust import (
    TimeSeriesPanel,
    cluster_upper_bound,
    cumulative_ratio_sequence,
    estimate_strong_loadings,
    estimate_weak_loadings,
)
from factorclust.factor_count import FactorCountError
from factorclust.panel import lag_stack

from oracles import bundled_openblas

K0 = 2


def panel_of(p, n, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeriesPanel(values=rng.standard_normal((p, n)))


WIDE = panel_of(30, 12)   # p > n: m = 12, thin QR
TALL = panel_of(12, 40)   # p <= n: m = 12, no QR


def spy(monkeypatch, name, getter, fail=False):
    """Replace ``np.linalg.<name>`` by a wrapper that records the thread
    count at each call, and raises ``LinAlgError`` when ``fail`` is set."""
    seen = []
    original = getattr(np.linalg, name)

    def wrapper(*args, **kwargs):
        seen.append(getter())
        if fail:
            raise np.linalg.LinAlgError("synthetic failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, wrapper)
    return seen


# m = 12 at the bound runs on one thread, one above it on the caller's two
AT_AND_ABOVE = pytest.mark.parametrize("bound, threads", [(12, 1), (11, 2)])


class TestSmallPanelRule:
    def test_default_bound(self):
        assert blas.ONE_THREAD_MAX_DIM == 512

    @AT_AND_ABOVE
    def test_thin_qr(self, monkeypatch, caller_on_two_blas_threads, bound, threads):
        getter = caller_on_two_blas_threads
        monkeypatch.setattr(blas, "ONE_THREAD_MAX_DIM", bound)
        seen = spy(monkeypatch, "qr", getter)
        lag_stack(WIDE, K0)
        assert seen == [threads]
        assert getter() == 2

    @AT_AND_ABOVE
    @pytest.mark.parametrize("panel", [WIDE, TALL], ids=["wide", "tall"])
    def test_per_lag_svds(self, monkeypatch, caller_on_two_blas_threads, bound,
                          threads, panel):
        getter = caller_on_two_blas_threads
        monkeypatch.setattr(blas, "ONE_THREAD_MAX_DIM", bound)
        seen = spy(monkeypatch, "svd", getter)
        cumulative_ratio_sequence(panel, k0=K0)
        # one stacked call over the K0 + 1 lags
        assert seen == [threads]
        assert getter() == 2

    def test_lag_products_and_loadings_keep_callers_threads(
            self, monkeypatch, caller_on_two_blas_threads):
        getter = caller_on_two_blas_threads
        stack = lag_stack(WIDE, K0)
        seen = spy(monkeypatch, "eigh", getter)
        strong = estimate_strong_loadings(stack, k0=K0, r0=1)
        estimate_weak_loadings(stack, strong, k0=K0, r=2)
        assert seen and set(seen) == {2}

    def test_count_restored_after_svd_failure(self, monkeypatch,
                                              caller_on_two_blas_threads):
        getter = caller_on_two_blas_threads
        seen = spy(monkeypatch, "svd", getter, fail=True)
        with pytest.raises(FactorCountError, match="lag 0"):
            cumulative_ratio_sequence(TALL, k0=K0)
        # the stacked call, then lag 0 on its own to name it; both pinned
        assert seen == [1, 1]
        assert getter() == 2

    def test_count_restored_after_qr_failure(self, monkeypatch,
                                             caller_on_two_blas_threads):
        getter = caller_on_two_blas_threads
        seen = spy(monkeypatch, "qr", getter, fail=True)
        with pytest.raises(np.linalg.LinAlgError):
            lag_stack(WIDE, K0)
        assert seen == [1]
        assert getter() == 2


@pytest.fixture()
def both_builds_on_two_threads(monkeypatch, caller_on_two_blas_threads):
    """Getters of numpy's and scipy's OpenBLAS builds, both at 2 threads for
    the test, with the builds looked for afresh at the first pin."""
    import scipy.linalg.lapack  # noqa: F401 - loads scipy's build

    controls = bundled_openblas("scipy")
    if controls is None:
        pytest.skip("scipy does not bundle a scipy-openblas build")
    setter, getter = controls
    before = getter()
    setter(2)
    monkeypatch.setattr(blas, "_builds", None)
    monkeypatch.setattr(blas, "_rescanned", False)
    try:
        if getter() != 2:
            pytest.skip("OpenBLAS cannot run two threads here")
        yield caller_on_two_blas_threads, getter
    finally:
        setter(before)


def spy_ormqr(monkeypatch, getters, fail=False):
    """Replace scipy's ``dormqr`` by a wrapper that records the thread
    counts of ``getters`` at each call, and raises when ``fail`` is set."""
    import scipy.linalg.lapack

    seen = []
    original = scipy.linalg.lapack.dormqr

    def wrapper(*args, **kwargs):
        seen.append(tuple(getter() for getter in getters))
        if fail:
            raise RuntimeError("synthetic failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dormqr", wrapper)
    return seen


class TestReflectorProducts:
    # one thread at any size: the bound is lowered below n = 12 as well
    @pytest.mark.parametrize("bound", [12, 11])
    def test_every_build_pinned(self, monkeypatch, both_builds_on_two_threads, bound):
        getters = both_builds_on_two_threads
        basis = lag_stack(WIDE, K0).basis
        monkeypatch.setattr(blas, "ONE_THREAD_MAX_DIM", bound)
        seen = spy_ormqr(monkeypatch, getters)
        basis.project(basis.lift(np.eye(WIDE.n)))
        assert seen == [(1, 1)] * 2
        assert [getter() for getter in getters] == [2, 2]

    def test_counts_restored_after_a_failure(self, monkeypatch, both_builds_on_two_threads):
        getters = both_builds_on_two_threads
        basis = lag_stack(WIDE, K0).basis
        with monkeypatch.context() as patch:
            seen = spy_ormqr(patch, getters, fail=True)
            with pytest.raises(RuntimeError, match="synthetic failure"):
                basis.lift(np.eye(WIDE.n))
        assert seen == [(1, 1)]
        assert [getter() for getter in getters] == [2, 2]
        # the basis's lock was released
        assert basis.lift(np.eye(WIDE.n)).shape == (WIDE.p, WIDE.n)


def test_lookup_runs_once_per_process(monkeypatch):
    # one scan at the first pin, one more at the first Lanczos call, which
    # may have loaded scipy's build; none after
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    rng = np.random.default_rng(3)
    lanczos_sized = np.linalg.qr(rng.standard_normal((600, 8)))[0]
    monkeypatch.setattr(blas, "_builds", None)
    monkeypatch.setattr(blas, "_rescanned", False)
    monkeypatch.setattr(blas, "open", counting_open, raising=False)
    for _ in range(3):
        cumulative_ratio_sequence(WIDE, k0=K0)
    assert opened == ["/proc/self/maps"]
    for _ in range(2):
        cluster_upper_bound(lanczos_sized, 250)
        cumulative_ratio_sequence(WIDE, k0=K0)
    assert opened == ["/proc/self/maps"] * 2
    found = blas._openblas_thread_controls()
    monkeypatch.setattr(blas, "_builds", None)
    assert len(found) == len(blas._openblas_thread_controls())


class TestOverlappingBodies:
    def test_count_restored_when_the_last_body_exits(self, caller_on_two_blas_threads):
        getter = caller_on_two_blas_threads
        first, second = blas._one_blas_thread(), blas._one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert getter() == 1
        second.__exit__(None, None, None)
        assert getter() == 2

    def test_python_threads_share_the_setting(self, monkeypatch,
                                              caller_on_two_blas_threads):
        # more Python threads than cores, switching often: a body that
        # saved another body's one-thread setting would restore it last
        getter = caller_on_two_blas_threads
        seen = spy(monkeypatch, "svd", getter)
        panel = panel_of(60, 200)
        errors = []

        def work():
            try:
                for _ in range(20):
                    cumulative_ratio_sequence(panel, k0=K0)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert len(seen) == 4 * 20 and set(seen) == {1}
        assert getter() == 2

    def test_fork_waits_for_a_lock_held_elsewhere(self):
        # a child forked while another thread held the lock would block
        # on its first body forever
        def enter_one_body():
            with blas._one_blas_thread():
                pass

        blas._lock.acquire()
        release = threading.Timer(0.2, blas._lock.release)
        release.start()
        child = multiprocessing.get_context("fork").Process(target=enter_one_body)
        try:
            child.start()
            child.join(timeout=60)
        finally:
            release.join()
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0


# Counts of numpy's and scipy's OpenBLAS builds (None while not loaded),
# read in a fresh process at OPENBLAS_NUM_THREADS=2: after the package
# import, in children forked inside a pin, inside the pin after a Lanczos
# call, and after the pin.  With argument "label-matching", scipy is first
# loaded inside the pin by the label matching, which needs no BLAS.
PINNED_SCRIPT = """
import json, os, sys

import numpy as np

from factorclust import _blas, cluster_upper_bound, misclassification_count
from oracles import bundled_openblas


def counts():
    found = {pkg: bundled_openblas(pkg) for pkg in ("numpy", "scipy")}
    return {pkg: None if c is None else c[1]() for pkg, c in found.items()}


def in_child(work):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            work()
            os.write(write, json.dumps(counts()).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    return json.loads(text or "null")


b = np.linalg.qr(np.random.default_rng(3).standard_normal((600, 8)))[0]
out = {"scipy_modules": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
       "before": counts()}
with _blas._one_blas_thread():
    if sys.argv[1] == "label-matching":
        misclassification_count([0, 1, 1], [1, 0, 0])
    out["before_lanczos"] = counts()
    out["child_lanczos"] = in_child(lambda: cluster_upper_bound(b, 250))
    cluster_upper_bound(b, 250)
    out["inside"] = counts()
    out["child_after_lanczos"] = in_child(lambda: None)
out["after"] = counts()
print(json.dumps(out))
"""


@pytest.mark.parametrize("first_import", ["lanczos", "label-matching"])
def test_scipy_build_pinned_when_loaded_late(first_import):
    src = Path(factorclust.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    done = subprocess.run([sys.executable, "-c", PINNED_SCRIPT, first_import],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    if out["before"]["numpy"] != 2:
        pytest.skip("numpy's scipy-openblas build cannot run two threads here")
    assert out["scipy_modules"] == []
    assert out["before"] == {"numpy": 2, "scipy": None}
    # the label matching loads scipy's build and leaves it on two threads
    scipy_before = None if first_import == "lanczos" else 2
    assert out["before_lanczos"] == {"numpy": 1, "scipy": scipy_before}
    pinned = {"numpy": 1, "scipy": 1}
    assert out["child_lanczos"] == pinned
    assert out["inside"] == pinned
    assert out["child_after_lanczos"] == pinned
    assert out["after"] == {"numpy": 2, "scipy": 2}


# Counts of numpy's and scipy's OpenBLAS builds in a fresh process at
# OPENBLAS_NUM_THREADS=2: scipy is loaded after the QR's pin has scanned
# for builds, and the first reflector product must still pin its build.
LATE_SCIPY_SCRIPT = """
import json

import numpy as np

from factorclust import TimeSeriesPanel
from factorclust.panel import lag_stack
from oracles import bundled_openblas


def counts():
    found = {pkg: bundled_openblas(pkg) for pkg in ("numpy", "scipy")}
    return {pkg: None if c is None else c[1]() for pkg, c in found.items()}


panel = TimeSeriesPanel(values=np.random.default_rng(0).standard_normal((30, 12)))
basis = lag_stack(panel, 2).basis
import scipy.linalg.lapack

seen = []
original = scipy.linalg.lapack.dormqr


def spy(*args, **kwargs):
    seen.append(counts())
    return original(*args, **kwargs)


scipy.linalg.lapack.dormqr = spy
before = counts()
basis.lift(np.eye(12))
print(json.dumps({"before": before, "inside": seen, "after": counts()}))
"""


def test_scipy_build_loaded_after_the_first_scan_is_pinned():
    src = Path(factorclust.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    done = subprocess.run([sys.executable, "-c", LATE_SCIPY_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    if out["before"]["numpy"] != 2:
        pytest.skip("numpy's scipy-openblas build cannot run two threads here")
    assert out["before"] == {"numpy": 2, "scipy": 2}
    assert out["inside"] == [{"numpy": 1, "scipy": 1}]
    assert out["after"] == {"numpy": 2, "scipy": 2}
