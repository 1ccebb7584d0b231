import threading
import time

import pytest

from oracles import numpy_openblas

# how long a thread that a test started may take to finish after the test
THREAD_GRACE_S = 5.0


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread it started alive: a hung helper
    thread would keep the process from exiting."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_GRACE_S
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    left = [t.name for t in set(threading.enumerate()) - before if t.is_alive()]
    assert not left, f"threads left running: {left}"


@pytest.fixture()
def caller_on_two_blas_threads():
    """numpy's OpenBLAS getter, with the caller's count set to 2 for the test."""
    controls = numpy_openblas()
    if controls is None:
        pytest.skip("numpy does not bundle a scipy-openblas build")
    setter, getter = controls
    before = getter()
    setter(2)
    try:
        if getter() != 2:
            pytest.skip("OpenBLAS cannot run two threads here")
        yield getter
    finally:
        setter(before)
