import pytest

from oracles import numpy_openblas


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
