"""Fixtures shared by the test modules."""

import pytest

from spectralqm import evolution


@pytest.fixture(params=["fake", "real"])
def blas_threads(request, monkeypatch):
    """A reader of the thread count of every pool that `_single_blas_thread` limits.

    "fake" injects two pools at 2 and 3 threads, so the tests that use it never
    skip; "real" reads the OpenBLAS pools of numpy's and scipy's wheels, and
    skips when none is found (another BLAS build).
    """
    if request.param == "fake":
        counts = [2, 3]
        pools = tuple((lambda i=i: counts[i], lambda n, i=i: counts.__setitem__(i, n))
                      for i in range(len(counts)))
        monkeypatch.setattr(evolution, "_blas_pools", lambda: pools)
    elif not evolution._blas_pools():
        pytest.skip("no OpenBLAS pool exporting scipy_openblas_{get,set}_num_threads "
                    "in numpy's or scipy's wheels")
    return lambda: [get() for get, _ in evolution._blas_pools()]
