"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import plummer, uniform_cube


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def plummer_small():
    """A small highly non-uniform cloud (shared, read-only)."""
    return plummer(1500, seed=7)


@pytest.fixture(scope="session")
def uniform_small():
    """A small uniform cloud (shared, read-only)."""
    return uniform_cube(1500, seed=8)


@pytest.fixture
def native_p2p():
    """The compiled P2P kernel, or a skip where no compiler resolves."""
    from repro.kernels import _native

    if _native.library() is None:
        pytest.skip("no C compiler resolves here: the compiled P2P kernel cannot be built")


@pytest.fixture(params=["native", "numpy"])
def p2p_impl(request, monkeypatch):
    """Run the test under each body of ``LaplaceKernel.pairwise``: the
    compiled loop (skipped where no compiler resolves) and the NumPy
    fallback (the loader's resolved handle patched to ``None``)."""
    from repro.kernels import _native

    if request.param == "numpy":
        monkeypatch.setattr(_native, "_library", None)
    else:
        request.getfixturevalue("native_p2p")
    return request.param
