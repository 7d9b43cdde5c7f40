"""Dot products kept below OpenBLAS's threading size."""

import numpy as np
import pytest

from kuramoto_damping import blas


@pytest.mark.parametrize("size", [1, blas.DOT_CHUNK, blas.DOT_CHUNK + 1, 3 * blas.DOT_CHUNK + 7])
def test_chunked_dot_is_the_dot(size):
    # real weights against complex coefficients, as the order parameter takes them
    rng = np.random.default_rng(size)
    a = rng.random(size)
    b = rng.normal(size=size) + 1j * rng.normal(size=size)
    got, ref = blas.dot(a, b), np.dot(a, b)
    if size <= blas.DOT_CHUNK:
        assert got.tobytes() == ref.tobytes()
    else:
        assert abs(got - ref) <= 4 * np.finfo(float).eps * np.dot(a, np.abs(b))
