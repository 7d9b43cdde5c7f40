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


_WIDTH = (blas.REAL_GEMV_ENTRIES - 1) // 8  # columns of an (8, J) chunk


@pytest.mark.parametrize("columns", [1, _WIDTH, _WIDTH + 1, 3 * _WIDTH + 7])
def test_chunked_matvec_is_the_product(columns):
    # the Sobolev amplitudes: squared moduli of k_max = 8 rows against real weights
    rng = np.random.default_rng(columns)
    a = rng.random((8, columns))
    x = rng.normal(size=columns)
    got, ref = blas.matvec(a, x), a @ x
    if a.size < blas.REAL_GEMV_ENTRIES:
        assert got.tobytes() == ref.tobytes()
    else:
        assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * (a @ np.abs(x)))
