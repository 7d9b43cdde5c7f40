"""BLAS products small enough to stay on the calling thread.

OpenBLAS hands a product to its worker threads once it passes a fixed size:
a dot of more than ``DOT_CHUNK`` elements, a complex matrix-vector product
of ``COMPLEX_GEMV_ENTRIES`` or more matrix entries, or a real one of
``REAL_GEMV_ENTRIES`` or more (measured with OpenBLAS 0.3.31).  No product
this package makes is worth threading.  A woken worker spins on a second CPU
beside the march, and waking it after an idle spell stalls the call, so the
products are kept below those sizes.  The thread count and every other BLAS
setting of the process are left as the caller set them.
"""

from __future__ import annotations

import numpy as np

DOT_CHUNK = 10_000
COMPLEX_GEMV_ENTRIES = 4096
REAL_GEMV_ENTRIES = 460_800


def dot(a, b):
    """``np.dot`` of 1-d ``a`` and ``b``, summed over chunks of at most ``DOT_CHUNK``.

    It is ``np.dot`` up to ``DOT_CHUNK`` elements; past that the sum of the
    chunks' dots rounds differently from one dot.
    """
    if a.size <= DOT_CHUNK:
        return np.dot(a, b)
    chunks = range(0, a.size, DOT_CHUNK)
    return sum(np.dot(a[lo : lo + DOT_CHUNK], b[lo : lo + DOT_CHUNK]) for lo in chunks)


def matvec(a, x):
    """``a @ x`` for a real 2-d ``a``, summed over column chunks below ``REAL_GEMV_ENTRIES``.

    It is ``a @ x`` below ``REAL_GEMV_ENTRIES`` entries; past that the sum of
    the chunks' products rounds differently from one product.
    """
    if a.size < REAL_GEMV_ENTRIES:
        return a @ x
    width = max(1, (REAL_GEMV_ENTRIES - 1) // a.shape[0])
    chunks = range(0, a.shape[1], width)
    return sum(a[:, lo : lo + width] @ x[lo : lo + width] for lo in chunks)
