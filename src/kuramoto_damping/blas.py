"""BLAS products small enough to stay on the calling thread.

OpenBLAS hands a product to its worker threads once it passes a fixed size:
a dot of more than ``DOT_CHUNK`` elements, or a complex matrix-vector product
of ``COMPLEX_GEMV_ENTRIES`` or more matrix entries (measured with OpenBLAS
0.3.31).  No product this package makes is worth threading.  A woken worker
spins on a second CPU beside the march, and waking it after an idle spell
stalls the call, so the products are kept below those sizes.  The thread
count and every other BLAS setting of the process are left as the caller set
them.
"""

from __future__ import annotations

import numpy as np

DOT_CHUNK = 10_000
COMPLEX_GEMV_ENTRIES = 4096


def dot(a, b):
    """``np.dot`` of 1-d ``a`` and ``b``, summed over chunks of at most ``DOT_CHUNK``.

    It is ``np.dot`` up to ``DOT_CHUNK`` elements; past that the sum of the
    chunks' dots rounds differently from one dot.
    """
    if a.size <= DOT_CHUNK:
        return np.dot(a, b)
    chunks = range(0, a.size, DOT_CHUNK)
    return sum(np.dot(a[lo : lo + DOT_CHUNK], b[lo : lo + DOT_CHUNK]) for lo in chunks)
