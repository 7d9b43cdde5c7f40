"""The free-transport image of a first-mode profile on a frequency grid.

``linear`` takes its mode source from the continuum closed forms of the
frequency families.  The grid sum below is what the mode simulation sees on
the same grid; the tests keep it as a reference for the grid route and check
the closed forms against it where the grid is accurate.
"""

import numpy as np

_PHASE_BLOCK = 128  # offset rows, and anchor columns built at once


def mode_input_from_grid(grid, profile, time_step):
    """Discrete transform of an initial first-mode profile h(omega).

    Returns F with F(t) = sum_j a_j exp(-i t omega_j), a_j = w_j h(omega_j),
    the exact source seen by the mode simulation on the same grid.  F is
    defined on the multiples t = m * time_step only: for each requested t,
    m = rint(t / time_step) must give m * time_step == t exactly, or F raises
    ValueError.  Nothing is rounded silently.

    With dt = time_step and m = qB + k, 0 <= k < B = ``_PHASE_BLOCK``, the
    phase factors split:

        F(t_m) = sum_j exp(-i omega_j k dt) [a_j exp(-i omega_j qB dt)],

    so F at all requested times is one matrix product of a B x J table of
    offsets, built once, with J anchors per distinct q.  M times on a
    contiguous range cost J (B + M/B) complex exponentials instead of J M.
    The anchors are built ``_PHASE_BLOCK`` columns at a time, so memory stays
    O(J B) however many times are asked for.
    """
    amps = grid.weights * np.asarray(profile(grid.nodes), dtype=complex)
    rates = -1j * grid.nodes
    offsets = np.multiply.outer(time_step * np.arange(_PHASE_BLOCK), rates)
    np.exp(offsets, out=offsets)

    def source(t):
        t = np.asarray(t, dtype=float)
        steps = np.rint(t / time_step)
        if not (np.all(np.abs(steps) < 2.0**53) and np.array_equal(steps * time_step, t)):
            raise ValueError(f"mode source is defined on multiples of time_step {time_step} only")
        block, rows = np.divmod(steps.astype(np.int64).ravel(), _PHASE_BLOCK)
        blocks, cols = np.unique(block, return_inverse=True)
        # indices of the requested times, grouped by chunk of anchor columns
        order = np.argsort(cols, kind="stable")
        los = range(0, blocks.size, _PHASE_BLOCK)
        groups = np.split(order, np.searchsorted(cols[order], los[1:]))
        out = np.empty(rows.size, dtype=complex)
        for lo, idx in zip(los, groups):
            anchor_times = (_PHASE_BLOCK * blocks[lo : lo + _PHASE_BLOCK]) * time_step
            anchors = np.multiply.outer(rates, anchor_times)
            np.exp(anchors, out=anchors)
            anchors *= amps[:, None]
            table = offsets @ anchors  # table[k, c]: F at t = anchor_times[c] + k dt
            out[idx] = table[rows[idx], cols[idx] - lo]
        return out.reshape(t.shape)

    return source
