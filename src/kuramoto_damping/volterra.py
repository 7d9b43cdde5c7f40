"""Second-kind memory-kernel equation for the linearized order parameter.

Solves R(t) = F(t) + int_0^t G(t-s) R(s) ds on a uniform grid by product-
trapezoidal marching: the diagonal term is implicit, global accuracy O(dt^2),
unconditionally stable for decaying kernels.

The history sums are built by the recursive FFT blocks of Hairer, Lubich and
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985): N steps cost O(N log^2 N)
instead of the O(N^2) of one dot product per step.  Each block's FFT product is
exponentially tilted when |R| decays, so its rounding error follows |R| down
the tail rather than sitting at eps * max|R|.  At the bottom of the recursion
a leaf of at most ``_LEAF`` steps is a lower-triangular Toeplitz system, solved
by a product with its inverse, which is built once per solve; a complex
inverse acts by two real products, which keep BLAS's threads asleep.

For the oscillator ensemble the kernel is G(t) = (K/2) ghat(t) and the source
F(t) is the free-transport image of the initial first mode (the nonlinear
feedback term is handled by the mode simulation, not here).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy loads np.fft on first use; load it with the package instead

from . import blas
from .dispersion import DispersionRelation, find_unstable_root
from .exceptions import (
    BlowupDetected, RootNotConverged, StepSolveFailure, WindowTooNoisy
)

__all__ = [
    "VolterraProblem",
    "VolterraSolution",
    "DecayFit",
    "solve",
    "kuramoto_kernel",
    "fit_decay",
    "instability_witness",
]

# The 8-point Gauss-Legendre rule on [-1, 1], bitwise as numpy's leggauss(8)
# gives it, mirrored from its positive half as leggauss symmetrises its output.
_GL8_HALF_NODES = np.array(
    [0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362]
)
_GL8_HALF_WEIGHTS = np.array(
    [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]
)
_GL8_NODES = np.concatenate((-_GL8_HALF_NODES[::-1], _GL8_HALF_NODES))
_GL8_WEIGHTS = np.concatenate((_GL8_HALF_WEIGHTS[::-1], _GL8_HALF_WEIGHTS))
_LEAF = 128  # steps solved by one matrix-vector product at the bottom of the recursion
_MAX_TILT = 200.0  # cap on tilt rate x block length: e^200 is far from overflow
# fit_decay leaves out |R| <= _NOISE_FLOOR and accepts RMS residuals up to _RESIDUAL_TOL.
_NOISE_FLOOR, _RESIDUAL_TOL = 1e-14, 0.5
#: Most steps round(horizon / time_step) a problem may have: about 1 GB of work arrays.
MAX_STEPS = 10**7


def _smooth_lengths(limit):
    """Sorted 2^a 3^b 5^c 7^d 11^e <= limit: the lengths pocketfft transforms fastest."""
    lengths = np.ones(1, dtype=np.int64)
    for prime in (2, 3, 5, 7, 11):
        powers = prime ** np.arange(int(np.log(limit) / np.log(prime)) + 1, dtype=np.int64)
        lengths = np.multiply.outer(lengths, powers).ravel()
        lengths = lengths[lengths <= limit]
    return np.sort(lengths).tolist()


def _fast_len(n, lengths):
    """The smallest 11-smooth length >= n, from ``lengths = _smooth_lengths(limit)``
    with limit >= 2 n, which holds a power of two at or above n."""
    return lengths[bisect.bisect_left(lengths, n)]


@dataclass
class VolterraProblem:
    """One marching problem: kernel G, source F, uniform grid parameters."""

    kernel: object  # callable t -> complex, vectorized over arrays
    source: object  # callable t -> complex, vectorized over arrays
    time_step: float
    horizon: float

    def __post_init__(self):
        if not 0 < self.time_step <= self.horizon:
            raise ValueError(
                f"need 0 < time_step <= horizon, got dt={self.time_step}, T={self.horizon}"
            )
        steps = round(self.horizon / self.time_step)
        if steps > MAX_STEPS:
            raise ValueError(f"horizon / time_step gives {steps} steps, more than {MAX_STEPS}")


@dataclass
class VolterraSolution:
    """Solution samples on the uniform grid; R(0) equals F(0) exactly.

    ``source`` holds the samples of F on the same grid when ``solve`` made them.
    Both are float arrays when the kernel and the source are real on the grid.
    """

    times: np.ndarray
    values: np.ndarray
    source: np.ndarray | None = None


def _sample(func, times):
    """Values of a vectorised callable on ``times``: float unless some value is
    not real.  Any other shape is an error."""
    out = np.asarray(func(times))
    if out.shape != times.shape:
        raise ValueError(f"callable must be vectorised: shape {out.shape} for times {times.shape}")
    if np.iscomplexobj(out) and out.imag.any():
        return out.astype(complex, copy=False)
    # a copy of a complex array's real part: a view would keep the complex array alive
    return out.real.astype(float, copy=not np.isrealobj(out))


def _tilt(x, g):
    """Factors e^{am}, m < g.size, of the exponential tilt of the product x * g.

    The rounding error of an FFT product is about eps ||x|| ||g|| in every
    entry, which on a decaying x swamps the small late entries.  When |x|
    decays at mean rate a per sample (from its peak to its last quarter),
    x_m -> x_m e^{am}, g_m -> g_m e^{am} and entry n -> entry n e^{-an} leave
    the exact product unchanged and scale each entry's error with its size.
    The tilt is dropped (a = 0) if it would raise the error bound of the first
    entry used, e^{-a(x.size-1)} ||x e^{am}|| ||g e^{am}||, as a kernel that
    decays more slowly than x does.  The norms are chunked dots: the top
    blocks of a long march pass ``blas.DOT_CHUNK``, where one dot would wake
    BLAS's threads.
    """
    x_abs, g_abs = np.abs(x), np.abs(g)
    quarter = max(1, x.size // 4)
    head, tail = x_abs.max(), x_abs[-quarter:].max()
    rate = 0.0
    if head > tail:
        with np.errstate(divide="ignore"):
            rate = min(np.log(head / tail) / (x.size - quarter), _MAX_TILT / g.size)
    up = np.exp(rate * np.arange(g.size))
    x_up, g_up = x_abs * up[: x.size], g_abs * up
    tilted = blas.dot(x_up, x_up) * blas.dot(g_up, g_up)
    if tilted > blas.dot(x_abs, x_abs) * blas.dot(g_abs, g_abs) * up[x.size - 1] ** 2:
        return np.ones(g.size)
    return up


def _block_product(x, g, lengths):
    """Entries x.size-1 .. g.size-1 of the linear convolution of x and g.

    One tilted FFT product of length g.size, rounded up to the 11-smooth
    ``_fast_len(g.size, lengths)``; its wrap-around lands only on earlier
    entries.  Real x and g take the real-input transforms, at half the work,
    and give a real product, as a direct sum would.
    """
    up = _tilt(x, g)
    size = _fast_len(g.size, lengths)
    if any(np.iscomplexobj(a) and a.imag.any() for a in (x, g)):
        prod = np.fft.ifft(np.fft.fft(x * up[: x.size], size) * np.fft.fft(g * up, size))
    else:
        spectrum = np.fft.rfft(x.real * up[: x.size], size) * np.fft.rfft(g.real * up, size)
        prod = np.fft.irfft(spectrum, size)
    return prod[x.size - 1 : g.size] / up[x.size - 1 :]


def _leaf_inverse(G, dt, denom, size):
    """Inverse of the leaf matrix A[i, j] = denom (i = j), -dt G[i-j] (i > j), 0 (i < j).

    A is lower-triangular Toeplitz, so its inverse is too: the matrix of the
    first column c, found by forward substitution (A c = e_0).  Its leading
    n x n block inverts the leaf of n < size steps.  Real G and denom give a
    real inverse.
    """
    c = np.zeros(size, dtype=G.dtype)
    c[0] = 1.0 / denom
    scaled = (dt / denom) * G[1:size]
    for m in range(1, size):
        c[m] = np.dot(scaled[:m], c[m - 1 :: -1])
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    return np.where(lag >= 0, c[np.maximum(lag, 0)], 0.0)


def solve(problem):
    """March the product-trapezoidal scheme over the grid.

    R_j = [F_j + dt (G_j R_0 / 2 + sum_{0<i<j} G_{j-i} R_i)] / (1 - dt G_0 / 2)

    The steps are split in halves recursively.  Once a left half is solved,
    its whole contribution to the sums of the right half is added to the
    history by one FFT product (``_block_product``).  What is left in a block
    of n <= ``_LEAF`` steps lo..hi-1 is the lower-triangular Toeplitz system

        denom R_j - dt sum_{lo<=i<j} G_{j-i} R_i = F_j + dt history_j,

    solved at once as R[lo:hi] = inv[:n, :n] @ (F + dt history)[lo:hi], with
    ``inv`` from ``_leaf_inverse``.  The products are real: a complex inverse
    acts by its real and imaginary parts on the (re, im) pairs of the right
    side, since one complex product of ``_LEAF``^2 entries would wake BLAS's
    threads (``blas.COMPLEX_GEMV_ENTRIES``).  N steps take O(N log^2 N)
    work.  Against the one-dot-product-per-step march the values differ by
    rounding only: about 1e-15 max|R| in absolute terms, and, where |R|
    decays, a pointwise relative difference that stays near rounding down the
    tail.  A real kernel and a real source are marched in float arrays and
    give a float R.

    Raises BlowupDetected when the kernel or the source is not finite on the
    grid (for instance a growing source that overflows).
    """
    dt = problem.time_step
    steps = int(round(problem.horizon / dt))
    times = dt * np.arange(steps + 1)
    G = _sample(problem.kernel, times)
    F = _sample(problem.source, times)
    if not (np.isfinite(G).all() and np.isfinite(F).all()):
        raise BlowupDetected("kernel or source not finite on the grid")
    F = F.astype(np.result_type(G, F), copy=False)

    denom = 1.0 - 0.5 * dt * G[0]
    if abs(denom) < 1e-12:
        raise StepSolveFailure(f"implicit diagonal factor 1 - dt G(0)/2 = {denom} is singular")

    inv = _leaf_inverse(G, dt, denom, min(_LEAF, steps))
    # a block product has fewer than steps entries, and 2 steps holds a power of two above that
    lengths = _smooth_lengths(2 * steps)
    inv_re, inv_im = (inv.real.copy(), inv.imag.copy()) if np.iscomplexobj(inv) else (inv, None)
    R = np.zeros_like(F)
    R[0] = F[0]
    history = 0.5 * R[0] * G  # history[j]: the part of step j's sum known so far

    def leaf(lo, hi):
        n = hi - lo
        rhs = F[lo:hi] + dt * history[lo:hi]
        if np.isrealobj(rhs):
            # a zero imaginary column keeps the product's rounding that of the
            # (re, im) pairs below; a matrix-vector product rounds otherwise
            pairs = np.zeros((n, 2))
            pairs[:, 0] = rhs
            R[lo:hi] = (inv_re[:n, :n] @ pairs)[:, 0]
            return
        pairs = rhs.view(float).reshape(-1, 2)
        out = inv_re[:n, :n] @ pairs
        if inv_im is not None:
            # (A + iB)(x + iy) = (Ax - By) + i(Ay + Bx)
            turned = inv_im[:n, :n] @ pairs
            out[:, 0] -= turned[:, 1]
            out[:, 1] += turned[:, 0]
        R.view(float).reshape(-1, 2)[lo:hi] = out

    def march(lo, hi):
        n = hi - lo
        if n <= _LEAF:
            leaf(lo, hi)
            return
        mid = (lo + hi) // 2
        march(lo, mid)
        history[mid:hi] += _block_product(R[lo:mid], G[1:n], lengths)
        march(mid, hi)

    march(1, steps + 1)
    return VolterraSolution(times=times, values=R, source=F)


def kuramoto_kernel(dist, coupling):
    """Memory kernel t -> (K/2) ghat(t) of the linearized dynamics."""
    if coupling < 0:
        raise ValueError(f"coupling must be nonnegative, got {coupling}")

    def kernel(t):
        values = dist.fourier_transform(t)
        values *= 0.5 * coupling
        return values

    return kernel


@dataclass
class DecayFit:
    """Least-squares power-law fit of |R| on a log-log window."""

    exponent: float
    amplitude: float
    window: tuple
    residual: float  # RMS of log-log residuals; never hidden


def fit_decay(solution, window):
    """Fit |R(t)| ~ A (1+t)^(-p) on ``window`` = (t_a, t_b) by log-log least squares.

    The regressor log(1+t) matches the weighted-sup convention, so a synthetic
    (1+t)^(-p) recovers p exactly.  Raises WindowTooNoisy (carrying the fit)
    when the RMS log-log residual exceeds ``_RESIDUAL_TOL``, the contract for
    non-power-law decay.
    """
    t_a, t_b = window
    mask = (solution.times >= t_a) & (solution.times <= t_b) & (solution.times > 0)
    mask &= np.abs(solution.values) > _NOISE_FLOOR
    if mask.sum() < 4:
        raise WindowTooNoisy(f"fewer than 4 usable samples in window {window}", fit=None)
    logt = np.log1p(solution.times[mask])
    logr = np.log(np.abs(solution.values[mask]))
    slope, intercept = np.polyfit(logt, logr, 1)
    resid = logr - (slope * logt + intercept)
    fit = DecayFit(
        exponent=float(-slope),
        amplitude=float(np.exp(intercept)),
        window=(float(t_a), float(t_b)),
        residual=float(np.sqrt(np.mean(resid**2))),
    )
    if fit.residual > _RESIDUAL_TOL:
        raise WindowTooNoisy(
            f"log-log residual {fit.residual:.3f} exceeds {_RESIDUAL_TOL}", fit=fit
        )
    return fit


def _cumulative_transform(kernel, omega0, times):
    """I(t_j) = int_0^{t_j} G(u) exp(-i omega0 u) du by per-interval Gauss rule."""
    out = np.zeros(times.size, dtype=complex)
    if times.size < 2:
        return out
    a = times[:-1]
    b = times[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u = mid[:, None] + half[:, None] * _GL8_NODES[None, :]
    w = half[:, None] * _GL8_WEIGHTS[None, :]
    vals = np.asarray(kernel(u.ravel()), dtype=complex).reshape(u.shape)
    vals *= np.exp(-1j * omega0 * u)
    out[1:] = np.cumsum(np.sum(w * vals, axis=1))
    return out


def instability_witness(dist, coupling, amplitude):
    """Source that turns a lower-half-plane root into pure exponential growth.

    At a root omega0 of the dispersion function, F(t) = A int_0^inf
    G(t+s) exp(-i omega0 s) ds makes R(t) = A exp(i omega0 t) the exact
    solution, growing at rate -Im(omega0) > 0.  Using D(omega0) = 0 the source
    reduces to A exp(i omega0 t) (1 - int_0^t G(u) exp(-i omega0 u) du), which
    needs only a finite integral.

    Returns (source callable, predicted growth rate).  The source takes an
    increasing array of times from t = 0, the grid ``solve`` samples it on:
    the integral accumulates interval by interval along that array.
    """
    if amplitude == 0:
        raise ValueError("witness amplitude must be nonzero")
    relation = DispersionRelation(dist, coupling)
    omega0 = find_unstable_root(relation)
    if omega0 is None:
        raise RootNotConverged(
            f"no unstable root at coupling {coupling}; witness needs an unstable kernel"
        )
    kernel = kuramoto_kernel(dist, coupling)

    def source(t):
        cum = _cumulative_transform(kernel, omega0, t)
        return amplitude * np.exp(1j * omega0 * t) * (1.0 - cum)

    return source, float(-omega0.imag)
