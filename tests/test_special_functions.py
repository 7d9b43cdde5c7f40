"""The package's own special functions against scipy, which only the tests import.

The Gaussian family computes the Faddeeva function w, erfc, the normal CDF and
its inverse with numpy alone, and the Volterra march picks its FFT lengths
itself; scipy.special and scipy.fft serve here as independent oracles.
"""

import numpy as np
import pytest
from scipy import fft, special

from kuramoto_damping import distributions, volterra
from kuramoto_damping.distributions import Gaussian

_TINY = np.finfo(float).tiny


def _relative_error(value, reference):
    return np.abs(value - reference) / np.abs(reference)


def _weideman_coefficients():
    """Weideman's coefficients of p, constant term first: one FFT of
    exp(-t^2) (L^2 + t^2) at t = L tan(theta / 2)."""
    n, L = distributions._W_TERMS, distributions._W_L
    m = 2 * n
    t = L * np.tan(0.5 * np.pi * np.arange(1 - m, m) / m)
    f = np.concatenate(([0.0], np.exp(-t * t) * (L**2 + t * t)))
    return np.fft.fft(np.fft.fftshift(f)).real[1 : n + 1] / (2 * m)


def test_faddeeva_coefficients_are_weidemans_fft():
    # written out so that no CLI run calls an FFT at import
    assert distributions._W_COEFFS.tobytes() == _weideman_coefficients().tobytes()


@pytest.mark.parametrize(
    "chunk", [1, distributions._W_POWER_POINTS, None], ids=["one", "few", "all"]
)
def test_faddeeva_matches_scipy_over_the_closed_upper_half_plane(chunk):
    # a call on a few points takes another route than one on many
    rng = np.random.default_rng(11)
    radius = 10.0 ** rng.uniform(-8.0, 12.0, 100_000)
    z = np.concatenate([
        radius * np.exp(1j * rng.uniform(0.0, np.pi, radius.size)),
        # near the real axis, where the relative error is largest
        rng.uniform(-12.0, 12.0, 20_000) + 1j * 10.0 ** rng.uniform(-18.0, 0.0, 20_000),
        rng.uniform(-40.0, 40.0, 4_000) + 0j,
        1j * 10.0 ** rng.uniform(-10.0, 12.0, 1_000),
        [0j, 1e12 + 0j, -1e12 + 0j, 1e12j],
    ])
    if chunk == 1:
        z = z[::50]
    pieces = [z] if chunk is None else np.split(z, np.arange(chunk, z.size, chunk))
    w = np.concatenate([distributions._faddeeva(piece) for piece in pieces])
    assert np.max(_relative_error(w, special.wofz(z))) <= 5e-14


@pytest.mark.parametrize("points", [7, 1000, 40_001], ids=["few", "mid", "many"])
def test_faddeeva_real_part_on_the_real_axis_is_the_gaussian(points):
    x = np.linspace(-40.0, 40.0, points)
    w = distributions._faddeeva(x.reshape(-1, 1) + 0j)
    assert w.shape == (points, 1)
    assert np.array_equal(w.real.ravel(), np.exp(-x * x))
    assert np.max(_relative_error(w.imag.ravel()[x != 0], special.wofz(x[x != 0]).imag)) <= 5e-14


def test_faddeeva_continuation_matches_scipy_below_the_real_axis():
    rng = np.random.default_rng(5)
    z = np.concatenate([
        rng.uniform(-6.0, 6.0, 20_000) + 1j * rng.uniform(-5.0, 5.0, 20_000),
        # just below the real axis, where 2 exp(-z^2) and w(-z) nearly cancel in Re w
        rng.uniform(-30.0, 30.0, 2_000) - 1j * 10.0 ** rng.uniform(-18.0, 0.0, 2_000),
    ])
    w = distributions._faddeeva_continued(z, np.zeros(z.shape), -z * z)
    # measured: at most 3.3e-14, the rounding of z^2 in exp(-z^2)
    assert np.max(_relative_error(w, special.wofz(z))) <= 5e-14


def _check_against(value, reference, bound):
    # scipy flushes results below the smallest normal float to zero, while the
    # Faddeeva route keeps subnormal digits; there both only need to be tiny
    normal = reference >= _TINY
    assert np.max(_relative_error(value[normal], reference[normal])) <= bound
    assert np.all(np.abs(value[~normal]) < _TINY)


def test_erfc_matches_scipy():
    x = np.linspace(-38.0, 38.0, 380_001)
    _check_against(distributions._erfc(x), special.erfc(x), 1e-12)
    assert distributions._erfc(0.0) == 1.0
    assert list(distributions._erfc(np.array([-np.inf, np.inf]))) == [2.0, 0.0]


def test_normal_cdf_matches_scipy():
    x = np.linspace(-38.0, 38.0, 380_001)
    _check_against(Gaussian(1.0).cdf(x), special.ndtr(x), 1e-12)


def test_normal_quantile_matches_scipy():
    rng = np.random.default_rng(12)
    tails = 10.0 ** -np.arange(1.0, 308.0)
    p = np.concatenate([
        rng.uniform(0.0, 1.0, 200_000),
        tails,
        1.0 - tails[:15],
        10.0 ** rng.uniform(-320.0, 0.0, 2_000),
        [0.5, 0.075, 0.925, 0.5 - 0.425, 0.5 + 0.425],
    ])
    p = p[(p > 0.0) & (p < 1.0)]
    value, reference = Gaussian(1.0).inverse_cdf(p), special.ndtri(p)
    nonzero = reference != 0.0
    assert np.max(_relative_error(value[nonzero], reference[nonzero])) <= 2e-15
    assert np.all(value[~nonzero] == 0.0)


def test_normal_quantile_at_and_beyond_the_ends():
    value = Gaussian(1.0).inverse_cdf(np.array([0.0, 1.0, -0.5, 1.5, np.nan]))
    assert value[0] == -np.inf and value[1] == np.inf
    assert np.all(np.isnan(value[2:]))


def test_fast_length_matches_scipy():
    n = np.arange(1, 70_001)
    lengths = volterra._smooth_lengths(2 * 70_000)  # as a 70,000-step solve builds them
    ours = np.array([volterra._fast_len(k, lengths) for k in n.tolist()])
    assert np.array_equal(ours, [fft.next_fast_len(k) for k in n.tolist()])
