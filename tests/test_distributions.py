"""Tests for the frequency-density module."""

import math

import mpmath
import numpy as np
import pytest

from kuramoto_damping import distributions, volterra
from kuramoto_damping.dispersion import DispersionRelation, l1_sufficient_check
from kuramoto_damping.distributions import (
    Cauchy,
    FrequencyDistribution,
    Gaussian,
    Mixture,
    _gauss_kronrod,
    bi_cauchy,
    build_grid,
    distribution_from_config,
    fourier_moment,
)
from kuramoto_damping.exceptions import Divergent
from scipy import special

from conftest import fourier_oracle, profile_source_oracle
from density_oracles import density_derivative, sobolev_norm
from grid_source import mode_input_from_grid

ALL_FAMILIES = [
    Cauchy(1.0),
    Cauchy(0.5, 1.3),
    Gaussian(1.0),
    Gaussian(2.0, -0.7),
    bi_cauchy(1.0, 2.0),
    Mixture((0.3, 0.7), (Cauchy(0.8, -1.0), Gaussian(1.5, 0.4))),
]


# ---------------------------------------------------------------------------
# density


def test_cauchy_density_at_center():
    assert Cauchy(1.0).density(0.0) == pytest.approx(1.0 / np.pi, abs=1e-15)


def test_gaussian_density_at_center():
    assert Gaussian(1.0).density(0.0) == pytest.approx(1.0 / math.sqrt(2 * np.pi), abs=1e-15)


def test_two_bump_density_at_origin():
    # both components contribute 1/(5 pi) at omega = 0
    assert bi_cauchy(1.0, 2.0).density(0.0) == pytest.approx(1.0 / (5 * np.pi), abs=1e-15)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_density_normalizes(dist):
    grid = build_grid(dist, 1024, 1.0 - 1e-8)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-7)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Cauchy(-1.0)
    with pytest.raises(ValueError):
        Gaussian(0.0)
    with pytest.raises(ValueError):
        Mixture((0.5, 0.6), (Cauchy(1.0), Cauchy(2.0)))
    with pytest.raises(ValueError):
        Mixture((0.5, 0.5), (Cauchy(1.0), bi_cauchy(1.0, 1.0)))


# ---------------------------------------------------------------------------
# derivatives


def test_cauchy_first_derivative_vanishes_at_center():
    assert density_derivative(Cauchy(1.0), 0.0, 1) == pytest.approx(0.0, abs=1e-15)


def test_gaussian_second_derivative_at_center():
    val = density_derivative(Gaussian(1.0), 0.0, 2)
    assert val == pytest.approx(-1.0 / math.sqrt(2 * np.pi), abs=1e-12)
    # independent oracle: central finite difference at step 1e-4
    h = 1e-4
    g = Gaussian(1.0)
    fd = (g.density(h) - 2 * g.density(0.0) + g.density(-h)) / h**2
    assert val == pytest.approx(fd, abs=1e-6)


def test_two_bump_first_derivative_vanishes_at_origin():
    assert density_derivative(bi_cauchy(1.0, 2.0), 0.0, 1) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivatives_match_finite_differences(dist, order):
    pts = np.array([-2.3, -0.4, 0.0, 0.9, 3.1])
    h = 0.01 * dist.location_hints()[1]
    stencil = np.arange(-4, 5)
    for w in pts:
        vals = dist.density(w + stencil * h)
        # 9-point central finite-difference weights for the requested order
        A = np.vander(stencil * h, 9, increasing=True).T
        rhs = np.zeros(9)
        rhs[order] = math.factorial(order)
        coef = np.linalg.solve(A, rhs)
        fd = coef @ vals
        exact = density_derivative(dist, w, order)
        assert exact == pytest.approx(fd, rel=5e-4, abs=1e-7)


def test_order_zero_is_density():
    for dist in ALL_FAMILIES:
        assert density_derivative(dist, 0.3, 0) == pytest.approx(dist.density(0.3), abs=1e-15)


# ---------------------------------------------------------------------------
# Fourier transform


def test_cauchy_transform_value():
    assert Cauchy(1.0).fourier_transform(2.0) == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_gaussian_transform_value():
    assert Gaussian(1.0).fourier_transform(1.0) == pytest.approx(np.exp(-0.5), abs=1e-12)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_transform_at_zero_is_one(dist):
    assert dist.fourier_transform(0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_transform_matches_quadrature_oracle(dist):
    for t in np.arange(0.0, 10.05, 0.1):
        closed = dist.fourier_transform(t)
        assert abs(closed - fourier_oracle(dist, t)) <= 1e-7


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_transform_modulus_bounded_by_one(dist):
    t = np.linspace(0.0, 20.0, 401)
    assert np.all(np.abs(dist.fourier_transform(t)) <= 1.0 + 1e-14)


@pytest.mark.parametrize("dist", [Cauchy(1.0), Gaussian(1.0), Cauchy(0.25), Gaussian(3.0)])
def test_transform_modulus_nonincreasing_for_centered_unimodal(dist):
    t = np.linspace(0.0, 15.0, 301)
    mod = np.abs(dist.fourier_transform(t))
    assert np.all(np.diff(mod) <= 1e-14)


def test_mixture_transform_is_weighted_sum():
    comps = (Cauchy(0.8, -1.0), Gaussian(1.5, 0.4))
    weights = (0.3, 0.7)
    mix = Mixture(weights, comps)
    t = np.linspace(0.0, 12.0, 97)
    expected = weights[0] * comps[0].fourier_transform(t) + weights[1] * comps[1].fourier_transform(t)
    np.testing.assert_allclose(mix.fourier_transform(t), expected, rtol=0, atol=1e-16)


def test_transform_rejects_negative_time():
    with pytest.raises(ValueError):
        Cauchy(1.0).fourier_transform(-0.1)


# ---------------------------------------------------------------------------
# continuum source of a Gaussian first-mode profile

# (distribution, amplitude, width, center): profiles off the centre of a Cauchy
# and a Gaussian density, on a two-bump mixture and on a mixed one
PROFILE_CASES = [
    (Cauchy(0.8, 0.5), 0.7, 1.2, -0.3),
    (Cauchy(1.3, -1.0), 1.0, 0.6, 0.4),
    (Gaussian(1.3, -0.4), -1.2, 2.0, -1.0),
    (Gaussian(0.5, 1.0), 0.7, 0.6, 0.9),
    (bi_cauchy(1.0, 2.0), 1.0, 1.0, 0.5),
    (Mixture((0.3, 0.7), (Gaussian(0.5, -1.0), Cauchy(0.7, 1.5))), 0.9, 0.8, 0.2),
]


def _gaussian_profile(amplitude, width, center):
    return lambda w: amplitude * np.exp(-0.5 * ((np.asarray(w) - center) / width) ** 2)


@pytest.mark.parametrize("dist, amplitude, width, center", PROFILE_CASES)
def test_gaussian_profile_source_matches_quadrature(dist, amplitude, width, center):
    # the Cauchy arguments cross below the real axis at t = delta / width^2,
    # between 0.4 and 3.6 here
    t = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 30.0])
    closed = dist.gaussian_profile_source(t, amplitude, width, center)
    profile = _gaussian_profile(amplitude, width, center)
    span = (center - 12.0 * width, center + 12.0 * width)
    reference = np.array([profile_source_oracle(dist, profile, s, span) for s in t])
    # measured: at most 2.8e-16
    assert np.max(np.abs(closed - reference)) <= 4e-16


@pytest.mark.parametrize(
    "delta, amplitude, width", [(1.0, 1.0, 1.0), (0.8, 0.7, 1.2), (1.25, 0.5, 0.8), (2.0, 1.0, 0.3)]
)
def test_centred_cauchy_profile_source_matches_erfcx(delta, amplitude, width):
    # F = (A/2) exp(-s^2 t^2 / 2) [erfcx(x-) + erfcx(x+)], x+- = (delta/s +- s t) / sqrt 2.
    # That route rounds x-^2 inside erfcx, so it loses digits as s t grows;
    # these cases keep x-^2 below about 300 on [0, 30]
    t = np.linspace(0.0, 30.0, 3001)
    closed = Cauchy(delta).gaussian_profile_source(t, amplitude, width, 0.0)
    x_minus = (delta / width - width * t) / math.sqrt(2.0)
    x_plus = (delta / width + width * t) / math.sqrt(2.0)
    reference = 0.5 * amplitude * np.exp(-0.5 * (width * t) ** 2) * (
        special.erfcx(x_minus) + special.erfcx(x_plus)
    )
    assert not closed.imag.any()
    # measured: at most 4.4e-16
    assert np.max(np.abs(closed - reference)) <= 5e-16


@pytest.mark.parametrize(
    "dist, amplitude, width, center",
    [*PROFILE_CASES, (Cauchy(1.0, 0.3), 1.0, 0.05, 0.0), (Cauchy(1.0), 1.0, 20.0, 1.0),
     (Gaussian(0.5, 1.0), 0.7, 0.05, 0.9)],
)
def test_gaussian_profile_source_stays_finite_to_late_times(dist, amplitude, width, center):
    # no overflow, NaN or floating-point warning (warnings are errors here) up to t = 1e3,
    # with a profile 20 times narrower and 20 times wider than the density among the cases
    t = np.linspace(0.0, 1e3, 100_001)
    closed = dist.gaussian_profile_source(t, amplitude, width, center)
    assert np.all(np.isfinite(closed.view(float)))
    # |F(t)| <= int g |h| = |F(0)| for a profile of one sign
    assert np.all(np.abs(closed) <= np.abs(closed[0]))
    if isinstance(dist, Cauchy):
        # well past t = delta / s^2 only the pole at mu - i delta is left:
        # F = h(mu - i delta) ghat(t), while ghat is a normal float
        delta, mu = dist.half_width, dist.center
        ghat = dist.fourier_transform(t)
        late = (t >= delta / width**2 + 12.0 / width) & (np.abs(ghat) > 1e-300)
        pole = amplitude * np.exp(-0.5 * ((mu - 1j * delta - center) / width) ** 2) * ghat[late]
        # measured: at most 1.2e-13, at width 0.05, where both sides round
        # exponents of a few hundred (a^2 / (2 s^2) = 182 + 120i, and delta t)
        assert late.sum() > 1000
        assert np.max(np.abs(closed[late] / pole - 1.0)) <= 2e-13


@pytest.mark.parametrize("amplitude, width, center", [(1.0, 1.0, 0.0), (0.7, 0.6, 0.9)])
def test_gaussian_profile_source_matches_grid_image(amplitude, width, center):
    # the grid route resolves a Gaussian density at J = 512; a profile still
    # large at the grid's mass cut would add the cut's 1e-8 mass times h there
    dist = Gaussian(1.0)
    profile = _gaussian_profile(amplitude, width, center)
    t = 0.01 * np.arange(3001)
    grid_values = mode_input_from_grid(build_grid(dist, 512), profile, 0.01)(t)
    closed = dist.gaussian_profile_source(t, amplitude, width, center)
    # measured: at most 5.6e-16
    assert np.max(np.abs(closed - grid_values)) <= 8e-16


def test_gaussian_profile_source_rejects_negative_time():
    for dist in (Cauchy(1.0), Gaussian(1.0)):
        with pytest.raises(ValueError):
            dist.gaussian_profile_source(-0.1, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# moments of |ghat|


def test_cauchy_moments():
    assert fourier_moment(Cauchy(1.0), 0) == pytest.approx(1.0, rel=1e-12)
    assert fourier_moment(Cauchy(1.0), 4) == pytest.approx(24.0, rel=1e-12)


def test_gaussian_moment_zero():
    assert fourier_moment(Gaussian(1.0), 0) == pytest.approx(math.sqrt(np.pi / 2), rel=1e-12)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
@pytest.mark.parametrize("n", [0, 1, 4])
def test_moments_match_quadrature_oracle(dist, n):
    from scipy import integrate

    val = fourier_moment(dist, n)
    oracle = integrate.quad(
        lambda t: t**n * abs(dist.fourier_transform(t)), 0, 120.0, limit=800
    )[0]
    assert val == pytest.approx(oracle, rel=1e-7)


def _two_bump_abs_moment(delta, omega0):
    """int_0^inf e^{-delta t} |cos(omega0 t)| dt, summed over the period T = pi/omega0.

    On one period the integral is I0 = int_0^T e^{-delta t} |cos(omega0 t)| dt, split
    where the cosine changes sign at T/2; the periods scale by e^{-delta T}.
    """
    half = math.exp(-delta * math.pi / (2.0 * omega0))
    i0 = (2.0 * omega0 * half + delta * (1.0 - half * half)) / (delta**2 + omega0**2)
    return i0 / (1.0 - half * half)


@pytest.mark.parametrize(
    "delta, omega0", [(1.0, 2.0), (1.0, 0.5), (2.0, 1.0), (1.0, 1.0), (0.3, 5.0), (0.1, 3.0)]
)
def test_two_bump_moment_zero_matches_closed_form(delta, omega0):
    # ghat(t) = e^{-delta t} cos(omega0 t): a kink of |ghat| every pi/omega0
    assert fourier_moment(bi_cauchy(delta, omega0), 0) == pytest.approx(
        _two_bump_abs_moment(delta, omega0), rel=1e-10
    )


def _gauss_kronrod_moment(dist):
    """int_0^inf |ghat| by the adaptive rule, sized as ``fourier_moment`` sizes it."""
    horizon = 1.0
    while dist.fourier_tail_integral(horizon) >= 1e-13 and horizon <= 1e9:
        horizon *= 2.0
    return _gauss_kronrod(
        lambda t: np.abs(dist.fourier_transform(t)), [0.0, horizon], epsabs=1e-12, epsrel=1e-11
    )


def _kinked_quad_moment(delta, omega0):
    """int_0^T e^{-delta t} |cos(omega0 t)| dt by QUADPACK, told every kink, to T = 40/delta."""
    from scipy import integrate

    horizon = 40.0 / delta  # e^{-40} / delta is below 1e-17 of the integral
    kinks = np.arange(0.5, horizon * omega0 / math.pi) * math.pi / omega0
    return integrate.quad(
        lambda t: math.exp(-delta * t) * abs(math.cos(omega0 * t)), 0.0, horizon,
        points=kinks, limit=2 * kinks.size + 100, epsabs=0.0, epsrel=1e-13,
    )[0]


_RATIOS = [1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3]  # delta / omega0


@pytest.mark.parametrize("delta", [0.4, 1.0, 3.0])
@pytest.mark.parametrize("ratio", _RATIOS)
def test_two_bump_abs_moment_matches_quadpack(delta, ratio):
    # measured at most 1.4e-14 relative, at ratio 1e-3
    omega0 = delta / ratio
    closed = bi_cauchy(delta, omega0).abs_moment(0)
    assert closed == pytest.approx(_kinked_quad_moment(delta, omega0), rel=3e-14, abs=0.0)


@pytest.mark.parametrize("delta", [0.4, 1.0, 3.0])
@pytest.mark.parametrize("ratio", _RATIOS[1:])
def test_two_bump_abs_moment_matches_gauss_kronrod(delta, ratio):
    # measured at most 4.8e-13 relative; the rule's own tolerance is 1e-11
    dist = bi_cauchy(delta, delta / ratio)
    assert dist.abs_moment(0) == pytest.approx(_gauss_kronrod_moment(dist), rel=1e-12, abs=0.0)


def test_gauss_kronrod_cannot_resolve_narrow_far_bumps():
    # 2 10^4 kinks of |ghat| before the tail is negligible: the closed form is the only route
    with pytest.raises(Divergent):
        _gauss_kronrod_moment(bi_cauchy(1.0, 1e3))


def test_two_bump_abs_moment_limits():
    assert bi_cauchy(0.7, 0.0).abs_moment(0) == 1.0 / 0.7
    assert bi_cauchy(0.7, 5e-324).abs_moment(0) == 1.0 / 0.7  # pi delta / (2 omega0) = inf
    # pi delta / (2 omega0) > 710: exp(-x) underflows, and csch x is 0
    assert bi_cauchy(1.0, 2e-3).abs_moment(0) == 1.0 / (1.0 + 4e-6)
    assert math.isfinite(bi_cauchy(500.0, 1.0).abs_moment(0))
    shifted = Mixture((0.5, 0.5), (Cauchy(0.5, 3.0), Cauchy(0.5, 7.0)))  # mu = 5, omega0 = 2
    assert shifted.abs_moment(0) == bi_cauchy(0.5, 2.0).abs_moment(0)


@pytest.mark.parametrize(
    "dist, n",
    [
        (Mixture((0.4, 0.6), (Cauchy(1.0, -2.0), Cauchy(1.0, 2.0))), 0),
        (Mixture((0.5, 0.5), (Cauchy(1.0, -2.0), Cauchy(1.5, 2.0))), 0),
        (Mixture((0.5, 0.5), (Gaussian(1.0, -2.0), Gaussian(1.0, 2.0))), 0),
        (Mixture((0.5, 0.5), (Cauchy(1.0, -2.0), Gaussian(1.0, 2.0))), 0),
        (Mixture((0.25, 0.5, 0.25), (Cauchy(1.0, -2.0), Cauchy(1.0, 0.0), Cauchy(1.0, 2.0))), 0),
        (bi_cauchy(1.0, 2.0), 1),
        (bi_cauchy(1.0, 2.0), 4),
    ],
    ids=["unequal-weights", "unequal-widths", "gaussians", "cauchy-gauss", "three-bumps",
         "order-1", "order-4"],
)
def test_abs_moment_has_no_closed_form_for_other_mixtures(dist, n):
    assert dist.abs_moment(n) is None


def test_two_bump_l1_check_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature reached")

    monkeypatch.setattr(distributions, "_gauss_kronrod", refuse)
    relation = DispersionRelation(bi_cauchy(1.0, 2.0), 3.0)
    assert l1_sufficient_check(relation) == (1.5 * bi_cauchy(1.0, 2.0).abs_moment(0) < 1.0)


class _RoughTransform(FrequencyDistribution):
    """A |ghat| that jumps on every scale, so no polynomial panel rule resolves it."""

    def fourier_transform(self, t):
        return (np.abs(np.sin(1e4 * np.asarray(t)) * 43758.5453) % 1.0) + 0j

    def fourier_tail_integral(self, t0):
        return 0.0

    def location_hints(self):
        return (0.0, 1.0, 0.0)


def test_moment_that_cannot_converge_raises_divergent():
    with pytest.raises(Divergent):
        fourier_moment(_RoughTransform(), 0)


# ---------------------------------------------------------------------------
# Sobolev norms


def test_cauchy_h0_norm_closed_form():
    # int (1+w^2) g^2 = int 1/(pi^2 (1+w^2)) = 1/pi
    assert sobolev_norm(Cauchy(1.0), 0) == pytest.approx(math.sqrt(1.0 / np.pi), rel=1e-10)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_sobolev_norm_monotone_in_order(dist):
    norms = [sobolev_norm(dist, n) for n in range(5)]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_gaussian_h1_matches_dense_trapezoid():
    trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))
    g = Gaussian(1.0)
    w = np.linspace(-12.0, 12.0, 100_001)
    total = 0.0
    for k in (0, 1):
        d = density_derivative(g, w, k)
        total += trapezoid((1 + w**2) * d * d, w)
    assert sobolev_norm(g, 1) == pytest.approx(math.sqrt(total), rel=1e-6)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_weighted_transform_bound(dist):
    # t^k |ghat(t)| <= sqrt(pi) ||g||_{H^k} for all sampled t
    t = np.linspace(0.0, 10.0, 101)
    for k in range(5):
        bound = math.sqrt(np.pi) * sobolev_norm(dist, k)
        assert np.all(t**k * np.abs(dist.fourier_transform(t)) <= bound * (1 + 1e-12))


# ---------------------------------------------------------------------------
# inverse CDF

# The grid cut of build_grid's default mass threshold sits at these tails.
_QUANTILE_PROBES = np.concatenate(
    [[2.5e-9], np.linspace(1e-4, 1.0 - 1e-4, 999), [1.0 - 2.5e-9]]
)


@pytest.mark.parametrize(
    "dist",
    [bi_cauchy(1.0, r) for r in (0.3, 0.5, 2.0, 10.0)]
    + [Mixture((0.3, 0.7), (Gaussian(0.5, -2.0), Cauchy(1.0, 1.5)))],
    ids=["bi-cauchy-0.3", "bi-cauchy-0.5", "bi-cauchy-2", "bi-cauchy-10", "gauss-cauchy"],
)
def test_mixture_inverse_cdf_round_trip(dist):
    omega = dist.inverse_cdf(_QUANTILE_PROBES)
    assert np.all(np.diff(omega) > 0)
    assert np.max(np.abs(dist.cdf(omega) - _QUANTILE_PROBES)) <= 1e-14
    # a scalar probability gives the same quantile as the array path
    assert float(dist.inverse_cdf(0.3)) == dist.inverse_cdf(np.array([0.3]))[0]


def test_narrow_two_bump_grid_at_default_threshold():
    # the component quantiles at the 2.5e-9 cut bracket a CDF change below
    # its rounding, which a sign-change root finder cannot work with
    grid = build_grid(bi_cauchy(1.0, 0.5), 512)
    assert grid.weights.sum() >= 1.0 - 1e-8
    assert np.all(np.diff(grid.nodes) > 0)


def _cauchy_cdf_mp(u):
    return mpmath.mpf(0.5) + mpmath.atan(mpmath.mpf(u)) / mpmath.pi


def test_cauchy_cdf_and_quantile_keep_their_digits_in_the_left_tail():
    # 0.5 + arctan(u)/pi rounds to 1e-16 absolute: 6.8e-9 relative at u = -1e8,
    # and tan(pi (p - 0.5)) loses p's digits to p - 0.5 the same way
    with mpmath.workdps(40):
        u = -np.logspace(1.0, 8.0, 71)
        exact = np.array([float(_cauchy_cdf_mp(x)) for x in u])
        assert np.max(np.abs(Cauchy(1.0).cdf(u) - exact) / exact) <= 4e-16
        p = np.logspace(-12.0, -1.0, 45)
        exact = np.array([float(mpmath.tan(mpmath.pi * (mpmath.mpf(x) - 0.5))) for x in p])
        assert np.max(np.abs(Cauchy(1.0).inverse_cdf(p) - exact) / -exact) <= 4e-16


@pytest.mark.parametrize("p", [2.5e-9, 2.5e-5, 1e-3])
def test_two_bump_quantile_in_the_left_tail_matches_mpmath(p):
    # p = 2.5e-9 is build_grid's left cut at its default mass threshold; the
    # component quantiles that bracket the root were off by 1e-8 there
    omega = float(bi_cauchy(1.0, 0.5).inverse_cdf(p))
    with mpmath.workdps(40):
        root = mpmath.findroot(
            lambda w: (_cauchy_cdf_mp(w + 0.5) + _cauchy_cdf_mp(w - 0.5)) / 2 - mpmath.mpf(p),
            mpmath.mpf(omega),
        )
    assert abs(omega - float(root)) <= 1e-15 * abs(float(root))


# ---------------------------------------------------------------------------
# quadrature grids


@pytest.mark.parametrize(
    "module, name, points",
    [(distributions, "_GL", 16), (volterra, "_GL8", 8)],
    ids=["grid-16", "volterra-8"],
)
def test_gauss_legendre_literals_are_leggauss(module, name, points):
    # written out so that no CLI run imports numpy.polynomial or calls LAPACK
    nodes, weights = np.polynomial.legendre.leggauss(points)
    assert getattr(module, f"{name}_NODES").tobytes() == nodes.tobytes()
    assert getattr(module, f"{name}_WEIGHTS").tobytes() == weights.tobytes()


def test_kronrod_error_weights_subtract_leggauss_seven():
    difference = distributions._GK_WEIGHTS.copy()
    difference[1::2] -= np.polynomial.legendre.leggauss(7)[1]
    assert distributions._GK_DIFFERENCE.tobytes() == difference.tobytes()


def test_cauchy_grid_mass_contract():
    grid = build_grid(Cauchy(1.0), 512, 1.0 - 1e-6)
    assert 1.0 - 1e-6 <= grid.weights.sum() <= 1.0


def test_gaussian_grid_second_moment():
    grid = build_grid(Gaussian(1.0), 256)
    assert (grid.weights * grid.nodes**2).sum() == pytest.approx(1.0, abs=1e-6)


def test_two_bump_grid_resolves_both_bumps():
    grid = build_grid(bi_cauchy(1.0, 2.0), 512)
    local_density = grid.weights / np.gradient(grid.nodes)
    top = np.argsort(local_density)[-10:]
    top_nodes = grid.nodes[top]
    assert np.any(np.abs(top_nodes - 2.0) < 0.5)
    assert np.any(np.abs(top_nodes + 2.0) < 0.5)


def test_grid_nodes_strictly_increasing():
    for dist in ALL_FAMILIES:
        grid = build_grid(dist, 128, 1.0 - 1e-4)
        assert np.all(np.diff(grid.nodes) > 0)
        assert np.all(grid.weights > 0)
        assert grid.spacing_max == np.max(np.diff(grid.nodes))


def test_grid_raises_when_panels_cannot_cover_mass():
    # 8 heavy-tail panels cannot integrate 1 - 1e-8 of a Cauchy accurately
    from kuramoto_damping.exceptions import MassNotCovered

    with pytest.raises(MassNotCovered):
        build_grid(Cauchy(0.5, 1.3), 128, 1.0 - 1e-8)


def test_grid_rejects_tiny_node_count():
    with pytest.raises(ValueError):
        build_grid(Cauchy(1.0), 4)


def test_grid_oscillatory_quadrature_heavy_tail():
    # Fine grid with a modest mass cut keeps the tail panels inside the phase
    # resolution of 16-point panels at t = 1; see recurrence_horizon for the
    # matching safe-horizon rule.
    grid = build_grid(Cauchy(1.0), 16384, 0.999)
    t0 = 1.0
    val = (grid.weights * np.exp(-1j * grid.nodes * t0)).sum()
    assert abs(val - Cauchy(1.0).fourier_transform(t0)) <= 1e-6


def test_grid_oscillatory_quadrature_gaussian():
    grid = build_grid(Gaussian(1.0), 512)
    t0 = 2.0
    val = (grid.weights * np.exp(-1j * grid.nodes * t0)).sum()
    assert abs(val - Gaussian(1.0).fourier_transform(t0)) <= 1e-6


# ---------------------------------------------------------------------------
# config round trip


# the JSON description of each of ALL_FAMILIES, in the same order
_CONFIGS = [
    {"family": "cauchy", "delta": 1.0},
    {"family": "cauchy", "delta": 0.5, "center": 1.3},
    {"family": "gaussian", "sigma": 1.0},
    {"family": "gaussian", "sigma": 2.0, "center": -0.7},
    {"family": "mixture", "weights": [0.5, 0.5], "components": [
        {"family": "cauchy", "delta": 1.0, "center": -2.0},
        {"family": "cauchy", "delta": 1.0, "center": 2.0},
    ]},
    {"family": "mixture", "weights": [0.3, 0.7], "components": [
        {"family": "cauchy", "delta": 0.8, "center": -1.0},
        {"family": "gaussian", "sigma": 1.5, "center": 0.4},
    ]},
]


@pytest.mark.parametrize(
    "dist, spec", list(zip(ALL_FAMILIES, _CONFIGS)), ids=[f"dist{i}" for i in range(len(_CONFIGS))]
)
def test_config_round_trip(dist, spec):
    assert distribution_from_config(spec) == dist


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        distribution_from_config({"family": "cauchy", "delta": 1.0, "gamma": 2.0})
    with pytest.raises(ValueError):
        distribution_from_config({"family": "laplace", "b": 1.0})
