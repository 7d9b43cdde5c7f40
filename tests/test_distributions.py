"""Tests for the frequency-density module."""

import math

import numpy as np
import pytest

from kuramoto_damping.distributions import (
    MAX_DERIVATIVE_ORDER,
    Cauchy,
    FrequencyDistribution,
    Gaussian,
    Mixture,
    bi_cauchy,
    build_grid,
    distribution_from_config,
    fourier_moment,
    sobolev_norm,
)
from kuramoto_damping.exceptions import Divergent, UnsupportedOrder

from conftest import fourier_oracle

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
    assert grid.mass_covered == pytest.approx(1.0, abs=1e-7)


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
    assert Cauchy(1.0).density_derivative(0.0, 1) == pytest.approx(0.0, abs=1e-15)


def test_gaussian_second_derivative_at_center():
    val = Gaussian(1.0).density_derivative(0.0, 2)
    assert val == pytest.approx(-1.0 / math.sqrt(2 * np.pi), abs=1e-12)
    # independent oracle: central finite difference at step 1e-4
    h = 1e-4
    g = Gaussian(1.0)
    fd = (g.density(h) - 2 * g.density(0.0) + g.density(-h)) / h**2
    assert val == pytest.approx(fd, abs=1e-6)


def test_two_bump_first_derivative_vanishes_at_origin():
    assert bi_cauchy(1.0, 2.0).density_derivative(0.0, 1) == pytest.approx(0.0, abs=1e-15)


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
        exact = dist.density_derivative(w, order)
        assert exact == pytest.approx(fd, rel=5e-4, abs=1e-7)


def test_order_zero_is_density():
    for dist in ALL_FAMILIES:
        assert dist.density_derivative(0.3, 0) == pytest.approx(dist.density(0.3), abs=1e-15)


def test_unsupported_order_rejected():
    with pytest.raises(UnsupportedOrder):
        Cauchy(1.0).density_derivative(0.0, MAX_DERIVATIVE_ORDER + 1)
    with pytest.raises(UnsupportedOrder):
        Gaussian(1.0).density_derivative(0.0, -1)


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
        d = g.density_derivative(w, k)
        total += trapezoid((1 + w**2) * d * d, w)
    assert sobolev_norm(g, 1) == pytest.approx(math.sqrt(total), rel=1e-6)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_weighted_transform_bound(dist):
    # t^k |ghat(t)| <= sqrt(pi) ||g||_{H^k} for all sampled t
    t = np.linspace(0.0, 10.0, 101)
    for k in range(5):
        bound = math.sqrt(np.pi) * sobolev_norm(dist, k)
        assert np.all(t**k * np.abs(dist.fourier_transform(t)) <= bound * (1 + 1e-12))


def test_sobolev_norm_rejects_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        sobolev_norm(Cauchy(1.0), MAX_DERIVATIVE_ORDER + 1)


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
    assert grid.mass_covered >= grid.mass_threshold
    assert np.all(np.diff(grid.nodes) > 0)


# ---------------------------------------------------------------------------
# quadrature grids


def test_cauchy_grid_mass_contract():
    grid = build_grid(Cauchy(1.0), 512, 1.0 - 1e-6)
    assert 1.0 - 1e-6 <= grid.mass_covered <= 1.0
    assert abs(grid.weights.sum() - grid.mass_covered) <= 1e-10


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
        assert grid.spacing_min <= grid.spacing_max


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


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_config_round_trip(dist):
    again = distribution_from_config(dist.to_config())
    w = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(again.density(w), dist.density(w), rtol=0, atol=1e-15)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        distribution_from_config({"family": "cauchy", "delta": 1.0, "gamma": 2.0})
    with pytest.raises(ValueError):
        distribution_from_config({"family": "laplace", "b": 1.0})
