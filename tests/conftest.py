"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest
from scipy import integrate

from kuramoto_damping.distributions import Cauchy, Gaussian, bi_cauchy

from density_oracles import components


@pytest.fixture
def standard_cauchy():
    return Cauchy(1.0)


@pytest.fixture
def standard_gaussian():
    return Gaussian(1.0)


@pytest.fixture
def two_bump():
    return bi_cauchy(1.0, 2.0)


def fourier_oracle(dist, t):
    """Independent Fourier-transform evaluation.

    Each component is even about its center, so the center phase factors out
    exactly and the centered density is integrated with the semi-infinite
    Fourier method (QUADPACK QAWF).  Accurate to ~1e-10, independent of the
    closed forms under test.
    """
    total = 0j
    for w, comp in components(dist):
        center, scale, _ = comp.location_hints()
        centered = type(comp)(scale, 0.0)
        if t == 0:
            val = 1.0
        else:
            val = 2.0 * integrate.quad(
                centered.density, 0, np.inf, weight="cos", wvar=t, limit=600
            )[0]
        total += w * np.exp(-1j * t * center) * val
    return total


def dense_winding_oracle(values):
    """Winding number of a closed curve by unwrapped-angle accumulation.

    ``values`` must trace the closed path (first point repeated at the end is
    not required; closure through the last-to-first chord is implied).
    """
    ang = np.unwrap(np.angle(values))
    total = ang[-1] - ang[0]
    total += np.angle(values[0] / values[-1])
    return int(round(total / (2 * np.pi)))


def profile_source_oracle(dist, profile, t, span):
    """int g(w) h(w) exp(-i w t) dw for a real profile h, over the finite ``span`` = (lo, hi).

    The span is cut into pieces of width at most 1/2, so no piece holds more
    than a sliver of a density peak, and each piece is integrated against
    cos(wt) and sin(wt) by QUADPACK's weighted rule QAWO.  The integrand must
    be negligible outside the span.
    """

    def integrand(w):
        return dist.density(w) * profile(w)

    edges = np.linspace(*span, int(np.ceil(2.0 * (span[1] - span[0]))) + 1)
    total = 0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        if t == 0:
            total += integrate.quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-12)[0]
            continue
        cos = integrate.quad(integrand, lo, hi, weight="cos", wvar=t, epsabs=1e-15, epsrel=1e-12)
        sin = integrate.quad(integrand, lo, hi, weight="sin", wvar=t, epsabs=1e-15, epsrel=1e-12)
        total += cos[0] - 1j * sin[0]
    return total
