"""Closed-form density derivatives and the continuum Sobolev norm of a density.

No CLI run needs either; the tests do:

* ``density_derivative``: g^(n)(omega) of a Cauchy, Gaussian or mixture
  density, for the spectral stencil test and the principal-value core of
  ``dispersion_reference.hilbert_boundary_transform``;
* ``sobolev_norm``: ||g||_{H^n} with ||g||_{H^n}^2 = sum_{k<=n} int (1+omega^2)
  |g^(k)(omega)|^2 domega, for the bound t^k |ghat(t)| <= sqrt(pi) ||g||_{H^k};
* ``components``: the (weight, elementary density) pairs of a density.
"""

import math

import numpy as np

from kuramoto_damping.distributions import Cauchy, Gaussian, Mixture, _gauss_kronrod


def components(dist):
    """(weight, elementary distribution) pairs: a mixture's, or (1, dist)."""
    if isinstance(dist, Mixture):
        return list(zip(dist.weights, dist.components))
    return [(1.0, dist)]


def _hermite_probabilist(order, x):
    """He_order(x) via the three-term recurrence."""
    h0 = np.ones_like(x)
    if order == 0:
        return h0
    h1 = x.copy()
    for k in range(1, order):
        h0, h1 = h1, x * h1 - k * h0
    return h1


def _elementary_derivative(dist, omega, order):
    if isinstance(dist, Cauchy):
        # Partial fractions: g = Im[(x - i*Delta)^{-1}] / pi, so every
        # derivative is an exact complex power.
        x = np.asarray(omega, dtype=float) - dist.center
        z = (x - 1j * dist.half_width) ** (-(order + 1))
        return ((-1.0) ** order) * math.factorial(order) / np.pi * z.imag
    if isinstance(dist, Gaussian):
        x = (np.asarray(omega, dtype=float) - dist.center) / dist.std_dev
        he = _hermite_probabilist(order, x)
        return ((-1.0) ** order) * he * dist.density(omega) / dist.std_dev**order
    raise TypeError(f"no closed-form derivative for {type(dist).__name__}")


def density_derivative(dist, omega, order):
    """Exact ``order``-th derivative of g at ``omega`` (scalar or array)."""
    return sum(w * _elementary_derivative(c, omega, order) for w, c in components(dist))


def sobolev_norm(dist, n):
    """Weighted Sobolev norm ||g||_{H^n} with weight sqrt(1 + omega^2).

    Adaptive quadrature over the whole real line, split at the bulk and the
    centers: the Cauchy integrands decay only like omega^-2, far too slowly
    for a mass-threshold grid cut.
    """
    loc, scale, halfspan = dist.location_hints()
    a = abs(loc) + halfspan + 12.0 * scale
    centers = {c.location_hints()[0] for _, c in components(dist)}
    edges = [-np.inf, -a, *sorted(centers), a, np.inf]
    total = 0.0
    for k in range(n + 1):

        def term(w, _k=k):
            d = density_derivative(dist, w, _k)
            return (1.0 + w * w) * d * d

        total += _gauss_kronrod(term, edges, epsabs=1e-13, epsrel=1e-11)
    return math.sqrt(total)
