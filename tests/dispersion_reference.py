"""Independent routes to the dispersion function, and the vectorised zero refinement.

``dispersion`` evaluates L(w) = int_0^inf ghat(t) exp(-i w t) dt by each family's
closed form.  The tests check it here against two routes that share none of it:

* ``laplace_transform_quadrature``: the Laplace integral by composite panels in t,
* ``hilbert_boundary_transform``: the real-axis boundary form
  L(w) = pi g(-w) - i * pv-integral, built from the density alone.

The reflection g(-w) (rather than g(w)) is forced by the sign convention
ghat(t) = int g exp(-i t w); for symmetric densities the two agree.  The
cross-check in ``boundary_values`` guards the orientation.

``refine_sign_changes`` is the array form of ``dispersion._refine_sign_changes``,
the reference its iterates are checked against.
"""

import math
from dataclasses import dataclass

import numpy as np

from kuramoto_damping.dispersion import _ZERO_RTOL, _ZERO_XTOL, _check_lower_half, laplace_transform
from kuramoto_damping.exceptions import KuramotoDampingError

from density_oracles import components, density_derivative

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL24_NODES, _GL24_WEIGHTS = np.polynomial.legendre.leggauss(24)

CROSS_CHECK_TOL = 1e-6  # largest gap between the Laplace and boundary-form routes
_PV_CORE = 1e-4  # below this s the principal-value integrand is its Taylor core


class CrossCheckFailure(KuramotoDampingError):
    """Two independent evaluations of the same quantity disagree."""


def laplace_transform_quadrature(dist, omega, horizon):
    """Independent evaluation of L(w) by composite panels in t up to ``horizon``.

    Panels are sized so the total phase per panel stays within the resolving
    power of 16-point Gauss-Legendre.
    """
    _check_lower_half(omega)
    omega = complex(omega)
    loc, _, halfspan = dist.location_hints()
    phase_rate = abs(omega.real) + abs(loc) + halfspan + 1.0
    panels = int(min(8192, max(16, math.ceil(horizon * phase_rate / 6.0))))
    edges = np.linspace(0.0, horizon, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    values = dist.fourier_transform(t) * np.exp(-1j * omega * t)
    return complex(np.sum(w * values))


def hilbert_boundary_transform(dist, omega):
    """Boundary value of L at real ``omega`` via the principal-value form.

    L(w) = pi g(-w) - i * pv int g(v)/(v + w) dv, with the principal value
    written as int_0^inf (g(s - w) - g(-s - w))/s ds.  The s -> 0 limit is
    replaced below ``_PV_CORE`` by its Taylor expansion 2 g'(-w) s, removing
    the 0/0 numerically.
    """
    omega = float(omega)
    g = dist.density
    # Core: integrand -> 2 g'(-w) + s^2 g'''(-w)/3 + ...
    core = 2.0 * density_derivative(dist, -omega, 1) * _PV_CORE
    core += density_derivative(dist, -omega, 3) * _PV_CORE**3 / 9.0

    # Feature locations of g(±s - w) in the s variable.
    features = set()
    for _, comp in components(dist):
        center = comp.location_hints()[0]
        width = comp.location_hints()[1]
        base = abs(center + omega)
        for k in (-3.0, -1.0, 0.0, 1.0, 3.0):
            features.add(base + k * width)

    s_max = _pv_upper_limit(dist, omega)
    breaks = sorted({_PV_CORE, s_max} | {f for f in features if _PV_CORE < f < s_max})
    # Geometric ladder keeps long featureless stretches well-conditioned.
    ladder = _PV_CORE
    while ladder < s_max:
        ladder *= 4.0
        if _PV_CORE < ladder < s_max:
            breaks.append(ladder)
    breaks = np.array(sorted(set(breaks)))

    half = 0.5 * (breaks[1:] - breaks[:-1])
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    s = (mid[:, None] + half[:, None] * _GL24_NODES[None, :]).ravel()
    w = (half[:, None] * _GL24_WEIGHTS[None, :]).ravel()
    pv = core + float(np.sum(w * (g(s - omega) - g(-s - omega)) / s))
    return np.pi * dist.density(-omega) - 1j * pv


def _pv_upper_limit(dist, omega):
    loc, scale, halfspan = dist.location_hints()
    s = max(64.0 * (abs(omega) + abs(loc) + halfspan + scale), 1e3)
    if dist.heavy_tailed:
        # Tail of the pv integrand is ~ 4*scale*|w|/(pi s^4); push s until the
        # analytic remainder is far below the cross-check tolerance.
        while 2.0 * scale * (abs(omega) + halfspan + 1.0) / s**3 > 1e-12 and s < 1e8:
            s *= 2.0
    return s


def evaluate_quadrature(relation, omega):
    """D(w) via the Laplace integral truncated at ``relation.laplace_horizon``."""
    val = laplace_transform_quadrature(relation.dist, omega, relation.laplace_horizon)
    return 1.0 - 0.5 * relation.coupling * val


def evaluate_boundary(relation, omega):
    """D(w) at real w via the principal-value boundary form."""
    return 1.0 - 0.5 * relation.coupling * hilbert_boundary_transform(relation.dist, omega)


@dataclass
class BoundaryValues:
    """Boundary evaluations of D along a real grid, by two independent routes."""

    omegas: np.ndarray
    laplace: np.ndarray
    hilbert: np.ndarray


def boundary_values(relation, omega_grid):
    """Evaluate D on a sorted real grid by quadrature and by the boundary form.

    Raises CrossCheckFailure when the two routes disagree beyond
    ``CROSS_CHECK_TOL`` - that signals a quadrature misconfiguration, not a
    property of the distribution.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.ndim != 1 or np.any(np.diff(omegas) <= 0):
        raise ValueError("omega grid must be one-dimensional and strictly increasing")
    laplace = np.array([evaluate_quadrature(relation, w) for w in omegas])
    hilbert = np.array([evaluate_boundary(relation, w) for w in omegas])
    worst = float(np.max(np.abs(laplace - hilbert))) if omegas.size else 0.0
    if worst > CROSS_CHECK_TOL:
        raise CrossCheckFailure(
            f"Laplace and boundary evaluations disagree by {worst:.3e} "
            f"(tolerance {CROSS_CHECK_TOL:.1e})"
        )
    return BoundaryValues(omegas=omegas, laplace=laplace, hilbert=hilbert)


def refine_sign_changes(dist, lo, hi):
    """Refine every bracket [lo, hi] of a sign change of Im L at once, on arrays.

    Illinois steps: regula falsi, halving the value at an end that is kept twice
    in a row.  A bracket that three steps have not halved is bisected, so every
    bracket at least halves in four steps.  Stops, as brentq does, once each
    bracket is at most 1e-14 + 4 eps |x| wide, and returns the midpoints.
    """

    def im(x):
        return np.imag(laplace_transform(dist, x))

    f_lo, f_hi = im(lo), im(hi)
    kept_lo = kept_hi = np.zeros(lo.size, dtype=bool)
    widths = [np.full(lo.size, np.inf)] * 3  # bracket widths of the last three steps
    while np.any(hi - lo > _ZERO_XTOL + _ZERO_RTOL * np.maximum(np.abs(lo), np.abs(hi))):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        bisect = (hi - lo > 0.5 * widths[0]) | (x <= lo) | (x >= hi)
        x = np.where(bisect, 0.5 * (lo + hi), x)
        fx = im(x)
        left = np.sign(fx) != np.sign(f_lo)  # the zero lies in [lo, x]
        f_lo = np.where(left & kept_lo, 0.5 * f_lo, f_lo)
        f_hi = np.where(~left & kept_hi, 0.5 * f_hi, f_hi)
        lo, f_lo = np.where(left & (fx != 0.0), lo, x), np.where(left, f_lo, fx)
        hi, f_hi = np.where(left, x, hi), np.where(left, fx, f_hi)
        kept_lo, kept_hi = left, ~left
        widths = widths[1:] + [hi - lo]
    return [float(x) for x in 0.5 * (lo + hi)]
