"""Frequency densities of the oscillator ensemble.

Parametric families g(omega) with the Fourier transform
ghat(t) = int g(omega) exp(-i t omega) domega, moment integrals of |ghat|
and quadrature grids adapted to the density.  Every other module consumes
frequency distributions through this interface.

Supported families: Cauchy (Lorentzian), Gaussian, and finite mixtures of
those two.  All have exponentially decaying |ghat|, so Laplace-type integrals
over t can be truncated with an explicit tail bound.

Conventions
-----------
* Fourier transform: ghat(t) = int g(omega) exp(-i t omega) domega.
* Grid weights w_j include the density factor g(omega_j); the bare panel
  weights are kept alongside for plain d-omega integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from . import blas
from .exceptions import ConfigError, Divergent, MassNotCovered

__all__ = [
    "FrequencyDistribution",
    "Cauchy",
    "Gaussian",
    "Mixture",
    "QuadratureGrid",
    "bi_cauchy",
    "fourier_moment",
    "build_grid",
    "invert_monotone",
    "distribution_from_config",
    "finite_number",
    "require_keys",
]

# The 16-point Gauss-Legendre rule on [-1, 1], bitwise as numpy's leggauss(16)
# gives it: the positive nodes, increasing, and their weights.  leggauss makes
# its output exactly symmetric, so the negative half is the mirror image.
_GL_HALF_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_HALF_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))


class FrequencyDistribution:
    """Interface shared by all frequency-density families.

    A family is one class: it implements the methods below, and its config
    entry is one branch of ``distribution_from_config``.  No other module
    knows which families exist.  Instances are immutable after construction
    and safe for concurrent reads.
    """

    def density(self, omega):
        """Pointwise density g(omega); accepts scalars or arrays."""
        raise NotImplementedError

    def fourier_transform(self, t):
        """ghat(t) for t >= 0; exact closed form, |ghat(t)| <= 1."""
        raise NotImplementedError

    def cdf(self, omega):
        raise NotImplementedError

    def inverse_cdf(self, p):
        raise NotImplementedError

    def fourier_tail_integral(self, t0):
        """Upper bound for int_{t0}^inf |ghat(t)| dt (exact for one component)."""
        raise NotImplementedError

    def laplace_transform(self, omega):
        """L(w) = int_0^inf ghat(t) exp(-i w t) dt on a complex array with Im(w) <= 0.

        The half plane is not checked here; ``dispersion.laplace_transform`` does.
        """
        raise NotImplementedError

    def gaussian_profile_source(self, t, amplitude, width, center):
        """F(t) = int g(w) h(w) exp(-i w t) dw for t >= 0 in closed form.

        h(w) = amplitude exp(-(w - center)^2 / (2 width^2)) is a Gaussian
        first-mode profile, and F the exact continuum source it drives.
        """
        raise NotImplementedError

    def abs_moment(self, n):
        """int_0^inf t^n |ghat(t)| dt in closed form, or None when there is none."""
        return None

    def location_hints(self):
        """(location, scale, halfspan) used to size scan windows and grids.

        ``location`` is a representative center, ``scale`` the largest
        component width, ``halfspan`` the largest center offset from
        ``location``.
        """
        raise NotImplementedError

    @property
    def heavy_tailed(self):
        """True when any component has power-law density tails."""
        raise NotImplementedError


def _check_time_nonnegative(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("fourier_transform is defined for t >= 0")
    return t


@dataclass(frozen=True)
class Cauchy(FrequencyDistribution):
    """Cauchy (Lorentzian) density with half width ``half_width`` at ``center``."""

    half_width: float
    center: float = 0.0

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    def density(self, omega):
        x = np.asarray(omega, dtype=float) - self.center
        return self.half_width / (np.pi * (x * x + self.half_width**2))

    def fourier_transform(self, t):
        t = _check_time_nonnegative(t)
        return np.exp(-(self.half_width + 1j * self.center) * t)

    def cdf(self, omega):
        # the angle of (center - omega, half_width) over pi: 0.5 + arctan(u)/pi
        # would lose the left tail's digits to the sum
        return np.arctan2(self.half_width, self.center - np.asarray(omega, dtype=float)) / np.pi

    def inverse_cdf(self, p):
        p = np.asarray(p, dtype=float)
        # below p = 1/4, p - 0.5 would round away p's digits: there u = -1/tan(pi p)
        left = p < 0.25
        with np.errstate(divide="ignore"):
            tail = -1.0 / np.tan(np.pi * np.where(left, p, 0.25))
        return self.center + self.half_width * np.where(left, tail, np.tan(np.pi * (p - 0.5)))

    def fourier_tail_integral(self, t0):
        return math.exp(-self.half_width * t0) / self.half_width

    def laplace_transform(self, omega):
        return 1.0 / (self.half_width + 1j * (omega + self.center))

    def gaussian_profile_source(self, t, amplitude, width, center):
        # With a = delta + i(mu - c), alpha = a / (s sqrt 2) and beta = s t / sqrt 2,
        # F = (A/2) exp(-ict - beta^2) [w(i zeta1) + w(i zeta2)], zeta1 = alpha - beta
        # and zeta2 = conj(alpha) + beta.  Past t = delta / s^2, i zeta1 is below
        # the real axis, where the continuation's term exp(-ict - beta^2) 2 exp(zeta1^2)
        # is 2 exp(alpha^2 - (delta + i mu) t): the pole's h(mu - i delta) ghat(t) / A.
        t = _check_time_nonnegative(t)
        a = complex(self.half_width, self.center - center)
        alpha = a / (width * math.sqrt(2.0))
        beta = (width / math.sqrt(2.0)) * t
        log_scale = -(beta * beta) - 1j * center * t
        pole = alpha * alpha - complex(self.half_width, self.center) * t
        first = _faddeeva_continued(1j * (alpha - beta), log_scale, pole)
        second = np.exp(log_scale) * _faddeeva(1j * (alpha.conjugate() + beta))
        return 0.5 * amplitude * (first + second)

    def abs_moment(self, n):
        return math.factorial(n) / self.half_width ** (n + 1)

    def location_hints(self):
        return (self.center, self.half_width, 0.0)

    @property
    def heavy_tailed(self):
        return True


# Weideman's rational series for the Faddeeva function w(z) = exp(-z^2) erfc(-iz)
# (SIAM J. Numer. Anal. 31, 1497, 1994).  With L = sqrt(N / sqrt(2)) and
# Z = (L + iz) / (L - iz),
#     w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)),
# where p has degree N - 1 and its coefficients are one FFT of
# exp(-t^2) (L^2 + t^2) sampled at t = L tan(theta / 2); _W_COEFFS holds that
# FFT's output as literals.  N = 40 keeps the relative error near 4e-14 on
# Im z >= 0, the only half plane it holds in.
_W_TERMS = 40
_W_L = math.sqrt(_W_TERMS / math.sqrt(2.0))
# Up to _W_POWER_POINTS points p is one product with the powers Z .. Z^(N-1),
# a handful of numpy calls; beyond that Horner's rule, one in-place pass per
# coefficient over an array that stays in cache.  On complex Z the product
# keeps below blas.COMPLEX_GEMV_ENTRIES, past which it would wake BLAS's threads.
_W_POWER_POINTS = (blas.COMPLEX_GEMV_ENTRIES - 1) // (_W_TERMS - 1)


# The coefficients of p, constant term first.
_W_COEFFS = np.array([
    2.899624509389705, 2.6160541527618597, 2.201513794878312, 1.7253830848179779,
    1.2563815675765133, 0.8472174576593815, 0.5266528988277086, 0.2998943799615006,
    0.15504263802479504, 0.07182361779074328, 0.02920291647124188, 0.010048186242783535,
    0.002705405633073729, 0.000439807015986967, -3.939363145483805e-05, -5.5913092642348794e-05,
    -1.8007447144723407e-05, -1.066013898416273e-06, 1.4835661133172014e-06, 5.912136953029057e-07,
    1.419864237295343e-08, -6.351773483015411e-08, -1.8315616834296834e-08, 3.249746582945079e-09,
    3.017780425551564e-09, 2.1085990731251058e-10, -3.5632350403602684e-10, -9.055138860958323e-11,
    3.4727420938907015e-11, 1.771418567386718e-11, -2.7277735625830245e-12, -2.90771851041427e-12,
    1.203330952919568e-13, 4.5341448909434655e-13, 1.3778224047664046e-14, -7.071088022159408e-14,
    -5.231716366324404e-15, 1.1519170220749485e-14, 1.201674910759281e-15, -1.7356980998791865e-15,
])


def _weideman(den):
    """Weideman's series at a 1-d ``den`` = L - iz; real arithmetic when ``den`` is real."""
    Z = 2.0 * _W_L / den - 1.0
    if Z.size <= _W_POWER_POINTS:
        powers = np.empty((_W_TERMS - 1, Z.size), dtype=Z.dtype)
        powers[:] = Z
        np.multiply.accumulate(powers, axis=0, out=powers)
        p = _W_COEFFS[1:] @ powers
        p += _W_COEFFS[0]
    else:
        p = np.full_like(Z, _W_COEFFS[-1])
        for coeff in _W_COEFFS[-2::-1]:
            p *= Z
            p += coeff
    p *= 2.0
    p /= den
    p += 1.0 / math.sqrt(np.pi)
    p /= den
    return p


def _faddeeva(z):
    """w(z) on an array with Im z >= 0 (not checked).

    On the real axis Re w(x) is exp(-x^2) exactly.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = _weideman(_W_L - 1j * flat)
    axis = flat.imag == 0.0
    with np.errstate(over="ignore"):  # x^2 = inf gives exp(-x^2) = 0
        out.real[axis] = np.exp(-np.square(flat.real[axis]))
    return out.reshape(z.shape)


def _faddeeva_continued(z, log_scale, reflected):
    """exp(log_scale) w(z) on arrays of one shape, anywhere in the complex plane.

    Where Im z >= 0 this is ``_faddeeva``.  Below the real axis it uses
    w(z) = 2 exp(-z^2) - w(-z), with ``reflected`` = log_scale - z^2 given by the
    caller in a closed form: exp(-z^2) alone may overflow where the product with
    exp(log_scale) does not, and log_scale - z^2 summed here may cancel.
    """
    z = np.asarray(z, dtype=complex)
    below = z.imag < 0.0
    out = _faddeeva(np.where(below, -z, z))
    out *= np.exp(log_scale)
    out[below] = 2.0 * np.exp(reflected[below]) - out[below]
    return out


def _erfc(x):
    """erfc(x) = exp(-x^2) w(i|x|) for x >= 0, and 2 - erfc(|x|) for x < 0."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x).ravel()
    with np.errstate(over="ignore"):
        value = (np.exp(-np.square(a)) * _weideman(_W_L + a)).reshape(x.shape)
    return np.where(x < 0.0, 2.0 - value, value)


# Wichura's AS241 (PPND16, Appl. Statist. 37, 477, 1988): the normal quantile as
# a ratio of degree-7 polynomials in three ranges.  Row k holds the coefficients
# of x^k in the numerator and the denominator.
_AS241_CENTRAL = np.array([
    [3.3871328727963666080e0, 1.0],
    [1.3314166789178437745e2, 4.2313330701600911252e1],
    [1.9715909503065514427e3, 6.8718700749205790830e2],
    [1.3731693765509461125e4, 5.3941960214247511077e3],
    [4.5921953931549871457e4, 2.1213794301586595867e4],
    [6.7265770927008700853e4, 3.9307895800092710610e4],
    [3.3430575583588128105e4, 2.8729085735721942674e4],
    [2.5090809287301226727e3, 5.2264952788528545610e3],
])[:, :, None]
_AS241_NEAR = np.array([
    [1.42343711074968357734e0, 1.0],
    [4.63033784615654529590e0, 2.05319162663775882187e0],
    [5.76949722146069140550e0, 1.67638483018380384940e0],
    [3.64784832476320460504e0, 6.89767334985100004550e-1],
    [1.27045825245236838258e0, 1.48103976427480074590e-1],
    [2.41780725177450611770e-1, 1.51986665636164571966e-2],
    [2.27238449892691845833e-2, 5.47593808499534494600e-4],
    [7.74545014278341407640e-4, 1.05075007164441684324e-9],
])[:, :, None]
_AS241_FAR = np.array([
    [6.65790464350110377720e0, 1.0],
    [5.46378491116411436990e0, 5.99832206555887937690e-1],
    [1.78482653991729133580e0, 1.36929880922735805310e-1],
    [2.96560571828504891230e-1, 1.48753612908506148525e-2],
    [2.65321895265761230930e-2, 7.86869131145613259100e-4],
    [1.24266094738807843860e-3, 1.84631831751005468180e-5],
    [2.71155556874348757815e-5, 1.42151175831644588870e-7],
    [2.01033439929228813265e-7, 2.04426310338993978564e-15],
])[:, :, None]


def _rational(table, x):
    """num(x) / den(x) at a 1-d ``x``: Horner on both polynomials at once."""
    both = table[-1] * x
    for row in table[-2:0:-1]:
        both += row
        both *= x
    both += table[0]
    return both[0] / both[1]


def _ndtri(p):
    """Standard normal quantile by AS241; -inf at 0, +inf at 1, nan outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    q = flat - 0.5
    # every range is evaluated at every point; the values out of range are dropped
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.sqrt(-np.log(np.minimum(flat, 1.0 - flat)))
        tail = np.where(r <= 5.0, _rational(_AS241_NEAR, r - 1.6), _rational(_AS241_FAR, r - 5.0))
        central = q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    x = np.where(np.abs(q) <= 0.425, central, np.copysign(tail, q))
    return np.where(r == np.inf, np.copysign(np.inf, q), x).reshape(p.shape)


@dataclass(frozen=True)
class Gaussian(FrequencyDistribution):
    """Gaussian density with standard deviation ``std_dev`` at ``center``."""

    std_dev: float
    center: float = 0.0

    def __post_init__(self):
        if not self.std_dev > 0:
            raise ValueError(f"std_dev must be positive, got {self.std_dev}")

    def density(self, omega):
        x = (np.asarray(omega, dtype=float) - self.center) / self.std_dev
        return np.exp(-0.5 * x * x) / (self.std_dev * math.sqrt(2.0 * np.pi))

    def fourier_transform(self, t):
        t = _check_time_nonnegative(t)
        return np.exp(-0.5 * (self.std_dev * t) ** 2 - 1j * self.center * t)

    def cdf(self, omega):
        x = (np.asarray(omega, dtype=float) - self.center) / self.std_dev
        return 0.5 * _erfc(-math.sqrt(0.5) * x)

    def inverse_cdf(self, p):
        p = np.asarray(p, dtype=float)
        return self.center + self.std_dev * _ndtri(p)

    def fourier_tail_integral(self, t0):
        a = self.std_dev / math.sqrt(2.0)
        return math.sqrt(np.pi) / (2.0 * a) * math.erfc(a * t0)

    def laplace_transform(self, omega):
        # The Faddeeva function at Im(z) >= 0, the half plane _faddeeva covers, because Im(w) <= 0.
        s = self.std_dev
        z = -(omega + self.center) / (s * math.sqrt(2.0))
        return math.sqrt(np.pi / 2.0) / s * _faddeeva(z)

    def gaussian_profile_source(self, t, amplitude, width, center):
        # g h is a Gaussian of variance tau^2 = sigma^2 s^2 / (sigma^2 + s^2) about
        # m = mu + (c - mu) sigma^2 / (sigma^2 + s^2), times a constant
        t = _check_time_nonnegative(t)
        spread = math.hypot(self.std_dev, width)
        offset = (center - self.center) / spread
        tau = self.std_dev * (width / spread)
        mean = self.center + offset * (self.std_dev / spread) * self.std_dev
        scale = amplitude * (width / spread) * math.exp(-0.5 * offset * offset)
        return scale * np.exp(-0.5 * (tau * t) ** 2 - 1j * mean * t)

    def abs_moment(self, n):
        s = self.std_dev
        return 2.0 ** ((n - 1) / 2.0) * math.gamma((n + 1) / 2.0) / s ** (n + 1)

    def location_hints(self):
        return (self.center, self.std_dev, 0.0)

    @property
    def heavy_tailed(self):
        return False


@dataclass(frozen=True)
class Mixture(FrequencyDistribution):
    """Finite convex combination of elementary (non-mixture) components."""

    weights: tuple = field()
    components: tuple = field()

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.weights) != len(self.components) or not self.components:
            raise ValueError("weights and components must be non-empty and same length")
        if any(w <= 0 for w in self.weights):
            raise ValueError("mixture weights must be strictly positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {sum(self.weights)}")
        for comp in self.components:
            if isinstance(comp, Mixture):
                raise ValueError("nested mixtures are not supported")

    def density(self, omega):
        return sum(w * c.density(omega) for w, c in zip(self.weights, self.components))

    def fourier_transform(self, t):
        return sum(w * c.fourier_transform(t) for w, c in zip(self.weights, self.components))

    def cdf(self, omega):
        return sum(w * c.cdf(omega) for w, c in zip(self.weights, self.components))

    def inverse_cdf(self, p):
        # Component quantiles bracket the mixture quantile.
        quantiles = [c.inverse_cdf(p) for c in self.components]
        lo, hi = np.minimum.reduce(quantiles), np.maximum.reduce(quantiles)
        return invert_monotone(
            lambda x: (self.cdf(x), self.density(x)), p, 0.5 * (lo + hi), lo, hi
        )

    def fourier_tail_integral(self, t0):
        return sum(w * c.fourier_tail_integral(t0) for w, c in zip(self.weights, self.components))

    def laplace_transform(self, omega):
        return sum(w * c.laplace_transform(omega) for w, c in zip(self.weights, self.components))

    def gaussian_profile_source(self, t, amplitude, width, center):
        return sum(
            w * c.gaussian_profile_source(t, amplitude, width, center)
            for w, c in zip(self.weights, self.components)
        )

    def abs_moment(self, n):
        if len({c.location_hints()[0] for c in self.components}) > 1:
            return self._two_bump_abs_moment(n)  # cross terms oscillate
        moments = [c.abs_moment(n) for c in self.components]
        if None in moments:
            return None
        return sum(w * m for w, m in zip(self.weights, moments))

    def _two_bump_abs_moment(self, n):
        """int_0^inf |ghat| for two equal-weight Cauchy bumps of one width, else None.

        With the bumps at mu -+ omega0, |ghat(t)| = exp(-delta t) |cos(omega0 t)|,
        and summing over the periods pi/omega0 gives
        (delta + omega0 csch x) / (delta^2 + omega0^2), x = pi delta / (2 omega0).
        csch x = -2 exp(-x) / expm1(-2x) neither overflows nor cancels.
        """
        if n != 0 or len(self.components) != 2 or self.weights[0] != self.weights[1]:
            return None
        first, second = self.components
        if not (isinstance(first, Cauchy) and isinstance(second, Cauchy)):
            return None
        delta = first.half_width
        if second.half_width != delta:
            return None
        gap = abs(second.center - first.center)  # 2 omega0 > 0: the centers differ
        omega0, x = 0.5 * gap, math.pi * delta / gap
        csch = -2.0 * math.exp(-x) / math.expm1(-2.0 * x)
        return (delta + omega0 * csch) / (delta * delta + omega0 * omega0)

    def location_hints(self):
        centers = [c.location_hints()[0] for c in self.components]
        scales = [c.location_hints()[1] for c in self.components]
        loc = sum(w * c for w, c in zip(self.weights, centers))
        halfspan = max(abs(c - loc) for c in centers)
        return (loc, max(scales), halfspan)

    @property
    def heavy_tailed(self):
        return any(c.heavy_tailed for c in self.components)


_INVERT_MAX_STEPS = 80
_INVERT_STEP = 4.0 * np.finfo(float).eps  # a point stops once its step is at most this times |x|


def invert_monotone(func, targets, x, lo, hi, data=()):
    """Solve f(x) = targets elementwise for increasing f by Newton steps from ``x``.

    ``func(x, *data)`` returns the pair (f(x), f'(x)), so both come from one
    pass; it must act elementwise, and ``data`` holds arrays of per-point
    parameters.  The start ``x`` lies in the bracket [lo, hi], which shrinks
    to x as residual signs are seen.  A Newton step that leaves the bracket
    bisects it; a step that rounds to zero keeps x, which may then be an end
    of the bracket.

    Each point stops on its own: at x once f(x) equals its target, or once
    the step from x (Newton or bisection) moves it by at most 4 eps |x|.  A
    stopped point keeps its x, and once half the points have stopped the
    sweeps take only those still moving.  So a root does not depend on the
    points solved beside it, and one array can be solved in any blocks.
    """
    shape = np.broadcast(targets, x, lo, hi).shape
    targets, x, lo, hi = (np.broadcast_to(a, shape).astype(float).ravel() for a in (targets, x, lo, hi))
    data = [np.ravel(a) for a in data]
    roots, index = x, np.arange(x.size)
    stopped = np.zeros(x.size, dtype=bool)
    for _ in range(_INVERT_MAX_STEPS):
        f, deriv = func(x, *data)
        f = f - targets
        lo = np.where(f < 0, x, lo)
        hi = np.where(f > 0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - f / deriv
        inside = (step > lo) & (step < hi)
        if not inside.all():
            step = np.where(inside | (step == x), step, 0.5 * (lo + hi))
        stopped |= (np.abs(step - x) <= _INVERT_STEP * np.abs(x)) | (f == 0)
        x = np.where(stopped, x, step)
        moving = x.size - np.count_nonzero(stopped)
        if moving == 0:
            break
        if 2 * moving <= x.size:
            roots[index] = x
            keep = ~stopped
            index, x, targets, lo, hi, stopped = (a[keep] for a in (index, x, targets, lo, hi, stopped))
            data = [a[keep] for a in data]
    roots[index] = x
    return roots.reshape(shape)


def bi_cauchy(half_width, offset):
    """Symmetric two-bump Cauchy mixture (1/2)(g(.+offset) + g(.-offset))."""
    return Mixture(
        weights=(0.5, 0.5),
        components=(Cauchy(half_width, -offset), Cauchy(half_width, offset)),
    )


# ---------------------------------------------------------------------------
# Moment integrals


def fourier_moment(dist, n):
    """int_0^inf t^n |ghat(t)| dt, by closed form or adaptive quadrature."""
    if n < 0 or int(n) != n:
        raise ValueError(f"moment order must be a nonnegative integer, got {n}")
    closed = dist.abs_moment(n)
    if closed is not None:
        return closed

    # Horizon where the envelope tail cannot matter at the 1e-13 level.
    horizon = 1.0
    while True:
        tail = dist.fourier_tail_integral(horizon) * (2.0 * horizon) ** n
        if tail < 1e-13 or horizon > 1e9:
            break
        horizon *= 2.0

    def integrand(t):
        return t**n * np.abs(dist.fourier_transform(t))

    return _gauss_kronrod(integrand, [0.0, horizon], epsabs=1e-12, epsrel=1e-11)


# The nonnegative nodes of the 15-point Kronrod rule on [-1, 1], decreasing, and
# their weights (QUADPACK qk15).  Every second node is a 7-point Gauss node.
_KRONROD_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_KRONROD_HALF_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GK_NODES = np.concatenate((-_KRONROD_HALF[:-1], _KRONROD_HALF[::-1]))
_GK_WEIGHTS = np.concatenate((_KRONROD_HALF_WEIGHTS[:-1], _KRONROD_HALF_WEIGHTS[::-1]))
# K15 - G7 as one weight vector over the 15 nodes.
_GK_DIFFERENCE = _GK_WEIGHTS.copy()
_GAUSS7_HALF_WEIGHTS = np.array([  # as leggauss(7) gives them, outermost first
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
])
_GK_DIFFERENCE[1::2] -= np.concatenate((_GAUSS7_HALF_WEIGHTS, _GAUSS7_HALF_WEIGHTS[-2::-1]))
# Values at -1 and +1 of the degree-14 interpolant through the Kronrod nodes.
_GK_END_VALUES = np.array([
    [np.prod([(x - xk) / (xj - xk) for xk in _GK_NODES if xk != xj]) for x in (-1.0, 1.0)]
    for xj in _GK_NODES
])
#: Largest number of panels the adaptive rule may hold before it gives up.
_GK_MAX_PANELS = 20_000


def _gauss_kronrod(func, edges, epsabs, epsrel):
    """Globally adaptive 7/15-point Gauss-Kronrod integral of ``func`` over sorted ``edges``.

    The edges are finite, and ``func`` maps an array of abscissae to real
    values.  Each sweep calls ``func`` once, on the nodes and ends of all live
    panels.  A panel's error estimate is |K15 - G7| plus the miss of the
    Kronrod interpolant at the panel's ends, which catches a kink between an
    end and the outermost node that both rules would step over.  The value is
    returned once the summed estimates are within max(epsabs, epsrel |value|).
    Until then a panel whose estimate is within half its share of that
    tolerance (1/n for each of n initial panels, halved at each bisection)
    retires, and the others are bisected.  Raises Divergent when the integrand
    is not finite or the panel cap is reached first.
    """
    lo, hi = np.array(edges[:-1], dtype=float), np.array(edges[1:], dtype=float)
    share = np.full(lo.size, 1.0 / lo.size)
    done_value = done_error = 0.0
    done_panels = 0
    while True:
        half = 0.5 * (hi - lo)
        t = np.column_stack((0.5 * (hi + lo)[:, None] + half[:, None] * _GK_NODES, lo, hi))
        f = func(t.ravel()).reshape(t.shape)
        if not np.all(np.isfinite(f)):
            raise Divergent("integrand is not finite at a quadrature node")
        nodes, ends = f[:, :15], f[:, 15:]
        end_miss = np.abs(ends - nodes @ _GK_END_VALUES)
        value = half * (nodes @ _GK_WEIGHTS)
        error = half * (np.abs(nodes @ _GK_DIFFERENCE) + end_miss.sum(axis=1))
        total = done_value + float(value.sum())
        total_error = done_error + float(error.sum())
        tol = max(epsabs, epsrel * abs(total))
        if total_error <= tol:
            return total
        ok = error <= 0.5 * tol * share
        done_value += float(value[ok].sum())
        done_error += float(error[ok].sum())
        done_panels += int(ok.sum())
        split = ~ok
        if done_panels + 2 * int(split.sum()) > _GK_MAX_PANELS or not split.any():
            raise Divergent(
                f"adaptive quadrature did not converge within {_GK_MAX_PANELS} panels "
                f"(value={total}, error estimate={total_error}, tolerance={tol})"
            )
        mid = 0.5 * (lo + hi)[split]
        lo = np.concatenate((lo[split], mid))
        hi = np.concatenate((mid, hi[split]))
        share = 0.5 * np.concatenate((share[split], share[split]))


# ---------------------------------------------------------------------------
# Quadrature grids


@dataclass
class QuadratureGrid:
    """Composite 16-point Gauss-Legendre grid adapted to a density.

    ``weights`` include the density factor g(omega_j); ``bare_weights`` are the
    plain panel weights for d-omega integrals.  Treated as immutable after
    construction.
    """

    nodes: np.ndarray
    weights: np.ndarray
    bare_weights: np.ndarray
    spacing_max: float  # largest gap between neighbouring nodes


def build_grid(dist, node_count, mass_threshold=1.0 - 1e-8):
    """Build a quadrature grid covering at least ``mass_threshold`` of g.

    The interval is cut by the inverse CDF (a quarter of the allowed tail per
    side, so the analytic mass inside strictly exceeds the threshold).  Panels
    are equal width for light-tailed densities and equally spaced in
    asinh((omega - loc)/scale) when any component is heavy tailed, which keeps
    the bulk finely resolved while still reaching far Cauchy tails.  Node
    count is rounded up to a multiple of 16 (one panel = 16 nodes).
    """
    if node_count < 8:
        raise ValueError(f"node_count must be at least 8, got {node_count}")
    if not 0.0 < mass_threshold < 1.0:
        raise ValueError(f"mass_threshold must lie in (0, 1), got {mass_threshold}")

    tail = 1.0 - mass_threshold
    lo = float(dist.inverse_cdf(0.25 * tail))
    hi = float(dist.inverse_cdf(1.0 - 0.25 * tail))
    panels = max(1, math.ceil(node_count / 16))

    if dist.heavy_tailed:
        loc, scale, _ = dist.location_hints()
        z_lo = math.asinh((lo - loc) / scale)
        z_hi = math.asinh((hi - loc) / scale)
        edges = loc + scale * np.sinh(np.linspace(z_lo, z_hi, panels + 1))
    else:
        edges = np.linspace(lo, hi, panels + 1)

    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    bare = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    weights = bare * dist.density(nodes)

    mass = float(weights.sum())
    mass_true = float(dist.cdf(hi) - dist.cdf(lo))
    headroom = mass_true - mass_threshold
    # The quadrature must reproduce the analytic interval mass well inside the
    # headroom left by the tail cut, otherwise the panels are under-resolved.
    if abs(mass - mass_true) > 0.5 * headroom or mass < mass_threshold or mass > 1.0 + 1e-12:
        raise MassNotCovered(
            f"grid mass {mass} vs analytic {mass_true} misses threshold "
            f"{mass_threshold}; increase node_count"
        )
    return QuadratureGrid(nodes, weights, bare, spacing_max=float(np.diff(nodes).max()))


# ---------------------------------------------------------------------------
# Config (de)serialization; exact JSON schema documented in the README


def distribution_from_config(obj):
    """Build a distribution from its JSON description (strict keys)."""
    if not isinstance(obj, dict):
        raise ValueError(f"distribution spec must be an object, got {type(obj).__name__}")
    family = obj.get("family")
    if family == "cauchy":
        require_keys(obj, {"family", "delta"}, {"center"}, "distribution")
        return Cauchy(_spec_number(obj["delta"]), _spec_number(obj.get("center", 0.0)))
    if family == "gaussian":
        require_keys(obj, {"family", "sigma"}, {"center"}, "distribution")
        return Gaussian(_spec_number(obj["sigma"]), _spec_number(obj.get("center", 0.0)))
    if family == "mixture":
        require_keys(obj, {"family", "weights", "components"}, set(), "distribution")
        comps = tuple(distribution_from_config(c) for c in obj["components"])
        return Mixture(weights=tuple(_spec_number(w) for w in obj["weights"]), components=comps)
    raise ValueError(f"unknown distribution family: {family!r}")


def finite_number(val):
    """A JSON number as a float; None for a boolean, a non-number, NaN, an
    infinity (json reads ``1e400`` as one) or an int past float range."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        return float(val) if math.isfinite(val) else None
    except OverflowError:
        return None


def _spec_number(raw):
    val = finite_number(raw)
    if val is None:
        raise ValueError(f"expected a finite number, got {raw!r}")
    return val


def require_keys(obj, required, optional, context):
    """Strict key check for a JSON object: every required key and nothing else."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise ConfigError(f"{context}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
