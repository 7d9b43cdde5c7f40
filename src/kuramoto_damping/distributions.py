"""Frequency densities of the oscillator ensemble.

Parametric families g(omega) with exact derivatives, the Fourier transform
ghat(t) = int g(omega) exp(-i t omega) domega, moment integrals of |ghat|,
weighted Sobolev norms, and quadrature grids adapted to the density.  Every
other module consumes frequency distributions through this interface.

Supported families: Cauchy (Lorentzian), Gaussian, and finite mixtures of
those two.  All have exponentially decaying |ghat|, so Laplace-type integrals
over t can be truncated with an explicit tail bound.

Conventions
-----------
* Fourier transform: ghat(t) = int g(omega) exp(-i t omega) domega.
* Sobolev norm: ||g||_{H^n}^2 = sum_{k<=n} int (1+omega^2) |g^(k)(omega)|^2.
* Grid weights w_j include the density factor g(omega_j); the bare panel
  weights are kept alongside for plain d-omega integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np
from scipy import special

from .exceptions import ConfigError, Divergent, MassNotCovered, UnsupportedOrder

__all__ = [
    "FrequencyDistribution",
    "Cauchy",
    "Gaussian",
    "Mixture",
    "QuadratureGrid",
    "bi_cauchy",
    "fourier_moment",
    "sobolev_norm",
    "build_grid",
    "invert_monotone",
    "distribution_from_config",
    "require_keys",
    "MAX_DERIVATIVE_ORDER",
]

#: Largest derivative order implemented in closed form for every family.
MAX_DERIVATIVE_ORDER = 8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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

    def density_derivative(self, omega, order):
        """Exact ``order``-th derivative of g at ``omega``.

        Raises UnsupportedOrder beyond MAX_DERIVATIVE_ORDER; higher orders are
        rejected rather than silently finite-differenced.
        """
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

    def abs_moment(self, n):
        """int_0^inf t^n |ghat(t)| dt in closed form, or None when there is none."""
        return None

    def to_config(self):
        """The JSON description that ``distribution_from_config`` reads back."""
        raise NotImplementedError

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

    def _components(self):
        """Flat list of (weight, elementary distribution)."""
        return [(1.0, self)]

    def _validate_order(self, order):
        if order < 0 or int(order) != order:
            raise UnsupportedOrder(f"derivative order must be a nonnegative integer, got {order}")
        if order > MAX_DERIVATIVE_ORDER:
            raise UnsupportedOrder(
                f"derivative order {order} exceeds implemented closed forms "
                f"(max {MAX_DERIVATIVE_ORDER})"
            )


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

    def density_derivative(self, omega, order):
        self._validate_order(order)
        # Partial fractions: g = Im[(x - i*Delta)^{-1}] / pi, so every
        # derivative is an exact complex power.
        x = np.asarray(omega, dtype=float) - self.center
        z = (x - 1j * self.half_width) ** (-(order + 1))
        return ((-1.0) ** order) * math.factorial(order) / np.pi * z.imag

    def fourier_transform(self, t):
        t = _check_time_nonnegative(t)
        return np.exp(-(self.half_width + 1j * self.center) * t)

    def cdf(self, omega):
        x = np.asarray(omega, dtype=float) - self.center
        return 0.5 + np.arctan(x / self.half_width) / np.pi

    def inverse_cdf(self, p):
        p = np.asarray(p, dtype=float)
        return self.center + self.half_width * np.tan(np.pi * (p - 0.5))

    def fourier_tail_integral(self, t0):
        return math.exp(-self.half_width * t0) / self.half_width

    def laplace_transform(self, omega):
        return 1.0 / (self.half_width + 1j * (omega + self.center))

    def abs_moment(self, n):
        return math.factorial(n) / self.half_width ** (n + 1)

    def to_config(self):
        return {"family": "cauchy", "delta": self.half_width, "center": self.center}

    def location_hints(self):
        return (self.center, self.half_width, 0.0)

    @property
    def heavy_tailed(self):
        return True


def _hermite_probabilist(order, x):
    """He_order(x) via the three-term recurrence."""
    h0 = np.ones_like(x)
    if order == 0:
        return h0
    h1 = x.copy()
    for k in range(1, order):
        h0, h1 = h1, x * h1 - k * h0
    return h1


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

    def density_derivative(self, omega, order):
        self._validate_order(order)
        x = (np.asarray(omega, dtype=float) - self.center) / self.std_dev
        he = _hermite_probabilist(order, x)
        return ((-1.0) ** order) * he * self.density(omega) / self.std_dev**order

    def fourier_transform(self, t):
        t = _check_time_nonnegative(t)
        return np.exp(-0.5 * (self.std_dev * t) ** 2 - 1j * self.center * t)

    def cdf(self, omega):
        x = (np.asarray(omega, dtype=float) - self.center) / self.std_dev
        return special.ndtr(x)

    def inverse_cdf(self, p):
        p = np.asarray(p, dtype=float)
        return self.center + self.std_dev * special.ndtri(p)

    def fourier_tail_integral(self, t0):
        a = self.std_dev / math.sqrt(2.0)
        return math.sqrt(np.pi) / (2.0 * a) * special.erfc(a * t0)

    def laplace_transform(self, omega):
        # The Faddeeva function, in its reliable half plane because Im(w) <= 0.
        s = self.std_dev
        z = -(omega + self.center) / (s * math.sqrt(2.0))
        return math.sqrt(np.pi / 2.0) / s * special.wofz(z)

    def abs_moment(self, n):
        s = self.std_dev
        return 2.0 ** ((n - 1) / 2.0) * math.gamma((n + 1) / 2.0) / s ** (n + 1)

    def to_config(self):
        return {"family": "gaussian", "sigma": self.std_dev, "center": self.center}

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

    def density_derivative(self, omega, order):
        self._validate_order(order)
        return sum(
            w * c.density_derivative(omega, order)
            for w, c in zip(self.weights, self.components)
        )

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

    def abs_moment(self, n):
        if len({c.location_hints()[0] for c in self.components}) > 1:
            return None  # cross terms oscillate, no elementary closed form
        moments = [c.abs_moment(n) for c in self.components]
        if None in moments:
            return None
        return sum(w * m for w, m in zip(self.weights, moments))

    def to_config(self):
        return {
            "family": "mixture",
            "weights": list(self.weights),
            "components": [c.to_config() for c in self.components],
        }

    def location_hints(self):
        centers = [c.location_hints()[0] for c in self.components]
        scales = [c.location_hints()[1] for c in self.components]
        loc = sum(w * c for w, c in zip(self.weights, centers))
        halfspan = max(abs(c - loc) for c in centers)
        return (loc, max(scales), halfspan)

    @property
    def heavy_tailed(self):
        return any(c.heavy_tailed for c in self.components)

    def _components(self):
        return list(zip(self.weights, self.components))


_INVERT_MAX_STEPS = 80
_INVERT_RESIDUAL = 1e-14


def invert_monotone(func, targets, x, lo, hi):
    """Solve f(x) = targets elementwise for increasing f by Newton steps from ``x``.

    ``func(x)`` returns the pair (f(x), f'(x)), so both come from one pass.
    A step that leaves the bracket [lo, hi], shrunk as residual signs are seen, bisects it;
    a step that rounds to zero keeps x, which may already be an end of the bracket.
    """
    for _ in range(_INVERT_MAX_STEPS):
        f, deriv = func(x)
        f = f - targets
        lo = np.where(f < 0, np.maximum(lo, x), lo)
        hi = np.where(f > 0, np.minimum(hi, x), hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / deriv
        bad = (~np.isfinite(newton) | (newton <= lo) | (newton >= hi)) & (newton != x)
        x = np.where(bad, 0.5 * (lo + hi), newton)
        if np.max(np.abs(f)) < _INVERT_RESIDUAL:
            break
    return x


def bi_cauchy(half_width, offset):
    """Symmetric two-bump Cauchy mixture (1/2)(g(.+offset) + g(.-offset))."""
    return Mixture(
        weights=(0.5, 0.5),
        components=(Cauchy(half_width, -offset), Cauchy(half_width, offset)),
    )


# ---------------------------------------------------------------------------
# Moment and norm integrals


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


def _real_line_integral(func, dist):
    """Adaptive integral of ``func`` over the real line, split at the bulk and the centers."""
    loc, scale, halfspan = dist.location_hints()
    a = abs(loc) + halfspan + 12.0 * scale
    centers = {c.location_hints()[0] for _, c in dist._components()}
    edges = [-np.inf, -a, *sorted(centers), a, np.inf]
    return _gauss_kronrod(func, edges, epsabs=1e-13, epsrel=1e-11)


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
_GK_DIFFERENCE[1::2] -= np.polynomial.legendre.leggauss(7)[1]
# Values at -1 and +1 of the degree-14 interpolant through the Kronrod nodes.
_GK_END_VALUES = np.array([
    [np.prod([(x - xk) / (xj - xk) for xk in _GK_NODES if xk != xj]) for x in (-1.0, 1.0)]
    for xj in _GK_NODES
])
#: Largest number of panels the adaptive rule may hold before it gives up.
_GK_MAX_PANELS = 20_000


def _gauss_kronrod(func, edges, epsabs, epsrel):
    """Globally adaptive 7/15-point Gauss-Kronrod integral of ``func`` over sorted ``edges``.

    ``func`` maps an array of abscissae to real values.  An infinite first or last
    edge maps its half-line onto s in [0, 1) by t = a -+ s/(1-s), a the finite end.
    Each sweep calls ``func`` once, on the nodes and ends of all live panels.  A
    panel's error estimate is |K15 - G7| plus the miss of the Kronrod interpolant
    at the panel's ends, which catches a kink between an end and the outermost
    node that both rules would step over.  The value is returned once the summed
    estimates are within max(epsabs, epsrel |value|).  Until then a panel whose
    estimate is within half its share of that tolerance (its fraction of the
    parameter length) retires, and the others are bisected.  Raises Divergent
    when the integrand is not finite or the panel cap is reached first.
    """
    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        if math.isinf(a):
            panels.append((0.0, 1.0, b, -1.0))
        elif math.isinf(b):
            panels.append((0.0, 1.0, a, 1.0))
        else:
            panels.append((a, b, 0.0, 0.0))
    lo, hi, anchor, side = np.array(panels, dtype=float).T
    share = np.full(lo.size, 1.0 / lo.size)
    done_value = done_error = 0.0
    done_panels = 0
    while True:
        half = 0.5 * (hi - lo)
        s = np.column_stack((0.5 * (hi + lo)[:, None] + half[:, None] * _GK_NODES, lo, hi))
        t, jac = s.copy(), np.ones_like(s)
        tail = side != 0.0
        at_infinity = tail[:, None] & (s == 1.0)
        if tail.any():
            u = 1.0 / (1.0 - np.where(at_infinity, 0.0, s)[tail])
            t[tail] = anchor[tail, None] + side[tail, None] * (u - 1.0)
            jac[tail] = u * u
        f = func(t.ravel()).reshape(t.shape) * jac
        if not np.all(np.isfinite(f)):
            raise Divergent("integrand is not finite at a quadrature node")
        nodes, ends = f[:, :15], f[:, 15:]
        end_miss = np.where(at_infinity[:, 15:], 0.0, np.abs(ends - nodes @ _GK_END_VALUES))
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
        anchor, side, share = (np.concatenate((v[split], v[split])) for v in (anchor, side, share))
        share *= 0.5


def sobolev_norm(dist, n):
    """Weighted Sobolev norm ||g||_{H^n} with weight sqrt(1 + omega^2).

    Uses adaptive quadrature over the whole real line: the Cauchy integrands
    decay only like omega^-2, far too slowly for a mass-threshold grid cut.
    """
    if n < 0 or int(n) != n:
        raise ValueError(f"Sobolev order must be a nonnegative integer, got {n}")
    if n > MAX_DERIVATIVE_ORDER:
        raise UnsupportedOrder(
            f"Sobolev order {n} needs derivatives beyond the implemented closed forms"
        )
    total = 0.0
    for k in range(n + 1):

        def term(w, _k=k):
            d = dist.density_derivative(w, _k)
            return (1.0 + w * w) * d * d

        total += _real_line_integral(term, dist)
    return math.sqrt(total)


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
    mass_covered: float
    mass_threshold: float
    spacing_min: float
    spacing_max: float
    truncation_mass: float

    @property
    def node_count(self):
        return self.nodes.size


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
    gaps = np.diff(nodes)
    return QuadratureGrid(
        nodes=nodes,
        weights=weights,
        bare_weights=bare,
        mass_covered=mass,
        mass_threshold=mass_threshold,
        spacing_min=float(gaps.min()),
        spacing_max=float(gaps.max()),
        truncation_mass=float(1.0 - (dist.cdf(hi) - dist.cdf(lo))),
    )


# ---------------------------------------------------------------------------
# Config (de)serialization; exact JSON schema documented in the README


def distribution_from_config(obj):
    """Build a distribution from its JSON description (strict keys)."""
    if not isinstance(obj, dict):
        raise ValueError(f"distribution spec must be an object, got {type(obj).__name__}")
    family = obj.get("family")
    if family == "cauchy":
        require_keys(obj, {"family", "delta"}, {"center"}, "distribution")
        return Cauchy(half_width=float(obj["delta"]), center=float(obj.get("center", 0.0)))
    if family == "gaussian":
        require_keys(obj, {"family", "sigma"}, {"center"}, "distribution")
        return Gaussian(std_dev=float(obj["sigma"]), center=float(obj.get("center", 0.0)))
    if family == "mixture":
        require_keys(obj, {"family", "weights", "components"}, set(), "distribution")
        comps = tuple(distribution_from_config(c) for c in obj["components"])
        return Mixture(weights=tuple(float(w) for w in obj["weights"]), components=comps)
    raise ValueError(f"unknown distribution family: {family!r}")


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
