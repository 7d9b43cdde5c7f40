"""Linear stability of the incoherent state via the dispersion function.

The memory kernel of the linearized order-parameter equation is
G(t) = (K/2) ghat(t); its dispersion function on the closed lower half plane

    D(w) = 1 - (K/2) * L(w),   L(w) = int_0^inf ghat(t) exp(-i w t) dt,

has no zeros with Im(w) <= 0 exactly when the incoherent state is linearly
stable.  L is each family's closed form, and two equivalent views of D are
implemented:

* the boundary criterion: where Im L vanishes at a real w*, D is real, and
  stability requires K < 2 / Re L(w*) (Re L(w) = pi g(-w) on the real axis),
* the winding number of the image of the real line under D around the origin,
  which counts the zeros in the open lower half plane.  It is read off the
  same zeros w*: the curve crosses the negative real axis only at a w* with
  D(w*) < 0 (the Penrose criterion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import fourier_moment
from .exceptions import DomainError, MarginalError, NoZeroFound, RootNotConverged

__all__ = [
    "DispersionRelation",
    "StabilityReport",
    "laplace_transform",
    "critical_coupling",
    "find_unstable_root",
    "l1_sufficient_check",
    "analyze_stability",
]

#: |D| below this value on the real axis is treated as a marginal case.
MARGINAL_ABS_TOL = 1e-6
# |D(w*)| at or below this at a real zero w* of Im L: the curve meets the origin.
_WINDING_FLOOR = 1e-9
_SCAN_POINTS = 4001  # samples of Im L on the real axis when bracketing its zeros
# Bracket width at which a zero of Im L counts as found: xtol + rtol |x|, as in brentq.
_ZERO_XTOL, _ZERO_RTOL = 1e-14, 4.0 * np.finfo(float).eps
# Newton on D: residual tolerance, iteration cap, central-difference step.
_ROOT_TOL, _NEWTON_MAX_ITER, _DIFF_STEP = 1e-10, 100, 1e-6


def _check_lower_half(omega):
    if np.any(np.imag(np.atleast_1d(omega)) > 0):
        raise DomainError(f"dispersion function is defined for Im(omega) <= 0, got {omega}")


def laplace_transform(dist, omega):
    """L(w) = int_0^inf ghat(t) exp(-i w t) dt in closed form, Im(w) <= 0.

    The closed form is the family's own ``laplace_transform``.
    """
    _check_lower_half(omega)
    total = dist.laplace_transform(np.asarray(omega, dtype=complex))
    return total if np.ndim(total) else complex(total)


def _envelope_horizon(dist, coupling):
    """A t with (K/2) int_t^inf |ghat| below 1e-12, at most 4096: diagnostics.laplaceHorizon."""
    tail_tol = 1e-12 / max(coupling / 2.0, 1e-6)
    t = 1.0
    while dist.fourier_tail_integral(t) > tail_tol and t < 4096.0:
        t *= 2.0
    return t


def _scan_window(dist):
    """Ends of the real window in which the zeros of Im L are sought."""
    loc, scale, halfspan = dist.location_hints()
    span = halfspan + 12.0 * scale
    return loc - span, loc + span


# ---------------------------------------------------------------------------
# Dispersion relation


@dataclass(frozen=True)
class DispersionRelation:
    """Dispersion function D(w) = 1 - (K/2) L(w) for one density and coupling."""

    dist: object
    coupling: float

    def __post_init__(self):
        if self.coupling < 0:
            raise ValueError(f"coupling must be nonnegative, got {self.coupling}")

    def evaluate(self, omega):
        """D(w) for Im(w) <= 0, closed form."""
        return 1.0 - 0.5 * self.coupling * laplace_transform(self.dist, omega)


# ---------------------------------------------------------------------------
# Winding number


def _winding(relation, zeros):
    """(winding number, points read) from the sorted real zeros of Im L.

    D(R) starts and ends at D(+-inf) = 1 and meets the real axis only at the
    zeros w* of Im L, so it winds once around the origin for each signed
    crossing of the negative real axis: a w* with D(w*) < 0 across which Im L
    changes sign.  The sign s_i of Im L is read once on each interval the zeros
    cut the scan window into: at its midpoint, or at the window's end for the
    two outer ones.  Ascending w keeps the lower half plane on the right, so by
    the argument principle winding = -1/2 sum over D(w*_i) < 0 of
    (s_{i+1} - s_i) counts the zeros of D below the axis positively.
    MarginalError when min |D(w*)| <= 1e-9.
    """
    zeros = np.array(zeros)
    d_zeros = relation.evaluate(zeros)
    min_abs = float(np.min(np.abs(d_zeros)))
    if min_abs <= _WINDING_FLOOR:
        raise MarginalError(f"dispersion curve passes within {min_abs:.3e} of the origin")
    lo, hi = _scan_window(relation.dist)
    probes = np.concatenate(([lo], 0.5 * (zeros[:-1] + zeros[1:]), [hi]))
    signs = np.sign(np.imag(laplace_transform(relation.dist, probes)))
    crossings = np.diff(signs)[np.real(d_zeros) < 0.0]
    return int(-0.5 * np.sum(crossings)), zeros.size + probes.size


# ---------------------------------------------------------------------------
# Boundary criterion and critical coupling


def _boundary_imag_zeros(dist):
    """Sorted real zeros of Im L (equivalently of Im D for any K > 0)."""
    xs = np.linspace(*_scan_window(dist), _SCAN_POINTS)
    im = np.imag(laplace_transform(dist, xs))
    change = np.nonzero(im[:-1] * im[1:] < 0.0)[0]
    zeros = sorted([*xs[im == 0.0], *_refine_sign_changes(dist, xs[change], xs[change + 1])])
    # Deduplicate near-identical roots from adjacent brackets.
    unique = []
    for z in zeros:
        if not unique or abs(z - unique[-1]) > 1e-8 * (1.0 + abs(z)):
            unique.append(z)
    if not unique:
        raise NoZeroFound("no real zero of the boundary criterion was found")
    return unique


def _refine_sign_changes(dist, lo, hi):
    """Refine every bracket [lo, hi] of a sign change of Im L at once.

    Illinois steps: regula falsi, halving the value at an end that is kept twice
    in a row.  A bracket that three steps have not halved, or whose falsi point
    is not strictly inside, is bisected, so every bracket at least halves in four
    steps.  Every bracket steps until each is at most 1e-14 + 4 eps |x| wide, as
    brentq stops, and the midpoints are returned.  There are few brackets, so
    their bookkeeping is on Python floats; each step takes Im L at all new points
    in one call.  A NaN value of Im L raises NoZeroFound.
    """

    def im(x):  # real points, so the half-plane check of ``laplace_transform`` is moot
        values = np.imag(dist.laplace_transform(np.array(x, dtype=complex))).tolist()
        if any(map(math.isnan, values)):
            raise NoZeroFound(f"Im L is NaN at a point of {x}, inside a bracket of its sign change")
        return values

    lo, hi = lo.tolist(), hi.tolist()
    f_lo, f_hi = im(lo), im(hi)
    went_left = [None] * len(lo)  # the side of the previous step: the zero in [lo, x]
    widths = [[float("inf")] * len(lo)] * 3  # bracket widths of the last three steps
    while any(b - a > _ZERO_XTOL + _ZERO_RTOL * max(abs(a), abs(b)) for a, b in zip(lo, hi)):
        x = []
        for a, b, fa, fb, w in zip(lo, hi, f_lo, f_hi, widths[0]):
            # fa is nonzero with the sign opposite fb's, unless halving underflowed it to 0
            falsi = (a * fb - b * fa) / (fb - fa) if fb != fa else a
            x.append(falsi if b - a <= 0.5 * w and a < falsi < b else 0.5 * (a + b))
        for i, (v, fv) in enumerate(zip(x, im(x))):
            if (fv > 0) - (fv < 0) != (f_lo[i] > 0) - (f_lo[i] < 0):  # the zero lies in [lo, x]
                if went_left[i] is True:
                    f_lo[i] *= 0.5
                if fv == 0.0:
                    lo[i] = v
                hi[i], f_hi[i] = v, fv
                went_left[i] = True
            else:
                if went_left[i] is False:
                    f_hi[i] *= 0.5
                lo[i], f_lo[i] = v, fv
                went_left[i] = False
        widths = widths[1:] + [[b - a for a, b in zip(lo, hi)]]
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def critical_coupling(dist):
    """Smallest coupling at which the boundary criterion fails.

    Finds all real zeros w* of the principal-value part, where D is real, and
    returns (K_c, critical frequencies) with K_c = min 2 / Re L(w*).  By the
    affine structure D = 1 - (K/2) L this is exactly where D first touches 0.
    """
    return _critical(dist, _boundary_imag_zeros(dist))


def _critical(dist, zeros):
    """(K_c, critical frequencies) from the sorted real zeros of Im L."""
    candidates = 2.0 / np.real(laplace_transform(dist, np.array(zeros)))
    kc = float(np.min(candidates))
    return kc, [z for z, c in zip(zeros, candidates) if c <= kc * (1.0 + 1e-9)]


def l1_sufficient_check(relation):
    """True when (K/2) int_0^inf |ghat| < 1, a sufficient stability condition."""
    return 0.5 * relation.coupling * fourier_moment(relation.dist, 0) < 1.0


# ---------------------------------------------------------------------------
# Unstable roots


def find_unstable_root(relation):
    """A zero of D in the open lower half plane, or None when winding is 0.

    Damped Newton iteration on D with a numeric derivative (central
    differences, step 1e-6), seeded just below the boundary zeros nearest to
    criterion failure.  One scan of the real zeros of Im L gives the winding
    number and those seeds.
    """
    zeros = _boundary_imag_zeros(relation.dist)
    try:
        w = _winding(relation, zeros)[0]
    except MarginalError:
        w = 1  # marginal curves sit at the edge; still attempt a root search
    if w == 0:
        return None
    return _newton_root(relation, *_critical(relation.dist, zeros))


def _newton_root(relation, kc, crit):
    """Damped Newton for a zero of D seeded below ``crit``; RootNotConverged if none."""
    _, scale, _ = relation.dist.location_hints()
    margin = max(relation.coupling / kc - 1.0, 1e-3)
    seeds = []
    for w_star in crit:
        for depth in (0.5 * margin, 0.1, 0.5, 1.0, 2.0):
            seeds.append(complex(w_star, -depth * scale * max(margin, 0.05)))
            seeds.append(complex(w_star, -depth * scale))

    def eval_lower(z):
        # Newton may probe slightly above the axis where D is not defined;
        # reflect the probe back to the boundary.
        if z.imag > 0:
            z = complex(z.real, 0.0)
        return relation.evaluate(z), z

    for seed in seeds:
        z = seed
        val, z = eval_lower(z)
        converged = False
        for _ in range(_NEWTON_MAX_ITER):
            if abs(val) <= _ROOT_TOL:
                converged = True
                break
            below = complex(z.real, min(z.imag, -1e-9))
            pair = np.array([below + _DIFF_STEP, below - _DIFF_STEP])
            ahead, behind = relation.evaluate(pair).tolist()  # rounds as scalar calls did
            deriv = (ahead - behind) / (2.0 * _DIFF_STEP)
            if deriv == 0:
                break
            step = val / deriv
            lam = 1.0
            while lam > 1e-6:
                trial = z - lam * step
                trial_val, trial = eval_lower(trial)
                if abs(trial_val) < abs(val):
                    z, val = trial, trial_val
                    break
                lam *= 0.5
            else:
                break
        if converged and z.imag < 0:  # val = D(z) already passed the tolerance
            return z
    raise RootNotConverged(
        f"no unstable root converged from {len(seeds)} seeds at coupling {relation.coupling}"
    )


# ---------------------------------------------------------------------------
# Stability report


@dataclass
class StabilityReport:
    """Full classification of one (distribution, coupling) pair."""

    verdict: str  # "Stable" | "MarginallyUnstable" | "Unstable"
    winding_number: int | None  # None when the curve passes too near the origin
    boundary_zeros: list  # (omega, Re D, Im D) triples
    unstable_roots: list  # complex roots with Im < 0
    critical_coupling: float
    critical_frequencies: list
    diagnostics: dict

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "windingNumber": self.winding_number,
            "boundaryZeros": [
                {"omega": w, "reD": re, "imD": im} for (w, re, im) in self.boundary_zeros
            ],
            "unstableRoots": [{"re": z.real, "im": z.imag} for z in self.unstable_roots],
            "criticalCoupling": self.critical_coupling,
            "criticalFrequencies": list(self.critical_frequencies),
            "diagnostics": self.diagnostics,
        }


def analyze_stability(dist, coupling, boundary_points=2001):
    """Classify linear stability of the incoherent state at one coupling.

    One scan of the real zeros of Im L gives the boundary zeros, K_c, the
    winding number and the seeds of the root search.
    """
    relation = DispersionRelation(dist, coupling)
    zeros = _boundary_imag_zeros(dist)
    kc, crit = _critical(dist, zeros)
    d_zeros = relation.evaluate(np.array(zeros))
    boundary = [(float(z), float(d.real), float(d.imag)) for z, d in zip(zeros, d_zeros)]

    grid = np.linspace(*_scan_window(dist), boundary_points)
    dvals = np.append(relation.evaluate(grid), d_zeros)
    min_abs = float(np.min(np.abs(dvals)))

    try:
        wind, contour_points = _winding(relation, zeros)
    except MarginalError:
        wind, contour_points = None, 0

    roots = []
    if wind is not None and wind > 0:
        try:
            roots.append(_newton_root(relation, kc, crit))
        except RootNotConverged:
            pass

    if wind is None or min_abs <= MARGINAL_ABS_TOL:
        verdict = "MarginallyUnstable"
    elif wind == 0:
        verdict = "Stable"
    else:
        verdict = "Unstable"

    return StabilityReport(
        verdict=verdict,
        winding_number=wind,
        boundary_zeros=boundary,
        unstable_roots=roots,
        critical_coupling=kc,
        critical_frequencies=[float(c) for c in crit],
        diagnostics={
            "minBoundaryAbsD": min_abs,
            "boundaryPoints": int(boundary_points),
            "contourPoints": int(contour_points),
            "laplaceHorizon": float(_envelope_horizon(dist, coupling)),
            "l1SufficientCheck": bool(l1_sufficient_check(relation)),
        },
    )
