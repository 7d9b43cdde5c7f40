"""Tests for the dispersion-function stability machinery."""

import cmath
import json
import math

import numpy as np
import pytest

from kuramoto_damping import dispersion
from kuramoto_damping.dispersion import (
    DispersionRelation,
    analyze_stability,
    boundary_values,
    critical_coupling,
    find_unstable_root,
    l1_sufficient_check,
    laplace_transform,
    winding_number,
)
from kuramoto_damping.distributions import (
    Cauchy,
    FrequencyDistribution,
    Gaussian,
    Mixture,
    bi_cauchy,
    build_grid,
    fourier_moment,
)
from kuramoto_damping.exceptions import DomainError, MarginalError

from conftest import dense_winding_oracle

TEST_DISTS = [Cauchy(1.0), Gaussian(1.0), bi_cauchy(1.0, 2.0)]


# ---------------------------------------------------------------------------
# evaluate


def test_two_bump_closed_form():
    # 1 - (K/2) (d + i w) / ((d + i w)^2 + c^2) for the symmetric two-bump family
    d, c, K = 1.0, 2.0, 3.0
    rel = DispersionRelation(bi_cauchy(d, c), K)
    for w in np.linspace(-6, 6, 25):
        z = d + 1j * w
        expected = 1.0 - 0.5 * K * z / (z * z + c * c)
        assert abs(rel.evaluate(w) - expected) <= 1e-8


def test_zero_coupling_is_identically_one():
    rel = DispersionRelation(Cauchy(1.0), 0.0)
    for w in [0.0, 1.0, -3.7, 2.0 - 1.5j]:
        assert rel.evaluate(w) == pytest.approx(1.0, abs=1e-15)


def test_cauchy_critical_value_at_origin():
    # K = 2 Delta is exactly critical: D(0) = 1 - K/2 = 0
    rel = DispersionRelation(Cauchy(1.0), 2.0)
    assert abs(rel.evaluate(0.0)) <= 1e-14
    quad = rel.evaluate_quadrature(0.0)
    assert abs(quad) <= 1e-10


def test_evaluate_rejects_upper_half_plane():
    rel = DispersionRelation(Cauchy(1.0), 1.0)
    with pytest.raises(DomainError):
        rel.evaluate(1.0 + 0.5j)


@pytest.mark.parametrize("dist", TEST_DISTS)
def test_closed_form_matches_quadrature(dist):
    rel = DispersionRelation(dist, 1.0)
    grid = np.linspace(-25.0, 25.0, 200)
    worst = max(abs(rel.evaluate(w) - rel.evaluate_quadrature(w)) for w in grid)
    assert worst <= 1e-7


@pytest.mark.parametrize("dist", TEST_DISTS)
def test_tends_to_one_along_real_axis(dist):
    rel = DispersionRelation(dist, 1.5)
    for big in (5e3, 5e4):
        assert abs(rel.evaluate(big) - 1.0) <= 2e-3
        assert abs(rel.evaluate(-big) - 1.0) <= 2e-3


@pytest.mark.parametrize("dist", TEST_DISTS)
def test_conjugate_reflection_symmetry(dist):
    # All three test densities are symmetric, so D(-conj(w)) = conj(D(w)).
    rel = DispersionRelation(dist, 1.2)
    for w in [0.7, 2.3 - 0.4j, -1.1 - 2.0j]:
        assert rel.evaluate(-np.conj(w)) == pytest.approx(np.conj(rel.evaluate(w)), abs=1e-12)


def test_reflection_identity_for_asymmetric_density():
    # For an asymmetric density the reflection maps onto the mirrored density.
    mix = Mixture((0.3, 0.7), (Cauchy(1.0, -2.0), Cauchy(1.0, 2.0)))
    mirrored = Mixture((0.3, 0.7), (Cauchy(1.0, 2.0), Cauchy(1.0, -2.0)))
    rel = DispersionRelation(mix, 1.5)
    rel_m = DispersionRelation(mirrored, 1.5)
    for w in [0.4, -1.3 - 0.7j]:
        assert rel_m.evaluate(-np.conj(w)) == pytest.approx(np.conj(rel.evaluate(w)), abs=1e-12)


# ---------------------------------------------------------------------------
# boundary values


def test_boundary_values_cross_check_and_symmetry():
    rel = DispersionRelation(Gaussian(1.0), 1.0)
    grid = np.linspace(-4.0, 4.0, 33)
    bv = boundary_values(rel, grid)
    assert np.max(np.abs(bv.laplace - bv.hilbert)) <= 1e-6
    # symmetric unimodal density: D real at omega = 0
    mid = np.argmin(np.abs(bv.omegas))
    assert abs(bv.laplace[mid].imag) <= 1e-10


def test_boundary_real_part_at_origin_cauchy():
    # Re D(0) = 1 - K/2 for the unit Cauchy
    rel = DispersionRelation(Cauchy(1.0), 1.0)
    val = rel.evaluate_boundary(0.0)
    assert val.real == pytest.approx(0.5, abs=1e-10)
    assert val.imag == pytest.approx(0.0, abs=1e-10)


def test_two_bump_boundary_zero_locations():
    # Im D vanishes exactly at 0 and +-sqrt(offset^2 - width^2)
    kc, crit = critical_coupling(bi_cauchy(1.0, 2.0))
    rel = DispersionRelation(bi_cauchy(1.0, 2.0), 3.0)
    zero_omegas = [w for (w, _, _) in analyze_stability(bi_cauchy(1.0, 2.0), 3.0).boundary_zeros]
    expected = sorted([-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
    assert len(zero_omegas) == 3
    np.testing.assert_allclose(sorted(zero_omegas), expected, atol=1e-6)


def test_boundary_values_requires_sorted_grid():
    rel = DispersionRelation(Cauchy(1.0), 1.0)
    with pytest.raises(ValueError):
        boundary_values(rel, [1.0, 0.5, 2.0])


# ---------------------------------------------------------------------------
# winding number


def test_winding_zero_coupling():
    assert winding_number(DispersionRelation(Gaussian(1.0), 0.0)) == 0


def test_winding_around_cauchy_threshold():
    assert winding_number(DispersionRelation(Cauchy(1.0), 1.9)) == 0
    assert winding_number(DispersionRelation(Cauchy(1.0), 2.1)) == 1


def test_winding_two_bump_above_threshold():
    assert winding_number(DispersionRelation(bi_cauchy(1.0, 2.0), 4.2)) >= 1


@pytest.mark.parametrize("dist", TEST_DISTS)
@pytest.mark.parametrize("factor", [0.5, 0.9, 1.2, 1.8])
def test_winding_matches_dense_oracle(dist, factor):
    kc, _ = critical_coupling(dist)
    rel = DispersionRelation(dist, factor * kc)
    omega_max = 2000.0
    xs = np.linspace(-omega_max, omega_max, 400_001)
    curve = rel.evaluate(xs)
    closed = np.concatenate(([1.0], curve, [1.0]))
    oracle = -dense_winding_oracle(closed)
    assert winding_number(rel) == oracle


def test_winding_marginal_at_threshold():
    with pytest.raises(MarginalError):
        winding_number(DispersionRelation(Cauchy(1.0), 2.0))


@pytest.mark.parametrize("dist", TEST_DISTS)
def test_winding_criterion_equivalence_scan(dist):
    # winding = 0 exactly when K < K_c, within one grid step of K_c
    kc, _ = critical_coupling(dist)
    couplings = np.linspace(0.0, 2.0 * kc, 20)
    step = couplings[1] - couplings[0]
    for k in couplings:
        try:
            wind = winding_number(DispersionRelation(dist, k))
        except MarginalError:
            assert abs(k - kc) <= step
            continue
        if abs(k - kc) > step:
            assert (wind == 0) == (k < kc)


# ---------------------------------------------------------------------------
# critical coupling


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_cauchy_critical_coupling(delta):
    kc, crit = critical_coupling(Cauchy(delta))
    assert kc == pytest.approx(2.0 * delta, rel=1e-6)
    assert crit == pytest.approx([0.0], abs=1e-9)


def test_gaussian_critical_coupling():
    kc, crit = critical_coupling(Gaussian(1.0))
    assert kc == pytest.approx(np.sqrt(8.0 / np.pi), rel=1e-5)
    assert crit == pytest.approx([0.0], abs=1e-9)


def test_two_bump_critical_coupling_small_offset():
    kc, _ = critical_coupling(bi_cauchy(1.0, 0.5))
    assert kc == pytest.approx(2.5, rel=1e-6)


def test_two_bump_critical_coupling_large_offset():
    kc, crit = critical_coupling(bi_cauchy(1.0, 2.0))
    assert kc == pytest.approx(4.0, rel=1e-6)
    np.testing.assert_allclose(crit, [-np.sqrt(3.0), np.sqrt(3.0)], atol=1e-6)


def test_asymmetric_two_bump_criterion_consistency():
    # Winding-based classification agrees with the boundary-criterion K_c for
    # asymmetric two-bump mixtures as well (checked empirically).
    for alpha in (0.3, 0.7):
        mix = Mixture((alpha, 1.0 - alpha), (Cauchy(1.0, 2.0), Cauchy(1.0, -2.0)))
        kc, _ = critical_coupling(mix)
        assert winding_number(DispersionRelation(mix, 0.97 * kc)) == 0
        assert winding_number(DispersionRelation(mix, 1.03 * kc)) >= 1


# ---------------------------------------------------------------------------
# unstable roots


def test_cauchy_root_closed_form():
    root = find_unstable_root(DispersionRelation(Cauchy(1.0), 4.0))
    assert root == pytest.approx(-1j, abs=1e-8)
    assert abs(DispersionRelation(Cauchy(1.0), 4.0).evaluate(root)) <= 1e-10


def test_root_approaches_axis_near_threshold():
    root = find_unstable_root(DispersionRelation(Cauchy(1.0), 2.0 * 1.001))
    assert root is not None
    assert -0.1 <= root.imag < 0.0


def test_no_root_at_zero_coupling():
    assert find_unstable_root(DispersionRelation(Cauchy(1.0), 0.0)) is None


@pytest.mark.parametrize("dist", TEST_DISTS)
def test_roots_exist_above_threshold(dist):
    kc, _ = critical_coupling(dist)
    rel = DispersionRelation(dist, 1.5 * kc)
    root = find_unstable_root(rel)
    assert root is not None and root.imag < 0
    assert abs(rel.evaluate(root)) <= 1e-10


# ---------------------------------------------------------------------------
# sufficient condition


def test_l1_check_cauchy_matches_threshold():
    assert l1_sufficient_check(DispersionRelation(Cauchy(1.0), 1.99))
    assert not l1_sufficient_check(DispersionRelation(Cauchy(1.0), 2.01))


def test_l1_check_gaussian_matches_threshold():
    # int |ghat| = sqrt(pi/2), so the check is K < 2 / sqrt(pi/2) = K_c
    kc, _ = critical_coupling(Gaussian(1.0))
    assert l1_sufficient_check(DispersionRelation(Gaussian(1.0), 0.99 * kc))
    assert not l1_sufficient_check(DispersionRelation(Gaussian(1.0), 1.01 * kc))


def test_l1_check_zero_coupling():
    assert l1_sufficient_check(DispersionRelation(Gaussian(1.0), 0.0))


@pytest.mark.parametrize("dist", TEST_DISTS)
def test_l1_check_implies_stable_verdict(dist):
    kc, _ = critical_coupling(dist)
    for k in (0.0, 0.4 * kc, 0.9 * kc):
        rel = DispersionRelation(dist, k)
        if l1_sufficient_check(rel):
            assert analyze_stability(dist, k).verdict == "Stable"


# ---------------------------------------------------------------------------
# reports


def test_report_two_bump_below_threshold():
    rep = analyze_stability(bi_cauchy(1.0, 2.0), 3.9)
    assert rep.verdict == "Stable"
    assert rep.winding_number == 0
    assert rep.unstable_roots == []


def test_report_two_bump_above_threshold():
    rep = analyze_stability(bi_cauchy(1.0, 2.0), 4.1)
    assert rep.verdict == "Unstable"
    assert rep.winding_number >= 1
    assert len(rep.unstable_roots) >= 1
    assert rep.unstable_roots[0].imag < 0


def test_report_verdict_consistency():
    rep = analyze_stability(Cauchy(1.0), 1.0)
    assert rep.verdict == "Stable"
    assert rep.winding_number == 0
    assert rep.diagnostics["minBoundaryAbsD"] > 0

    rep_json = rep.to_json_dict()
    assert set(rep_json) == {
        "verdict",
        "windingNumber",
        "boundaryZeros",
        "unstableRoots",
        "criticalCoupling",
        "criticalFrequencies",
        "diagnostics",
    }


def test_report_scans_zeros_and_winds_once(monkeypatch):
    calls = {"_boundary_imag_zeros": 0, "_winding_details": 0}

    def counted(name):
        original = getattr(dispersion, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(dispersion, name, wrapper)

    for name in calls:
        counted(name)
    rep = analyze_stability(Cauchy(1.0), 2.6)
    assert rep.verdict == "Unstable" and len(rep.unstable_roots) == 1
    assert calls == {"_boundary_imag_zeros": 1, "_winding_details": 1}


@pytest.mark.parametrize("dist", TEST_DISTS)
def test_report_root_equals_find_unstable_root(dist):
    kc, _ = critical_coupling(dist)
    rep = analyze_stability(dist, 1.3 * kc)
    assert rep.critical_coupling == kc
    assert rep.unstable_roots == [find_unstable_root(DispersionRelation(dist, 1.3 * kc))]


def test_report_marginal_at_threshold():
    rep = analyze_stability(Cauchy(1.0), 2.0)
    assert rep.verdict == "MarginallyUnstable"
    assert rep.winding_number is None


def test_marginal_report_writes_no_winding_number():
    # At its K_c this mixture's contour passes too near the origin to count a
    # winding.  A fallback of 0 below K_c and 1 above let the last bit of K_c
    # decide: 1 at K = 1.0879851681937402 with K_c computed one ulp lower, 0
    # with K_c computed as that same K.
    mix = Mixture((0.3, 0.7), (Cauchy(0.4, -1.6), Gaussian(0.48, 1.2)))
    kc, _ = critical_coupling(mix)
    assert kc == pytest.approx(1.0879851681937402, rel=1e-15)
    for coupling in (np.nextafter(kc, 0.0), kc, np.nextafter(kc, 2.0)):
        report = analyze_stability(mix, coupling).to_json_dict()
        assert report["verdict"] == "MarginallyUnstable"
        assert report["windingNumber"] is None
        assert report["diagnostics"]["contourPoints"] == 0
        assert report["unstableRoots"] == []
    assert '"windingNumber": null' in json.dumps(report)


# ---------------------------------------------------------------------------
# boundary zeros of Im L


@pytest.mark.parametrize("delta, omega0", [(1.0, 2.0), (0.5, 1.4), (0.8, 1.6), (1.0, 0.5)])
def test_two_bump_boundary_zeros_closed_form(delta, omega0):
    # Im L vanishes at 0 and, once omega0 > delta, at +-sqrt(omega0^2 - delta^2)
    side = [np.sqrt(omega0**2 - delta**2)] if omega0 > delta else []
    expected = sorted([0.0, *side, *(-s for s in side)])
    zeros = dispersion._boundary_imag_zeros(bi_cauchy(delta, omega0))
    assert len(zeros) == len(expected)
    np.testing.assert_allclose(zeros, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "dist",
    [bi_cauchy(1.0, 2.0), bi_cauchy(0.2, 5.0),
     Mixture((0.3, 0.7), (Cauchy(0.5, -2.0), Gaussian(0.6, 1.5)))],
    ids=["bi-cauchy-1-2", "bi-cauchy-0.2-5", "cauchy-gauss"],
)
def test_boundary_zeros_match_brentq(dist):
    from scipy import optimize

    def im(w):
        return float(np.imag(laplace_transform(dist, w)))

    zeros = dispersion._boundary_imag_zeros(dist)
    assert len(zeros) >= 2
    for z in zeros:
        if im(z) == 0.0:
            continue
        ref = optimize.brentq(im, z - 1e-3, z + 1e-3, xtol=1e-14, rtol=4.0 * np.finfo(float).eps)
        assert abs(z - ref) <= 1e-13


# The bench's stability configurations at frequency scales 1 and 1.25, with the
# reports the scipy quad/brentq implementation gave: (verdict, winding number,
# K_c, l1SufficientCheck).
_REFERENCE_REPORTS = {
    ("cauchy", 1.0, 0.7): ("Stable", 0, 2.0, True),
    ("cauchy", 1.0, 1.3): ("Unstable", 1, 2.0, False),
    ("gaussian", 1.0, 0.7): ("Stable", 0, 1.5957691216057308, True),
    ("gaussian", 1.0, 1.3): ("Unstable", 1, 1.5957691216057308, False),
    ("two-bump", 1.0, 0.7): ("Stable", 0, 4.000000000000004, True),
    ("two-bump", 1.0, 1.3): ("Unstable", 2, 4.000000000000004, False),
    ("cauchy", 1.25, 0.7): ("Stable", 0, 2.5, True),
    ("cauchy", 1.25, 1.3): ("Unstable", 1, 2.5, False),
    ("gaussian", 1.25, 0.7): ("Stable", 0, 1.9947114020071635, True),
    ("gaussian", 1.25, 1.3): ("Unstable", 1, 1.9947114020071635, False),
    ("two-bump", 1.25, 0.7): ("Stable", 0, 4.999999999999996, True),
    ("two-bump", 1.25, 1.3): ("Unstable", 2, 4.999999999999996, False),
}
_BENCH_FAMILIES = {
    "cauchy": lambda s: (Cauchy(s), 2.0 * s),
    "gaussian": lambda s: (Gaussian(s), np.sqrt(8.0 / np.pi) * s),
    "two-bump": lambda s: (bi_cauchy(s, 2.0 * s), 4.0 * s),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_REPORTS), ids=lambda c: "-".join(map(str, c)))
def test_bench_stability_reports_match_reference(case):
    family, scale, factor = case
    dist, kc = _BENCH_FAMILIES[family](scale)
    verdict, winding, kc_ref, l1 = _REFERENCE_REPORTS[case]
    report = analyze_stability(dist, factor * kc).to_json_dict()
    assert (report["verdict"], report["windingNumber"]) == (verdict, winding)
    assert report["criticalCoupling"] == pytest.approx(kc_ref, rel=1e-12, abs=0.0)
    assert report["diagnostics"]["l1SufficientCheck"] is l1


# ---------------------------------------------------------------------------
# a family is one class


class _Lorentzian(FrequencyDistribution):
    """The centred Cauchy density, written as a family of its own.

    Nothing outside this class knows it: the dispersion machinery must reach
    every closed form through the interface.
    """

    def __init__(self, delta):
        self.delta = delta

    def density(self, omega):
        x = np.asarray(omega, dtype=float)
        return self.delta / (np.pi * (x * x + self.delta**2))

    def density_derivative(self, omega, order):
        self._validate_order(order)
        z = (np.asarray(omega, dtype=float) - 1j * self.delta) ** (-(order + 1))
        return (-1.0) ** order * math.factorial(order) / np.pi * z.imag

    def fourier_transform(self, t):
        return np.exp(-self.delta * np.asarray(t, dtype=float)) + 0j

    def cdf(self, omega):
        return 0.5 + np.arctan(np.asarray(omega, dtype=float) / self.delta) / np.pi

    def inverse_cdf(self, p):
        return self.delta * np.tan(np.pi * (np.asarray(p, dtype=float) - 0.5))

    def fourier_tail_integral(self, t0):
        return math.exp(-self.delta * t0) / self.delta

    def location_hints(self):
        return (0.0, self.delta, 0.0)

    @property
    def heavy_tailed(self):
        return True

    def laplace_transform(self, omega):
        return 1.0 / (self.delta + 1j * omega)

    def abs_moment(self, n):
        return math.factorial(n) / self.delta ** (n + 1)


@pytest.mark.parametrize("delta", [0.5, 2.0])
def test_family_outside_distributions_runs_through_dispersion(delta):
    dist = _Lorentzian(delta)
    kc, crit = critical_coupling(dist)
    assert kc == pytest.approx(2.0 * delta, rel=1e-12)
    assert crit == pytest.approx([0.0], abs=1e-9)
    below = analyze_stability(dist, 0.7 * kc)
    assert (below.verdict, below.winding_number, below.unstable_roots) == ("Stable", 0, [])
    above = analyze_stability(dist, 1.3 * kc)
    assert (above.verdict, above.winding_number) == ("Unstable", 1)
    assert len(above.unstable_roots) == 1
    assert fourier_moment(dist, 0) == pytest.approx(1.0 / delta, rel=1e-15)
    grid = build_grid(dist, 2048, 0.999)
    np.testing.assert_array_equal(grid.nodes, build_grid(Cauchy(delta), 2048, 0.999).nodes)


# ---------------------------------------------------------------------------
# winding refinement in sweeps against the work-stack refinement


def _stack_winding_details(relation):
    """Reference: the scalar work-stack midpoint refinement the sweeps replaced."""
    loc, scale, halfspan = relation.dist.location_hints()
    omega_max = abs(loc) + halfspan + 20.0 * scale + 100.0 * max(relation.coupling, 1.0)
    xs = list(np.linspace(-omega_max, omega_max, dispersion._WINDING_POINTS))
    ds = list(relation.evaluate(np.array(xs)))
    total_points = len(xs)

    def ok(d0, d1):
        jump = abs(cmath.phase(d1 / d0)) if d0 != 0 and d1 != 0 else np.inf
        chord = abs(d1 - d0)
        return jump < 0.5 * np.pi and chord <= dispersion._WINDING_CHORD * min(abs(d0), abs(d1))

    out_d = [ds[0]]
    stack = [(xs[i], ds[i], xs[i + 1], ds[i + 1]) for i in range(len(xs) - 1)][::-1]
    hit_floor = False
    while stack:
        x0, d0, x1, d1 = stack.pop()
        if ok(d0, d1) or (x1 - x0) < 1e-13 * (1.0 + abs(x0)):
            if not ok(d0, d1):
                hit_floor = True
            out_d.append(d1)
            continue
        if total_points >= dispersion._WINDING_MAX_POINTS:
            raise MarginalError("budget exhausted", min_abs=float(np.min(np.abs(ds))))
        xm = 0.5 * (x0 + x1)
        dm = relation.evaluate(xm)
        total_points += 1
        stack.append((xm, dm, x1, d1))
        stack.append((x0, d0, xm, dm))

    dvals = np.array(out_d)
    mods = np.abs(dvals)
    i_min = int(np.argmin(mods))
    min_abs = float(mods[i_min])
    lo, hi = max(0, i_min - 1), min(len(dvals) - 1, i_min + 1)
    local_res = float(np.max(np.abs(np.diff(dvals[lo : hi + 1])))) if hi > lo else 0.0
    if hit_floor or min_abs <= max(10.0 * local_res, 1e-9):
        raise MarginalError("passes near the origin", min_abs=min_abs)
    total = float(np.sum(np.angle(dvals[1:] / dvals[:-1])))
    total += cmath.phase(dvals[0]) - cmath.phase(dvals[-1])
    winding = -total / (2.0 * np.pi)
    nearest = int(round(winding))
    if abs(winding - nearest) > 0.05:
        raise MarginalError("not an integer", min_abs=min_abs)
    return nearest, len(dvals), min_abs


_SWEEP_DISTS = {
    "cauchy": Cauchy(1.0),
    "gaussian": Gaussian(1.0),
    "bi-cauchy-1-2": bi_cauchy(1.0, 2.0),
    "cauchy-gauss": Mixture((0.3, 0.7), (Cauchy(0.5, -2.0), Gaussian(0.6, 1.5))),
}


@pytest.mark.parametrize("factor", [0.7, 1.3])
@pytest.mark.parametrize("name", sorted(_SWEEP_DISTS))
def test_winding_sweeps_match_stack_refinement(name, factor):
    dist = _SWEEP_DISTS[name]
    relation = DispersionRelation(dist, factor * critical_coupling(dist)[0])
    wind, points, min_abs = dispersion._winding_details(relation)
    ref_wind, ref_points, ref_min_abs = _stack_winding_details(relation)
    assert (wind, points) == (ref_wind, ref_points)
    assert min_abs == pytest.approx(ref_min_abs, rel=1e-15, abs=0.0)


def test_winding_sweeps_and_stack_both_marginal_at_threshold():
    relation = DispersionRelation(Cauchy(1.0), 2.0)
    with pytest.raises(MarginalError):
        dispersion._winding_details(relation)
    with pytest.raises(MarginalError):
        _stack_winding_details(relation)
