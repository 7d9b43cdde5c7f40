"""Tests of the benchmark's oracles, so that a wrong closed form cannot pass.

    python3 -m pytest bench/test_oracles.py -q

Each closed form is checked against an independent route (limits, direct
quadrature of its defining integral, or the Volterra equation it solves),
and each artifact check is shown to reject a corrupted artifact.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def cauchy_density(delta, center, w):
    return delta / (math.pi * (delta**2 + (w - center) ** 2))


def two_bump_laplace(delta, omega0, w):
    """L(w) = int_0^inf ghat(t) e^{-iwt} dt for the symmetric two-bump density."""
    return 0.5 * (1.0 / (delta + 1j * (w - omega0)) + 1.0 / (delta + 1j * (w + omega0)))


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize("delta,omega0", [(1.0, 0.5), (0.8, 0.0), (1.2, 2.0)])
def test_two_bump_response_at_zero_coupling_is_free_transport(delta, omega0):
    t = np.linspace(0.0, 8.0, 33)
    expected = np.exp(-delta * t) * np.cos(omega0 * t)
    got = oracles.two_bump_linear_response(delta, omega0, 0.0, t)
    assert np.allclose(got, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("coupling", [0.5, 1.5, 2.0, 3.0])
def test_two_bump_response_starts_at_one(coupling):
    # K = 2.0 with w0 = 0.5 is the double root K^2/16 = w0^2
    assert oracles.two_bump_linear_response(1.0, 0.5, coupling, 0.0) == pytest.approx(1.0)


def test_two_bump_response_is_continuous_at_the_double_root():
    t = np.linspace(0.0, 6.0, 25)
    at = oracles.two_bump_linear_response(1.0, 0.5, 2.0, t)
    near = oracles.two_bump_linear_response(1.0, 0.5, 2.0 + 1e-7, t)
    assert np.allclose(at, near, rtol=0, atol=1e-6)


@pytest.mark.parametrize("coupling", [1.5, 2.0, 2.4])
def test_two_bump_response_solves_the_volterra_equation(coupling):
    delta, omega0 = 1.0, 0.5

    def ghat(t):
        return np.exp(-delta * t) * np.cos(omega0 * t)

    def r(t):
        return float(np.real(oracles.two_bump_linear_response(delta, omega0, coupling, t)))

    for t in (0.7, 2.0, 5.0):
        memory, _ = integrate.quad(lambda s: ghat(t - s) * r(s), 0.0, t, epsabs=1e-13)
        assert r(t) == pytest.approx(ghat(t) + 0.5 * coupling * memory, abs=1e-10)


def test_kc_two_bump_is_continuous_at_the_branch_point():
    delta = 1.3
    assert oracles.kc_two_bump(delta, delta) == pytest.approx(4.0 * delta, rel=1e-15)
    below = oracles.kc_two_bump(delta, delta * (1.0 - 1e-9))
    above = oracles.kc_two_bump(delta, delta * (1.0 + 1e-9))
    assert below == pytest.approx(above, rel=1e-8)


@pytest.mark.parametrize("delta,omega0", [(1.0, 0.0), (1.0, 0.6), (0.9, 2.0), (1.1, 3.3)])
def test_kc_two_bump_is_the_boundary_criterion(delta, omega0):
    """K_c = 2 / Re L(w*) at the critical zeros w*, where Im L vanishes."""
    kc = oracles.kc_two_bump(delta, omega0)
    for w in oracles.two_bump_critical_frequencies(delta, omega0):
        value = two_bump_laplace(delta, omega0, w)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert 2.0 / value.real == pytest.approx(kc, rel=1e-12)
        density = 0.5 * (cauchy_density(delta, -omega0, w) + cauchy_density(delta, omega0, w))
        assert 2.0 / (math.pi * density) == pytest.approx(kc, rel=1e-12)


@pytest.mark.parametrize("delta,omega0", [(1.0, 2.0), (0.9, 1.5), (1.0, 0.5)])
def test_two_bump_boundary_zeros_are_all_real_zeros(delta, omega0):
    zeros = oracles.two_bump_boundary_zeros(delta, omega0)
    for w in zeros:
        assert two_bump_laplace(delta, omega0, w).imag == pytest.approx(0.0, abs=1e-12)
    w = np.linspace(-10.0, 10.0, 200000)  # no node sits exactly on a zero
    im = two_bump_laplace(delta, omega0, w).imag
    assert np.count_nonzero(np.diff(np.sign(im)) != 0) == len(zeros)


def test_unimodal_thresholds_are_two_over_pi_g0():
    assert oracles.kc_cauchy(0.7) == pytest.approx(2.0 / (math.pi * cauchy_density(0.7, 0.0, 0.0)))
    sigma = 1.3
    g0 = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    assert oracles.kc_gaussian(sigma) == pytest.approx(2.0 / (math.pi * g0))


@pytest.mark.parametrize("t", [0.0, 0.8, 2.5])
def test_gaussian_free_response_is_the_fourier_transform(t):
    sigma = 0.9
    value, _ = integrate.quad(
        lambda w: math.exp(-0.5 * (w / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        * math.cos(w * t),
        -np.inf, np.inf, epsabs=1e-14,
    )
    assert oracles.gaussian_free_response(sigma, t) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("delta,width,t", [(1.0, 1.0, 0.0), (0.8, 1.2, 1.5), (1.25, 0.8, 6.0)])
def test_cauchy_gaussian_source_is_its_defining_integral(delta, width, t):
    amplitude = 0.7
    value, _ = integrate.quad(
        lambda w: cauchy_density(delta, 0.0, w) * amplitude
        * math.exp(-0.5 * (w / width) ** 2) * math.cos(w * t),
        -np.inf, np.inf, epsabs=1e-14, limit=200,
    )
    assert oracles.cauchy_gaussian_source(delta, width, amplitude, t) == pytest.approx(
        value, abs=1e-12
    )


def test_resolvent_reproduces_the_closed_form_for_f_equal_ghat():
    delta, coupling = 1.1, 1.2
    times = 1e-2 * np.arange(1001)
    got = oracles.cauchy_resolvent_response(
        delta, coupling, lambda t: np.exp(-delta * t), times
    )
    expected = oracles.cauchy_linear_response(delta, coupling, times)
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


# quad warns that interpolated R limits its accuracy; the tolerance allows for it
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_resolvent_solves_the_volterra_equation_for_the_mode_source():
    delta, coupling, width = 1.0, 1.0, 1.1

    def source(t):
        return oracles.cauchy_gaussian_source(delta, width, 1.0, t)

    times = 1e-2 * np.arange(501)
    r = oracles.cauchy_resolvent_response(delta, coupling, source, times)
    for j in (100, 300, 500):
        t = times[j]
        memory, _ = integrate.quad(
            lambda s: math.exp(-delta * (t - s)) * np.interp(s, times, r), 0.0, t,
            epsabs=1e-12, limit=400,
        )
        # linear interpolation of R inside the quadrature costs O(h^2)
        assert r[j] == pytest.approx(source(t) + 0.5 * coupling * memory, abs=1e-5)


def test_finite_n_tolerance_shrinks_with_n():
    assert oracles.finite_n_tolerance(40_000) < oracles.finite_n_tolerance(10_000)
    assert oracles.finite_n_tolerance(10_000) == pytest.approx(5e-3)


# ---------------------------------------------------------------------------
# artifact checks reject corrupted artifacts


def write_csv(path, header, columns):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def write_order_parameter(outdir, t, r, weight=4):
    write_csv(
        outdir / "R.csv", ["t", "Re(R)", "Im(R)", "abs(R)", "w"],
        [t, r.real, r.imag, np.abs(r), (1 + t) ** weight * np.abs(r)],
    )


def test_linear_checks(tmp_path):
    delta, coupling = 1.0, 1.0
    t = 1e-3 * np.arange(2001)
    write_order_parameter(tmp_path, t, oracles.cauchy_linear_response(delta, coupling, t) + 0j)
    assert oracles.linear_closed_form_error(tmp_path, delta, coupling) < 1e-15
    assert oracles.linear_closed_form_error(tmp_path, delta, 1.01 * coupling) > 1e-5
    assert oracles.check_bound("x", 2e-5, 1e-5) and not oracles.check_bound("x", 1e-6, 1e-5)
    assert not oracles.check_second_order(4e-6, 1e-6)
    assert oracles.check_second_order(2e-6, 1e-6)


def test_linear_mode_check(tmp_path):
    delta, coupling, width, amplitude = 1.0, 1.0, 1.0, 0.8
    t = 1e-3 * np.arange(3001)
    exact = oracles.cauchy_resolvent_response(
        delta, coupling, lambda s: oracles.cauchy_gaussian_source(delta, width, amplitude, s), t
    )
    write_order_parameter(tmp_path, t, exact + 0j)
    assert not oracles.check_linear_mode(tmp_path, delta, coupling, width, amplitude)
    assert oracles.check_linear_mode(tmp_path, delta, coupling, 1.01 * width, amplitude)


def test_finite_n_check(tmp_path):
    delta, omega0, coupling, eps, count = 1.0, 0.5, 1.5, 1e-2, 10_000
    t = np.linspace(0.0, 5.0, 51)
    z = np.conj(eps * oracles.two_bump_linear_response(delta, omega0, coupling, t)) + 0j
    write_csv(tmp_path / "zn.csv", ["t", "Re", "Im", "abs"], [t, z.real, z.imag, np.abs(z)])
    assert not oracles.check_finite_n(tmp_path, delta, omega0, coupling, eps, count)
    # not conjugating is the sign error the check must catch
    assert oracles.check_finite_n(tmp_path, delta, omega0, coupling, -eps, count)


def test_nonlinear_damping_check(tmp_path):
    t = np.linspace(0.0, 30.0, 61)
    write_order_parameter(tmp_path, t, np.exp(-0.6 * t) + 0j)
    report = {"recurrenceTime": 90.0, "verdict": "Converged"}
    (tmp_path / "scattering.json").write_text(json.dumps(report))
    assert not oracles.check_nonlinear_damping(tmp_path)
    write_order_parameter(tmp_path, t, np.exp(-0.1 * t) + 0j)  # too slow: no 1e-6, envelope grows
    assert len(oracles.check_nonlinear_damping(tmp_path)) == 2
    (tmp_path / "scattering.json").write_text(json.dumps({**report, "recurrenceTime": 10.0}))
    write_order_parameter(tmp_path, t, np.exp(-0.6 * t) + 0j)
    assert oracles.check_nonlinear_damping(tmp_path)


def test_nonlinear_free_check(tmp_path):
    sigma = 1.1
    t = np.linspace(0.0, 6.0, 7)
    write_order_parameter(tmp_path, t, oracles.gaussian_free_response(sigma, t) + 0j)
    high, low = 3.0 * np.ones_like(t), 0.8 * np.ones_like(t)
    write_csv(tmp_path / "diagnostics.csv", ["t", "w", "Hn/(1+t)", "Hn-2"],
              [t, t, high / (1 + t), low])
    report = {"pairwiseNorms": [1e-10, 1e-10], "initialWeightedNorm": 3.0}
    (tmp_path / "scattering.json").write_text(json.dumps(report))
    assert not oracles.check_nonlinear_free(tmp_path, sigma)
    assert oracles.check_nonlinear_free(tmp_path, 1.01 * sigma)
    write_csv(tmp_path / "diagnostics.csv", ["t", "w", "Hn/(1+t)", "Hn-2"],
              [t, t, high, low])  # H^n not divided by (1+t) grows
    assert oracles.check_nonlinear_free(tmp_path, sigma)


def test_stability_kc_scan_and_witness_checks(tmp_path):
    delta, omega0 = 1.0, 2.0
    kc = oracles.kc_two_bump(delta, omega0)
    zeros = oracles.two_bump_boundary_zeros(delta, omega0)
    report = {
        "verdict": "Stable",
        "criticalCoupling": kc,
        "boundaryZeros": [{"omega": w, "reD": 0.5, "imD": 0.0} for w in zeros],
    }
    (tmp_path / "stability_report.json").write_text(json.dumps(report))
    assert not oracles.check_stability(tmp_path, kc, zeros, 0.7 * kc)
    assert oracles.check_stability(tmp_path, kc, zeros, 1.3 * kc)
    assert oracles.check_stability(tmp_path, kc, [0.0], 0.7 * kc)

    offsets = [0.0, 1.0, 2.0]
    with open(tmp_path / "kc_scan.csv", "w") as fh:
        fh.write("param,K_c,critical_omegas\n")
        for w0 in offsets:
            crit = ";".join(repr(w) for w in oracles.two_bump_critical_frequencies(delta, w0))
            fh.write(f"{w0},{oracles.kc_two_bump(delta, w0)!r},{crit}\n")
    assert not oracles.check_kc_scan(tmp_path, [(delta, w0) for w0 in offsets])
    assert oracles.check_kc_scan(tmp_path, [(1.1 * delta, w0) for w0 in offsets])

    coupling = 4.0
    (tmp_path / "witness_report.json").write_text(json.dumps({"predictedRate": 1.0}))
    t = np.linspace(0.0, 5.0, 51)
    write_order_parameter(tmp_path, t, np.exp((1.0 + 1j) * t))
    assert not oracles.check_witness(tmp_path, delta, coupling)
    write_order_parameter(tmp_path, t, np.exp((1.01 + 1j) * t))
    assert oracles.check_witness(tmp_path, delta, coupling)
