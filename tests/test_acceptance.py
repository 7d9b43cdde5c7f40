"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria with runtime budgets assert them with wall-clock margins.
"""

import json
import time

import numpy as np
import pytest

from kuramoto_damping.cli import main
from kuramoto_damping.dispersion import (
    DispersionRelation,
    analyze_stability,
    critical_coupling,
    winding_number,
)
from kuramoto_damping.distributions import Cauchy, Gaussian, bi_cauchy, build_grid
from kuramoto_damping.exceptions import BlowupDetected, MarginalError
from kuramoto_damping.finiten import sample_oscillators, simulate
from kuramoto_damping.spectral import (
    initialize,
    recurrence_horizon,
    run,
    scattering_profile,
)
from kuramoto_damping.volterra import (
    VolterraProblem,
    VolterraSolution,
    instability_witness,
    kuramoto_kernel,
    solve,
)

from solver_routes import empirical_stability_constant


def _report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def _mode_constant(w):
    return np.ones_like(np.asarray(w), dtype=complex)


def _mode_gaussian(w):
    return np.exp(-0.5 * np.asarray(w, dtype=float) ** 2) + 0j


# ---------------------------------------------------------------------------
# shared damping run (criteria 9 and 10)


@pytest.fixture(scope="module")
def damping_run():
    dist = Gaussian(1.0)
    grid = build_grid(dist, 512)
    state = initialize(dist, grid, 8, 1e-3, 1.0, modes={1: _mode_gaussian})
    horizon = recurrence_horizon(grid)
    result = run(
        state,
        0.01,
        horizon,
        output_every=25,
        weight_order=4,
        snapshot_times=(8.0, 16.0, 24.0, 32.0),
    )
    return state, result


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_two_bump_threshold_scan(tmp_path):
    start = time.perf_counter()
    offsets = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"parameter": "omega0", "values": offsets, "delta": 1.0}))
    out = tmp_path / "out"
    code = main(["kc-scan", "--config", str(cfg), "--out", str(out)])
    rows = (out / "kc_scan.csv").read_text().strip().splitlines()[1:]
    measured = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    worst = 0.0
    for offset in offsets:
        expected = 2.0 * (1.0 + offset**2) if offset <= 1.0 else 4.0
        worst = max(worst, abs(measured[offset] - expected) / expected)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "two-bump critical coupling matches 2(1+w0^2) / 4 within 1e-5",
        code == 0 and worst <= 1e-5 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_symmetric_unimodal_threshold():
    start = time.perf_counter()
    worst_cauchy = 0.0
    for delta in (0.5, 1.0, 2.0):
        kc, _ = critical_coupling(Cauchy(delta))
        worst_cauchy = max(worst_cauchy, abs(kc - 2.0 * delta))
    kc_gauss, _ = critical_coupling(Gaussian(1.0))
    gauss_err = abs(kc_gauss - np.sqrt(8.0 / np.pi)) / np.sqrt(8.0 / np.pi)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "unimodal thresholds: 2*Delta within 1e-6 and sqrt(8/pi) within 1e-5",
        worst_cauchy <= 1e-6 and gauss_err <= 1e-5 and elapsed < 5.0,
        f"cauchy {worst_cauchy:.2e}, gaussian rel {gauss_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_boundary_zero_locations():
    report = analyze_stability(bi_cauchy(1.0, 2.0), 3.0)
    zeros = sorted(w for (w, _, _) in report.boundary_zeros)
    expected = sorted([-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
    ok = len(zeros) == 3 and all(abs(a - b) <= 1e-6 for a, b in zip(zeros, expected))
    _report(
        3,
        "two-bump boundary zeros at 0 and +-sqrt(3) within 1e-6",
        ok,
        f"zeros {[round(z, 8) for z in zeros]}",
    )


def test_criterion_4_winding_criterion_equivalence():
    start = time.perf_counter()
    mismatches = []
    for dist in (Cauchy(1.0), Gaussian(1.0), bi_cauchy(1.0, 2.0)):
        kc, _ = critical_coupling(dist)
        couplings = np.linspace(0.0, 2.0 * kc, 50)
        step = couplings[1] - couplings[0]
        for k in couplings:
            try:
                wind = winding_number(DispersionRelation(dist, float(k)))
            except MarginalError:
                if abs(k - kc) > step:
                    mismatches.append((type(dist).__name__, float(k), "marginal"))
                continue
            if abs(k - kc) > step and (wind == 0) != (k < kc):
                mismatches.append((type(dist).__name__, float(k), wind))
    elapsed = time.perf_counter() - start
    _report(
        4,
        "winding number vanishes exactly below the critical coupling (50-point scans)",
        not mismatches and elapsed < 60.0,
        f"mismatches {mismatches}, {elapsed:.1f}s",
    )


def test_criterion_5_exponential_witness():
    source, rate = instability_witness(Cauchy(1.0), 4.0, 1.0)
    solution = solve(VolterraProblem(kuramoto_kernel(Cauchy(1.0), 4.0), source, 1e-3, 5.0))
    rel = np.abs(solution.values) / np.exp(rate * solution.times)
    worst = float(np.max(np.abs(rel - 1.0)))
    _report(
        5,
        "witness source grows like e^t (root -i) within 2% on [0, 5]",
        abs(rate - 1.0) <= 1e-8 and worst <= 0.02,
        f"rate {rate:.6f}, worst rel dev {worst:.2e}",
    )


def test_criterion_6_weighted_sup_ratio_bounded():
    start = time.perf_counter()

    def plain(t):
        return (1.0 + np.asarray(t, dtype=float)) ** -4.0 + 0j

    def cosine(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t) ** -4.0 * np.cos(t) + 0j

    def rotating(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t) ** -4.0 * np.exp(1j * t)

    estimate = empirical_stability_constant(
        Cauchy(1.0), 1.0, 4, [plain, cosine, rotating], 0.02, 200.0
    )
    r_half = estimate.ratios_by_horizon[100.0]
    r_full = estimate.ratios_by_horizon[200.0]
    growth = r_full / r_half - 1.0
    elapsed = time.perf_counter() - start
    _report(
        6,
        "weighted-sup ratio at T=200 within 20% of T=100 (boundedness)",
        growth < 0.20 and elapsed < 30.0,
        f"ratios {r_half:.4f} -> {r_full:.4f} (+{100 * growth:.2f}%), {elapsed:.1f}s",
    )


def test_criterion_7_marching_scheme_order():
    kernel = kuramoto_kernel(Cauchy(1.0), 1.5)

    def source(t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * t) / (1.0 + t) ** 2

    ref = solve(VolterraProblem(kernel, source, 0.1 / 16, 20.0))
    errors = []
    for dt in (0.1, 0.05):
        sol = solve(VolterraProblem(kernel, source, dt, 20.0))
        stride = int(round(dt / (0.1 / 16)))
        errors.append(float(np.max(np.abs(sol.values - ref.values[::stride]))))
    factor = errors[0] / errors[1]
    _report(
        7,
        "halving dt shrinks the marching error by at least 3.5x",
        factor >= 3.5,
        f"factor {factor:.2f}",
    )


def test_criterion_8_linear_nonlinear_consistency():
    dist = Gaussian(1.0)
    grid = build_grid(dist, 512)
    # half the echo horizon, rounded onto the shared output lattice
    horizon = np.floor(recurrence_horizon(grid) / 2.0 / 0.1) * 0.1
    state = initialize(dist, grid, 8, 1e-6, 1.0, modes={1: _mode_constant})
    result = run(state, 0.01, horizon, output_every=10)

    vol = solve(
        VolterraProblem(
            kuramoto_kernel(dist, 1.0), lambda t: dist.fourier_transform(t), 1e-3, horizon
        )
    )
    stride = int(round((result.times[1] - result.times[0]) / 1e-3))
    err = float(np.max(np.abs(result.order_params - vol.values[::stride][: result.times.size])))
    budget = 1e-4 * abs(result.order_params[0])
    _report(
        8,
        "mode simulation at eps=1e-6 matches the memory-kernel solution",
        err <= budget,
        f"sup err {err:.2e} vs budget {budget:.2e} on [0, {horizon:.1f}]",
    )


def test_criterion_9_nonlinear_damping(damping_run):
    start = time.perf_counter()
    state, res = damping_run
    horizon = recurrence_horizon(state.grid)
    t, magnitude = res.times, np.abs(res.order_params)
    weighted = (1.0 + t) ** 4 * magnitude
    r0 = magnitude[0]
    below = t[magnitude <= 1e-6 * r0]
    decayed = below.size > 0 and below[0] < horizon
    window = t >= 5.0
    envelope_growth = float(np.max(weighted[window]) / weighted[window][0])
    elapsed = time.perf_counter() - start
    _report(
        9,
        "|R| falls below 1e-6 |R(0)| before the echo horizon; weighted envelope "
        "grows at most 10% after t=5",
        decayed and envelope_growth <= 1.10 and elapsed < 300.0,
        f"first crossing {below[0] if below.size else None}, horizon "
        f"{horizon:.1f}, envelope ratio {envelope_growth:.4f}",
    )


def test_criterion_10_scattering_convergence(damping_run):
    report = scattering_profile(*damping_run, 4)
    times_found = report.snapshot_times
    norms = report.pairwise_norms
    monotone = all(b < a for a, b in zip(norms[:-1], norms[1:]))
    _report(
        10,
        "late-time profile differences decrease monotonically (t = 8, 16, 24, 32)",
        len(times_found) == 4 and monotone,
        f"pairwise norms {[f'{v:.3e}' for v in norms]}",
    )


def test_criterion_11_small_coupling_large_perturbation():
    dist = Gaussian(1.0)
    grid = build_grid(dist, 512)
    horizon = recurrence_horizon(grid)

    def damping_checks(coupling, dt, run_horizon):
        state = initialize(dist, grid, 8, 0.2, coupling, modes={1: _mode_gaussian})
        try:
            res = run(state, dt, run_horizon, output_every=25, weight_order=4)
        except BlowupDetected:
            return False, "blowup"
        magnitude = np.abs(res.order_params)
        below = res.times[magnitude <= 1e-6 * magnitude[0]]
        decayed = below.size > 0 and below[0] < horizon
        window = res.times >= 5.0
        weighted = (1.0 + res.times[window]) ** 4 * magnitude[window]
        ratio = float(np.max(weighted) / weighted[0])
        return decayed and ratio <= 1.10, f"ratio {ratio:.3g}"

    ok_small, detail_small = damping_checks(0.05, 0.01, horizon)
    kc, _ = critical_coupling(dist)
    ok_large, detail_large = damping_checks(1.5 * kc, 0.005, 40.0)
    _report(
        11,
        "eps=0.2 damps at K=0.05 and fails at 1.5 K_c",
        ok_small and not ok_large,
        f"small-K {detail_small}; large-K {detail_large}",
    )


def test_criterion_12_finite_population_agreement():
    dist = Gaussian(1.0)
    eps = 1e-2
    state = sample_oscillators(dist, 10_000, 1.0, epsilon=eps, modes={1: _mode_constant})
    times, z = simulate(state, 0.005, 10.0, output_every=10)

    grid = build_grid(dist, 512)
    cont = initialize(dist, grid, 8, eps, 1.0, modes={1: _mode_constant})
    res = run(cont, 0.005, 10.0, output_every=10)
    diff = float(np.max(np.abs(np.conj(z) - eps * res.order_params)))
    _report(
        12,
        "10^4 quantile-sampled oscillators track eps R within 5e-3 on [0, 10]",
        diff <= 5e-3,
        f"sup diff {diff:.2e}",
    )


def test_criterion_13_free_transport_exactness():
    dist = Gaussian(1.0)
    grid = build_grid(dist, 512)
    state = initialize(
        dist, grid, 8, 1e-3, 0.0,
        modes={1: _mode_constant, 2: lambda w: 0.3 * _mode_gaussian(w)},
    )
    start = state.coeffs.copy()
    run(state, 1e-2, 50.0, output_every=10**9)
    k = np.arange(1, 9)[:, None]
    exact = start * np.exp(-1j * k * grid.nodes[None, :] * state.time)
    err = float(np.max(np.abs(state.coeffs - exact)))
    _report(
        13,
        "zero-coupling run reproduces the analytic phase rotation to 1e-8 on [0, 50]",
        err <= 1e-8,
        f"max deviation {err:.2e}",
    )
