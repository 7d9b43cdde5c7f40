"""Closed forms and properties that the benchmark checks CLI artifacts against.

Nothing here imports ``kuramoto_damping``: every reference is derived from
the model itself, so a fault in the package cannot pass by agreeing with
itself.  Conventions follow the package README: ghat(t) = int g(w) e^{-iwt} dw,
the order parameter weighs with e^{-i theta}, and the finite-N mean field
Z = (1/N) sum e^{+i theta_j} converges to eps * conj(R).

Each ``check_*`` function returns a list of failure messages; an empty list
means the artifact passed.
"""

from __future__ import annotations

import cmath
import csv
import json
import math

import numpy as np
from scipy import signal, special

GAUSS8_NODES, GAUSS8_WEIGHTS = np.polynomial.legendre.leggauss(8)


# ---------------------------------------------------------------------------
# closed forms


def kc_cauchy(delta):
    """Critical coupling of a centred Cauchy density: 2 / (pi g(0)) = 2 delta."""
    return 2.0 * delta


def kc_gaussian(sigma):
    """Critical coupling of a centred Gaussian density: sqrt(8/pi) sigma."""
    return math.sqrt(8.0 / math.pi) * sigma


def kc_two_bump(delta, omega0):
    """Critical coupling of (1/2)(Cauchy(delta, -w0) + Cauchy(delta, w0)).

    2 (delta^2 + w0^2) / delta while w0 <= delta (criterion fails at w = 0),
    4 delta beyond, where it fails at w = +-sqrt(w0^2 - delta^2).
    """
    if omega0 <= delta:
        return 2.0 * (delta**2 + omega0**2) / delta
    return 4.0 * delta


def two_bump_boundary_zeros(delta, omega0):
    """Real zeros of Im D for the symmetric two-bump Cauchy density."""
    if omega0 <= delta:
        return [0.0]
    s = math.sqrt(omega0**2 - delta**2)
    return [-s, 0.0, s]


def two_bump_critical_frequencies(delta, omega0):
    """Frequencies where the boundary criterion first fails."""
    if omega0 <= delta:
        return [0.0]
    s = math.sqrt(omega0**2 - delta**2)
    return [-s, s]


def cauchy_linear_response(delta, coupling, t):
    """R(t) for Cauchy g and F = ghat: exp((K/2 - delta) t)."""
    return np.exp((0.5 * coupling - delta) * np.asarray(t, dtype=float))


def two_bump_linear_response(delta, omega0, coupling, t):
    """Linear R(t) for the two-bump Cauchy density with c1(0) = 1 (F = ghat).

    With u = s + delta the Laplace transform is u / (u^2 - (K/2) u + w0^2),
    so R = e^{-delta t} (u+ e^{u+ t} - u- e^{u- t}) / (u+ - u-) with
    u+- = K/4 +- sqrt(K^2/16 - w0^2); the double root takes the limit
    (1 + u t) e^{u t}.
    """
    t = np.asarray(t, dtype=float)
    root = cmath.sqrt(coupling**2 / 16.0 - omega0**2)
    up = coupling / 4.0 + root
    um = coupling / 4.0 - root
    if abs(up - um) < 1e-12:
        core = (1.0 + up * t) * np.exp(up * t)
    else:
        core = (up * np.exp(up * t) - um * np.exp(um * t)) / (up - um)
    return np.real_if_close(np.exp(-delta * t) * core)


def gaussian_free_response(sigma, t):
    """R(t) at K = 0 with c1(0) = 1 and a centred Gaussian g: ghat(t)."""
    return np.exp(-0.5 * (sigma * np.asarray(t, dtype=float)) ** 2)


def cauchy_gaussian_source(delta, width, amplitude, t):
    """F(t) = int g(w) A exp(-w^2 / (2 width^2)) exp(-iwt) dw, g centred Cauchy.

    g h is even, so F is real:
    F = (A/2) exp(-width^2 t^2 / 2) [erfcx(x-) + erfcx(x+)],
    x+- = (delta/width +- width t) / sqrt(2).
    """
    t = np.abs(np.asarray(t, dtype=float))
    a = delta / width
    x_minus = (a - width * t) / math.sqrt(2.0)
    x_plus = (a + width * t) / math.sqrt(2.0)
    return 0.5 * amplitude * np.exp(-0.5 * (width * t) ** 2) * (
        special.erfcx(x_minus) + special.erfcx(x_plus)
    )


def cauchy_resolvent_response(delta, coupling, source, times):
    """R = F + r * F for the Cauchy kernel (K/2) e^{-delta t}.

    The resolvent of that kernel is r(t) = (K/2) e^{lam t}, lam = K/2 - delta,
    so R(t_n) = F(t_n) + (K/2) I_n with I_n = int_0^{t_n} e^{lam (t_n - s)} F(s) ds.
    I advances interval by interval, I_{n+1} = e^{lam h} I_n + (8-point
    Gauss-Legendre rule on [t_n, t_{n+1}]); ``times`` must be uniform.
    """
    times = np.asarray(times, dtype=float)
    h = times[1] - times[0]
    lam = 0.5 * coupling - delta
    mid = times[:-1] + 0.5 * h
    s = mid[:, None] + 0.5 * h * GAUSS8_NODES[None, :]
    local = 0.5 * h * np.sum(
        GAUSS8_WEIGHTS[None, :] * np.exp(lam * (times[1:, None] - s)) * source(s), axis=1
    )
    integral = np.zeros_like(times)
    integral[1:] = signal.lfilter([1.0], [1.0, -math.exp(lam * h)], local)
    return source(times) + 0.5 * coupling * integral


def finite_n_tolerance(count):
    """Sup tolerance on |conj(Z) - eps R_lin| for N quantile-sampled oscillators.

    Quantile sampling leaves an O(N^{-1/2})-scale mismatch for the heavy
    Cauchy tails, so the bound shrinks as N grows.
    """
    return 0.5 / math.sqrt(count)


# ---------------------------------------------------------------------------
# artifact readers


def read_csv(path):
    """Numeric CSV (header row skipped) as a 2-D float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks per experiment


def linear_closed_form_error(outdir, delta, coupling):
    """Max relative error of R.csv against exp((K/2 - delta) t)."""
    data = read_csv(outdir / "R.csv")
    r = data[:, 1] + 1j * data[:, 2]
    expected = cauchy_linear_response(delta, coupling, data[:, 0])
    return float(np.max(np.abs(r - expected) / expected))


def check_bound(label, value, bound):
    if not value <= bound:
        return [f"{label}: {value:.3e} exceeds {bound:.1e}"]
    return []


def check_second_order(coarse_err, fine_err, low=3.5, high=4.5):
    """Second order: halving dt divides the closed-form error by about 4."""
    ratio = coarse_err / fine_err if fine_err > 0 else math.inf
    if not low <= ratio <= high:
        return [f"linear: halving dt shrank the error {ratio:.3f}x, expected about 4x"]
    return []


def check_linear_mode(outdir, delta, coupling, width, amplitude, tol=1e-6):
    """Mode source on a Cauchy grid against the resolvent closed form."""
    data = read_csv(outdir / "R.csv")
    r = data[:, 1] + 1j * data[:, 2]

    def source(t):
        return cauchy_gaussian_source(delta, width, amplitude, t)

    expected = cauchy_resolvent_response(delta, coupling, source, data[:, 0])
    err = float(np.max(np.abs(r - expected)) / np.max(np.abs(expected)))
    if not err <= tol:
        return [f"linear mode: error {err:.3e} relative to sup|R| exceeds {tol:.0e}"]
    return []


def check_nonlinear_damping(outdir, weight_order=4):
    """Damping, bounded weighted envelope and a Converged scattering verdict.

    |R| and (1+t)^n |R| are recomputed from the Re and Im columns rather
    than read from the CLI's derived columns.
    """
    problems = []
    data = read_csv(outdir / "R.csv")
    t, mag = data[:, 0], np.hypot(data[:, 1], data[:, 2])
    weighted = (1.0 + t) ** weight_order * mag
    scattering = read_json(outdir / "scattering.json")
    horizon = scattering["recurrenceTime"]
    below = t[mag <= 1e-6 * mag[0]]
    if below.size == 0 or not below[0] < horizon:
        problems.append(f"nonlinear: |R| never fell below 1e-6 |R(0)| before t = {horizon:.1f}")
    half = t >= 0.5 * t[-1]
    if not np.max(weighted[half]) <= np.max(weighted[~half]):
        problems.append("nonlinear: (1+t)^n |R| grew in the second half of the run")
    if scattering.get("verdict") != "Converged":
        problems.append(f"nonlinear: scattering verdict {scattering.get('verdict')!r}")
    return problems


def check_nonlinear_free(outdir, sigma, tol=1e-7, high_tol=1e-6, low_tol=1e-10):
    """K = 0: R = ghat, and the unwound profile does not move.

    Transport is applied exactly, so the H^n and H^(n-2) norms of the unwound
    profile and its late-time differences change only by roundoff.  The
    omega-derivatives are finite differences on a grid of spacing h, which
    amplify roundoff by about h^-b for derivative order b; hence the looser
    bound on H^n (4th derivatives) than on H^(n-2).
    """
    problems = []
    data = read_csv(outdir / "R.csv")
    r = data[:, 1] + 1j * data[:, 2]
    err = float(np.max(np.abs(r - gaussian_free_response(sigma, data[:, 0]))))
    if not err <= tol:
        problems.append(f"nonlinear K=0: |R - exp(-sigma^2 t^2/2)| = {err:.3e} > {tol:.0e}")
    diag = read_csv(outdir / "diagnostics.csv")
    high = diag[:, 2] * (1.0 + diag[:, 0])
    low = diag[:, 3]
    for name, norm, bound in (("H^n", high, high_tol), ("H^(n-2)", low, low_tol)):
        drift = float(np.max(np.abs(norm / norm[0] - 1.0)))
        if not drift <= bound:
            problems.append(f"nonlinear K=0: {name} norm drifted by {drift:.3e} > {bound:.0e}")
    scattering = read_json(outdir / "scattering.json")
    moved = max(scattering["pairwiseNorms"]) / scattering["initialWeightedNorm"]
    if not moved <= high_tol:
        problems.append(f"nonlinear K=0: unwound profile moved by {moved:.3e} between snapshots")
    return problems


def check_finite_n(outdir, delta, omega0, coupling, epsilon, count):
    data = read_csv(outdir / "zn.csv")
    z = data[:, 1] + 1j * data[:, 2]
    r_lin = two_bump_linear_response(delta, omega0, coupling, data[:, 0])
    err = float(np.max(np.abs(np.conj(z) - epsilon * r_lin)))
    tol = finite_n_tolerance(count)
    if not err <= tol:
        return [f"finite-n N={count}: sup |conj(Z) - eps R_lin| = {err:.3e} > {tol:.3e}"]
    return []


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_stability(outdir, kc, zeros, coupling, tol=1e-5):
    report = read_json(outdir / "stability_report.json")
    problems = []
    expected = "Stable" if coupling < kc else "Unstable"
    if report["verdict"] != expected:
        problems.append(f"stability K={coupling:.4g}: verdict {report['verdict']}, expected {expected}")
    if not _close(report["criticalCoupling"], kc, tol):
        problems.append(f"stability: K_c {report['criticalCoupling']!r}, expected {kc!r}")
    found = sorted(z["omega"] for z in report["boundaryZeros"])
    if len(found) != len(zeros) or not all(_close(a, b, 1e-6) for a, b in zip(found, zeros)):
        problems.append(f"stability: boundary zeros {found}, expected {zeros}")
    return problems


def check_kc_scan(outdir, pairs, tol=1e-5):
    """kc_scan.csv rows against the two-bump closed forms; ``pairs`` holds
    the (delta, w0) of each row in order."""
    problems = []
    with open(outdir / "kc_scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(pairs):
        return [f"kc-scan: {len(rows)} rows for {len(pairs)} values"]
    for row, (delta, omega0) in zip(rows, pairs):
        kc = float(row["K_c"])
        want_kc = kc_two_bump(delta, omega0)
        if not _close(kc, want_kc, tol):
            problems.append(f"kc-scan delta={delta}, w0={omega0}: K_c {kc!r}, expected {want_kc!r}")
        crit = sorted(float(w) for w in row["critical_omegas"].split(";"))
        want = two_bump_critical_frequencies(delta, omega0)
        if len(crit) != len(want) or not all(_close(a, b, 1e-6) for a, b in zip(crit, want)):
            problems.append(
                f"kc-scan delta={delta}, w0={omega0}: critical frequencies {crit}, expected {want}"
            )
    return problems


def check_witness(outdir, delta, coupling, tol=0.02):
    problems = []
    rate = 0.5 * coupling - delta
    report = read_json(outdir / "witness_report.json")
    if not _close(report["predictedRate"], rate, 1e-8):
        problems.append(f"witness: rate {report['predictedRate']!r}, expected {rate!r}")
    data = read_csv(outdir / "R.csv")
    mag = np.hypot(data[:, 1], data[:, 2])
    dev = float(np.max(np.abs(mag / np.exp(rate * data[:, 0]) - 1.0)))
    if not dev <= tol:
        problems.append(f"witness: |R| strays {dev:.3e} from e^(rate t)")
    return problems
