"""Tests for the memory-kernel solver."""

import tracemalloc

import numpy as np
import pytest

from kuramoto_damping.dispersion import DispersionRelation, critical_coupling, find_unstable_root
from kuramoto_damping.distributions import Cauchy, Gaussian, bi_cauchy, build_grid
from kuramoto_damping.exceptions import StepSolveFailure, UnstableKernel, WindowTooNoisy
from kuramoto_damping.volterra import (
    _LEAF,
    MAX_STEPS,
    VolterraProblem,
    VolterraSolution,
    _block_product,
    _cumulative_transform,
    _leaf_inverse,
    empirical_stability_constant,
    fit_decay,
    instability_witness,
    kuramoto_kernel,
    solve,
)

from grid_source import mode_input_from_grid


def _zeros(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def _ones(t):
    return np.ones_like(np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# solve


def test_zero_kernel_returns_source_exactly():
    sol = solve(VolterraProblem(_zeros, lambda t: np.cos(t) + 1j * np.sin(2 * t), 0.01, 5.0))
    expected = np.cos(sol.times) + 1j * np.sin(2 * sol.times)
    np.testing.assert_array_equal(sol.values, expected)


def test_solution_carries_the_source_samples():
    calls = []

    def source(t):
        calls.append(t)
        return np.cos(t) + 1j * np.sin(2 * t)

    sol = solve(VolterraProblem(lambda t: np.exp(-t), source, 0.01, 5.0))
    assert len(calls) == 1
    np.testing.assert_array_equal(sol.source, source(sol.times))


def test_step_count_cap():
    # construction only: a problem at the cap is accepted, one step more is not
    VolterraProblem(_zeros, _ones, 0.5, 0.5 * MAX_STEPS)
    with pytest.raises(ValueError, match="steps"):
        VolterraProblem(_zeros, _ones, 0.5, 0.5 * (MAX_STEPS + 1))


def test_initial_value_equals_source():
    sol = solve(VolterraProblem(lambda t: np.exp(-t), lambda t: 3.0 + 0 * np.asarray(t), 0.1, 1.0))
    assert sol.values[0] == 3.0


def test_critical_cauchy_kernel_resolvent():
    # G = e^{-t} (unit Cauchy at its threshold), F = 1: exact solution 1 + t
    dt = 0.01
    sol = solve(VolterraProblem(lambda t: np.exp(-t), _ones, dt, 10.0))
    coarse = np.max(np.abs(sol.values - (1.0 + sol.times)))
    assert coarse <= 5.0 * dt**2 * 10.0
    fine = solve(VolterraProblem(lambda t: np.exp(-t), _ones, dt / 16, 10.0))
    ref = fine.values[::16]
    assert np.max(np.abs(sol.values - ref)) <= 1e-3


def test_exponential_input_identity():
    # F(t) = e^{i w t}(1 - int_0^t G e^{-i w s} ds) makes R = e^{i w t} exact
    omega = 1.0
    kernel = kuramoto_kernel(Cauchy(1.0), 1.5)

    def source(t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        grid = np.concatenate(([0.0], arr)) if arr[0] > 0 else arr
        cum = _cumulative_transform(kernel, omega, grid)
        if arr[0] > 0:
            cum = cum[1:]
        return np.exp(1j * omega * arr) * (1.0 - cum)

    sol = solve(VolterraProblem(kernel, source, 1e-3, 10.0))
    assert np.max(np.abs(sol.values - np.exp(1j * omega * sol.times))) <= 1e-6


def test_scheme_is_second_order():
    kernel = kuramoto_kernel(Cauchy(1.0), 1.5)

    def source(t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * t) / (1.0 + t) ** 2

    ref = solve(VolterraProblem(kernel, source, 0.1 / 16, 20.0))
    errors = []
    for dt in (0.1, 0.05):
        sol = solve(VolterraProblem(kernel, source, dt, 20.0))
        stride = int(round(dt / (0.1 / 16)))
        errors.append(np.max(np.abs(sol.values - ref.values[::stride])))
    assert errors[0] / errors[1] >= 3.5


def test_linearity():
    kernel = kuramoto_kernel(Gaussian(1.0), 1.0)

    def f1(t):
        return np.exp(-0.1 * np.asarray(t, dtype=float))

    def f2(t):
        return np.sin(np.asarray(t, dtype=float)) + 0j

    lam = 0.7 - 0.3j
    s1 = solve(VolterraProblem(kernel, f1, 0.02, 8.0))
    s2 = solve(VolterraProblem(kernel, f2, 0.02, 8.0))
    s12 = solve(VolterraProblem(kernel, lambda t: f1(t) + lam * f2(t), 0.02, 8.0))
    np.testing.assert_allclose(s12.values, s1.values + lam * s2.values, rtol=0, atol=1e-12)


def test_causality_under_source_truncation():
    kernel = kuramoto_kernel(Cauchy(1.0), 1.0)

    def source(t):
        return np.exp(1j * np.asarray(t, dtype=float))

    def truncated(t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= 4.0, np.exp(1j * t), 0.0)

    full = solve(VolterraProblem(kernel, source, 0.01, 8.0))
    cut = solve(VolterraProblem(kernel, truncated, 0.01, 8.0))
    mask = full.times <= 4.0
    np.testing.assert_array_equal(full.values[mask], cut.values[mask])


def test_singular_diagonal_raises():
    # dt G(0) / 2 = 1 makes the implicit factor vanish
    with pytest.raises(StepSolveFailure):
        solve(VolterraProblem(lambda t: 2.0 / 0.5 * np.ones_like(np.asarray(t)), _ones, 0.5, 2.0))


def _direct_march(G, F, dt):
    """The one-dot-product-per-step O(N^2) march, kept as the reference."""
    denom = 1.0 - 0.5 * dt * G[0]
    R = np.zeros_like(F)
    R[0] = F[0]
    for j in range(1, F.size):
        acc = 0.5 * G[j] * R[0]
        if j > 1:
            acc += np.dot(R[1:j], G[j - 1 : 0 : -1])
        R[j] = (F[j] + dt * acc) / denom
    return R


def _rotating(t):
    return np.exp(1j * t) / (1.0 + t) ** 2


# single leaves shorter than _LEAF (leading blocks of the leaf inverse), a full
# leaf, the first splits, and several recursion levels of the FFT blocks
_MARCH_STEPS = sorted(
    {1, 2, _LEAF // 2 - 1, _LEAF // 2, _LEAF // 2 + 1, _LEAF - 1, _LEAF, _LEAF + 1,
     2 * _LEAF + 1, 1000, 4001}
)


@pytest.mark.parametrize(
    "dist, coupling, source",
    [
        (Cauchy(1.0), 1.0, None),
        (Gaussian(1.0), 1.0, None),
        (bi_cauchy(1.0, 2.0), 1.5, None),
        (Cauchy(1.0), 2.6, None),
        (Cauchy(1.0), 1.5, _rotating),
    ],
    ids=["cauchy", "gaussian", "two-bump", "unstable-cauchy", "complex-source"],
)
@pytest.mark.parametrize("steps", _MARCH_STEPS)
def test_block_march_matches_direct_march(dist, coupling, source, steps):
    # F = ghat unless a source is given
    dt = 0.01
    kernel = kuramoto_kernel(dist, coupling)
    source = source or dist.fourier_transform
    sol = solve(VolterraProblem(kernel, source, dt, steps * dt))
    assert sol.values.size == steps + 1
    G = np.asarray(kernel(sol.times), dtype=complex)
    F = np.asarray(source(sol.times), dtype=complex)
    ref = _direct_march(G, F, dt)
    assert np.max(np.abs(sol.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    if not (np.any(G.imag) or np.any(F.imag)):
        # a real kernel and source give an exactly real solution
        assert not np.any(sol.values.imag)


def _damped_cosine(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.1 * t) * np.cos(t)


def test_real_problem_is_marched_in_float_arrays():
    # ghat of a centred Gaussian is complex-typed with no imaginary part; the
    # kernel and a real source march as floats, and the same source typed
    # complex gives the same bits
    dt, steps = 0.01, 1000
    kernel = kuramoto_kernel(Gaussian(1.0), 1.0)
    sol = solve(VolterraProblem(kernel, _damped_cosine, dt, steps * dt))
    assert sol.values.dtype == sol.source.dtype == np.float64
    typed_complex = solve(VolterraProblem(kernel, lambda t: _damped_cosine(t) + 0j, dt, steps * dt))
    assert sol.values.tobytes() == typed_complex.values.tobytes()


def test_complex_kernel_with_real_source_is_marched_complex():
    # an off-centre Cauchy g has a complex ghat; the real F is promoted
    dt, steps = 0.01, 1000
    kernel = kuramoto_kernel(Cauchy(1.0, 0.5), 1.5)
    sol = solve(VolterraProblem(kernel, _damped_cosine, dt, steps * dt))
    assert sol.values.dtype == sol.source.dtype == np.complex128
    ref = _direct_march(kernel(sol.times), _damped_cosine(sol.times) + 0j, dt)
    assert np.max(np.abs(sol.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_block_march_keeps_pointwise_accuracy_on_a_decaying_tail():
    # Two-bump Cauchy at 0.9 K_c: R decays by 13 orders over 16,000 steps
    # without a sign change, so the pointwise relative error is defined at
    # every step.  At _LEAF = 128 the worst error is 1.8e-14; a change of the
    # leaf size has to keep the tail this accurate.
    dist, dt, steps = bi_cauchy(1.0, 0.5), 0.01, 16000
    kernel = kuramoto_kernel(dist, 0.9 * critical_coupling(dist)[0])
    sol = solve(VolterraProblem(kernel, dist.fourier_transform, dt, steps * dt))
    G = np.asarray(kernel(sol.times), dtype=complex)
    F = np.asarray(dist.fourier_transform(sol.times), dtype=complex)
    ref = _direct_march(G, F, dt)
    assert not np.any(np.diff(np.sign(ref.real)))
    assert abs(ref[-1]) <= 1e-12 * abs(ref[0])
    assert np.max(np.abs(sol.values - ref) / np.abs(ref)) <= 5e-14


@pytest.mark.parametrize(
    "kernel",
    [lambda t: np.exp(-t), lambda t: 40.0 * np.exp(-t) * np.cos(3.0 * t), _rotating],
    ids=["real", "real-oscillating", "complex"],
)
def test_leaf_inverse_is_the_dense_inverse(kernel):
    dt = 0.01
    G = np.asarray(kernel(dt * np.arange(_LEAF)))
    denom = 1.0 - 0.5 * dt * G[0]
    lag = np.subtract.outer(np.arange(_LEAF), np.arange(_LEAF))
    dense = np.where(lag > 0, -dt * G[np.abs(lag)], 0.0) + denom * np.eye(_LEAF)
    ref = np.linalg.inv(dense)
    inv = _leaf_inverse(G, dt, denom, _LEAF)
    assert np.max(np.abs(inv - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert not np.any(np.triu(inv, 1))  # exactly causal
    assert np.iscomplexobj(inv) == np.iscomplexobj(G)


def test_block_product_is_not_tilted_past_a_slowly_decaying_kernel():
    # x decays much faster than g: tilting at x's rate would grow g by e^199
    # before the entries are scaled back, so the product must stay untilted
    m = np.arange(1024)
    x = np.exp(-0.5 * m[:512]) + 0j
    g = np.exp(-0.001 * m) + 0j
    out = _block_product(x, g)
    ref = np.convolve(x, g)[511:1024]
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def _cauchy_closed_form_errors(delta, coupling, dt, horizon):
    # F = ghat makes R = exp((K/2 - delta) t); returns the pointwise relative error
    dist = Cauchy(delta)
    sol = solve(
        VolterraProblem(kuramoto_kernel(dist, coupling), dist.fourier_transform, dt, horizon)
    )
    exact = np.exp((0.5 * coupling - delta) * sol.times)
    return np.abs(sol.values - exact) / exact


def test_decaying_tail_keeps_pointwise_relative_accuracy():
    # |R(30)| is about 2e-12: an untilted FFT block leaves errors near
    # 1e-16 max|R| there, a relative error of about 1e-6
    rel = _cauchy_closed_form_errors(1.0, 0.2, 1e-3, 30.0)
    assert np.max(rel) <= 1e-8


@pytest.mark.parametrize("delta, coupling", [(1.25, 1.0), (1.0, 0.2)])
def test_closed_form_error_is_second_order_on_a_long_decay(delta, coupling):
    # the benchmark's steepest decay, and the tail case above
    coarse = np.max(_cauchy_closed_form_errors(delta, coupling, 2e-3, 30.0))
    fine = np.max(_cauchy_closed_form_errors(delta, coupling, 1e-3, 30.0))
    assert 3.9 <= coarse / fine <= 4.1


# ---------------------------------------------------------------------------
# kernels and sources


def test_kuramoto_kernel_values():
    kernel = kuramoto_kernel(Cauchy(1.0), 2.0)
    assert kernel(0.0) == pytest.approx(1.0, abs=1e-15)
    assert kernel(1.0) == pytest.approx(np.exp(-1.0), abs=1e-12)
    zero = kuramoto_kernel(Cauchy(1.0), 0.0)
    assert zero(3.0) == 0.0


def test_linear_input_passthrough():
    # with no coupling the memory term vanishes and R is the source itself
    def p1hat0(t):
        return np.exp(-np.asarray(t, dtype=float)) + 0j

    sol = solve(VolterraProblem(kuramoto_kernel(Cauchy(1.0), 0.0), p1hat0, 0.5, 3.0))
    np.testing.assert_array_equal(sol.values, p1hat0(sol.times))


def test_zero_initial_mode_gives_zero_solution():
    kernel = kuramoto_kernel(Gaussian(1.0), 1.0)
    sol = solve(VolterraProblem(kernel, _zeros, 0.01, 5.0))
    assert np.max(np.abs(sol.values)) == 0.0


def _extended_sum(grid, amps, t):
    """sum_j amps_j exp(-i t omega_j) with long-double phases, cos - i sin, 256 rows at a time."""
    omega = grid.nodes.astype(np.longdouble)
    re, im = amps.real.astype(np.longdouble), amps.imag.astype(np.longdouble)
    flat = np.ravel(t)
    out = np.empty(flat.size, dtype=complex)
    for lo in range(0, flat.size, 256):
        phases = np.multiply.outer(flat[lo : lo + 256].astype(np.longdouble), omega)
        cos, sin = np.cos(phases), np.sin(phases)
        out[lo : lo + 256] = (cos @ re + sin @ im) + 1j * (cos @ im - sin @ re)
    return out.reshape(np.shape(t))


def _gaussian_profile(w):
    return np.exp(-0.5 * np.asarray(w) ** 2) + 0j


def test_mode_input_matches_two_dimensional_quadrature():
    # F(t) is the (theta, omega) transform of r(0) g at mode 1; check the grid
    # sum against direct 2-D quadrature of (1/pi) cos(theta) h(omega) g(omega).
    dist = Gaussian(1.0)
    grid = build_grid(dist, 512)

    def profile(w):
        return np.exp(-0.5 * (np.asarray(w) - 0.3) ** 2)

    dt = 0.1
    source = mode_input_from_grid(grid, profile, dt)

    theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    for t in (dt * 0, dt * 7, dt * 20):
        r0 = np.outer(np.cos(theta) / np.pi, profile(grid.nodes))
        integrand = r0 * dist.density(grid.nodes)[None, :]
        phases = np.exp(-1j * (theta[:, None] + t * grid.nodes[None, :]))
        two_d = np.sum(integrand * phases * grid.bare_weights[None, :]) * (2 * np.pi / theta.size)
        assert abs(source(t) - two_d) <= 1e-8

    # t = 0 recovers the initial order parameter sum w_j h(omega_j)
    assert source(0.0) == pytest.approx(np.sum(grid.weights * profile(grid.nodes)), abs=1e-12)


def test_mode_input_matches_one_matrix_formula_in_bounded_memory():
    # 4001 times x 2048 nodes: one complex phase matrix would take 131 MB
    grid = build_grid(Cauchy(1.0), 2048)
    amps = grid.weights * _gaussian_profile(grid.nodes)
    t = 1e-3 * np.arange(4001)
    source = mode_input_from_grid(grid, _gaussian_profile, 1e-3)

    tracemalloc.start()
    try:
        values = source(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    full_matrix = t.size * grid.nodes.size * np.dtype(complex).itemsize
    assert peak < full_matrix / 4
    # the factored product is not bitwise the one-matrix formula exp(-i t omega) @ a
    # (evaluated here in row blocks to save memory), but both sit within
    # rounding of the extended-precision sum
    exact = _extended_sum(grid, amps, t)
    one_matrix = np.concatenate(
        [np.exp(-1j * np.multiply.outer(rows, grid.nodes)) @ amps for rows in np.array_split(t, 16)]
    )
    scale = np.sum(np.abs(amps))
    assert np.max(np.abs(values - exact)) <= 1e-14 * scale
    assert np.max(np.abs(one_matrix - exact)) <= 1e-14 * scale


@pytest.mark.parametrize(
    "steps",
    [np.int64(300), np.arange(600)[::-1], np.array([129, 0, 5000, 127, 128, 129, -3, 777, 256])],
    ids=["scalar", "reversed", "scattered"],
)
def test_mode_input_on_any_step_multiples_matches_extended_sum(steps):
    grid = build_grid(Cauchy(1.0), 1024)
    amps = grid.weights * _gaussian_profile(grid.nodes)
    t = 2e-3 * steps
    values = mode_input_from_grid(grid, _gaussian_profile, 2e-3)(t)
    assert values.shape == np.shape(t)
    assert np.max(np.abs(values - _extended_sum(grid, amps, t))) <= 1e-14 * np.sum(np.abs(amps))


@pytest.mark.parametrize(
    "t", [0.05, 0.7, [0.0, 0.1, 0.25], 0.1 * 3 + 1e-12, np.nan, np.inf, 1e300],
    ids=["half-step", "rounded-quotient", "one-off-grid", "near-multiple", "nan", "inf", "huge"],
)
def test_mode_input_rejects_times_off_the_step_grid(t):
    # 0.7 / 0.1 rounds to 7, but 7 * 0.1 is 0.7000000000000001, not 0.7
    source = mode_input_from_grid(build_grid(Gaussian(1.0), 64), _gaussian_profile, 0.1)
    with pytest.raises(ValueError, match="multiples of time_step"):
        source(np.asarray(t))


def test_mode_input_builds_anchors_in_chunks():
    # 2e5 times 40 steps apart need 62,500 anchor columns (128 steps each):
    # built all at once they would take 256 MB, more than a quarter of the
    # 819 MB full phase matrix
    grid = build_grid(Gaussian(1.0), 256)
    t = 1e-6 * (40 * np.arange(200_000))
    source = mode_input_from_grid(grid, _gaussian_profile, 1e-6)

    tracemalloc.start()
    try:
        values = source(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert peak < t.size * grid.nodes.size * np.dtype(complex).itemsize / 4
    amps = grid.weights * _gaussian_profile(grid.nodes)
    picks = np.arange(0, t.size, 997)
    assert np.max(np.abs(values[picks] - _extended_sum(grid, amps, t[picks]))) <= 1e-14 * np.sum(
        np.abs(amps)
    )


def test_solve_rejects_non_vectorised_source():
    with pytest.raises(ValueError, match="vectorised"):
        solve(VolterraProblem(_zeros, lambda t: 1.0 + 0j, 0.1, 1.0))


# ---------------------------------------------------------------------------
# decay fitting


def test_fit_recovers_synthetic_power_law():
    t = np.arange(0.0, 100.01, 0.05)
    sol = VolterraSolution(times=t, values=(1.0 + t) ** -4.0 + 0j)
    fit = fit_decay(sol)
    assert fit.exponent == pytest.approx(4.0, abs=0.05)
    assert fit.residual < 0.01


def test_fit_flags_exponential_decay_as_noisy():
    t = np.arange(0.0, 30.01, 0.01)
    sol = VolterraSolution(times=t, values=np.exp(-t) + 0j)
    with pytest.raises(WindowTooNoisy) as err:
        fit_decay(sol, window=(5.0, 20.0))
    assert err.value.fit.residual > 0.5
    # fitted exponent grows as the window slides out: non-power-law signature
    p1 = err.value.fit.exponent
    with pytest.raises(WindowTooNoisy) as err2:
        fit_decay(sol, window=(10.0, 28.0))
    assert err2.value.fit.exponent > p1


def test_stable_kernel_preserves_power_law_rate():
    kernel = kuramoto_kernel(Cauchy(1.0), 1.0)

    def source(t):
        return (1.0 + np.asarray(t, dtype=float)) ** -4.0 + 0j

    sol = solve(VolterraProblem(kernel, source, 0.02, 70.0))
    fit = fit_decay(sol, window=(10.0, 60.0))
    assert fit.exponent >= 3.8


# ---------------------------------------------------------------------------
# empirical stability constant


def _poly_sources(n):
    def plain(t):
        return (1.0 + np.asarray(t, dtype=float)) ** -float(n) + 0j

    def cosine(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t) ** -float(n) * np.cos(t) + 0j

    def rotating(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t) ** -float(n) * np.exp(1j * t)

    return [plain, cosine, rotating]


def test_zero_coupling_constant_is_one():
    est = empirical_stability_constant(Cauchy(1.0), 0.0, 4, _poly_sources(4), 0.05, 40.0)
    assert est.constant == pytest.approx(1.0, abs=1e-12)


def test_stable_cauchy_kernel_ratio_is_flat():
    est = empirical_stability_constant(Cauchy(1.0), 1.0, 4, _poly_sources(4), 0.05, 120.0)
    assert np.isfinite(est.constant)
    horizons = sorted(est.ratios_by_horizon)
    r_half, r_full = est.ratios_by_horizon[horizons[1]], est.ratios_by_horizon[horizons[2]]
    assert r_full <= 1.2 * r_half


def test_unstable_kernel_raises():
    with pytest.raises(UnstableKernel):
        empirical_stability_constant(Cauchy(1.0), 2.5, 4, _poly_sources(4), 0.05, 120.0)
    # cross-check: the same coupling has an actual lower-half-plane root
    root = find_unstable_root(DispersionRelation(Cauchy(1.0), 2.5))
    assert root is not None and root.imag < 0


# ---------------------------------------------------------------------------
# instability witness


def test_witness_cauchy_closed_form_rate():
    source, rate = instability_witness(Cauchy(1.0), 4.0, 1.0)
    assert rate == pytest.approx(1.0, abs=1e-8)
    sol = solve(VolterraProblem(kuramoto_kernel(Cauchy(1.0), 4.0), source, 1e-3, 5.0))
    rel = np.abs(sol.values) / np.exp(rate * sol.times)
    assert np.max(np.abs(rel - 1.0)) <= 0.02


def test_witness_source_bounded_by_cauchy_schwarz():
    from scipy import integrate

    dist, coupling, amp = Cauchy(1.0), 4.0, 0.7
    source, rate = instability_witness(dist, coupling, amp)
    kernel = kuramoto_kernel(dist, coupling)
    g_l2 = np.sqrt(integrate.quad(lambda t: abs(kernel(t)) ** 2, 0, 60.0, limit=400)[0])
    exp_l2 = np.sqrt(1.0 / (2.0 * rate))
    bound = abs(amp) * g_l2 * exp_l2
    t = np.linspace(0.0, 5.0, 201)
    assert np.all(np.abs(source(t)) <= bound * (1.0 + 1e-9))


def test_witness_rejects_zero_amplitude():
    with pytest.raises(ValueError):
        instability_witness(Cauchy(1.0), 4.0, 0.0)


@pytest.mark.parametrize("dist", [Cauchy(1.0), Gaussian(1.0), bi_cauchy(1.0, 2.0)])
def test_witness_growth_rate_all_families(dist):
    kc, _ = critical_coupling(dist)
    coupling = 1.5 * kc
    source, rate = instability_witness(dist, coupling, 1.0)
    horizon = 5.0 / rate
    dt = min(1e-3, horizon / 4000.0)
    sol = solve(VolterraProblem(kuramoto_kernel(dist, coupling), source, dt, horizon))
    rel = np.abs(sol.values) / np.exp(rate * sol.times)
    assert np.max(np.abs(rel - 1.0)) <= 0.02
