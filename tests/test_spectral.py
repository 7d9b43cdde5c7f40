"""Tests for the pseudo-spectral mode simulation."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from kuramoto_damping import spectral
from kuramoto_damping.distributions import Cauchy, Gaussian, build_grid
from kuramoto_damping.exceptions import BlowupDetected, GridTooCoarse, InvalidPerturbation
from kuramoto_damping.spectral import (
    MAX_WEIGHT_ORDER,
    SpectralState,
    initialize,
    order_parameter,
    profile_sobolev_norm,
    recurrence_horizon,
    run,
    scattering_profile,
    sobolev_diagnostics,
    stability_time_step_bound,
    unwound_profile,
)
from kuramoto_damping.volterra import VolterraProblem, kuramoto_kernel, solve

from density_oracles import density_derivative
from solver_routes import SixBufferLawsonStepper, rhs, step


@pytest.fixture(scope="module")
def gaussian_grid():
    return build_grid(Gaussian(1.0), 512)


def _ones(w):
    return np.ones_like(np.asarray(w, dtype=float))


def _gauss_profile(w):
    return np.exp(-0.5 * np.asarray(w, dtype=float) ** 2)


# ---------------------------------------------------------------------------
# initialization


def test_complex_mode_initialization_keeps_phase(gaussian_grid):
    c = 0.6 + 0.3j
    state = initialize(
        Gaussian(1.0), gaussian_grid, 4, 1e-3, 1.0, modes={2: lambda w: c * _gauss_profile(w)}
    )
    np.testing.assert_array_equal(state.coeffs[1], c * _gauss_profile(gaussian_grid.nodes))
    assert not np.any(state.coeffs[[0, 2, 3]])


def test_zero_perturbation_stays_zero(gaussian_grid):
    state = initialize(
        Gaussian(1.0), gaussian_grid, 4, 1e-3, 1.0, modes={1: lambda w: np.zeros_like(w)}
    )
    run(state, 0.01, 1.0)
    assert np.max(np.abs(state.coeffs)) == 0.0


def test_mass_violating_perturbation_rejected(gaussian_grid):
    with pytest.raises(InvalidPerturbation):
        initialize(Gaussian(1.0), gaussian_grid, 4, 1e-3, 1.0, modes={0: _ones})


def test_negative_density_rejected(gaussian_grid):
    # eps |r| exceeds 1/2pi pointwise: not a density any more
    with pytest.raises(InvalidPerturbation):
        initialize(Gaussian(1.0), gaussian_grid, 4, 0.9, 1.0, modes={1: _ones})


@pytest.mark.parametrize("node", [1024, 1027])
def test_density_is_checked_at_every_node(node):
    # c_1 = 3 at one node of 2048 and eps = 0.5: the density there dips to
    # 1/2pi - 1.5/pi = -0.318.  A check of every 8th node missed node 1027.
    grid = build_grid(Gaussian(1.0), 2048)
    spike = {1: lambda w: np.where(w == grid.nodes[node], 3.0, 0.0) + 0j}
    with pytest.raises(InvalidPerturbation, match="dips to -3.183e-01"):
        initialize(Gaussian(1.0), grid, 8, 0.5, 1.0, modes=spike)


def test_initial_norm_reported(gaussian_grid):
    state = initialize(Gaussian(1.0), gaussian_grid, 4, 1e-3, 1.0, modes={1: _ones})
    assert np.isfinite(state.initial_weighted_norm)
    assert state.initial_weighted_norm > 0


# ---------------------------------------------------------------------------
# order parameter


def test_order_parameter_constant_mode_gives_mass(gaussian_grid):
    state = initialize(Gaussian(1.0), gaussian_grid, 4, 1e-3, 1.0, modes={1: _ones})
    assert order_parameter(state) == pytest.approx(gaussian_grid.weights.sum(), abs=1e-12)


def test_order_parameter_phase_mode_gives_transform(gaussian_grid):
    t0 = 2.0
    state = initialize(
        Gaussian(1.0),
        gaussian_grid,
        4,
        1e-3,
        1.0,
        modes={1: lambda w: np.exp(-1j * w * t0)},
    )
    expected = Gaussian(1.0).fourier_transform(t0)
    assert abs(order_parameter(state) - expected) <= 1e-6


def test_order_parameter_zero_state(gaussian_grid):
    state = initialize(
        Gaussian(1.0), gaussian_grid, 4, 1e-3, 1.0, modes={1: lambda w: np.zeros_like(w)}
    )
    assert order_parameter(state) == 0


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_pure_transport_at_zero_coupling(gaussian_grid):
    state = initialize(
        Gaussian(1.0), gaussian_grid, 6, 1e-3, 0.0, modes={1: _gauss_profile, 3: _gauss_profile}
    )
    deriv = rhs(state)
    k = np.arange(1, 7)[:, None]
    expected = -1j * k * gaussian_grid.nodes[None, :] * state.coeffs
    np.testing.assert_allclose(deriv, expected, rtol=0, atol=1e-15)


def test_rhs_single_mode_cascade(gaussian_grid):
    eps, K = 0.5, 1.3
    state = initialize(Gaussian(1.0), gaussian_grid, 8, eps, K, modes={1: _gauss_profile})
    R = order_parameter(state)
    v_plus = 0.5j * K * R
    deriv = rhs(state)
    np.testing.assert_allclose(deriv[1], -2j * eps * v_plus * state.coeffs[0], atol=1e-16)
    v_minus = -0.5j * K * np.conj(R)
    expected1 = (
        -1j * gaussian_grid.nodes * state.coeffs[0]
        - 1j * v_plus
        - 1j * eps * v_minus * state.coeffs[1]
    )
    np.testing.assert_allclose(deriv[0], expected1, atol=1e-16)


# ---------------------------------------------------------------------------
# stepping


def test_free_transport_is_exact_phase_rotation(gaussian_grid):
    state = initialize(
        Gaussian(1.0),
        gaussian_grid,
        8,
        1e-3,
        0.0,
        modes={1: _ones, 2: lambda w: 0.3 * _gauss_profile(w)},
    )
    start = state.coeffs.copy()
    run(state, 1e-2, 50.0, output_every=10**9)
    k = np.arange(1, 9)[:, None]
    exact = start * np.exp(-1j * k * gaussian_grid.nodes[None, :] * state.time)
    assert np.max(np.abs(state.coeffs - exact)) <= 1e-8


def test_coupled_scheme_fourth_order(gaussian_grid):
    def final(dt):
        state = initialize(Gaussian(1.0), gaussian_grid, 8, 1e-3, 1.0, modes={1: _ones})
        run(state, dt, 2.0, output_every=10**9)
        return state.coeffs

    ref = final(0.01 / 16)
    e1 = np.max(np.abs(final(0.01) - ref))
    e2 = np.max(np.abs(final(0.005) - ref))
    assert e1 / e2 >= 12.0  # fourth order gives ~16


def test_step_size_bound_enforced(gaussian_grid):
    state = initialize(Gaussian(1.0), gaussian_grid, 8, 1e-3, 1.0, modes={1: _ones})
    bound = stability_time_step_bound(state)
    with pytest.raises(ValueError):
        run(state, 2.0 * bound, 1.0)


def test_blowup_guard_trips():
    grid = build_grid(Gaussian(1.0), 128)
    state = initialize(Gaussian(1.0), grid, 4, 1e-3, 1.0, modes={1: _ones})
    state.coeffs *= 9e5  # just under the guard; one step pushes it over via phases
    state.coeffs[0] *= 2.0
    with pytest.raises(BlowupDetected):
        step(state, 0.005)


def _plain_lawson_rk4(coeffs, grid, epsilon, coupling, dt, steps):
    """Reference march: the integrating-factor RK4 formula written out directly."""
    k = np.arange(1, coeffs.shape[0] + 1)[:, None]
    half = np.exp(-1j * k * grid.nodes * (0.5 * dt))
    full = np.exp(-1j * k * grid.nodes * dt)

    def coupling_part(c):
        R = np.sum(grid.weights * c[0])
        v_plus, v_minus = 0.5j * coupling * R, -0.5j * coupling * np.conj(R)
        zero = np.zeros_like(c[:1])
        below = np.concatenate([zero, c[:-1]])  # c_{k-1}, with c_0 = 0
        above = np.concatenate([c[1:], zero])  # c_{k+1}, with c_{k_max+1} = 0
        drive = epsilon * (v_plus * below + v_minus * above)
        drive[0] += v_plus
        return -1j * k * drive

    c = coeffs.copy()
    for _ in range(steps):
        k1 = coupling_part(c)
        k2 = coupling_part(half * (c + 0.5 * dt * k1))
        k3 = coupling_part(half * c + 0.5 * dt * k2)
        k4 = coupling_part(full * c + dt * half * k3)
        c = full * c + dt / 6.0 * (full * k1 + 2.0 * half * (k2 + k3) + k4)
    return c


@pytest.mark.parametrize("k_max", [2, 8])
@pytest.mark.parametrize("coupling_over_kc", [0.6, 1.5])
def test_stepper_matches_plain_lawson_rk4(k_max, coupling_over_kc):
    # k_max = 2 leaves one row in each shifted product of the coupling term
    dist, dt, steps = Gaussian(1.0), 0.01, 300
    grid = build_grid(dist, 256)
    coupling = coupling_over_kc * np.sqrt(8.0 / np.pi)  # K_c = sqrt(8/pi) for sigma = 1

    def start():
        return initialize(
            dist, grid, k_max, 0.3, coupling,
            modes={1: lambda w: 0.5 * _gauss_profile(w), 2: lambda w: 0.2j * _ones(w)},
        )

    expected = _plain_lawson_rk4(start().coeffs, grid, 0.3, coupling, dt, steps)
    scale = np.max(np.abs(expected))
    marched = start()
    run(marched, dt, steps * dt, output_every=10**9)
    stepped = start()
    for _ in range(steps):
        step(stepped, dt)
    assert np.max(np.abs(marched.coeffs - expected)) <= 1e-13 * scale
    assert np.max(np.abs(stepped.coeffs - expected)) <= 1e-13 * scale


def test_step_is_bitwise_the_six_buffer_step():
    # eps = 0.5 and K near K_c make the coupling terms as large as the
    # transport's, so any change in the order of a rounding would show
    dist, dt, steps = Gaussian(1.0), 0.01, 400
    grid = build_grid(dist, 256)

    def start():
        return initialize(
            dist, grid, 8, 0.5, 1.5,
            modes={1: lambda w: 0.5 * _gauss_profile(w), 2: lambda w: 0.3j * _gauss_profile(w)},
        )

    five, six = spectral._LawsonStepper(start(), dt), SixBufferLawsonStepper(start(), dt)
    for _ in range(steps):
        five.advance()
        six.advance()
    assert np.array_equal(five.coeffs, six.coeffs)
    assert five.state.time == six.state.time


def test_records_allocate_no_mode_array(monkeypatch):
    # a record computes its unwound profile and omega derivatives in the
    # stepper's work arrays, which are dead between steps.  Above what is
    # live once the stepper is built, the run peaks 0.45 MB higher at
    # J = 2048, k_max = 8: numpy's buffers for the broadcast products.  When
    # every record allocated its profile and derivatives it was 1.23 MB.
    dist = Gaussian(1.0)
    grid = build_grid(dist, 2048)
    state = initialize(dist, grid, 8, 1e-3, 1.0, modes={1: _gauss_profile})
    live = []

    class Measured(spectral._LawsonStepper):
        def __init__(self, *args):
            super().__init__(*args)
            live.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

    monkeypatch.setattr(spectral, "_LawsonStepper", Measured)
    tracemalloc.start()
    try:
        res = run(state, 0.01, 0.5, output_every=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.times.size == 6
    assert peak - live[0] < 2 * state.coeffs.nbytes


def test_step_and_run_never_write_arrays_the_caller_holds(gaussian_grid):
    state = initialize(
        Gaussian(1.0), gaussian_grid, 4, 1e-2, 1.0,
        modes={1: _gauss_profile, 2: lambda w: 0.3 * _gauss_profile(w)},
    )
    held = {"initial coeffs": state.coeffs}
    res = run(
        state, 0.01, 3.0, output_every=10,
        snapshot_times=(1.0, 2.0, 3.0),
    )
    held.update({f"snapshot {t}": snap for t, snap in res.snapshots.items()})
    held["coeffs after run"] = state.coeffs
    held["unwound profile"] = unwound_profile(state)
    values = {name: array.copy() for name, array in held.items()}
    step(state, 0.01)
    run(state, 0.01, 1.0, output_every=10, snapshot_times=(0.5,))
    step(state, 0.01)
    assert state.time == pytest.approx(4.02, abs=1e-12)
    for name, array in held.items():
        assert np.array_equal(array, values[name]), name
    assert not np.array_equal(state.coeffs, values["coeffs after run"])
    snaps = [values[f"snapshot {t}"] for t in sorted(res.snapshots)]
    assert len(snaps) == 3
    assert not any(np.array_equal(a, b) for a, b in zip(snaps[:-1], snaps[1:]))


_GUARD = 1e6


@pytest.mark.parametrize(
    "entries",
    [
        pytest.param({(0, 7): 0.9 * _GUARD}, id="one-above-half-guard"),
        pytest.param({(0, 7): 0.7 * _GUARD * (1 + 1j)}, id="both-parts-above-half-guard"),
        pytest.param({(0, j): -0.9j * _GUARD for j in range(40)}, id="many-near-guard"),
        pytest.param({(2, 7): _GUARD * (1 + 1e-6)}, id="just-above-guard"),
        pytest.param({(1, 7): -_GUARD * (1 + 1e-6)}, id="negative-just-above-guard"),
        pytest.param({(3, 7): -1j * _GUARD * (1 + 1e-6)}, id="imaginary-just-above-guard"),
        pytest.param({(2, 7): np.nan}, id="nan"),
    ],
)
def test_blowup_guard_matches_exact_test(entries):
    # At K = 0 a step only rotates each coefficient, so the exact test can be
    # applied to the rotated initial state: same verdict, same message.
    grid = build_grid(Gaussian(1.0), 128)
    state = initialize(Gaussian(1.0), grid, 4, 1e-3, 0.0, modes={1: _ones})
    for (row, col), value in entries.items():
        state.coeffs[row, col] = value
    dt = 0.005
    k = np.arange(1, 5)[:, None]
    peak = float(np.max(np.abs(np.exp(-1j * k * grid.nodes * dt) * state.coeffs)))
    if math.isfinite(peak) and peak <= _GUARD:
        step(state, dt)
        assert float(np.max(np.abs(state.coeffs))) == pytest.approx(peak, rel=1e-12)
    else:
        with pytest.raises(BlowupDetected) as excinfo:
            step(state, dt)
        assert str(excinfo.value) == f"mode amplitude reached {peak:.3e} at t = {dt:.3f}"


def test_truncation_robust_at_small_epsilon(gaussian_grid):
    results = {}
    for k_max in (8, 16):  # dt sized for the k_max = 16 transport bound
        state = initialize(Gaussian(1.0), gaussian_grid, k_max, 1e-3, 1.0, modes={1: _ones})
        res = run(state, 0.005, 10.0, output_every=20)
        results[k_max] = res.order_params
    scale = np.max(np.abs(results[8]))
    assert np.max(np.abs(results[8] - results[16])) <= 1e-6 * scale


def test_linear_regime_matches_memory_kernel_solution(gaussian_grid):
    # eps -> 0 turns the mode system into the memory-kernel equation with
    # source ghat(t); cross-module consistency of the whole linear route.
    eps = 1e-6
    state = initialize(Gaussian(1.0), gaussian_grid, 8, eps, 1.0, modes={1: _ones})
    res = run(state, 0.01, 20.0, output_every=10)
    vol = solve(
        VolterraProblem(
            kuramoto_kernel(Gaussian(1.0), 1.0),
            lambda t: Gaussian(1.0).fourier_transform(t),
            1e-3,
            20.0,
        )
    )
    stride = int(round((res.times[1] - res.times[0]) / 1e-3))
    err = np.max(np.abs(res.order_params - vol.values[::stride]))
    assert err <= 1e-4 * abs(res.order_params[0])


# ---------------------------------------------------------------------------
# Sobolev diagnostics


def test_norms_frozen_under_free_transport(gaussian_grid):
    state = initialize(Gaussian(1.0), gaussian_grid, 8, 1e-3, 0.0, modes={1: _gauss_profile})
    high0, low0 = sobolev_diagnostics(state, 4)
    high0 *= 1.0 + state.time
    run(state, 0.01, 20.0, output_every=10**9)
    high1, low1 = sobolev_diagnostics(state, 4)
    high1 *= 1.0 + state.time
    assert high1 == pytest.approx(high0, rel=1e-8)
    assert low1 == pytest.approx(low0, rel=1e-8)


@pytest.mark.parametrize("weight_order", [2, 5])
def test_run_records_diagnostics_through_module_attribute(monkeypatch, gaussian_grid, weight_order):
    # run looks sobolev_diagnostics up on the module once per record (the
    # benchmark's per-layer counts wrap it there), and the stencils it builds
    # once per run give bitwise the values of a stand-alone call
    original = spectral.sobolev_diagnostics
    calls = []

    def counted(state, order, *args):
        values = original(state, order, *args)
        calls.append((state.time, values, original(state, order)))
        return values

    monkeypatch.setattr(spectral, "sobolev_diagnostics", counted)
    state = initialize(Gaussian(1.0), gaussian_grid, 4, 1e-3, 1.0, modes={1: _gauss_profile})
    res = run(state, 0.01, 1.0, output_every=30, weight_order=weight_order)
    assert [t for t, _, _ in calls] == list(res.times)
    for _, values, alone in calls:
        assert values == alone
    assert list(res.diag_norm_over_time) == [v[0] for _, v, _ in calls]
    assert list(res.diag_norm_low) == [v[1] for _, v, _ in calls]


def test_profile_norm_matches_direct_quadrature(gaussian_grid):
    state = initialize(
        Gaussian(1.0), gaussian_grid, 4, 1e-3, 1.0,
        modes={1: _gauss_profile, 2: lambda w: 0.2 * _gauss_profile(w)},
    )
    profile = unwound_profile(state)
    norm = profile_sobolev_norm(gaussian_grid, profile, 0)

    theta = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    total = 0.0
    for row, k in zip(profile, range(1, 5)):
        vals = np.outer(np.exp(1j * k * theta), row)
        vals = (vals + np.conj(vals)).real / (2 * np.pi)
        total += np.sum(
            vals**2 * (1 + gaussian_grid.nodes**2)[None, :] * gaussian_grid.bare_weights[None, :]
        ) * (2 * np.pi / theta.size)
    assert norm == pytest.approx(np.sqrt(total), rel=1e-12)


def test_profile_norm_derivatives_match_exact_density_derivatives():
    # p_1 = g, other modes zero: k = 1 makes every k^{2a} factor 1, so
    # ||p||_{H^n}^2 = (1/pi) sum_b (n - b + 1) int (1 + w^2) |g^(b)|^2 dw,
    # evaluated here from the closed-form derivatives by adaptive quadrature.
    dist = Gaussian(1.0)
    amps = [
        integrate.quad(
            lambda w: (1 + w * w) * density_derivative(dist, w, b) ** 2,
            -np.inf, np.inf, epsabs=0, epsrel=1e-13, limit=200,
        )[0]
        for b in range(5)
    ]
    errors = {}
    for nodes in (256, 512, 1024):
        grid = build_grid(dist, nodes)
        profile = dist.density(grid.nodes)[None, :].astype(complex)
        for n in range(1, 5):
            exact = math.sqrt(sum((n - b + 1) * amps[b] for b in range(n + 1)) / np.pi)
            errors[nodes, n] = abs(profile_sobolev_norm(grid, profile, n) / exact - 1.0)
    for n in range(1, 5):
        assert errors[1024, n] <= 1e-7
        # the stencils are second order or better: doubling J at least quarters the error
        assert errors[512, n] <= errors[256, n] / 4
        assert errors[1024, n] <= errors[512, n] / 4


_FRESH_NORMS = """
import json, sys
import numpy as np
from kuramoto_damping.distributions import Gaussian, build_grid
from kuramoto_damping.spectral import profile_sobolev_norm
norms = []
for sigma, nodes in json.loads(sys.argv[1]):
    grid = build_grid(Gaussian(sigma), nodes)
    norms.append(profile_sobolev_norm(grid, np.exp(-grid.nodes**2)[None, :] + 0j, 4))
print(json.dumps(norms))
"""


def test_norms_of_rebuilt_grids_match_fresh_interpreter():
    # Grids built, freed and rebuilt in one process: a freed grid's object id
    # is often reused by the next grid, so any state keyed on the grid object
    # would leak between grids.  Reference norms come from a fresh
    # interpreter, which no state of this process can reach.
    configs = [(1.0, 256), (2.0, 256), (1.0, 512)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    fresh = json.loads(
        subprocess.run(
            [sys.executable, "-c", _FRESH_NORMS, json.dumps(configs)],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
    )
    for _ in range(20):
        for (sigma, nodes), expected in zip(configs, fresh):
            grid = build_grid(Gaussian(sigma), nodes)
            norm = profile_sobolev_norm(grid, np.exp(-grid.nodes**2)[None, :] + 0j, 4)
            assert norm == pytest.approx(expected, rel=1e-12)
            del grid
            gc.collect()


def test_diagnostics_bounded_in_stable_run(gaussian_grid):
    # The three bootstrap components stay bounded: their suprema are attained
    # before the final quarter of the run (an unstable run grows through the
    # end instead), and the low norm settles to its limit value.
    state = initialize(Gaussian(1.0), gaussian_grid, 8, 1e-3, 1.0, modes={1: _ones})
    res = run(state, 0.01, 40.0, output_every=50, weight_order=4)
    late = res.times >= 30.0
    weighted = (1.0 + res.times) ** 4 * np.abs(res.order_params)
    assert np.max(weighted[late]) < np.max(weighted)
    assert np.max(res.diag_norm_over_time[late]) < np.max(res.diag_norm_over_time)
    tail = res.diag_norm_low[late]
    assert np.max(tail) - np.min(tail) <= 0.05 * np.max(tail)


def _gathered_amplitudes(grid, profile, order):
    """Reference: every row of every stencil applied by gathering its nodes."""
    weight = grid.bare_weights * (1.0 + grid.nodes**2)
    amps = [np.abs(profile) ** 2 @ weight]
    for b in range(1, order + 1):
        idx, W = spectral._stencil(grid.nodes, b)
        amps.append(np.abs((profile[:, idx] * W.T).sum(-1)) ** 2 @ weight)
    return np.array(amps)


def _edge_and_full_profiles(size, rows=3, seed=0):
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size))
    edges = full.copy()
    edges[:, MAX_WEIGHT_ORDER + 3 : -(MAX_WEIGHT_ORDER + 3)] = 0.0
    return full, edges


@pytest.mark.parametrize(
    "dist, nodes, mass",
    [(Gaussian(1.0), 512, 1.0 - 1e-8), (Cauchy(1.0), 1024, 0.9)],
    ids=["gaussian", "cauchy-asinh"],
)
def test_slice_stencils_match_gather_formula(dist, nodes, mass):
    # the centred rows apply each stencil by one slice per offset; the
    # profile that vanishes away from the ends isolates the edge rows
    grid = build_grid(dist, nodes, mass)
    for profile in _edge_and_full_profiles(grid.nodes.size):
        for order in range(1, MAX_WEIGHT_ORDER + 1):
            ref = _gathered_amplitudes(grid, profile, order)
            amps = spectral._derivative_amplitudes(grid, profile, order)
            assert amps.shape == ref.shape
            assert np.all(np.abs(amps - ref) <= 1e-14 * ref), order


@pytest.mark.parametrize("extra", [0, 1, 2, 5])
@pytest.mark.parametrize("order", range(1, MAX_WEIGHT_ORDER + 1))
def test_slice_stencils_on_the_smallest_grids(order, extra):
    # J = order + 3 is the smallest grid a stencil of this order allows: one
    # centred row, every other row at an edge
    rng = np.random.default_rng(order)
    size = order + 3 + extra
    nodes = np.cumsum(rng.uniform(1.0, 2.0, size)) / size
    grid = SimpleNamespace(nodes=nodes - nodes.mean(), bare_weights=rng.uniform(0.5, 1.0, size))
    profile = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
    ref = _gathered_amplitudes(grid, profile, order)
    amps = spectral._derivative_amplitudes(grid, profile, order)
    assert np.all(np.abs(amps - ref) <= 1e-14 * ref)


def test_heavy_tail_grid_too_coarse_for_derivatives():
    # tail panels of a heavy-tailed grid grow too fast for the wide stencils
    # of fourth derivatives
    grid = build_grid(Cauchy(1.0), 512, 1.0 - 1e-6)
    profile = np.ones((2, grid.nodes.size), dtype=complex)
    with pytest.raises(GridTooCoarse):
        profile_sobolev_norm(grid, profile, 4)


def test_grid_smaller_than_stencil_too_coarse():
    grid = build_grid(Gaussian(1.0), 16, 0.9)  # one panel: 16 nodes
    profile = np.ones((1, grid.nodes.size), dtype=complex)
    with pytest.raises(GridTooCoarse):
        profile_sobolev_norm(grid, profile, 14)  # a 17-point stencil


# ---------------------------------------------------------------------------
# scattering and recurrence


def test_scattering_free_transport_all_pairs_zero(gaussian_grid):
    state = initialize(Gaussian(1.0), gaussian_grid, 4, 1e-3, 0.0, modes={1: _gauss_profile})
    res = run(
        state, 0.01, 26.0, output_every=10,
        snapshot_times=(8.0, 16.0, 24.0),
    )
    rep = scattering_profile(state, res, 4)
    assert max(rep.pairwise_norms) <= 1e-10
    assert rep.verdict == "Converged"


def test_scattering_converges_in_stable_run(gaussian_grid):
    state = initialize(Gaussian(1.0), gaussian_grid, 8, 1e-3, 1.0, modes={1: _ones})
    res = run(
        state, 0.01, 26.0, output_every=10,
        snapshot_times=(8.0, 16.0, 24.0),
    )
    rep = scattering_profile(state, res, 4)
    assert rep.pairwise_norms[0] > rep.pairwise_norms[1]
    assert rep.verdict == "Converged"


def test_scattering_not_converged_when_unstable(gaussian_grid):
    # 1.5 K_c for the unit Gaussian
    coupling = 1.5 * np.sqrt(8.0 / np.pi)
    state = initialize(Gaussian(1.0), gaussian_grid, 8, 1e-3, coupling, modes={1: _ones})
    res = run(
        state, 0.01, 26.0, output_every=10,
        snapshot_times=(8.0, 16.0, 24.0),
    )
    rep = scattering_profile(state, res, 4)
    assert rep.verdict == "NotConverged"
    # at order 8 on 512 nodes the roundoff floor, 1e3 eps h_min^-6 times the
    # snapshots' norm, is 65 times that norm: it must not call the rise roundoff
    rep = scattering_profile(state, res, MAX_WEIGHT_ORDER)
    assert rep.pairwise_norms[1] > rep.pairwise_norms[0]
    assert rep.verdict == "NotConverged"


def test_scattering_verdict_ignores_the_order_of_roundoff(gaussian_grid):
    # snapshots that differ in the last bits of their coefficients only: the
    # pair norms rise, but they are roundoff, so the profile has converged;
    # the same differences 1e10 times larger are a rise the verdict must see
    state = initialize(Gaussian(1.0), gaussian_grid, 4, 1e-3, 0.0, modes={1: _gauss_profile})
    res = run(state, 0.01, 0.3, output_every=10,
              snapshot_times=(0.1, 0.2, 0.3))
    p = res.snapshots[min(res.snapshots)]
    signs = np.where(np.random.default_rng(0).random(p.shape) < 0.5, -1.0, 1.0)
    for scale, verdict in ((1.0, "Converged"), (1e10, "NotConverged")):
        snapshots = {1.0: p, 2.0: p * (1.0 + scale * 2**-52 * signs),
                     3.0: p * (1.0 - scale * 2**-51 * signs)}
        rep = scattering_profile(state, dataclasses.replace(res, snapshots=snapshots), 4)
        assert rep.pairwise_norms[1] > rep.pairwise_norms[0] > 0.0
        assert rep.verdict == verdict


def test_scattering_pair_norms_are_module_norms_of_differences(monkeypatch, gaussian_grid):
    # scattering_profile takes its stencils from the state, still reaches
    # profile_sobolev_norm through the module once per pair, and gets bitwise
    # the norms a stand-alone call gives
    state = initialize(Gaussian(1.0), gaussian_grid, 8, 1e-3, 1.0, modes={1: _ones})
    res = run(
        state, 0.01, 26.0, output_every=10,
        snapshot_times=(6.0, 12.0, 18.0, 24.0),
    )
    times = sorted(res.snapshots)
    expected = [
        profile_sobolev_norm(gaussian_grid, res.snapshots[b] - res.snapshots[a], 2)
        for a, b in zip(times[:-1], times[1:])
    ]
    original, calls = spectral.profile_sobolev_norm, []

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(spectral, "profile_sobolev_norm", counted)
    rep = scattering_profile(state, res, 4)
    assert rep.pairwise_norms == expected
    assert calls == [2, 2, 2]


@pytest.mark.parametrize(
    "requested, expected",
    [
        ((-1.0, 1.0, 2.0, 3.0), [1.0, 2.0, 3.0]),
        ((1.0, 1.001, 2.0, 3.0), [1.0, 2.0, 3.0]),
        ((3.0, 1.0, 2.0), [1.0, 2.0, 3.0]),
        ((1.0, 2.0, 3.0, 9.0), [1.0, 2.0, 3.0]),
        ((1.04, 1.06, 2.0), [1.0, 1.1, 2.0]),
    ],
    ids=["passed-before-start", "two-near-one-output", "unsorted", "beyond-the-end",
         "between-outputs"],
)
def test_unmatched_snapshot_time_keeps_later_snapshots(gaussian_grid, requested, expected):
    # a requested time that no output matches used to block every later one;
    # each output takes the requested times within half an output interval
    state = initialize(Gaussian(1.0), gaussian_grid, 4, 1e-3, 1.0, modes={1: _gauss_profile})
    res = run(
        state, 0.01, 4.0, output_every=10,
        snapshot_times=requested,
    )
    assert sorted(res.snapshots) == pytest.approx(expected, abs=1e-9)


def test_snapshot_is_taken_at_the_nearest_output_after_a_short_last_interval():
    # outputs at t = 0, 4 and 6: the last interval is 2 long, not 4, so 5.9
    # is 0.1 from the last output and 1.9 from the one at t = 4
    dist = Gaussian(1.0)
    state = initialize(dist, build_grid(dist, 64), 4, 0.01, 1.0, modes={1: _gauss_profile})
    res = run(state, 0.01, 6.0, output_every=400, snapshot_times=(4.2, 5.9))
    assert list(res.times) == pytest.approx([0.0, 4.0, 6.0], abs=1e-9)
    assert sorted(res.snapshots) == pytest.approx([4.0, 6.0], abs=1e-9)


def test_recurrence_formula():
    grid = build_grid(Gaussian(1.0), 512)
    assert recurrence_horizon(grid) == pytest.approx(np.pi / grid.spacing_max, rel=1e-12)
    # uniform-gap reading: gap 0.01 -> horizon ~ 314
    fake = type(grid)(
        nodes=np.arange(0, 1, 0.01),
        weights=np.ones(100),
        bare_weights=np.ones(100),
        spacing_max=0.01,
    )
    assert recurrence_horizon(fake) == pytest.approx(0.5 * 2 * np.pi / 0.01, rel=1e-12)


def test_doubling_nodes_roughly_doubles_horizon():
    g1 = build_grid(Gaussian(1.0), 256)
    g2 = build_grid(Gaussian(1.0), 512)
    ratio = recurrence_horizon(g2) / recurrence_horizon(g1)
    assert 1.6 <= ratio <= 2.4


def test_grid_transform_accurate_before_horizon_recurs_after():
    # Free transport: R(t) on the grid is sum w exp(-i w t); it tracks the
    # analytic transform before the safe horizon and departs after it.
    dist = Gaussian(1.0)
    grid = build_grid(dist, 256)
    horizon = recurrence_horizon(grid)
    before = np.linspace(0.0, 0.95 * horizon, 200)
    after = np.linspace(horizon, 3.0 * horizon, 400)

    def grid_transform(ts):
        return np.array([(grid.weights * np.exp(-1j * grid.nodes * t)).sum() for t in ts])

    err_before = np.max(np.abs(grid_transform(before) - dist.fourier_transform(before)))
    err_after = np.max(np.abs(grid_transform(after) - dist.fourier_transform(after)))
    assert err_before <= 1e-7
    assert err_after >= 1e-3  # echoes past the horizon dwarf the tracked error
