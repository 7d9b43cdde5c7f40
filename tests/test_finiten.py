"""Tests for the direct N-oscillator integrator."""

import numpy as np
import pytest

from kuramoto_damping.distributions import Cauchy, Gaussian
from kuramoto_damping.exceptions import InvalidPerturbation
from kuramoto_damping.finiten import (
    FiniteNState,
    _van_der_corput,
    order_parameter_n,
    sample_oscillators,
    simulate,
    step_rk4,
)


def _unit(w):
    return np.ones_like(np.asarray(w), dtype=complex)


# ---------------------------------------------------------------------------
# sampling


def test_cauchy_quantile_frequencies():
    state = sample_oscillators(Cauchy(1.0), 4, 1.0)
    expected = np.tan(np.pi * (np.array([1, 3, 5, 7]) / 8.0 - 0.5))
    np.testing.assert_allclose(state.frequencies, expected, rtol=0, atol=1e-14)


def test_unperturbed_quantile_phases_equidistribute():
    state = sample_oscillators(Gaussian(1.0), 256, 1.0)
    assert abs(order_parameter_n(state)[1]) <= 2.0 / 256
    state = sample_oscillators(Gaussian(1.0), 100, 1.0)
    assert abs(order_parameter_n(state)[1]) <= 2.0 / 100


def test_seeded_sampling_is_deterministic():
    a = sample_oscillators(Gaussian(1.0), 64, 1.0, epsilon=0.01, modes={1: _unit},
                           sampling="seeded", seed=7)
    b = sample_oscillators(Gaussian(1.0), 64, 1.0, epsilon=0.01, modes={1: _unit},
                           sampling="seeded", seed=7)
    np.testing.assert_array_equal(a.phases, b.phases)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    for _ in range(50):
        step_rk4(a, 0.01)
        step_rk4(b, 0.01)
    np.testing.assert_array_equal(a.phases, b.phases)


def test_perturbed_phases_reproduce_first_moment():
    # with c_1 = 1 the initial normalized sum approximates eps * conj(R(0)) = eps
    eps = 0.05
    state = sample_oscillators(Gaussian(1.0), 4096, 1.0, epsilon=eps, modes={1: _unit})
    _, z = order_parameter_n(state)
    assert z == pytest.approx(eps, abs=5e-4)


def test_negative_phase_density_rejected():
    with pytest.raises(InvalidPerturbation):
        sample_oscillators(Gaussian(1.0), 32, 1.0, epsilon=0.9, modes={1: _unit})
    with pytest.raises(InvalidPerturbation):
        sample_oscillators(Gaussian(1.0), 32, 1.0, epsilon=0.1, modes={0: _unit})
    # the message names the lowest frequency whose phase density dips below zero
    freqs = sample_oscillators(Gaussian(1.0), 32, 1.0).frequencies
    step = {1: lambda w: np.where(np.asarray(w) > 0.3, 1.0, 0.0) + 0j}
    with pytest.raises(InvalidPerturbation, match=f"at frequency {freqs[freqs > 0.3][0]:.4g}$"):
        sample_oscillators(Gaussian(1.0), 32, 1.0, epsilon=0.9, modes=step)


@pytest.mark.parametrize("count", [1, 2, 3, 1023, 1024, 1025, 10_000])
def test_van_der_corput_matches_digit_loop(count):
    expected = np.zeros(count)
    for i in range(count):
        n, denom, x = i + 1, 1.0, 0.0
        while n:
            n, rem = divmod(n, 2)
            denom *= 2
            x += rem / denom
        expected[i] = x
    assert np.array_equal(_van_der_corput(count), expected)


def test_rejects_tiny_population():
    with pytest.raises(ValueError):
        sample_oscillators(Gaussian(1.0), 1, 1.0)


# ---------------------------------------------------------------------------
# stepping


def test_two_oscillators_match_closed_form():
    # equal frequencies: the phase difference obeys phi' = -K sin(phi), whose
    # solution is tan(phi/2) = tan(phi0/2) exp(-K t)
    coupling = 1.0
    state = FiniteNState(phases=np.array([0.0, 2.0]), frequencies=np.zeros(2), coupling=coupling)
    for _ in range(5000):
        step_rk4(state, 1e-3)
    phi = state.phases[1] - state.phases[0]
    exact = 2.0 * np.arctan(np.tan(1.0) * np.exp(-coupling * state.time))
    assert phi == pytest.approx(exact, abs=1e-6)


def test_free_rotation_is_exact():
    state = sample_oscillators(Gaussian(1.0), 50, 0.0, epsilon=0.01, modes={1: _unit})
    start = state.phases.copy()
    for _ in range(100):
        step_rk4(state, 0.01)
    expected = np.mod(start + state.frequencies * state.time, 2 * np.pi)
    np.testing.assert_allclose(state.phases, expected, rtol=0, atol=1e-12)


def test_identical_frequencies_synchronize():
    state = sample_oscillators(Gaussian(1.0), 50, 1.0, sampling="seeded", seed=42)
    state.frequencies[:] = 0.0
    times, orders = simulate(state, 0.01, 100.0, output_every=100)
    assert abs(orders[-1]) >= 0.999


def test_mean_phase_conserved_with_wrap_bookkeeping():
    state = sample_oscillators(Gaussian(1.0), 64, 1.3, epsilon=0.05, modes={1: _unit})
    start_sum = float(np.sum(state.phases))
    freq_sum = float(np.sum(state.frequencies))
    for _ in range(2000):
        step_rk4(state, 0.01)
    # interaction is pairwise antisymmetric: sum of unwrapped phases moves
    # with the frequency sum only
    unwrapped_sum = float(np.sum(state.phases)) + state.wrap_offset
    drift = (unwrapped_sum - start_sum - freq_sum * state.time) / state.count
    assert abs(drift) <= 1e-8


def test_simulate_records_series():
    state = sample_oscillators(Gaussian(1.0), 32, 0.5, epsilon=0.01, modes={1: _unit})
    times, orders = simulate(state, 0.01, 1.0, output_every=10)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0, abs=1e-12)
    assert orders.shape == times.shape


# ---------------------------------------------------------------------------
# continuum comparison


def test_matches_continuum_order_parameter():
    from kuramoto_damping.distributions import build_grid
    from kuramoto_damping.spectral import initialize, run

    dist = Gaussian(1.0)
    eps = 1e-2
    state = sample_oscillators(dist, 4096, 1.0, epsilon=eps, modes={1: _unit})
    times, z = simulate(state, 0.01, 5.0, output_every=20)

    grid = build_grid(dist, 512)
    cont = initialize(dist, grid, 8, eps, 1.0, modes={1: _unit})
    res = run(cont, 0.01, 5.0, output_every=20, collect_diagnostics=False)

    # finite-N sum uses exp(+i theta), the continuum weight exp(-i theta)
    diff = np.abs(np.conj(z) - eps * res.order_params)
    assert diff.max() <= 2e-3


def test_convergence_rate_with_population_size():
    # quantile sampling: error vs continuum shrinks markedly as N grows
    from kuramoto_damping.distributions import build_grid
    from kuramoto_damping.spectral import initialize, run

    dist = Gaussian(1.0)
    eps = 1e-2
    grid = build_grid(dist, 512)
    cont = initialize(dist, grid, 8, eps, 1.0, modes={1: _unit})
    res = run(cont, 0.01, 3.0, output_every=30, collect_diagnostics=False)

    sups = []
    for count in (512, 2048):
        state = sample_oscillators(dist, count, 1.0, epsilon=eps, modes={1: _unit})
        _, z = simulate(state, 0.01, 3.0, output_every=30)
        sups.append(np.abs(np.conj(z) - eps * res.order_params).max())
    assert sups[1] < sups[0]
