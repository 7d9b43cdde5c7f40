"""Tests for the direct N-oscillator integrator."""

from functools import lru_cache

import numpy as np
import pytest

from kuramoto_damping.distributions import Cauchy, Gaussian, invert_monotone
from kuramoto_damping.exceptions import InvalidPerturbation
from kuramoto_damping.finiten import (
    FiniteNState,
    _Stepper,
    _van_der_corput,
    sample_oscillators,
    simulate,
)

from solver_routes import order_parameter_n, phase_turns, step_rk4


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
    with pytest.raises(InvalidPerturbation, match="numbered from 1"):
        sample_oscillators(Gaussian(1.0), 32, 1.0, epsilon=0.1, modes={-1: _unit})
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


def _ott_antonsen_modes(eps, count=40):
    return {k: (lambda w, c=eps ** (k - 1): np.full(np.shape(w), c, dtype=complex))
            for k in range(1, count + 1)}


def _per_mode_phases(state, modes, eps):
    """Phases drawn with one exponential per mode and oscillator: the reference formula."""
    values = {k: profile(state.frequencies) for k, profile in modes.items()}

    def cdf_density(theta):
        cdf, density = theta / (2 * np.pi), np.ones_like(theta) / (2 * np.pi)
        for k, c in values.items():
            cdf = cdf + (eps / np.pi) * np.real(c * (np.exp(1j * k * theta) - 1.0) / (1j * k))
            density = density + (eps / np.pi) * np.real(c * np.exp(1j * k * theta))
        return cdf, density

    targets = _van_der_corput(state.count)
    phases = invert_monotone(cdf_density, targets, 2 * np.pi * targets, 0.0, 2 * np.pi)
    return np.mod(phases, 2 * np.pi)


_GAPPED_MODES = {
    5: lambda w: 0.5j * np.exp(-np.asarray(w) ** 2) + 0j,
    2: lambda w: np.ones_like(np.asarray(w), dtype=complex),
    9: lambda w: (0.3 - 0.4j) * np.cos(np.asarray(w)) + 0j,
}


@pytest.mark.parametrize(
    "modes, eps", [(_ott_antonsen_modes(0.5), 0.5), (_GAPPED_MODES, 0.1)],
    ids=["ott-antonsen-40", "gapped"],
)
def test_many_mode_phases_match_per_mode_exponentials(modes, eps):
    # e^{ik theta} as powers of one e^{i theta}: rounding-level changes only
    state = sample_oscillators(Cauchy(1.0), 2000, 1.0, epsilon=eps, modes=modes)
    turn = np.angle(np.exp(1j * (state.phases - _per_mode_phases(state, modes, eps))))
    assert np.max(np.abs(turn)) <= 1e-12


def test_one_mode_phases_equal_per_mode_exponentials():
    state = sample_oscillators(Gaussian(1.0), 1000, 1.0, epsilon=0.05, modes={1: _unit})
    np.testing.assert_array_equal(state.phases, _per_mode_phases(state, {1: _unit}, 0.05))


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


@pytest.mark.parametrize(
    "dist, coupling, count, least_order",
    [(Gaussian(1.0), 1.3, 64, 0.0), (Cauchy(1.0), 4.0, 1000, 0.6)],
    ids=["gaussian-k1.3", "cauchy-k4-synchronised"],
)
def test_mean_phase_conserved(dist, coupling, count, least_order):
    # interaction is pairwise antisymmetric: the sum of the unwrapped phases
    # moves with the frequency sum only, below and above K_c alike
    state = sample_oscillators(dist, count, coupling, epsilon=0.05, modes={1: _unit})
    turned = phase_turns(state, 0.01, 2000)
    assert abs(order_parameter_n(state)[1]) >= least_order
    drift = (float(np.sum(turned)) - float(np.sum(state.frequencies)) * state.time) / state.count
    assert abs(drift) <= 1e-8


def test_simulate_records_series():
    state = sample_oscillators(Gaussian(1.0), 32, 0.5, epsilon=0.01, modes={1: _unit})
    times, orders = simulate(state, 0.01, 1.0, output_every=10)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0, abs=1e-12)
    assert orders.shape == times.shape


def test_simulate_equals_repeated_steps():
    # K = 2 > K_c = 1.6: one march of 300 steps against 300 calls of one step
    a = sample_oscillators(Gaussian(1.0), 256, 2.0, epsilon=0.05, modes={1: _unit})
    b = sample_oscillators(Gaussian(1.0), 256, 2.0, epsilon=0.05, modes={1: _unit})
    _, z = simulate(a, 0.01, 3.0)
    stepped = [order_parameter_n(b)[1]]
    for _ in range(300):
        step_rk4(b, 0.01)
        stepped.append(order_parameter_n(b)[1])
    np.testing.assert_allclose(z, stepped, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.angle(np.exp(1j * (a.phases - b.phases))), 0.0, rtol=0, atol=1e-12)
    assert a.time == b.time


def test_modulus_stays_on_the_unit_circle():
    # the once-per-step Newton factor 1.5 - 0.5 |z|^2 holds |z| near 1 even on
    # the Cauchy tail, where omega dt reaches 6
    state = sample_oscillators(Cauchy(1.0), 1000, 4.0, epsilon=0.05, modes={1: _unit})
    stepper = _Stepper(state, 0.01)
    worst = 0.0
    for _ in range(2000):
        stepper.advance()
        worst = max(worst, float(np.max(np.abs(np.abs(stepper.z) - 1.0))))
    assert worst <= 1e-6


def test_free_rotation_is_exact_on_cauchy_tail():
    # omega dt up to 64: only the exact rotation tables keep z on its orbit
    state = sample_oscillators(Cauchy(1.0), 1000, 0.0, epsilon=0.05, modes={1: _unit})
    assert np.max(state.frequencies) * 0.1 > 60.0
    start = state.phases.copy()
    times, z = simulate(state, 0.1, 20.0, output_every=20)
    turned = state.phases - (start + state.frequencies * state.time)
    np.testing.assert_allclose(np.angle(np.exp(1j * turned)), 0.0, rtol=0, atol=1e-10)
    exact = np.exp(1j * (start[None, :] + state.frequencies[None, :] * times[:, None])).mean(axis=1)
    np.testing.assert_allclose(z, exact, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Ott-Antonsen reduction
#
# Cauchy(1) frequencies and initial modes c_k = eps^{k-1} (a = 1) lie on the
# Ott-Antonsen manifold, where the residue at omega = -i delta closes the
# dynamics on dR/dt = (K/2 - delta) R - (K/2) eps^2 |R|^2 R, R(0) = 1.  The
# finite-N sum converges to eps conj(R).


def _ott_antonsen(times, coupling, eps, delta=1.0):
    """R(t) of the Bernoulli equation: x = |R|^2 solves x' = 2 lam x - K eps^2 x^2."""
    lam = 0.5 * coupling - delta
    quad = 0.5 * coupling * eps**2
    if lam == 0.0:
        return 1.0 / np.sqrt(1.0 + 2.0 * quad * times)
    growth = np.exp(2.0 * lam * times)
    return np.sqrt(growth / (1.0 + quad / lam * (growth - 1.0)))


@lru_cache(maxsize=None)
def _ott_antonsen_error(coupling, eps, count):
    state = sample_oscillators(
        Cauchy(1.0), count, coupling, epsilon=eps, modes=_ott_antonsen_modes(eps)
    )
    times, z = simulate(state, 0.01, 6.0, output_every=10)
    return float(np.max(np.abs(z - eps * np.conj(_ott_antonsen(times, coupling, eps)))))


@pytest.mark.parametrize(
    "coupling, eps, bound",
    # measured at N = 10^4: 3.48e-3, 5.60e-3, 4.64e-3
    [(1.0, 0.5, 4e-3), (4.0, 0.05, 6e-3), (4.0, 0.5, 5e-3)],
    ids=["damped", "sync-small", "sync-large"],
)
def test_matches_ott_antonsen_reduction(coupling, eps, bound):
    assert _ott_antonsen_error(coupling, eps, 10_000) <= bound


def test_ott_antonsen_error_falls_with_population():
    # quantile sampling: about N^{-1/2}, so a fourfold N should halve the error
    assert _ott_antonsen_error(4.0, 0.5, 10_000) <= 0.5 * _ott_antonsen_error(4.0, 0.5, 2_500)


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
    res = run(cont, 0.01, 5.0, output_every=20)

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
    res = run(cont, 0.01, 3.0, output_every=30)

    sups = []
    for count in (512, 2048):
        state = sample_oscillators(dist, count, 1.0, epsilon=eps, modes={1: _unit})
        _, z = simulate(state, 0.01, 3.0, output_every=30)
        sups.append(np.abs(np.conj(z) - eps * res.order_params).max())
    assert sups[1] < sups[0]


@pytest.mark.parametrize(
    "output_every, recorded",
    [(3, [0, 3, 6, 7]), (7, [0, 7]), (8, [0, 7])],
)
def test_both_marches_record_at_one_cadence(output_every, recorded):
    # 7 steps: a record at step 0, after every output_every-th step and after the last
    from kuramoto_damping.distributions import build_grid
    from kuramoto_damping.spectral import initialize, run

    dt, dist = 0.01, Gaussian(1.0)
    state = sample_oscillators(dist, 64, 1.0, epsilon=1e-2, modes={1: _unit})
    times, _ = simulate(state, dt, 7 * dt, output_every=output_every)
    cont = initialize(dist, build_grid(dist, 64), 4, 1e-2, 1.0, modes={1: _unit})
    res = run(cont, dt, 7 * dt, output_every=output_every)
    for t in (times, res.times):
        np.testing.assert_allclose(t, dt * np.array(recorded), rtol=0, atol=1e-15)
    assert res.order_params.size == res.diag_norm_low.size == len(recorded)
