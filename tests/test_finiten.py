"""Tests for the direct N-oscillator integrator."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from kuramoto_damping import finiten
from kuramoto_damping.distributions import Cauchy, Gaussian, bi_cauchy, invert_monotone
from kuramoto_damping.exceptions import InvalidPerturbation
from kuramoto_damping.finiten import (
    TWO_PI,
    FiniteNState,
    _phases,
    _Stepper,
    _van_der_corput,
    sample_oscillators,
    simulate,
)

from solver_routes import (
    FourArrayStepper,
    batch_invert_monotone,
    order_parameter_n,
    phase_turns,
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
    assert np.array_equal(_van_der_corput(count, count // 3), expected[count // 3 :])


def _blockwise(solve, count, block):
    """``solve(start, stop)`` on consecutive blocks of ``block`` points, joined."""
    return np.concatenate([solve(i, min(i + block, count)) for i in range(0, count, block)])


def test_quantiles_do_not_depend_on_their_batch():
    # each point stops on its own step, so a quantile is the same whichever
    # points are solved beside it.  When the whole batch stopped on one
    # residual, 5,801 of these 40,000 frequencies moved, by up to 1.34e-8,
    # when solved in blocks of 4,096
    dist, count, eps = bi_cauchy(1.0, 0.5), 40_000, 1e-2
    levels = (np.arange(count) + 0.5) / count
    state = sample_oscillators(dist, count, 1.0, epsilon=eps, modes={1: _unit})
    freqs, targets = state.frequencies, _van_der_corput(count)
    assert np.array_equal(dist.inverse_cdf(levels), freqs)
    for block in (4096, 1000, 7):
        assert np.array_equal(_blockwise(lambda i, j: dist.inverse_cdf(levels[i:j]), count, block), freqs)
        phases = _blockwise(lambda i, j: _phases(freqs[i:j], targets[i:j], {1: _unit}, eps), count, block)
        assert np.array_equal(phases, state.phases)
    for i in [*range(32), *range(count - 32, count)]:
        assert dist.inverse_cdf(levels[i : i + 1])[0] == freqs[i]
        assert _phases(freqs[i : i + 1], targets[i : i + 1], {1: _unit}, eps)[0] == state.phases[i]
    # against the whole-batch residual stop: 1.9e-13 relative at most, far-tail points
    quantiles = [c.inverse_cdf(levels) for c in dist.components]
    lo, hi = np.minimum.reduce(quantiles), np.maximum.reduce(quantiles)
    batch = batch_invert_monotone(lambda x: (dist.cdf(x), dist.density(x)), levels, 0.5 * (lo + hi), lo, hi)
    assert np.max(np.abs(freqs - batch) / np.abs(batch)) <= 1e-12


def test_seeded_draws_keep_the_generator_order():
    # N uniforms for the frequencies, then N for the phases, whatever the
    # blocks: 10,000 oscillators span three of them
    count, seed = 10_000, 11
    state = sample_oscillators(Cauchy(1.0), count, 1.0, sampling="seeded", seed=seed)
    rng = np.random.default_rng(seed)
    assert np.array_equal(state.frequencies, Cauchy(1.0).inverse_cdf(rng.uniform(0.0, 1.0, count)))
    assert np.array_equal(state.phases, TWO_PI * rng.uniform(0.0, 1.0, count))


_SAMPLE_CASES = {
    "bi-cauchy-quantile": (bi_cauchy(1.0, 0.5), {"epsilon": 1e-2, "modes": {1: _unit}}),
    "bi-cauchy-seeded": (
        bi_cauchy(1.0, 0.5),
        {"epsilon": 0.2, "modes": {1: _unit, 3: _unit}, "sampling": "seeded", "seed": 1},
    ),
    "gaussian-quantile": (Gaussian(1.0), {"epsilon": 0.3, "modes": {2: _unit}}),
}


@pytest.mark.parametrize("case", list(_SAMPLE_CASES))
def test_sampling_memory_does_not_grow_with_population(case):
    # blocks of _SAMPLE_BLOCK oscillators: above the two output arrays the
    # sampler peaks 0.70-0.77 MB at every N.  Whole-population sampling
    # peaked 2.4-3.8 MB above them at N = 2 10^4 and 9.7-12.2 MB at 8 10^4
    dist, options = _SAMPLE_CASES[case]
    sample_oscillators(dist, 100, 1.0, **options)  # numpy's first-call allocations
    for count in (20_000, 80_000):
        tracemalloc.start()
        try:
            sample_oscillators(dist, count, 1.0, **options)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * count * 8 < 1_000_000


def test_simulate_holds_six_complex_arrays():
    # the tables P and Q, z and three work arrays, then the new phases; the
    # margin holds the 11 records.  With a fourth work array and the tables
    # built through temporaries the peak was 8 complex arrays
    count = 20_000
    state = sample_oscillators(bi_cauchy(1.0, 0.5), count, 3.0, epsilon=1e-2, modes={1: _unit})
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        simulate(state, 0.02, 1.0, output_every=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live < 6 * 16 * count + 8 * count + 16_384


@pytest.mark.parametrize("count", [1000, 20_000])
@pytest.mark.parametrize("dist", [Cauchy(1.0), bi_cauchy(1.0, 0.5)], ids=["cauchy", "bi-cauchy"])
def test_step_is_bitwise_the_four_array_step(dist, count):
    # K = 3 is above K_c (2 and 2.5), so the coupling grows to the size of
    # the rotation and any reordered rounding would show
    def start():
        return sample_oscillators(dist, count, 3.0, epsilon=0.2, modes={1: _unit})

    three, four = _Stepper(start(), 0.01), FourArrayStepper(start(), 0.01)
    assert np.array_equal(three.half, four.half) and np.array_equal(three.full, four.full)
    assert np.array_equal(three.z, four.z)
    initial = abs(three.mean)
    for _ in range(400):
        three.advance()
        four.advance()
        assert three.mean == four.mean
    assert np.array_equal(three.z, four.z)
    assert abs(three.mean) > 2 * initial
    three.finish()
    four.finish()
    assert np.array_equal(three.state.phases, four.state.phases)
    assert three.state.time == four.state.time


def _gaussian_noise_level(coupling):
    """int g / |D|^2 over the real line for Gaussian(1), D = 1 - (K/2) L.

    L(w) = sqrt(pi/2) w(-w/sqrt(2)) on the real axis, with w the Faddeeva
    function of scipy, so the oracle shares no code with ``dispersion``.
    """
    from scipy import integrate, special

    def integrand(w):
        laplace = np.sqrt(np.pi / 2) * special.wofz(-w / np.sqrt(2))
        return np.exp(-0.5 * w * w) / np.sqrt(2 * np.pi) / abs(1 - 0.5 * coupling * laplace) ** 2

    return integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)[0]


def test_seeded_noise_level_matches_linear_response():
    # Below K_c a seeded population is a noisy incoherent state whose Z is the
    # linear response to the free-streaming noise; its level is
    # N <|Z|^2> = int g / |D|^2 (Hildebrand, Buice & Chow, PRL 98, 054101,
    # 2007).  For Cauchy(delta) that is delta / (delta - K/2) = 1 / (1 - K/K_c),
    # 2 at K = 1; for Gaussian(1) at K = 1 a quadrature gives 3.5254.
    # Measured over the 8 seeds: 1.987 with a standard error of 0.047, and
    # 3.381 with 0.109; each bound is 3 of those standard errors.
    count, coupling = 2000, 1.0
    cases = [
        (Cauchy(1.0), 1.0 / (1.0 - coupling / 2.0), 0.047),
        (Gaussian(1.0), _gaussian_noise_level(coupling), 0.109),
    ]
    assert cases[1][1] == pytest.approx(3.5254, abs=1e-4)
    for dist, level, parent_error in cases:
        levels = []
        for seed in range(8):
            state = sample_oscillators(dist, count, coupling, sampling="seeded", seed=seed)
            times, z = simulate(state, 0.05, 200.0)
            levels.append(count * np.mean(np.abs(z[times >= 20.0]) ** 2))
        error = np.std(levels, ddof=1) / np.sqrt(len(levels))
        assert abs(np.mean(levels) - level) <= 3 * parent_error
        assert error <= 2 * parent_error


def _ott_antonsen_modes(eps, count=40):
    return {k: (lambda w, c=eps ** (k - 1): np.full(np.shape(w), c, dtype=complex))
            for k in range(1, count + 1)}


def _per_mode_phases(state, modes, eps):
    """Phases drawn with one exponential per mode and oscillator: the reference formula."""
    orders = list(modes)

    def cdf_density(theta, *values):
        cdf, density = theta / (2 * np.pi), np.ones_like(theta) / (2 * np.pi)
        for k, c in zip(orders, values):
            cdf = cdf + (eps / np.pi) * np.real(c * (np.exp(1j * k * theta) - 1.0) / (1j * k))
            density = density + (eps / np.pi) * np.real(c * np.exp(1j * k * theta))
        return cdf, density

    targets = _van_der_corput(state.count)
    values = [modes[k](state.frequencies) for k in orders]
    phases = invert_monotone(cdf_density, targets, 2 * np.pi * targets, 0.0, 2 * np.pi, values)
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
