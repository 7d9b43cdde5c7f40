"""Direct integration of the N-oscillator system.

dtheta_i/dt = omega_i + (K/N) sum_j sin(theta_j - theta_i), reduced to O(N)
per stage through the mean field Z = (1/N) sum_j exp(i theta_j):

    dtheta_i/dt = omega_i + K Im(Z exp(-i theta_i)).

Frequencies are drawn from a frequency distribution either by seeded inverse
CDF or by deterministic stratified quantiles omega_i = F^{-1}((i - 1/2)/N);
initial phases follow the perturbed per-frequency density
1/2pi + eps r(0, theta, omega) through its inverse CDF, placed on a
low-discrepancy sequence so the quantile mode carries no sampling noise.

The continuum counterpart weighs the density with exp(-i theta), so the
finite-N sum with exp(+i theta) converges to eps * conj(R); comparisons must
conjugate one side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import invert_monotone
from .exceptions import InvalidPerturbation

__all__ = [
    "FiniteNState",
    "sample_oscillators",
    "step_rk4",
    "order_parameter_n",
    "simulate",
]

TWO_PI = 2.0 * np.pi


@dataclass
class FiniteNState:
    """Phases (wrapped to [0, 2pi)) and frozen frequencies of N oscillators."""

    phases: np.ndarray
    frequencies: np.ndarray
    coupling: float
    time: float = 0.0
    # Sum of 2 pi jumps applied by wrapping; lets tests do exact mean-phase
    # bookkeeping without changing the wrapped representation.
    wrap_offset: float = 0.0

    @property
    def count(self):
        return self.phases.size


def _van_der_corput(count):
    """Low-discrepancy points in (0, 1): base-2 radical-inverse sequence."""
    n = np.arange(1, count + 1)
    out = np.zeros(count)
    for bit in range(1, int(count).bit_length() + 1):
        out += (n & 1) / 2.0**bit
        n >>= 1
    return out


def _theta_cdf(theta, mode_values, epsilon):
    """CDF of 1/2pi + eps r(0, theta, omega) at fixed omega.

    ``mode_values`` maps mode k >= 1 to c_k(omega); the integral of
    (1/2pi) sum_k c_k (e^{ik theta} - 1)/(ik) plus conjugates.
    """
    total = theta / TWO_PI
    for k, c in mode_values.items():
        total = total + (epsilon / np.pi) * np.real(
            c * (np.exp(1j * k * theta) - 1.0) / (1j * k)
        )
    return total


def _theta_density(theta, mode_values, epsilon):
    total = np.ones_like(theta) / TWO_PI
    for k, c in mode_values.items():
        total = total + (epsilon / np.pi) * np.real(c * np.exp(1j * k * theta))
    return total


def sample_oscillators(dist, count, coupling, epsilon=0.0, modes=None, sampling="quantile", seed=None):
    """Draw N oscillators with frequencies from ``dist`` and perturbed phases.

    ``sampling="quantile"`` places frequencies on deterministic stratified
    quantiles and phases on a van der Corput sequence (no Monte Carlo noise,
    the default for continuum comparison); ``sampling="seeded"`` draws both
    from a seeded generator for statistical experiments.
    """
    if count < 2:
        raise ValueError(f"need at least 2 oscillators, got {count}")
    if sampling not in ("quantile", "seeded"):
        raise ValueError(f"sampling must be 'quantile' or 'seeded', got {sampling!r}")
    modes = modes or {}
    if 0 in modes:
        raise InvalidPerturbation("mode 0 must vanish (mass conservation per frequency)")

    if sampling == "quantile":
        freqs = np.asarray(dist.inverse_cdf((np.arange(count) + 0.5) / count), dtype=float)
        targets = _van_der_corput(count)
    else:
        rng = np.random.default_rng(seed)
        freqs = np.asarray(dist.inverse_cdf(rng.uniform(0.0, 1.0, count)), dtype=float)
        targets = rng.uniform(0.0, 1.0, count)

    mode_values = {k: np.asarray(profile(freqs), dtype=complex) for k, profile in modes.items()}
    if epsilon != 0.0 and mode_values:
        # Cheap lower bound 1/2pi - (eps/pi) sum |c_k|; only frequencies that
        # might dip below zero get the exact theta-sampled check.
        amplitude = sum(np.abs(v) for v in mode_values.values())
        floor = 1.0 / TWO_PI - (epsilon / np.pi) * amplitude
        suspects = np.nonzero(floor < 0.0)[0]
        theta_check = np.linspace(0.0, TWO_PI, 128, endpoint=False)[:, None]
        local = {k: v[suspects] for k, v in mode_values.items()}
        bad = suspects[np.min(_theta_density(theta_check, local, epsilon), axis=0) < -1e-12]
        if bad.size:
            raise InvalidPerturbation(f"phase density negative at frequency {freqs[bad[0]]:.4g}")
        cdf = lambda theta: _theta_cdf(theta, mode_values, epsilon)
        density = lambda theta: _theta_density(theta, mode_values, epsilon)
        phases = invert_monotone(cdf, density, targets, TWO_PI * targets, 0.0, TWO_PI)
    else:
        phases = TWO_PI * targets

    return FiniteNState(
        phases=np.mod(phases, TWO_PI),
        frequencies=freqs,
        coupling=float(coupling),
    )


def _phase_velocity(phases, frequencies, coupling):
    """omega_j + K Im(Z e^{-i theta_j}) = omega_j + K (S cos theta_j - C sin theta_j), Z = C + iS."""
    cos, sin = np.cos(phases), np.sin(phases)
    k_sin, k_cos = coupling * sin.mean(), coupling * cos.mean()
    # in place on the two fresh arrays: no further temporaries of size N
    cos *= k_sin
    sin *= k_cos
    cos -= sin
    cos += frequencies
    return cos


def step_rk4(state, dt):
    """One classical RK4 step of the mean-field system; wraps phases after."""
    th = state.phases
    om = state.frequencies
    k = state.coupling
    k1 = _phase_velocity(th, om, k)
    k2 = _phase_velocity(th + 0.5 * dt * k1, om, k)
    k3 = _phase_velocity(th + 0.5 * dt * k2, om, k)
    k4 = _phase_velocity(th + dt * k3, om, k)
    new = th + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    wrapped = np.mod(new, TWO_PI)
    state.wrap_offset += float(np.sum(new - wrapped))
    state.phases = wrapped
    state.time += dt
    return state


def order_parameter_n(state):
    """(raw sum, normalized): sum_j e^{i theta_j} and its 1/N average.

    numpy's pairwise summation keeps the reduction accurate for large N; all
    comparisons in this package use the normalized form.
    """
    raw = complex(np.exp(1j * state.phases).sum())
    return raw, raw / state.count


def simulate(state, time_step, horizon, output_every=1):
    """March the system, recording the normalized order parameter.

    Returns (times, normalized order parameters) arrays; the state is mutated
    in place to the final time.
    """
    steps = int(round(horizon / time_step))
    times = [state.time]
    orders = [order_parameter_n(state)[1]]
    for i in range(1, steps + 1):
        step_rk4(state, time_step)
        if i % output_every == 0 or i == steps:
            times.append(state.time)
            orders.append(order_parameter_n(state)[1])
    return np.array(times), np.array(orders)
