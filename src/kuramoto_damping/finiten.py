"""Direct integration of the N-oscillator system.

dtheta_i/dt = omega_i + (K/N) sum_j sin(theta_j - theta_i), reduced to O(N)
per stage through the mean field Z = (1/N) sum_j exp(i theta_j).  On
z_i = exp(i theta_i) the system is polynomial,

    dz_i/dt = i omega_i z_i + (K/2)(Z - conj(Z) z_i^2),

and is marched by an integrating-factor (Lawson) RK4 step that rotates each
z_i exactly and takes no cosine or sine.

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
_CHECK_ANGLES = 128  # equispaced angles at which a perturbed phase density must be >= 0


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


def _theta_cdf_density(theta, mode_values, epsilon):
    """CDF and density of 1/2pi + eps r(0, theta, omega) at fixed omega.

    ``mode_values`` maps mode k >= 1 to c_k(omega).  The density adds
    (eps/pi) Re c_k e^{ik theta} per mode to 1/2pi, the CDF the integral
    (eps/pi) Re c_k (e^{ik theta} - 1)/(ik) to theta/2pi.  One exponential
    e^{i theta} is taken; e^{ik theta} is its k-th power, built up in
    increasing k.
    """
    unit = np.exp(1j * theta)
    power, at = unit, 1
    cdf, density = theta / TWO_PI, np.ones_like(theta) / TWO_PI
    for k, c in sorted(mode_values.items()):
        for _ in range(k - at):
            power = power * unit
        at = k
        # Re(w / ik) = Im(w) / k
        cdf += (epsilon / (np.pi * k)) * np.imag(c * (power - 1.0))
        density += (epsilon / np.pi) * np.real(c * power)
    return cdf, density


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
    if any(k < 1 for k in modes):
        raise InvalidPerturbation(f"modes are numbered from 1, got {min(modes)}")

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
        # the density at _CHECK_ANGLES equispaced angles is one inverse FFT of the c_k
        coeffs = np.zeros((suspects.size, _CHECK_ANGLES), dtype=complex)
        for k, v in mode_values.items():
            coeffs[:, k % _CHECK_ANGLES] += v[suspects]
        density = 1.0 / TWO_PI + (epsilon / np.pi) * np.fft.ifft(coeffs, norm="forward").real
        bad = suspects[np.min(density, axis=1) < -1e-12]
        if bad.size:
            raise InvalidPerturbation(f"phase density negative at frequency {freqs[bad[0]]:.4g}")
        phases = invert_monotone(
            lambda theta: _theta_cdf_density(theta, mode_values, epsilon),
            targets, TWO_PI * targets, 0.0, TWO_PI,
        )
    else:
        phases = TWO_PI * targets

    return FiniteNState(
        phases=np.mod(phases, TWO_PI),
        frequencies=freqs,
        coupling=float(coupling),
    )


class _Stepper:
    """Lawson RK4 steps of z at one step size, built once per ``simulate`` or
    ``step_rk4`` call with the tables P = e^{i omega dt/2}, Q = e^{i omega dt}
    and five work arrays.  With N(y) = (K/2)(Y - conj(Y) y^2) and Y the mean
    of y,

        k1 = N(z),  k2 = N(P (z + dt/2 k1)),  k3 = N(P z + dt/2 k2),
        k4 = N(Q z + dt P k3),  z <- Q z + dt/6 (Q k1 + 2 P (k2 + k3) + k4),

    then z *= 1.5 - 0.5 |z|^2, a Newton step back to |z| = 1.  Q is computed
    directly, not as P^2, so free rotation is exact.  The unwrapped phase is
    theta_0 + omega t plus the arg increments of e^{-i omega t} z, which turns
    by at most about |K| dt a step: one angle every m = pi / (2 |K| dt) steps
    keeps each increment below pi/2.  The table e^{-i omega m dt} is built in
    the stage array when an angle is taken.
    """

    def __init__(self, state, dt, steps):
        self.state, self.dt, self.start = state, dt, (state.phases, state.time)
        self.scale = 0.25 * dt * state.coupling  # (dt/2)(K/2)
        omega = state.frequencies
        self.half = np.exp(0.5j * dt * omega)
        self.full = np.exp(1j * dt * omega)
        turn = abs(state.coupling) * dt
        self.every = max(1, min(steps, int(0.5 * np.pi / turn) if turn else steps))
        self.z = np.exp(1j * state.phases)
        self.mean = self.z.mean()  # Z now, and k1's mean in the next step
        self.anchor = self.z.copy()  # z at the last angle
        self.turned = np.zeros(omega.size)
        self.since = 0
        self.stage, self.slope, self.total, self.middle = (np.empty_like(self.z) for _ in range(4))

    def _slope(self, y, mean, out):
        """out = dt/2 N(y), given the mean of y."""
        np.multiply(y, y, out=out)
        out *= -self.scale * np.conj(mean)
        out += self.scale * mean

    def advance(self):
        p, z, y, s = self.half, self.z, self.stage, self.slope
        acc, mid = self.total, self.middle
        self._slope(z, self.mean, s)  # s = dt/2 k1
        np.add(z, s, out=y)
        y *= p
        np.multiply(self.full, s, out=acc)
        self._slope(y, y.mean(), mid)  # mid = dt/2 k2
        np.multiply(p, z, out=y)
        y += mid
        self._slope(y, y.mean(), s)  # s = dt/2 k3
        mid += s
        s += s
        np.multiply(p, z, out=y)
        y += s
        y *= p
        mid *= p
        acc += mid
        acc += mid
        self._slope(y, y.mean(), s)  # s = dt/2 k4
        acc += s
        acc *= 1.0 / 3.0  # dt/6 (Q k1 + 2 P (k2 + k3) + k4)
        z *= self.full
        z += acc
        # factor = 1.5 - 0.5 |z|^2, in the float view of the free stage array
        factor, square = y.view(float).reshape(2, -1)
        np.multiply(z.real, z.real, out=factor)
        np.multiply(z.imag, z.imag, out=square)
        factor += square
        factor *= 0.5
        np.subtract(1.5, factor, out=factor)
        z.real *= factor
        z.imag *= factor
        self.mean = z.mean()
        self.state.time += self.dt
        self.since += 1
        if self.since == self.every:
            self._unwrap()

    def _unwrap(self):
        """Add arg(z conj(anchor) e^{-i omega t}), the turn of e^{-i omega t} z since the anchor.

        t = since dt; the stage array holds the table e^{-i omega t}.
        """
        unturn = self.stage
        np.multiply(-1j * (self.since * self.dt), self.state.frequencies, out=unturn)
        np.exp(unturn, out=unturn)
        np.conjugate(self.anchor, out=self.anchor)
        self.anchor *= self.z
        self.anchor *= unturn
        self.turned += np.angle(self.anchor)
        np.copyto(self.anchor, self.z)
        self.since = 0

    def finish(self):
        """Write the wrapped phases and the wrap offset back to the state."""
        state, (phases, time) = self.state, self.start
        if self.since:
            self._unwrap()
        new = phases + state.frequencies * (state.time - time) + self.turned
        wrapped = np.mod(new, TWO_PI)
        state.wrap_offset += float(np.sum(new - wrapped))
        state.phases = wrapped


def step_rk4(state, dt):
    """One Lawson RK4 step of the mean-field system; wraps phases after."""
    simulate(state, dt, dt)
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
    stepper = _Stepper(state, time_step, steps)
    times = [state.time]
    orders = [stepper.mean]
    for i in range(1, steps + 1):
        stepper.advance()
        if i % output_every == 0 or i == steps:
            times.append(state.time)
            orders.append(stepper.mean)
    stepper.finish()
    return np.array(times), np.array(orders)
