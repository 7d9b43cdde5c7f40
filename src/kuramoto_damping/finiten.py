"""Direct integration of the N-oscillator system.

dtheta_i/dt = omega_i + (K/N) sum_j sin(theta_j - theta_i), reduced to O(N)
per stage through the mean field Z = (1/N) sum_j exp(i theta_j).  On
z_i = exp(i theta_i) the system is polynomial,

    dz_i/dt = i omega_i z_i + (K/2)(Z - conj(Z) z_i^2),

and is marched by an integrating-factor (Lawson) RK4 step that rotates each
z_i exactly and takes no cosine or sine.  The march carries z alone; a
``simulate`` call reads the phases off z, wrapped to [0, 2pi), when it ends.

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
import numpy.fft  # numpy loads np.fft on first use; load it with the package instead

from .distributions import invert_monotone
from .exceptions import InvalidPerturbation

__all__ = [
    "FiniteNState",
    "march",
    "negative_phase_density",
    "sample_oscillators",
    "simulate",
]

TWO_PI = 2.0 * np.pi
_CHECK_ANGLES = 128  # equispaced angles at which a perturbed phase density must be >= 0
_CHECK_BLOCK = 256  # frequencies checked by one inverse FFT
_SAMPLE_BLOCK = 4096  # oscillators sampled at a time


@dataclass
class FiniteNState:
    """Phases (wrapped to [0, 2pi)) and frozen frequencies of N oscillators."""

    phases: np.ndarray
    frequencies: np.ndarray
    coupling: float
    time: float = 0.0

    @property
    def count(self):
        return self.phases.size


def _van_der_corput(stop, start=0):
    """Points start + 1 .. stop of the base-2 radical-inverse sequence, in (0, 1).

    Each byte of n is reversed through a table of the 256 one-byte points,
    then scaled into place; every sum is exact.
    """
    table, digits = np.zeros(256), np.arange(256)
    for bit in range(1, 9):
        table += (digits & 1) / 2.0**bit
        digits >>= 1
    n = np.arange(start + 1, stop + 1)
    out = table[n & 255]
    for shift in range(8, int(stop).bit_length(), 8):
        out += table[(n >> shift) & 255] / 2.0**shift
    return out


def _theta_cdf_density(theta, epsilon, orders, *values):
    """CDF and density of 1/2pi + eps r(0, theta, omega) at fixed omega.

    ``values`` holds c_k(omega) for the modes k >= 1 in ``orders``,
    increasing.  The density adds
    (eps/pi) Re c_k e^{ik theta} per mode to 1/2pi, the CDF the integral
    (eps/pi) Re c_k (e^{ik theta} - 1)/(ik) to theta/2pi.  One exponential
    e^{i theta} is taken; e^{ik theta} is its k-th power, built up in
    increasing k.
    """
    unit = np.exp(1j * theta)
    power, at = unit, 1
    cdf, density = theta / TWO_PI, np.ones_like(theta) / TWO_PI
    for k, c in zip(orders, values):
        for _ in range(k - at):
            power = power * unit
        at = k
        # Re(w / ik) = Im(w) / k
        cdf += (epsilon / (np.pi * k)) * np.imag(c * (power - 1.0))
        density += (epsilon / np.pi) * np.real(c * power)
    return cdf, density


def negative_phase_density(mode_values, epsilon):
    """The frequencies at which 1/2pi + eps r(0, theta, omega) dips below zero.

    ``mode_values`` maps mode k >= 1 to c_k at each frequency, and r(0) is
    (1/pi) Re sum_k c_k e^{ik theta}.  The lower bound 1/2pi - (eps/pi) sum_k
    |c_k| clears most frequencies at once; the others are checked at
    ``_CHECK_ANGLES`` equispaced angles, where the density is one inverse FFT
    of the c_k, ``_CHECK_BLOCK`` frequencies at a time.  Returns the indices of
    the frequencies whose density is below -1e-12 at one of those angles, in
    increasing order, and the lowest density at each.
    """
    amplitude = sum(np.abs(v) for v in mode_values.values())
    suspects = np.flatnonzero(1.0 / TWO_PI - (epsilon / np.pi) * amplitude < 0.0)
    lowest = np.empty(suspects.size)
    for start in range(0, suspects.size, _CHECK_BLOCK):
        rows = suspects[start : start + _CHECK_BLOCK]
        coeffs = np.zeros((rows.size, _CHECK_ANGLES), dtype=complex)
        for k, v in mode_values.items():
            coeffs[:, k % _CHECK_ANGLES] += v[rows]
        density = 1.0 / TWO_PI + (epsilon / np.pi) * np.fft.ifft(coeffs, norm="forward").real
        lowest[start : start + rows.size] = np.min(density, axis=1)
    bad = lowest < -1e-12
    return suspects[bad], lowest[bad]


def _phases(freqs, targets, modes, epsilon):
    """Phases of oscillators at ``freqs`` whose phase CDFs reach ``targets``, in [0, 2pi).

    Raises ``InvalidPerturbation`` when the phase density is negative at one
    of the frequencies, naming the first.
    """
    if epsilon == 0.0 or not modes:
        return np.mod(TWO_PI * targets, TWO_PI)
    mode_values = {k: np.asarray(profile(freqs), dtype=complex) for k, profile in modes.items()}
    bad, _ = negative_phase_density(mode_values, epsilon)
    if bad.size:
        raise InvalidPerturbation(f"phase density negative at frequency {freqs[bad[0]]:.4g}")
    orders = sorted(mode_values)
    phases = invert_monotone(
        lambda theta, *values: _theta_cdf_density(theta, epsilon, orders, *values),
        targets, TWO_PI * targets, 0.0, TWO_PI, [mode_values[k] for k in orders],
    )
    return np.mod(phases, TWO_PI, out=phases)


def sample_oscillators(dist, count, coupling, epsilon=0.0, modes=None, sampling="quantile", seed=None):
    """Draw N oscillators with frequencies from ``dist`` and perturbed phases.

    ``sampling="quantile"`` places frequencies on deterministic stratified
    quantiles and phases on a van der Corput sequence (no Monte Carlo noise,
    the default for continuum comparison); ``sampling="seeded"`` draws both
    from a seeded generator for statistical experiments: N uniforms for the
    frequencies, then N for the phases.  Both are built ``_SAMPLE_BLOCK``
    oscillators at a time into the two output arrays, so the working set does
    not grow with N; every quantile is solved point by point, so the blocks
    do not change a value.
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
        freqs, phases = np.empty(count), np.empty(count)
    else:
        # the uniforms wait in the output arrays, in the generator's order
        rng = np.random.default_rng(seed)
        freqs = rng.uniform(0.0, 1.0, count)
        phases = rng.uniform(0.0, 1.0, count)
    for start in range(0, count, _SAMPLE_BLOCK):
        stop = min(start + _SAMPLE_BLOCK, count)
        if sampling == "quantile":
            levels = (np.arange(start, stop) + 0.5) / count
            targets = _van_der_corput(stop, start)
        else:
            levels, targets = freqs[start:stop], phases[start:stop]
        freqs[start:stop] = dist.inverse_cdf(levels)
        phases[start:stop] = _phases(freqs[start:stop], targets, modes, epsilon)

    return FiniteNState(phases=phases, frequencies=freqs, coupling=float(coupling))


class _Stepper:
    """Lawson RK4 steps of z at one step size, built once per ``simulate``
    call with the tables P = e^{i omega dt/2}, Q = e^{i omega dt}
    and three work arrays.  With N(y) = (K/2)(Y - conj(Y) y^2) and Y the mean
    of y,

        k1 = N(z),  k2 = N(P (z + dt/2 k1)),  k3 = N(P z + dt/2 k2),
        k4 = N(Q z + dt P k3),  z <- Q z + dt/6 (Q k1 + 2 P (k2 + k3) + k4),

    then z *= 1.5 - 0.5 |z|^2, a Newton step back to |z| = 1.  Q is computed
    directly, not as P^2, so free rotation is exact.  The third and fourth
    slopes overwrite their stages, and P (k2 + k3) enters the total before
    the fourth stage takes the array it was summed in, so P, Q, z and the
    three work arrays are all a step holds: six complex arrays of N entries.
    """

    def __init__(self, state, dt):
        self.state, self.dt = state, dt
        self.scale = 0.25 * dt * state.coupling  # (dt/2)(K/2)
        self.half = _unit_exp(state.frequencies, 0.5j * dt)
        self.full = _unit_exp(state.frequencies, 1j * dt)
        self.z = _unit_exp(state.phases, 1j)
        self.mean = self.z.mean()  # Z now, and k1's mean in the next step
        self.stage, self.slope, self.total = (np.empty_like(self.z) for _ in range(3))

    def _slope(self, y, mean, out):
        """out = dt/2 N(y), given the mean of y; ``out`` may be ``y``."""
        np.multiply(y, y, out=out)
        out *= -self.scale * np.conj(mean)
        out += self.scale * mean

    def advance(self):
        p, z, y, s, acc = self.half, self.z, self.stage, self.slope, self.total
        self._slope(z, self.mean, s)  # s = dt/2 k1
        np.add(z, s, out=y)
        y *= p
        np.multiply(self.full, s, out=acc)
        self._slope(y, y.mean(), s)  # s = dt/2 k2
        np.multiply(p, z, out=y)
        y += s
        self._slope(y, y.mean(), y)  # y = dt/2 k3
        s += y  # dt/2 (k2 + k3)
        y += y
        s *= p
        acc += s
        acc += s
        np.multiply(p, z, out=s)
        s += y
        s *= p
        self._slope(s, s.mean(), s)  # s = dt/2 k4
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

    def finish(self):
        """Write the phases arg z, wrapped to [0, 2pi), back to the state.

        arg z is taken into the free stage array; only the wrapped phases
        are a new array.
        """
        angle = self.stage.view(float)[: self.z.size]
        np.arctan2(self.z.imag, self.z.real, out=angle)
        self.state.phases = np.mod(angle, TWO_PI)


def _unit_exp(values, factor):
    """exp(factor * values) for real ``values``, built in one complex array."""
    out = np.multiply(values, factor, dtype=complex)
    return np.exp(out, out=out)


def march(stepper, steps, output_every, record):
    """Call ``record()``, then ``stepper.advance()`` ``steps`` times, calling
    ``record()`` after every ``output_every``-th step and after the last.

    The one output cadence of ``simulate`` and ``spectral.run``.
    """
    record()
    for i in range(1, steps + 1):
        stepper.advance()
        if i % output_every == 0 or i == steps:
            record()


def simulate(state, time_step, horizon, output_every=1):
    """March the system, recording the normalized order parameter.

    Returns (times, normalized order parameters) arrays; the state is mutated
    in place to the final time.
    """
    stepper = _Stepper(state, time_step)
    times, orders = [], []

    def record():
        times.append(state.time)
        orders.append(stepper.mean)

    march(stepper, int(round(horizon / time_step)), output_every, record)
    stepper.finish()
    return np.array(times), np.array(orders)
