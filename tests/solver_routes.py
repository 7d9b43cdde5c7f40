"""Routes into the solvers that only the tests take.

No experiment of the CLI calls these; they are oracles or conveniences built
on the solvers' own steppers:

* ``empirical_stability_constant``: the weighted-sup ratio sup (1+t)^n |R| /
  sup (1+t)^n |F| of the Volterra solution, over sources and horizons;
* ``rhs`` and ``step``: the full time derivative of the spectral modes, and
  one Lawson RK4 step of them;
* ``SixBufferLawsonStepper``: the Lawson step with a sixth work array for
  every scratch and product, the reference that the five-array step must
  match bitwise;
* ``step_rk4`` and ``order_parameter_n``: one step of the N-oscillator
  system, and its order parameter summed afresh from the phases;
* ``phase_turns``: each oscillator's unwrapped phase change over a march.
"""

from dataclasses import dataclass

import numpy as np

from kuramoto_damping.exceptions import KuramotoDampingError
from kuramoto_damping.finiten import _Stepper, simulate
from kuramoto_damping.spectral import _check_blowup, _coupling, _LawsonStepper
from kuramoto_damping.volterra import VolterraProblem, kuramoto_kernel, solve


class UnstableKernel(KuramotoDampingError):
    """Weighted-sup ratios grow without bound, kernel is not stable."""


def weighted_sup(times, values, n, up_to):
    """max over the grid restricted to t <= up_to of (1+t)^n |values(t)|."""
    mask = times <= up_to + 1e-12
    return float(np.max((1.0 + times[mask]) ** n * np.abs(values[mask])))


@dataclass
class StabilityConstantEstimate:
    """Empirical weighted-sup ratio over a family of sources."""

    constant: float
    ratios_by_horizon: dict  # horizon -> worst ratio over sources
    per_source: list


def empirical_stability_constant(dist, coupling, weight_order, sources, time_step, horizon):
    """Measure sup (1+t)^n |R| / sup (1+t)^n |F| over sources and horizons.

    The ratio is evaluated at T/4, T/2 and T; monotone growth beyond a factor
    of 10 from T/4 to T raises UnstableKernel.  This is an empirical ratio
    only; no claim is made about matching any analytic constant.
    """
    kernel = kuramoto_kernel(dist, coupling)
    horizons = [horizon / 4.0, horizon / 2.0, horizon]
    per_source = []
    ratios = {h: 0.0 for h in horizons}
    for source in sources:
        sol = solve(VolterraProblem(kernel, source, time_step, horizon))
        entry = {}
        for h in horizons:
            num = weighted_sup(sol.times, sol.values, weight_order, h)
            den = weighted_sup(sol.times, sol.source, weight_order, h)
            entry[h] = num / den
            ratios[h] = max(ratios[h], entry[h])
        per_source.append(entry)

    r0, r1, r2 = (ratios[h] for h in horizons)
    if r0 < r1 < r2 and r2 > 10.0 * r0:
        raise UnstableKernel(
            f"weighted-sup ratio grows {r0:.3g} -> {r1:.3g} -> {r2:.3g}; kernel is unstable"
        )
    return StabilityConstantEstimate(
        constant=float(max(ratios.values())),
        ratios_by_horizon={float(h): float(r) for h, r in ratios.items()},
        per_source=per_source,
    )


def rhs(state):
    """Full time derivative of the mode coefficients (transport + coupling)."""
    k = np.arange(1, state.k_max + 1, dtype=float)[:, None]
    deriv = np.empty_like(state.coeffs)
    _coupling(
        state.coeffs, state.grid.weights, 0.5 * state.coupling, state.epsilon,
        deriv, np.empty_like(deriv),
    )
    return k * deriv - 1j * k * state.grid.nodes[None, :] * state.coeffs


def step(state, dt):
    """Advance the spectral modes by one integrating-factor RK4 step (transport exact)."""
    _LawsonStepper(state, dt).advance()
    return state


class SixBufferLawsonStepper(_LawsonStepper):
    """``_LawsonStepper`` with the step written against a sixth work array.

    ``_coupling``'s scratch and the two ``table * buffer`` products that are
    added to the total all go through ``work``; every other operation and
    every operand order is the five-array step's.
    """

    def __init__(self, state, dt):
        super().__init__(state, dt)
        self.work = np.empty_like(self.coeffs)

    def advance(self):
        state, work = self.state, self.work
        weights, gain, eps = state.grid.weights, self.gain, state.epsilon
        c, y, m, mid = self.coeffs, self.stage, self.slope, self.middle
        acc, u = self.total, self.rotated
        _coupling(c, weights, gain, eps, m, work)  # M1
        np.multiply(self.p_half, c, out=u)  # P c
        np.multiply(self.p_k, m, out=y)
        y += u  # y2
        np.multiply(self.q_third, m, out=acc)
        _coupling(y, weights, gain, eps, mid, work)  # M2
        np.multiply(self.k, mid, out=y)
        y += u  # y3
        _coupling(y, weights, gain, eps, m, work)  # M3
        mid += m  # M2 + M3
        np.multiply(self.p_full, c, out=c)  # Q c
        np.multiply(self.p_k, m, out=y)
        y += y  # 2 P k M3
        y += c  # y4
        np.multiply(self.p_two_thirds, mid, out=work)
        acc += work
        _coupling(y, weights, gain, eps, m, work)  # M4
        np.multiply(self.k_third, m, out=work)
        acc += work
        c += acc
        state.time += self.dt
        _check_blowup(state)


def step_rk4(state, dt):
    """One Lawson RK4 step of the mean-field system; wraps phases after."""
    simulate(state, dt, dt)
    return state


def phase_turns(state, dt, steps):
    """March ``steps`` Lawson RK4 steps; each oscillator's unwrapped phase change.

    The change sums, step by step, arg(z_new conj(z_old) conj(Q)) + omega dt
    with Q = e^{i omega dt}: the coupling turns e^{-i omega t} z by about
    |K| dt a step, far inside (-pi, pi].  The state ends at the final time.
    """
    stepper = _Stepper(state, dt)
    turned = np.zeros(state.count)
    old = stepper.z.copy()
    for _ in range(steps):
        stepper.advance()
        turned += np.angle(stepper.z * np.conj(old) * np.conj(stepper.full))
        turned += state.frequencies * dt
        np.copyto(old, stepper.z)
    stepper.finish()
    return turned


def order_parameter_n(state):
    """(raw sum, normalized): sum_j e^{i theta_j} and its 1/N average.

    numpy's pairwise summation keeps the reduction accurate for large N; all
    comparisons use the normalized form.
    """
    raw = complex(np.exp(1j * state.phases).sum())
    return raw, raw / state.count
