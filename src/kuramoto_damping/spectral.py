"""Pseudo-spectral simulation of the perturbation around the incoherent state.

The perturbation r(t, theta, omega) = (1/2pi) sum_k c_k(t, omega) e^{i k theta}
is truncated at |k| <= k_max (c_0 = 0 by mass conservation, c_{-k} = conj c_k
by realness, so only k >= 1 is stored) and collocated on a frequency
quadrature grid.  The modes obey

    dc_k/dt = -i k omega c_k
              - i k [ v+ (delta_{k,1} + eps c_{k-1}) + v- (delta_{k,-1} + eps c_{k+1}) ]

with v+ = i K R / 2, v- = -i K conj(R) / 2 and the order parameter
R(t) = sum_j w_j c_1(t, omega_j); the closure sets c_{k_max+1} = 0.

Free transport (the -i k omega term) is a pure phase rotation, so the stepper
is an integrating-factor (Lawson) RK4: the transport factor is applied exactly
and classical RK4 integrates only the coupling part.  With K = 0 the scheme
reproduces the analytic rotation to roundoff, and the coupled dynamics
converges at fourth order in the step size.  Each ``run`` or ``step`` call
builds one stepper: the half- and full-step phase tables and a fixed set of
(k_max, J) work arrays, reused by every step of that call.

Sobolev diagnostics act on the transport-frame profile p = (unwound r) * g,
whose mode amplitudes are c_k e^{+i k omega t} g(omega); theta derivatives are
exact (i k)^a factors, omega derivatives use second-order finite differences
on the nonuniform grid.  ``run`` builds those omega stencils once per run and
hands them to every record; nothing is cached between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import BlowupDetected, GridTooCoarse, InvalidPerturbation

__all__ = [
    "SpectralState",
    "SimResult",
    "ScatteringReport",
    "initialize",
    "order_parameter",
    "rhs",
    "step",
    "run",
    "sobolev_diagnostics",
    "profile_sobolev_norm",
    "unwound_profile",
    "scattering_profile",
    "recurrence_horizon",
]

BLOWUP_GUARD = 1e6
_THETA_SAMPLES = 256  # uniform theta samples that transform a direct perturbation r0
_REPORT_ORDER = 4  # order of the weighted Sobolev norm recorded for the initial state
_MAX_GAP_RATIO = 10.0  # largest ratio of gaps inside one omega stencil


@dataclass
class SpectralState:
    """Truncated mode coefficients c_k(omega_j) for k = 1..k_max on a grid."""

    k_max: int
    grid: object
    coeffs: np.ndarray  # shape (k_max, J), complex
    time: float
    epsilon: float
    coupling: float
    dist: object
    initial_weighted_norm: float = field(default=float("nan"))


def initialize(dist, grid, k_max, epsilon, coupling, modes=None, r0=None):
    """Build the initial state from mode profiles or a direct perturbation.

    ``modes`` maps k >= 1 to a callable h_k(omega) with c_k(0, omega) = h_k;
    alternatively ``r0(theta, omega)`` is transformed by uniform theta
    quadrature (exact for band-limited perturbations).  Checks mass
    conservation (c_0 = 0) and that 1/2pi + eps r(0) stays a density, and
    records the discrete weighted Sobolev norm of r(0) g so experiments can
    place themselves relative to the small-perturbation regime.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be at least 2, got {k_max}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if (modes is None) == (r0 is None):
        raise ValueError("provide exactly one of modes or r0")

    nodes = grid.nodes
    coeffs = np.zeros((k_max, nodes.size), dtype=complex)
    if modes is not None:
        if 0 in modes:
            raise InvalidPerturbation("mode 0 must vanish (mass conservation per frequency)")
        for k, profile in modes.items():
            if not 1 <= k <= k_max:
                raise ValueError(f"mode {k} outside 1..{k_max}")
            coeffs[k - 1] = np.asarray(profile(nodes), dtype=complex)
    else:
        theta = np.linspace(0.0, 2.0 * np.pi, _THETA_SAMPLES, endpoint=False)
        samples = np.array([r0(th, nodes) for th in theta])  # (theta, J)
        spectrum = np.fft.fft(samples, axis=0) * (2.0 * np.pi / _THETA_SAMPLES)
        mean_mode = np.max(np.abs(spectrum[0]))
        if mean_mode > 1e-10:
            raise InvalidPerturbation(
                f"theta average of r(0) is {mean_mode:.3e}; mass conservation needs c_0 = 0"
            )
        for k in range(1, k_max + 1):
            # r = (1/2pi) sum c_k e^{ik theta}  =>  c_k = int r e^{-ik theta},
            # which is bin k of the uniform-theta DFT scaled by 2pi/M
            coeffs[k - 1] = spectrum[k]

    state = SpectralState(
        k_max=k_max,
        grid=grid,
        coeffs=coeffs,
        time=0.0,
        epsilon=epsilon,
        coupling=coupling,
        dist=dist,
    )

    # Positivity of the initial density on a theta x omega sample.
    theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    stride = max(1, nodes.size // 256)
    sub = slice(None, None, stride)
    r_vals = _reconstruct(state, theta, sub)
    rho = 1.0 / (2.0 * np.pi) + epsilon * r_vals
    if np.min(rho) < -1e-12:
        raise InvalidPerturbation(
            f"initial density dips to {np.min(rho):.3e}; perturbation too large"
        )

    try:
        state.initial_weighted_norm = profile_sobolev_norm(
            grid, coeffs * dist.density(nodes)[None, :], _REPORT_ORDER
        )
    except GridTooCoarse:
        # the norm is a report, not a gate; heavy-tail grids may be too
        # coarse for the omega-derivative stencils while still usable
        state.initial_weighted_norm = float("nan")
    return state


def _reconstruct(state, theta, omega_slice=slice(None)):
    """Real-space r(theta, omega) on a sample; conjugate modes included."""
    c = state.coeffs[:, omega_slice]
    k = np.arange(1, state.k_max + 1)
    phases = np.exp(1j * np.outer(theta, k))  # (theta, k)
    vals = phases @ c  # (theta, J)
    return (vals + np.conj(vals)).real / (2.0 * np.pi)


def order_parameter(state):
    """R = sum_j w_j c_1(omega_j); the weights already carry the density."""
    return complex(np.dot(state.grid.weights, state.coeffs[0]))


def _coupling(y, state, rate, scale, out, work):
    """Write ``scale`` times the non-transport part of dc/dt at ``y`` into ``out``.

    ``rate`` is the column -i k for rows k = 1..k_max.  Row k is
    a_k y_{k-1} + b_k y_{k+1}, with a_k = -i k eps v+ and b_k = -i k eps v-
    (c_0 = 0 and the closure c_{k_max+1} = 0 drop the missing neighbours), and
    row 1 also gets the constant -i v+.  ``work`` is scratch of y's shape.
    """
    R = np.dot(state.grid.weights, y[0])
    v_plus = 0.5j * state.coupling * scale * R
    v_minus = -0.5j * state.coupling * scale * np.conj(R)
    np.multiply(y[:-1], rate[1:] * (state.epsilon * v_plus), out=out[1:])
    out[0] = -1j * v_plus
    np.multiply(y[1:], rate[:-1] * (state.epsilon * v_minus), out=work[:-1])
    out[:-1] += work[:-1]


def rhs(state):
    """Full time derivative of the mode coefficients (transport + coupling)."""
    rate = -1j * np.arange(1, state.k_max + 1, dtype=float)[:, None]
    deriv = np.empty_like(state.coeffs)
    _coupling(state.coeffs, state, rate, 1.0, deriv, np.empty_like(deriv))
    return deriv + rate * state.grid.nodes[None, :] * state.coeffs


class _LawsonStepper:
    """Integrating-factor (Lawson) RK4 steps of one state at one step size.

    Built once per ``run`` or ``step`` call.  It holds the transport factors
    P = exp(-i k omega dt/2) and Q = exp(-i k omega dt) and a fixed set of
    (k_max, J) work arrays, and marches its own copy of the coefficients, so
    no array a caller already holds is written.  With N the coupling part of
    dc/dt, one step is

        k1 = N(c),  k2 = N(P (c + dt/2 k1)),  k3 = N(P c + dt/2 k2),
        k4 = N(Q c + dt P k3),
        c <- Q c + dt/6 (Q k1 + 2 P (k2 + k3) + k4),

    with each stage scalar folded into the coupling coefficients.  The update
    applies Q itself, not P twice, and adds the coupling increment to Q c last,
    so free transport stays exact and c is rounded as in the plain formula.
    """

    def __init__(self, state, dt):
        self.state = state
        self.dt = dt
        self.rate = -1j * np.arange(1, state.k_max + 1, dtype=float)[:, None]
        lam = self.rate * state.grid.nodes[None, :]
        self.p_half = np.exp(lam * (0.5 * dt))
        self.p_full = np.exp(lam * dt)
        self.coeffs = np.array(state.coeffs, dtype=complex)
        self.stage, self.slope, self.total, self.middle, self.rotated, self.work = (
            np.empty_like(self.coeffs) for _ in range(6)
        )
        state.coeffs = self.coeffs

    def advance(self):
        """One step in place, then the blowup guard."""
        state, dt, rate, work = self.state, self.dt, self.rate, self.work
        p, c, y, s = self.p_half, self.coeffs, self.stage, self.slope
        acc, mid, u = self.total, self.middle, self.rotated
        _coupling(c, state, rate, 0.5 * dt, s, work)  # s = dt/2 k1
        np.add(c, s, out=y)
        np.multiply(p, y, out=y)
        np.multiply(self.p_full, s, out=acc)
        _coupling(y, state, rate, 0.5 * dt, mid, work)  # mid = dt/2 k2
        np.multiply(p, c, out=u)
        np.add(u, mid, out=y)
        _coupling(y, state, rate, 0.5 * dt, s, work)  # s = dt/2 k3
        mid += s
        np.add(s, s, out=y)
        y += u
        np.multiply(p, y, out=y)
        np.multiply(p, mid, out=mid)
        acc += mid
        acc += mid
        _coupling(y, state, rate, 0.5 * dt, s, work)  # s = dt/2 k4
        acc += s
        acc *= 1.0 / 3.0  # dt/6 (Q k1 + 2 P (k2 + k3) + k4)
        np.multiply(self.p_full, c, out=c)
        c += acc
        state.time += dt
        _check_blowup(state)


def _check_blowup(state):
    """Raise BlowupDetected when max |c| is not finite or exceeds BLOWUP_GUARD.

    sum |c|^2 bounds max |c|^2, so the exact modulus is computed only when
    that one reduction exceeds the guard squared or is not finite.
    """
    if np.vdot(state.coeffs, state.coeffs).real <= BLOWUP_GUARD**2:
        return
    peak = float(np.max(np.abs(state.coeffs)))
    if not math.isfinite(peak) or peak > BLOWUP_GUARD:
        raise BlowupDetected(f"mode amplitude reached {peak:.3e} at t = {state.time:.3f}")


def step(state, dt):
    """Advance by one integrating-factor RK4 step (transport exact)."""
    _LawsonStepper(state, dt).advance()
    return state


def stability_time_step_bound(state):
    """Step-size ceiling: phase resolution of the fastest mode and coupling."""
    omega_peak = float(np.max(np.abs(state.grid.nodes)))
    transport = 0.5 / (state.k_max * omega_peak) if omega_peak > 0 else np.inf
    drive = state.coupling * (1.0 + state.epsilon)
    coupling = 0.1 / drive if drive > 0 else np.inf
    return min(transport, coupling)


@dataclass
class SimResult:
    """Simulation record: order-parameter series, diagnostics, snapshots."""

    times: np.ndarray
    order_params: np.ndarray
    weighted_abs: np.ndarray  # (1+t)^n |R(t)|
    diag_norm_over_time: np.ndarray  # ||p||_{H^n} / (1+t)
    diag_norm_low: np.ndarray  # ||p||_{H^{n-2}}
    snapshots: dict  # t -> unwound profile array (k_max, J)
    recurrence_time: float
    weight_order: int
    grid: object


def run(
    state,
    time_step,
    horizon,
    output_every=1,
    weight_order=4,
    snapshot_times=(),
    collect_diagnostics=True,
):
    """March the state to ``horizon`` recording output every few steps.

    Enforces the step-size precondition, emits R(t), the three bootstrap
    diagnostics at the requested weight order, and unwound-profile snapshots
    at the output times nearest to ``snapshot_times``.
    """
    bound = stability_time_step_bound(state)
    if time_step > bound * (1.0 + 1e-12):
        raise ValueError(f"time_step {time_step} exceeds stability bound {bound:.4g}")
    steps = int(round(horizon / time_step))
    stepper = _LawsonStepper(state, time_step)
    stencils = None
    if collect_diagnostics:
        stencils = [_stencils(state.grid.nodes, b) for b in range(1, weight_order + 1)]

    wanted = sorted(set(float(t) for t in snapshot_times))
    times, orders = [], []
    diag = ([], [])
    snapshots = {}

    def record():
        t = state.time
        R = order_parameter(state)
        times.append(t)
        orders.append(R)
        if collect_diagnostics:
            over, low = sobolev_diagnostics(state, weight_order, stencils)
            diag[0].append(over)
            diag[1].append(low)
        if wanted and abs(t - wanted[0]) <= 0.5 * time_step * output_every:
            snapshots[t] = unwound_profile(state)
            wanted.pop(0)

    record()
    for i in range(1, steps + 1):
        stepper.advance()
        if i % output_every == 0 or i == steps:
            record()

    times = np.array(times)
    orders = np.array(orders)
    return SimResult(
        times=times,
        order_params=orders,
        weighted_abs=(1.0 + times) ** weight_order * np.abs(orders),
        diag_norm_over_time=np.array(diag[0]),
        diag_norm_low=np.array(diag[1]),
        snapshots=snapshots,
        recurrence_time=recurrence_horizon(state.grid),
        weight_order=weight_order,
        grid=state.grid,
    )


# ---------------------------------------------------------------------------
# Sobolev diagnostics in the transport frame


def unwound_profile(state):
    """Mode amplitudes of p = (transport-unwound r) * g: c_k e^{+ik omega t} g."""
    k_values = np.arange(1, state.k_max + 1, dtype=float)
    phases = np.exp(1j * k_values[:, None] * state.grid.nodes[None, :] * state.time)
    return state.coeffs * phases * state.dist.density(state.grid.nodes)[None, :]


def _fornberg_weights(x, x0, max_order):
    """Finite-difference weights for derivatives 0..max_order (Fornberg 1988).

    Runs the recurrence on all stencils at once: ``x`` holds one stencil per
    row, ``x0`` the matching evaluation points; returns weights of shape
    (rows, stencil size, max_order + 1).
    """
    n = x.shape[-1]
    c = np.zeros(x.shape + (max_order + 1,))
    c1 = 1.0
    c4 = x[:, 0] - x0
    c[:, 0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = x[:, i] - x0
        for j in range(i):
            c3 = x[:, i] - x[:, j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[:, i, k] = c1 * (k * c[:, i - 1, k - 1] - c5 * c[:, i - 1, k]) / c2
                c[:, i, 0] = -c1 * c5 * c[:, i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[:, j, k] = (c4 * c[:, j, k] - k * c[:, j, k - 1]) / c3
            c[:, j, 0] = c4 * c[:, j, 0] / c3
        c1 = c2
    return c


def _stencils(nodes, order):
    """Banded finite-difference stencils for d^order/domega^order on the nodes.

    Returns (idx, W), both of shape (J, order + 3): row i of the derivative is
    sum_s W[i, s] f[idx[i, s]].  Two points beyond the order give ~2nd-order
    accuracy; stencils shift inward at the ends of the grid.
    """
    width = order + 3
    if nodes.size < width:
        raise GridTooCoarse(f"{nodes.size} nodes cannot hold a {width}-point stencil")
    lo = np.clip(np.arange(nodes.size) - width // 2, 0, nodes.size - width)
    idx = lo[:, None] + np.arange(width)
    sten = nodes[idx]
    gaps = np.diff(sten, axis=1)
    ratio = gaps.max(axis=1) / gaps.min(axis=1)
    coarse = np.flatnonzero(ratio > _MAX_GAP_RATIO)
    if coarse.size:
        i = coarse[0]
        raise GridTooCoarse(
            f"stencil at node {i} spans gap ratio {ratio[i]:.1f} (limit {_MAX_GAP_RATIO})"
        )
    return idx, _fornberg_weights(sten, nodes, order)[:, :, order]


def _derivative_amplitudes(grid, profile, order, stencils=None):
    """sum_j wbar_j (1 + omega_j^2) |d^b p_k / d omega^b|^2 for b = 0..order.

    Returns shape (order + 1, k_max): one row per derivative order.
    ``stencils``, when given, holds ``_stencils(grid.nodes, b)`` for
    b = 1..order; otherwise they are built here.
    """
    profile = np.asarray(profile)
    weight = grid.bare_weights * (1.0 + grid.nodes**2)
    amps = [np.abs(profile) ** 2 @ weight]
    for b in range(1, order + 1):
        idx, W = stencils[b - 1] if stencils is not None else _stencils(grid.nodes, b)
        amps.append(np.abs((profile[:, idx] * W).sum(-1)) ** 2 @ weight)
    return np.array(amps)


def _norm_from_amplitudes(amps, order):
    """||p||_{H^order} from the rows b = 0..order of ``_derivative_amplitudes``."""
    k_squared = np.arange(1, amps.shape[1] + 1, dtype=float) ** 2
    total = 0.0
    for b in range(order + 1):
        total += np.sum(sum(k_squared**a for a in range(order - b + 1)) * amps[b])
    return math.sqrt(total / np.pi)


def profile_sobolev_norm(grid, profile, order):
    """Discrete cylinder Sobolev norm of a mode-amplitude profile.

    ||p||^2 = (1/pi) sum_{k>=1} sum_{a+b<=order} k^{2a}
              sum_j wbar_j (1 + omega_j^2) |d^b p_k / d omega^b|^2,
    the exact discretization of the weighted norm for the stored convention
    p = (1/2pi) sum_k p_k e^{ik theta} with conjugate symmetry.
    """
    return _norm_from_amplitudes(_derivative_amplitudes(grid, profile, order), order)


def sobolev_diagnostics(state, order, stencils=None):
    """The two profile components of the bootstrap at the current time.

    Returns (||p||_{H^order} / (1+t), ||p||_{H^{order-2}}); the third,
    (1+t)^order |R|, is ``SimResult.weighted_abs``.  Both norms share one set
    of omega derivatives.  ``run`` passes the omega stencils for orders
    1..order, built once per run; without them they are built per call.
    """
    if order < 2:
        raise ValueError(f"diagnostics need order >= 2, got {order}")
    amps = _derivative_amplitudes(state.grid, unwound_profile(state), order, stencils)
    high = _norm_from_amplitudes(amps, order)
    return high / (1.0 + state.time), _norm_from_amplitudes(amps, order - 2)


# ---------------------------------------------------------------------------
# Scattering and recurrence


@dataclass
class ScatteringReport:
    """Late-time convergence of the transport-frame profile."""

    snapshot_times: list
    pairwise_norms: list  # ||p(t_i) - p(t_{i+1})||_{H^{order-2}} for consecutive pairs
    converged: bool
    verdict: str  # "Converged" | "NotConverged"


def scattering_profile(result, order=4):
    """Cauchy-sequence check on the unwound profile across late snapshots.

    The verdict is Converged when consecutive pairwise norms decrease
    monotonically, i.e. the snapshots approach a free-transport limit profile.
    """
    if len(result.snapshots) < 3:
        raise ValueError("scattering check needs at least 3 snapshots")
    times = sorted(result.snapshots)
    pair_norms = []
    for t0, t1 in zip(times[:-1], times[1:]):
        diff = result.snapshots[t1] - result.snapshots[t0]
        pair_norms.append(profile_sobolev_norm(result.grid, diff, order - 2))
    converged = all(b < a for a, b in zip(pair_norms[:-1], pair_norms[1:]))
    return ScatteringReport(
        snapshot_times=[float(t) for t in times],
        pairwise_norms=[float(v) for v in pair_norms],
        converged=converged,
        verdict="Converged" if converged else "NotConverged",
    )


def recurrence_horizon(grid):
    """Safe simulation horizon before finite-grid echoes: pi / (largest gap).

    This is half the uniform-grid echo time 2 pi / gap, a deliberate safety
    factor; decay measurements past it would mistake grid recurrence for
    dynamics.
    """
    return float(np.pi / grid.spacing_max)
