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
converges at fourth order in the step size.  The coupling part of row k is
k (a c_{k-1} + b c_{k+1}), plus g on row 1, with scalars a, g proportional to
R and b to conj(R).  Each ``run`` or ``step`` call builds one stepper: the
half- and full-step phase tables P and Q, the tables P k, Q k/3, 2 P k/3, k
and k/3 that fold the row factor and the RK4 weights into them, and a fixed
set of (k_max, J) work arrays, all reused by every step of that call.

Sobolev diagnostics act on the transport-frame profile p = (unwound r) * g,
whose mode amplitudes are c_k e^{+i k omega t} g(omega); theta derivatives are
exact (i k)^a factors, omega derivatives use second-order finite differences
on the nonuniform grid, applied by one slice per stencil offset.  The omega
stencils live in one list on the state, grown by order as ``initialize``
(orders 1..4), ``run`` (1..weight order) and ``scattering_profile`` (when
handed the list) need them, so each order is built once per state.  Nothing
is cached in the module.
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
# pair norms within this many eps * h_min^-(n-2) * max_i ||p(t_i)||_{H^{n-2}}
# are roundoff: free transport leaves 1 to 15 such units, damped runs 3e4 or more
_ROUNDOFF_FACTOR = 1e3
# the floor decides only while it is at most this fraction of the snapshots' norm
_ROUNDOFF_LIMIT = 1e-4


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
    stencils: list = field(default_factory=list)  # omega stencils of orders 1..len, on grid


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
            grid,
            coeffs * dist.density(nodes)[None, :],
            _REPORT_ORDER,
            _stencils(nodes, _REPORT_ORDER, state.stencils),
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


def _coupling(y, weights, gain, epsilon, out, work):
    """Write the coupling part of dc/dt at ``y``, less its row factor k, into ``out``.

    With h = gain R and R = sum_j w_j y_1, row k is a y_{k-1} + b y_{k+1} with
    a = eps h and b = -eps conj(h) (c_0 = 0 and the closure c_{k_max+1} = 0
    drop the missing neighbours), and row 1 also gets h; times k this is
    -i k [v+ (delta_{k,1} + eps c_{k-1}) + v- eps c_{k+1}] when gain = K/2.
    ``work`` is scratch of y's shape.
    """
    h = gain * np.dot(weights, y[0])
    np.multiply(y[:-1], epsilon * h, out=out[1:])
    out[0] = h
    np.multiply(y[1:], -epsilon * np.conj(h), out=work[:-1])
    out[:-1] += work[:-1]


def rhs(state):
    """Full time derivative of the mode coefficients (transport + coupling)."""
    k = np.arange(1, state.k_max + 1, dtype=float)[:, None]
    deriv = np.empty_like(state.coeffs)
    _coupling(
        state.coeffs, state.grid.weights, 0.5 * state.coupling, state.epsilon,
        deriv, np.empty_like(deriv),
    )
    return k * deriv - 1j * k * state.grid.nodes[None, :] * state.coeffs


class _LawsonStepper:
    """Integrating-factor (Lawson) RK4 steps of one state at one step size.

    Built once per ``run`` or ``step`` call.  With N = k M the coupling part of
    dc/dt (M from ``_coupling`` at gain K dt/4, so k M_i = dt/2 k_i), the
    transport factors P = exp(-i k omega dt/2) and Q = exp(-i k omega dt), one
    step is

        y2 = P c + P k M1,  y3 = P c + k M2,  y4 = Q c + 2 P k M3,
        c <- Q c + (Q k/3) M1 + (2 P k/3) (M2 + M3) + (k/3) M4,

    the classical dt/6 (Q k1 + 2 P (k2 + k3) + k4).  The row factor k and the
    weights 1/3 and 2/3 are folded into the tables P k, Q k/3, 2 P k/3, k and
    k/3, built here next to P and Q, so every pass over a (k_max, J) array is
    an array-by-array product, an array-by-scalar product or an in-place op.
    Q is computed directly, not as P squared, and the coupling increment is
    added to Q c last, so free transport stays an exact rotation.  The stepper
    marches its own copy of the coefficients, so no array a caller already
    holds is written.
    """

    def __init__(self, state, dt):
        self.state = state
        self.dt = dt
        self.gain = 0.25 * dt * state.coupling
        k = np.arange(1, state.k_max + 1, dtype=float)[:, None]
        lam = -1j * k * state.grid.nodes[None, :]
        self.p_half = np.exp(lam * (0.5 * dt))
        self.p_full = np.exp(lam * dt)
        self.p_k = self.p_half * k
        self.q_third = self.p_full * (k / 3.0)
        self.p_two_thirds = self.p_half * (2.0 * k / 3.0)
        # full complex tables: a product against a (k_max, 1) column runs at
        # about half the speed of one against an array of the same shape
        self.k = np.broadcast_to(k, lam.shape).astype(complex)
        self.k_third = self.k / 3.0
        self.coeffs = np.array(state.coeffs, dtype=complex)
        self.stage, self.slope, self.total, self.middle, self.rotated, self.work = (
            np.empty_like(self.coeffs) for _ in range(6)
        )
        state.coeffs = self.coeffs

    def advance(self):
        """One step in place, then the blowup guard."""
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
        np.multiply(self.p_full, c, out=c)  # Q c; numpy's complex product is not bitwise symmetric
        np.multiply(self.p_k, m, out=y)
        y += y  # doubling is exact: 2 P k M3
        y += c  # y4
        np.multiply(self.p_two_thirds, mid, out=work)
        acc += work
        _coupling(y, weights, gain, eps, m, work)  # M4
        np.multiply(self.k_third, m, out=work)
        acc += work
        c += acc
        state.time += self.dt
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
    at the output times nearest to ``snapshot_times``: an output takes one
    snapshot for every requested time within half an output interval of it,
    and a requested time that no output matched is dropped once passed.
    """
    bound = stability_time_step_bound(state)
    if time_step > bound * (1.0 + 1e-12):
        raise ValueError(f"time_step {time_step} exceeds stability bound {bound:.4g}")
    steps = int(round(horizon / time_step))
    stepper = _LawsonStepper(state, time_step)
    stencils = None
    if collect_diagnostics:
        stencils = _stencils(state.grid.nodes, weight_order, state.stencils)

    wanted = [float(t) for t in snapshot_times]
    reach = 0.5 * time_step * output_every
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
        if any(abs(t - w) <= reach for w in wanted):
            snapshots[t] = unwound_profile(state)
        wanted[:] = [w for w in wanted if w > t + reach]

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


def _stencil(nodes, order):
    """Banded finite-difference stencil for d^order/domega^order on the nodes.

    Returns (idx, W) of shapes (J, order + 3) and (order + 3, J): row i of the
    derivative is sum_s W[s, i] f[idx[i, s]].  Two points beyond the order
    give ~2nd-order accuracy; stencils shift inward at the ends of the grid.
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
    return idx, np.ascontiguousarray(_fornberg_weights(sten, nodes, order)[:, :, order].T)


def _stencils(nodes, order, built=None):
    """The stencils of ``_stencil`` for derivative orders 1..order.

    ``built``, a list of those of orders 1..m on the same nodes, gets the
    orders m+1..order appended to it.
    """
    built = [] if built is None else built
    built.extend(_stencil(nodes, b) for b in range(len(built) + 1, order + 1))
    return built[:order]


def _derivative_amplitudes(grid, profile, order, stencils=None):
    """sum_j wbar_j (1 + omega_j^2) |d^b p_k / d omega^b|^2 for b = 0..order.

    Returns shape (order + 1, k_max): one row per derivative order.
    ``stencils``, when given, is ``_stencils(grid.nodes, order)``; otherwise
    it is built here.  A stencil applies by one slice per offset on
    the rows where it is centred; only the rows at each end, whose stencils
    are shifted inward, gather their nodes.
    """
    profile = np.asarray(profile)
    if stencils is None:
        stencils = _stencils(grid.nodes, order)
    weight = grid.bare_weights * (1.0 + grid.nodes**2)
    amps = [np.abs(profile) ** 2 @ weight]
    size = profile.shape[-1]
    deriv = np.empty(profile.shape, dtype=np.result_type(profile, float))
    term = np.empty_like(deriv)
    for idx, W in stencils:
        width = W.shape[0]
        count = size - width + 1  # rows whose stencil is centred, not shifted inward
        centred = slice(width // 2, width // 2 + count)
        inner, scratch = deriv[:, centred], term[:, centred]
        np.multiply(profile[:, :count], W[0, centred], out=inner)
        for s in range(1, width):
            np.multiply(profile[:, s : s + count], W[s, centred], out=scratch)
            inner += scratch
        edges = np.r_[: centred.start, centred.stop : size]
        deriv[:, edges] = (profile[:, idx[edges]] * W[:, edges].T).sum(-1)
        amps.append(np.abs(deriv) ** 2 @ weight)
    return np.array(amps)


def _norm_from_amplitudes(amps, order):
    """||p||_{H^order} from the rows b = 0..order of ``_derivative_amplitudes``."""
    k_squared = np.arange(1, amps.shape[1] + 1, dtype=float) ** 2
    total = 0.0
    for b in range(order + 1):
        total += np.sum(sum(k_squared**a for a in range(order - b + 1)) * amps[b])
    return math.sqrt(total / np.pi)


def profile_sobolev_norm(grid, profile, order, stencils=None):
    """Discrete cylinder Sobolev norm of a mode-amplitude profile.

    ||p||^2 = (1/pi) sum_{k>=1} sum_{a+b<=order} k^{2a}
              sum_j wbar_j (1 + omega_j^2) |d^b p_k / d omega^b|^2,
    the exact discretization of the weighted norm for the stored convention
    p = (1/2pi) sum_k p_k e^{ik theta} with conjugate symmetry.  ``stencils``
    is as for ``sobolev_diagnostics``.
    """
    amps = _derivative_amplitudes(grid, profile, order, stencils)
    return _norm_from_amplitudes(amps, order)


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


def scattering_profile(result, order=4, stencils=None):
    """Cauchy-sequence check on the unwound profile across late snapshots.

    The verdict is Converged when each pairwise norm is below the one before
    it or is roundoff, i.e. the snapshots approach a free-transport limit
    profile.  A norm is roundoff when it is at most ``_ROUNDOFF_FACTOR`` *
    eps * h_min^-(n-2) times the largest H^{n-2} norm of the snapshots, n =
    ``order``: the omega stencils amplify coefficient roundoff by about
    h^-(n-2), h_min the smallest gap of the grid.  Where that factor exceeds
    ``_ROUNDOFF_LIMIT`` (fine grids at high order) the floor cannot tell
    roundoff from a real rise, and every rise counts.  ``stencils`` is a
    list of omega stencils on the result's grid, as ``SpectralState.stencils``,
    grown to the orders needed.
    """
    if len(result.snapshots) < 3:
        raise ValueError("scattering check needs at least 3 snapshots")
    times = sorted(result.snapshots)
    stencils = _stencils(result.grid.nodes, order - 2, stencils)
    pair_norms = []
    for t0, t1 in zip(times[:-1], times[1:]):
        diff = result.snapshots[t1] - result.snapshots[t0]
        pair_norms.append(profile_sobolev_norm(result.grid, diff, order - 2, stencils))
    rising = [b for a, b in zip(pair_norms[:-1], pair_norms[1:]) if b >= a]
    converged = not rising or max(rising) <= _roundoff_floor(result, order - 2, stencils)
    return ScatteringReport(
        snapshot_times=[float(t) for t in times],
        pairwise_norms=[float(v) for v in pair_norms],
        converged=converged,
        verdict="Converged" if converged else "NotConverged",
    )


def _roundoff_floor(result, order, stencils):
    """The largest H^order norm of a snapshot difference that is roundoff.

    Zero when the floor would exceed ``_ROUNDOFF_LIMIT`` of the snapshots' norm.
    """
    gap = np.min(np.diff(result.grid.nodes))
    factor = _ROUNDOFF_FACTOR * np.finfo(float).eps * gap**-order
    if factor > _ROUNDOFF_LIMIT:
        return 0.0
    size = max(
        profile_sobolev_norm(result.grid, p, order, stencils) for p in result.snapshots.values()
    )
    return float(factor * size)


def recurrence_horizon(grid):
    """Safe simulation horizon before finite-grid echoes: pi / (largest gap).

    This is half the uniform-grid echo time 2 pi / gap, a deliberate safety
    factor; decay measurements past it would mistake grid recurrence for
    dynamics.
    """
    return float(np.pi / grid.spacing_max)
