"""One-dimensional Poiseuille reduction: coupled axial velocity w(x, t) and
director angle phi(x, t) on a truncated interval [-L, L],

    w_t + a = (g(phi) w_x + h(phi) phi_t)_x,
    lambda1 phi_t = phi_xx - h(phi) w_x.

The mixed derivative never appears: phi_t is computed from the second
equation first, then enters the flux of the first.  Fluxes live on staggered
midpoints with central differencing; time stepping is explicit Euler with
the step bound dt <= 0.25 dx^2 min(lambda1, 1/max g) enforced up front.

The whole-line problem is truncated with Dirichlet data; supplying the data
of the exact pair w = -2x, phi = t (simplified coefficients) preserves that
solution identically, which is the maximum-principle counterexample: phi
climbs from 0 to t with no source in sight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .axisym import MAX_RECORD_BYTES, first_derivative, step_count, whole_step_dt
from .coeffs import LeslieCoefficients, g_coeff, h_coeff, simplified_coefficients
from .errors import SolverHalt

_trapz = np.trapezoid


@dataclass(frozen=True)
class IntervalGrid:
    half_length: float
    n_cells: int

    def __post_init__(self):
        if self.half_length <= 0.0:
            raise ValueError("half_length must be positive")
        if self.n_cells < 16:
            raise ValueError("need at least 16 cells")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n_cells

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(-self.half_length, self.half_length, self.n_cells + 1)


@dataclass
class PoiseuilleState:
    grid: IntervalGrid
    w: np.ndarray
    phi: np.ndarray
    t: float = 0.0
    a: float = 0.0  # constant pressure-gradient term

    def validate(self) -> None:
        n = self.grid.n_cells + 1
        if self.w.shape != (n,) or self.phi.shape != (n,):
            raise ValueError("field lengths do not match grid")
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.phi))):
            raise ValueError("non-finite entries")


_zero = lambda t: 0.0


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet values for w and phi at the two ends, the time derivative
    of the phi data (needed in the boundary flux), and the left value of the
    velocity potential v."""

    w_left: Callable[[float], float] = _zero
    w_right: Callable[[float], float] = _zero
    phi_left: Callable[[float], float] = _zero
    phi_right: Callable[[float], float] = _zero
    phi_left_rate: Callable[[float], float] = _zero
    phi_right_rate: Callable[[float], float] = _zero
    v_left: Callable[[float], float] = _zero


def homogeneous_bc() -> BoundaryData:
    return BoundaryData()


def counterexample_bc(L: float) -> BoundaryData:
    """Boundary data of the exact pair w = -2x, phi = t; the potential is
    v = -x^2 - 3t."""
    return BoundaryData(
        w_left=lambda t: 2.0 * L,
        w_right=lambda t: -2.0 * L,
        phi_left=lambda t: t,
        phi_right=lambda t: t,
        phi_left_rate=lambda t: 1.0,
        phi_right_rate=lambda t: 1.0,
        v_left=lambda t: -(L**2) - 3.0 * t,
    )


def stability_bound(grid: IntervalGrid, c: LeslieCoefficients) -> float:
    """0.25 dx^2 min(lambda1, 1/max g), with g maximised over every phi.

    With u = cos 2phi, g = mu1/4 (1 - u^2) + (b - a)/2 u + const is a
    quadratic on u in [-1, 1]; g is evaluated at the angle of its maximum,
    which is phi = 0 (g's own float there) whenever u = 1 is the top."""
    a = 0.5 * (c.mu5 - c.mu2)
    b = 0.5 * (c.mu3 + c.mu6)
    if c.mu1 > 0.0:  # concave: the vertex, clipped onto [-1, 1]
        u = min(1.0, max(-1.0, (b - a) / c.mu1))
    else:  # linear or convex: the higher end
        u = 1.0 if b >= a else -1.0
    g_max = float(g_coeff(c, 0.5 * math.acos(u)))
    return 0.25 * grid.dx**2 * min(c.lambda1, 1.0 / g_max)


def phi_time_derivative(
    state: PoiseuilleState, c: LeslieCoefficients, bc: BoundaryData
) -> np.ndarray:
    """phi_t on all nodes: the angle equation at interior nodes, the rate of
    the Dirichlet data at the ends."""
    dx = state.grid.dx
    phi, w = state.phi, state.w
    out = np.empty_like(phi)
    d2phi = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dx**2
    d1w = (w[2:] - w[:-2]) / (2.0 * dx)
    out[1:-1] = (d2phi - h_coeff(c, phi[1:-1]) * d1w) / c.lambda1
    out[0] = bc.phi_left_rate(state.t)
    out[-1] = bc.phi_right_rate(state.t)
    return out


def step_general(
    state: PoiseuilleState,
    c: LeslieCoefficients,
    dt: float,
    bc: BoundaryData,
    t_new: float | None = None,
) -> PoiseuilleState:
    """One explicit Euler step of the coupled system to time t_new, by
    default state.t + dt; the boundary data are taken at t_new."""
    grid = state.grid
    dx = grid.dx
    phi, w = state.phi, state.w
    phi_t = phi_time_derivative(state, c, bc)

    phi_mid = 0.5 * (phi[:-1] + phi[1:])
    flux = g_coeff(c, phi_mid) * np.diff(w) / dx + h_coeff(c, phi_mid) * 0.5 * (
        phi_t[:-1] + phi_t[1:]
    )
    w_t = -state.a + np.diff(flux) / dx

    if t_new is None:
        t_new = state.t + dt
    w_new = w.copy()
    w_new[1:-1] += dt * w_t
    phi_new = phi + dt * phi_t
    w_new[0] = bc.w_left(t_new)
    w_new[-1] = bc.w_right(t_new)
    phi_new[0] = bc.phi_left(t_new)
    phi_new[-1] = bc.phi_right(t_new)
    if not (np.all(np.isfinite(w_new)) and np.all(np.isfinite(phi_new))):
        raise SolverHalt("non-finite field", t_new)
    return PoiseuilleState(grid, w_new, phi_new, t_new, state.a)


def step_simplified(
    state: PoiseuilleState, dt: float, bc: BoundaryData
) -> PoiseuilleState:
    """Hard-coded stepper for the simplified system
    w_t = 2 w_xx + phi_tx, 2 phi_t = phi_xx - w_x; dual route used to
    cross-check step_general under the simplified coefficients."""
    grid = state.grid
    dx = grid.dx
    phi, w = state.phi, state.w
    phi_t = np.empty_like(phi)
    phi_t[1:-1] = (
        (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dx**2
        - (w[2:] - w[:-2]) / (2.0 * dx)
    ) / 2.0
    phi_t[0] = bc.phi_left_rate(state.t)
    phi_t[-1] = bc.phi_right_rate(state.t)
    w_t = 2.0 * (w[2:] - 2.0 * w[1:-1] + w[:-2]) / dx**2 + (
        phi_t[2:] - phi_t[:-2]
    ) / (2.0 * dx)

    t_new = state.t + dt
    w_new = w.copy()
    w_new[1:-1] += dt * w_t
    phi_new = phi + dt * phi_t
    w_new[0] = bc.w_left(t_new)
    w_new[-1] = bc.w_right(t_new)
    phi_new[0] = bc.phi_left(t_new)
    phi_new[-1] = bc.phi_right(t_new)
    return PoiseuilleState(grid, w_new, phi_new, t_new, state.a)


# ---------------------------------------------------------------------------
# traces and derived checks


@dataclass
class PoiseuilleTrace:
    grid: IntervalGrid
    coeffs: LeslieCoefficients
    bc: BoundaryData
    dt: float
    times: np.ndarray
    ws: np.ndarray
    phis: np.ndarray
    phi_ts: np.ndarray  # the scheme's own update at each snapshot

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

    def state(self, i: int) -> PoiseuilleState:
        return PoiseuilleState(self.grid, self.ws[i], self.phis[i], float(self.times[i]))


def plan_run(
    grid: IntervalGrid,
    c: LeslieCoefficients,
    t_end: float,
    dt: float | None = None,
    snapshot_stride: int | None = None,
) -> tuple[float, int]:
    """(dt, snapshot_stride) of a run from phi = 0 at t = 0.  dt defaults to
    0.8 of the step bound, shortened so whole steps reach t_end; the stride
    defaults to about 200 recorded steps.  ValueError when dt exceeds the
    step bound, which holds for every phi, when step_count rejects the run,
    when it would record fewer than the 3 snapshots the energy and heat
    checks use, or when the buffers simulate records into would exceed
    MAX_RECORD_BYTES."""
    bound = stability_bound(grid, c)
    if dt is None:
        dt = whole_step_dt(t_end, 0.8 * bound)
    elif dt > bound:
        raise ValueError(f"dt = {dt:.3e} exceeds stability bound {bound:.3e}")
    n_steps = step_count(0.0, t_end, dt)
    if snapshot_stride is None:
        snapshot_stride = max(1, n_steps // 200)
    if n_steps <= snapshot_stride:
        raise ValueError(
            f"need at least 3 snapshots: {n_steps} steps at snapshot_stride "
            f"{snapshot_stride} record 2"
        )
    rows = 2 + n_steps // snapshot_stride
    if rows * (3 * (grid.n_cells + 1) + 1) * 8 > MAX_RECORD_BYTES:
        raise ValueError(
            f"{rows} snapshots of 3 x {grid.n_cells + 1} nodes exceed the "
            f"{MAX_RECORD_BYTES}-byte record buffer"
        )
    return dt, snapshot_stride


def simulate(
    state0: PoiseuilleState,
    c: LeslieCoefficients,
    dt: float,
    t_end: float,
    bc: BoundaryData,
    snapshot_stride: int = 1,
) -> PoiseuilleTrace:
    """March to t_end, recording every ``snapshot_stride``-th state.  Step k
    ends at t0 + k*dt and the last step at t_end itself, which must lie a
    whole number of steps after t0."""
    state0.validate()
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    t0 = state0.t
    n_steps = step_count(t0, t_end, dt)
    # every recorded row: the initial state, each stride step, and the last
    # step when that is off the stride
    times = np.empty(2 + n_steps // snapshot_stride)
    ws, phis, phi_ts = (np.empty((len(times), len(state0.w))) for _ in range(3))

    def record(j, state):
        times[j], ws[j], phis[j] = state.t, state.w, state.phi
        phi_ts[j] = phi_time_derivative(state, c, bc)

    record(0, state0)
    j = 1
    state = state0
    for k in range(1, n_steps + 1):
        t_k = t_end if k == n_steps else t0 + k * dt
        state = step_general(state, c, dt, bc, t_k)
        if k % snapshot_stride == 0 or k == n_steps:
            record(j, state)
            j += 1
    return PoiseuilleTrace(
        grid=state0.grid,
        coeffs=c,
        bc=bc,
        dt=dt,
        times=times[:j],
        ws=ws[:j],
        phis=phis[:j],
        phi_ts=phi_ts[:j],
    )


def velocity_potential(trace: PoiseuilleTrace, i: int) -> np.ndarray:
    """v at snapshot i: cumulative trapezoid of w from the left end plus the
    configured left value."""
    v = cumulative_trapezoid(trace.ws[i], trace.grid.x, initial=0.0)
    return v + trace.bc.v_left(float(trace.times[i]))


def heat_reduction_check(trace: PoiseuilleTrace) -> float:
    """Max discrete residual of (v + phi)_t = (v + phi)_xx over snapshot
    pairs: forward difference in time, central second difference in space."""
    if trace.n_snapshots < 3:
        raise ValueError("need at least 3 snapshots")
    dx = trace.grid.dx
    s = np.array(
        [velocity_potential(trace, i) + trace.phis[i] for i in range(trace.n_snapshots)]
    )
    worst = 0.0
    for m in range(trace.n_snapshots - 1):
        dt_m = float(trace.times[m + 1] - trace.times[m])
        s_t = (s[m + 1, 1:-1] - s[m, 1:-1]) / dt_m
        s_xx = (s[m, 2:] - 2.0 * s[m, 1:-1] + s[m, :-2]) / dx**2
        worst = max(worst, float(np.max(np.abs(s_t - s_xx))))
    return worst


def energies(trace: PoiseuilleTrace, i: int) -> tuple[float, float]:
    """(E, D) at snapshot i: E = 0.5 int(w^2 + phi_x^2),
    D = int(w_x^2 + phi_t^2 + (w_x + phi_t)^2); trapezoidal quadrature."""
    x = trace.grid.x
    dx = trace.grid.dx
    w = trace.ws[i]
    phi_x = first_derivative(trace.phis[i], dx)
    w_x = first_derivative(w, dx)
    phi_t = trace.phi_ts[i]
    e = 0.5 * float(_trapz(w**2 + phi_x**2, x))
    d = float(_trapz(w_x**2 + phi_t**2 + (w_x + phi_t) ** 2, x))
    return e, d


@dataclass(frozen=True)
class EnergyIdentityResult:
    residual: float
    boundary_warning: bool
    energies: np.ndarray  # E at each snapshot
    dissipations: np.ndarray


def energy_identity_residual(trace: PoiseuilleTrace) -> EnergyIdentityResult:
    """Max over snapshot pairs of |dE/dt + D| with D averaged between the
    two snapshots.  Nonzero boundary data makes the identity inexact on the
    truncated interval; that raises the warning flag, not an error."""
    if trace.n_snapshots < 3:
        raise ValueError("need at least 3 snapshots")
    pairs = [energies(trace, i) for i in range(trace.n_snapshots)]
    e = np.array([p[0] for p in pairs])
    d = np.array([p[1] for p in pairs])
    de = np.diff(e) / np.diff(trace.times)
    resid = float(np.max(np.abs(de + 0.5 * (d[:-1] + d[1:]))))
    edge = max(
        float(np.max(np.abs(trace.ws[:, [0, -1]]))),
        float(np.max(np.abs(trace.phi_ts[:, [0, -1]]))),
    )
    return EnergyIdentityResult(
        residual=resid, boundary_warning=edge > 1e-12, energies=e, dissipations=d
    )


# ---------------------------------------------------------------------------
# the maximum-principle counterexample


@dataclass(frozen=True)
class CounterexampleReport:
    max_phi_initial: float
    max_phi_final: float
    max_phi_error: float  # vs the exact phi = t at t_end
    max_w_error: float  # vs the exact w = -2x at t_end
    heat_residual: float
    maximum_principle_violated: bool
    t_end: float

    def as_dict(self) -> dict:
        return {
            "max_phi_initial": self.max_phi_initial,
            "max_phi_final": self.max_phi_final,
            "max_phi_error": self.max_phi_error,
            "max_w_error": self.max_w_error,
            "heat_residual": self.heat_residual,
            "maximum_principle_violated": self.maximum_principle_violated,
            "t_end": self.t_end,
        }


def counterexample_run(
    L: float = 5.0,
    n: int = 500,
    t_end: float = 1.0,
    dt: float | None = None,
    snapshot_stride: int | None = None,
) -> tuple[CounterexampleReport, PoiseuilleTrace]:
    """Evolve w0 = -2x, phi0 = 0 under the simplified coefficients with the
    exact pair's boundary data and compare against w = -2x, phi = t."""
    c = simplified_coefficients()
    grid = IntervalGrid(L, n)
    state0 = PoiseuilleState(grid, w=-2.0 * grid.x, phi=np.zeros(n + 1))
    dt, snapshot_stride = plan_run(grid, c, t_end, dt, snapshot_stride)
    bc = counterexample_bc(L)
    trace = simulate(state0, c, dt, t_end, bc, snapshot_stride)

    w_fin = trace.ws[-1]
    phi_fin = trace.phis[-1]
    report = CounterexampleReport(
        max_phi_initial=float(np.max(trace.phis[0])),
        max_phi_final=float(np.max(phi_fin)),
        max_phi_error=float(np.max(np.abs(phi_fin - t_end))),
        max_w_error=float(np.max(np.abs(w_fin + 2.0 * grid.x))),
        heat_residual=heat_reduction_check(trace),
        maximum_principle_violated=bool(
            np.max(phi_fin) > np.max(trace.phis[0])
        ),
        t_end=float(trace.times[-1]),
    )
    return report, trace
