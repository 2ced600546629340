"""One-dimensional Poiseuille reduction: coupled axial velocity w(x, t) and
director angle phi(x, t) on a truncated interval [-L, L],

    w_t + a = (g(phi) w_x + h(phi) phi_t)_x,
    lambda1 phi_t = phi_xx - h(phi) w_x.

The mixed derivative never appears: phi_t is computed from the second
equation first, then enters the flux of the first.  Fluxes live on staggered
midpoints with central differencing; time stepping is explicit Euler with
the step bound dt <= 0.25 dx^2 min(lambda1, 1/max g) enforced up front.

The step is a lean kernel: it reads the weights of g and h cached on the
coefficient set (LeslieCoefficients.step_weights), temporaries are updated
in place, and the new w and phi are the two rows of one array, scaled by dt
and checked for finiteness in one call each.  When g and h depend on phi
they share one cos 2phi at the midpoints (three trig calls a step); when
their trig weights are +0.0, as under the simplified coefficients, they are
cached constants and the step makes no trig call.  Every floating-point
operation keeps the operands and the order of the plain formulas through
coeffs.g_coeff and coeffs.h_coeff, up to exact commutations, so the traces
are bit-identical to them (DECISIONS.md section 6).

The whole-line problem is truncated with Dirichlet data; supplying the data
of the exact pair w = -2x, phi = t (simplified coefficients) preserves that
solution identically, which is the maximum-principle counterexample: phi
climbs from 0 to t with no source in sight.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .axisym import (
    RunRecord,
    first_derivative,
    plan_record,
    row_blocks,
    step_count,
    whole_step_dt,
)
from .coeffs import LeslieCoefficients, g_coeff, simplified_coefficients
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
        if not math.isfinite(self.dx * self.dx):  # the step bound squares it
            raise ValueError(
                f"half_length = {self.half_length!r} over n_cells = "
                f"{self.n_cells}: the squared cell width overflows"
            )

    @cached_property
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
        v_left=lambda t: -(L * L) - 3.0 * t,
    )


def stability_bound(grid: IntervalGrid, c: LeslieCoefficients) -> float:
    """0.25 dx^2 min(lambda1, 1/max g), with g maximised over every phi.

    With u = cos 2phi, g = mu1/4 (1 - u^2) + (b - a)/2 u + const is a
    quadratic on u in [-1, 1]; g is evaluated at the angle of its maximum,
    which is phi = 0 (g's own float there) whenever u = 1 is the top."""
    a, b = c.g_weights
    if c.mu1 > 0.0:  # concave: the vertex, clipped onto [-1, 1]
        u = min(1.0, max(-1.0, (b - a) / c.mu1))
    else:  # linear or convex: the higher end
        u = 1.0 if b >= a else -1.0
    g_max = float(g_coeff(c, 0.5 * math.acos(u)))
    return 0.25 * grid.dx**2 * min(c.lambda1, 1.0 / g_max)


def phi_time_derivative(
    state: PoiseuilleState,
    c: LeslieCoefficients,
    bc: BoundaryData,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """phi_t on all nodes, into ``out`` if given: the angle equation
    (phi_xx - h(phi) w_x) / lambda1 at interior nodes, the rate of the
    Dirichlet data at the ends."""
    s, dx = c.step_weights, state.grid.dx
    phi, w = state.phi, state.w
    if out is None:
        out = np.empty_like(phi)
    inner = out[1:-1]
    two_phi = np.multiply(phi[1:-1], 2.0)
    np.subtract(phi[2:], two_phi, out=inner)
    inner += phi[:-2]
    inner /= dx**2  # phi_xx
    h = s.h
    if h is None:
        h = np.cos(two_phi, out=two_phi)
        h *= s.h_cos
        h += s.h_const
    w_x = np.subtract(w[2:], w[:-2])
    w_x /= 2.0 * dx
    w_x *= h
    inner -= w_x
    inner /= c.lambda1
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
    default state.t + dt; the boundary data are taken at t_new.

    w_t = -a + (g(phi_mid) w_x + h(phi_mid) phi_t,mid)_x on staggered
    midpoints; g and h share one cos 2phi_mid.  The new w and phi are the
    two rows of one array."""
    s, dx = c.step_weights, state.grid.dx
    phi, w = state.phi, state.w
    new = np.empty((2, len(phi)))
    phi_t = phi_time_derivative(state, c, bc, out=new[1])

    g, h_half = s.g, s.h_half
    if g is None:
        mid = np.add(phi[:-1], phi[1:])
        mid *= 0.5
        two_mid = np.multiply(mid, 2.0)
        cos_mid = np.cos(two_mid)
        # g and h summed left to right, as g_coeff and h_coeff sum them
        g = np.sin(two_mid, out=two_mid)
        g *= g
        g *= s.g_sin2
        g += s.g_const
        g += np.multiply(cos_mid, s.g_cos, out=mid)
        g += s.g_mu4
        h_half = cos_mid
        h_half *= s.h_cos
        h_half += s.h_const
        h_half *= 0.5
    flux = np.subtract(w[1:], w[:-1])
    flux *= g
    flux /= dx  # (g w_x,mid) / dx + (h / 2) (phi_t sum)
    h_term = np.add(phi_t[:-1], phi_t[1:])
    h_term *= h_half
    flux += h_term

    w_t = new[0, 1:-1]
    np.subtract(flux[1:], flux[:-1], out=w_t)
    w_t /= dx
    w_t -= state.a  # x - a == -a + x in IEEE arithmetic
    new[0, 0] = new[0, -1] = 0.0  # the ends take the Dirichlet data below
    new *= dt
    new[0] += w
    new[1] += phi

    if t_new is None:
        t_new = state.t + dt
    new[0, 0] = bc.w_left(t_new)
    new[0, -1] = bc.w_right(t_new)
    new[1, 0] = bc.phi_left(t_new)
    new[1, -1] = bc.phi_right(t_new)
    # an end midpoint whose phi sum overflows makes the trig flux nan, with
    # no interior phi_xx to show it: constant g and h must halt there too
    ends_finite = math.isfinite(phi[0] + phi[1]) and math.isfinite(phi[-2] + phi[-1])
    if not (np.isfinite(new).all() and ends_finite):
        raise SolverHalt("non-finite field", t_new)
    return PoiseuilleState(state.grid, new[0], new[1], t_new, state.a)


# ---------------------------------------------------------------------------
# traces and derived checks


@dataclass
class PoiseuilleTrace:
    grid: IntervalGrid
    bc: BoundaryData
    times: np.ndarray
    # (snapshots, nodes) views of the one buffer a run records into
    ws: np.ndarray
    phis: np.ndarray
    phi_ts: np.ndarray  # the scheme's own update at each snapshot

    @property
    def n_snapshots(self) -> int:
        return len(self.times)


def plan_run(
    grid: IntervalGrid,
    c: LeslieCoefficients,
    t_end: float,
    dt: float | None = None,
    snapshot_stride: int | None = None,
) -> tuple[float, int]:
    """(dt, snapshot_stride) of a run from phi = 0 at t = 0.  dt defaults to
    0.8 of the step bound, shortened so whole steps reach t_end; the stride
    defaults to about 200 recorded steps.  ValueError unless t_end and dt
    are positive, when dt exceeds the step bound, which holds for every phi,
    when step_count rejects the run, when it would record fewer than the 3
    snapshots the energy and heat checks use, or when the buffers simulate
    records into would exceed MAX_RECORD_BYTES."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if dt is not None and dt <= 0.0:
        raise ValueError("dt must be positive")
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
    plan_record(0.0, t_end, dt, snapshot_stride, _row_values(grid))
    return dt, snapshot_stride


def _row_values(grid: IntervalGrid) -> int:
    """Floats a recorded snapshot holds: w, phi and phi_t, and its time."""
    return 3 * (grid.n_cells + 1) + 1


def simulate(
    state0: PoiseuilleState,
    c: LeslieCoefficients,
    dt: float,
    t_end: float,
    bc: BoundaryData,
    snapshot_stride: int = 1,
) -> PoiseuilleTrace:
    """March to t_end, recording every ``snapshot_stride``-th state under
    the rules of ``axisym.RunRecord``; t_end must lie a whole number of
    steps after t0."""
    state0.validate()
    grid = state0.grid
    record = RunRecord(
        state0.t, t_end, dt, snapshot_stride, (3, grid.n_cells + 1), _row_values(grid)
    )

    def fill(row, state):
        row[0], row[1] = state.w, state.phi
        phi_time_derivative(state, c, bc, out=row[2])

    fill(record.values[0], state0)
    state = state0
    for k in range(1, record.n_steps + 1):
        state = step_general(state, c, dt, bc, record.time(k))
        if k == record.next_record:
            fill(record.values[record.add(k)], state)
    times, values = record.rows()
    return PoiseuilleTrace(grid, bc, times, *np.moveaxis(values, 1, 0))


def velocity_potential(trace: PoiseuilleTrace) -> np.ndarray:
    """v at every snapshot, (snapshots, nodes): cumulative trapezoid of w
    from the left end (scipy's ``cumulative_trapezoid``, operation for
    operation; DECISIONS.md section 8) plus the configured left value."""
    ws = trace.ws
    v = np.zeros(ws.shape)
    np.cumsum(np.diff(trace.grid.x) * (ws[:, 1:] + ws[:, :-1]) / 2.0, axis=1, out=v[:, 1:])
    v_left = np.array([trace.bc.v_left(float(t)) for t in trace.times])
    return v + v_left[:, np.newaxis]


def heat_reduction_check(trace: PoiseuilleTrace) -> float:
    """Max discrete residual of (v + phi)_t = (v + phi)_xx over snapshot
    pairs: forward difference in time, central second difference in space."""
    if trace.n_snapshots < 3:
        raise ValueError("need at least 3 snapshots")
    s = velocity_potential(trace) + trace.phis
    s_t = (s[1:, 1:-1] - s[:-1, 1:-1]) / np.diff(trace.times)[:, np.newaxis]
    s_xx = (s[:-1, 2:] - 2.0 * s[:-1, 1:-1] + s[:-1, :-2]) / trace.grid.dx**2
    worst = np.max(np.abs(s_t - s_xx), axis=1)
    # a nan pair is passed over, as a running max() would; all nan gives nan
    worst = worst[~np.isnan(worst)]
    return float(worst.max()) if worst.size else math.nan


def energies(trace: PoiseuilleTrace) -> tuple[np.ndarray, np.ndarray]:
    """(E, D) at every snapshot: E = 0.5 int(w^2 + phi_x^2),
    D = int(w_x^2 + phi_t^2 + (w_x + phi_t)^2); trapezoidal quadrature, in
    the row blocks of ``axisym.row_blocks`` (DECISIONS.md section 4)."""
    x, dx = trace.grid.x, trace.grid.dx
    e, d = [], []
    for rows in row_blocks(trace.n_snapshots, len(x)):
        w, phi_t = trace.ws[rows], trace.phi_ts[rows]
        phi_x = first_derivative(trace.phis[rows], dx, axis=1)
        w_x = first_derivative(w, dx, axis=1)
        e.append(0.5 * _trapz(w**2 + phi_x**2, x, axis=1))
        d.append(_trapz(w_x**2 + phi_t**2 + (w_x + phi_t) ** 2, x, axis=1))
    return np.concatenate(e), np.concatenate(d)


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
    e, d = energies(trace)
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
        return asdict(self)


def counterexample_run(
    L: float = 5.0,
    n: int = 500,
    t_end: float = 1.0,
    dt: float | None = None,
) -> tuple[CounterexampleReport, PoiseuilleTrace]:
    """Evolve w0 = -2x, phi0 = 0 under the simplified coefficients with the
    exact pair's boundary data and compare against w = -2x, phi = t."""
    c = simplified_coefficients()
    grid = IntervalGrid(L, n)
    state0 = PoiseuilleState(grid, w=-2.0 * grid.x, phi=np.zeros(n + 1))
    dt, snapshot_stride = plan_run(grid, c, t_end, dt)
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
