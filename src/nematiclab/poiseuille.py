"""One-dimensional Poiseuille reduction: coupled axial velocity w(x, t) and
director angle phi(x, t) on a truncated interval [-L, L],

    w_t + a = (g(phi) w_x + h(phi) phi_t)_x,
    lambda1 phi_t = phi_xx - h(phi) w_x.

The mixed derivative never appears: phi_t is computed from the second
equation first, then enters the flux of the first.  Fluxes live on staggered
midpoints with central differencing; time stepping is explicit Euler with
the step bound dt <= 0.25 dx^2 min(lambda1, 1/max g) enforced up front.

A run marches in place (``_March``): dx, lambda1 and dt are folded into a
few factors once per run, the state lives in one (2, n+1) buffer updated
in place, and a step is numpy calls on views made once.  When g or h depends
on phi, each step takes them from coeffs.g_coeff and coeffs.h_coeff (four
trig calls) times those factors; when their trig weights are +0.0, as
under the simplified coefficients, they are the constants cached on the
coefficient set (LeslieCoefficients.constant_gh), folded into the factors,
and the step makes no trig call.  Both paths give the same doubles.  The
folded order rounds differently from the per-term formulas, by at most a
few units in the last place of the terms (DECISIONS.md section 6).

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
    all_finite,
    first_derivative,
    plan_record,
    row_blocks,
    step_count,
    whole_step_dt,
)
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


class _March:
    """One run, marched in place (DECISIONS.md section 6).

    The step is explicit Euler on

        phi_t = ((phi_{i+1} - 2 phi_i) + phi_{i-1} - (w_{i+1} - w_{i-1}) h dx/2)
                / (lambda1 dx^2),
        w_new = w + (F_{i+1/2} - F_{i-1/2} - dt a),
        F = (phi_t,i + phi_t,i+1) h dt/(2 dx) + (w_{i+1} - w_i) g dt/dx^2,
        phi_new = phi + phi_t dt,

    with dx, lambda1 and dt folded into factors formed here, and g and h
    too when ``constant_gh`` holds; otherwise each step multiplies the
    ``g_coeff`` and ``h_coeff`` arrays by the same factors.  The state lives
    in one (2, n+1) buffer, ``state``, rows w and phi, that each step
    updates in place.  Every view and scratch array a step touches is made
    here."""

    def __init__(self, state: PoiseuilleState, c: LeslieCoefficients, dt: float, bc: BoundaryData):
        self.c, self.dt, self.bc, self.t = c, dt, bc, state.t
        dx, n = state.grid.dx, state.grid.n_cells
        self.lambda1_dx2, self.dt_a = c.lambda1 * dx**2, dt * state.a
        self.f_w, self.f_h, self.f_g = 0.5 * dx, dt / (2.0 * dx), dt / dx**2  # of h, h and g
        self.gh = c.constant_gh
        if self.gh is not None:
            g, h = self.gh
            self.h_w, self.h_f, self.g_f = h * self.f_w, h * self.f_h, g * self.f_g
        self.state = np.array([state.w, state.phi], dtype=float)
        w, phi = self.state
        self.w_hi, self.w_lo, self.phi = w[1:], w[:-1], phi
        self.phi_hi, self.phi_lo = phi[1:], phi[:-1]  # each node's right and left neighbour
        self.phi_r, self.phi_l, self.phi_in = phi[2:], phi[:-2], phi[1:-1]
        # a step's increment: 0 at the ends of its w row; its phi row holds
        # phi_t until it is scaled by dt
        incr = np.zeros((2, n + 1))
        self.incr = incr, incr[0, 1:-1], incr[1], incr[1, 1:], incr[1, :-1]
        self.dw, self.flux = ((d, d[1:], d[:-1]) for d in np.empty((2, n)))
        self.g_term, self.w_term = np.empty(n), np.empty(n - 1)

    def rate(self, out: np.ndarray) -> np.ndarray:
        """phi_t of the current state into ``out``, which it returns, and
        w_{i+1} - w_i into ``dw``, which the step's flux reads."""
        phi_in = self.phi_in
        dw, dw_hi, dw_lo = self.dw
        w_term, inner = self.w_term, out[1:-1]
        np.subtract(self.w_hi, self.w_lo, out=dw)
        # 2 phi_i overflows here where the array path's cos 2phi is nan
        np.subtract(self.phi_r, np.multiply(phi_in, 2.0, out=inner), out=inner)
        inner += self.phi_l
        np.add(dw_hi, dw_lo, out=w_term)  # w_{i+1} - w_{i-1}
        w_term *= self.h_w if self.gh is not None else h_coeff(self.c, phi_in) * self.f_w
        inner -= w_term
        inner /= self.lambda1_dx2
        out[0] = self.bc.phi_left_rate(self.t)
        out[-1] = self.bc.phi_right_rate(self.t)
        return out

    def fill(self, row: np.ndarray) -> None:
        """Record the current state and its phi_t into a (3, n+1) row."""
        row[:2] = self.state
        self.rate(row[2])


def step_general(march: _March, t_new: float) -> None:
    """One explicit Euler step of ``march`` to t_new, with the boundary data
    taken at t_new: phi_t, the flux on the staggered midpoints, and both
    rows of the new state in one add.  SolverHalt if it is not finite; the
    state is then partly updated, and the run ends there."""
    phi, phi_hi, phi_lo = march.phi, march.phi_hi, march.phi_lo
    incr, w_incr, rate, rate_hi, rate_lo = march.incr
    flux, flux_hi, flux_lo = march.flux
    march.rate(rate)
    if march.gh is None:
        mid = 0.5 * (phi_lo + phi_hi)
        h_f, g_f = h_coeff(march.c, mid) * march.f_h, g_coeff(march.c, mid) * march.f_g
    else:
        h_f, g_f = march.h_f, march.g_f
    np.add(rate_lo, rate_hi, out=flux)
    flux *= h_f
    flux += np.multiply(march.dw[0], g_f, out=march.g_term)
    np.subtract(flux_hi, flux_lo, out=w_incr)
    w_incr -= march.dt_a
    rate *= march.dt
    # an end midpoint whose old phi sum overflows makes the trig flux nan,
    # with no interior phi_xx to show it: constant g and h must halt there too
    ends_finite = math.isfinite(phi[0] + phi[1]) and math.isfinite(phi[-2] + phi[-1])
    state = march.state
    state += incr
    bc = march.bc
    state[0, 0] = bc.w_left(t_new)
    state[0, -1] = bc.w_right(t_new)
    state[1, 0] = bc.phi_left(t_new)
    state[1, -1] = bc.phi_right(t_new)
    if not (all_finite(state) and ends_finite):
        raise SolverHalt("non-finite field", t_new)
    march.t = t_new


# ---------------------------------------------------------------------------
# traces and derived checks


@dataclass
class PoiseuilleTrace:
    grid: IntervalGrid
    bc: BoundaryData
    coeffs: LeslieCoefficients
    a: float  # the pressure term of the run
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
    plan_record(0.0, t_end, dt, snapshot_stride, _row_values(grid), 3)
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
    march = _March(state0, c, dt, bc)
    march.fill(record.values[0])
    for k in range(1, record.n_steps + 1):
        step_general(march, record.time(k))
        if k == record.next_record:
            march.fill(record.values[record.add(k)])
    times, values = record.rows()
    return PoiseuilleTrace(grid, bc, c, state0.a, times, *np.moveaxis(values, 1, 0))


def velocity_potential(trace: PoiseuilleTrace) -> np.ndarray:
    """v at every snapshot, (snapshots, nodes): cumulative trapezoid of w
    from the left end (scipy's ``cumulative_trapezoid``, operation for
    operation; DECISIONS.md section 8) plus the configured left value."""
    ws = trace.ws
    v = np.zeros(ws.shape)
    np.cumsum(np.diff(trace.grid.x) * (ws[:, 1:] + ws[:, :-1]) / 2.0, axis=1, out=v[:, 1:])
    v_left = np.array([trace.bc.v_left(float(t)) for t in trace.times])
    return v + v_left[:, np.newaxis]


def heat_reduction_applies(trace: PoiseuilleTrace) -> bool:
    """Whether (v + phi)_t = (v + phi)_xx holds: a = 0 (a adds -a x), g == 2
    and h == 1, which are constant exactly when mu1 = 0, g's sin^2 and cos^2
    weights are equal and mu2 + mu3 = 0."""
    c = trace.coeffs
    g_sin, g_cos = c.g_weights
    return trace.a == 0.0 and all(
        abs(x) < 1e-12
        for x in (c.mu1, g_cos - g_sin, c.mu2 + c.mu3, g_coeff(c, 0.0) - 2.0, h_coeff(c, 0.0) - 1.0)
    )


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
    """(E, D) at every snapshot, with dE/dt + D = -a int w under homogeneous
    data: E = 0.5 int(w^2 + phi_x^2), D = int(g w_x^2 + 2 h w_x phi_t +
    lambda1 phi_t^2); trapezoidal quadrature in ``axisym.row_blocks``.  D is
    summed so that the simplified set gives the doubles of its own form
    int(w_x^2 + phi_t^2 + (w_x + phi_t)^2) (DECISIONS.md sections 4, 6)."""
    x, dx, c = trace.grid.x, trace.grid.dx, trace.coeffs
    gh = c.constant_gh
    e, d = [], []
    for rows in row_blocks(trace.n_snapshots, len(x)):
        w, phi, phi_t = trace.ws[rows], trace.phis[rows], trace.phi_ts[rows]
        phi_x = first_derivative(phi, dx, axis=1)
        w_x = first_derivative(w, dx, axis=1)
        g, h = (g_coeff(c, phi), h_coeff(c, phi)) if gh is None else gh
        e.append(0.5 * _trapz(w**2 + phi_x**2, x, axis=1))
        d.append(_trapz(
            ((g - 1.0) * w_x**2 + (c.lambda1 - 1.0) * phi_t**2)
            + (w_x + phi_t) ** 2 + 2.0 * (h - 1.0) * w_x * phi_t, x, axis=1
        ))
    return np.concatenate(e), np.concatenate(d)


@dataclass(frozen=True)
class EnergyIdentityResult:
    residual: float
    boundary_warning: bool
    energies: np.ndarray  # E at each snapshot
    dissipations: np.ndarray


def energy_identity_residual(trace: PoiseuilleTrace) -> EnergyIdentityResult:
    """Max over snapshot pairs of |dE/dt + D + a int w|, with D and the
    pressure work a int w averaged between the two snapshots.  Nonzero
    boundary data makes the identity inexact on the truncated interval;
    that raises the warning flag, not an error."""
    if trace.n_snapshots < 3:
        raise ValueError("need at least 3 snapshots")
    e, d = energies(trace)
    blocks = row_blocks(*trace.ws.shape)
    w_int = np.concatenate([_trapz(trace.ws[rows], trace.grid.x, axis=1) for rows in blocks])
    de = np.diff(e) / np.diff(trace.times)
    work = trace.a * (0.5 * (w_int[:-1] + w_int[1:]))  # +-0 when a = 0
    resid = float(np.max(np.abs(de + 0.5 * (d[:-1] + d[1:]) + work)))
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


def counterexample_setup(L: float, n: int, t_end: float, dt: float | None = None) -> tuple:
    """The ``simulate`` arguments (state0, c, dt, t_end, bc, snapshot_stride)
    of w0 = -2x, phi0 = 0 under the simplified coefficients with the exact
    pair's boundary data at ``plan_run``'s default stride, planned first."""
    c = simplified_coefficients()
    grid = IntervalGrid(L, n)
    dt, snapshot_stride = plan_run(grid, c, t_end, dt)
    state0 = PoiseuilleState(grid, w=-2.0 * grid.x, phi=np.zeros(n + 1))
    return state0, c, dt, t_end, counterexample_bc(L), snapshot_stride


def counterexample_report(trace: PoiseuilleTrace) -> CounterexampleReport:
    """Compare a counterexample trace at its end against w = -2x, phi = t."""
    t_end = float(trace.times[-1])
    phi_fin = trace.phis[-1]
    return CounterexampleReport(
        max_phi_initial=float(np.max(trace.phis[0])),
        max_phi_final=float(np.max(phi_fin)),
        max_phi_error=float(np.max(np.abs(phi_fin - t_end))),
        max_w_error=float(np.max(np.abs(trace.ws[-1] + 2.0 * trace.grid.x))),
        heat_residual=heat_reduction_check(trace),
        maximum_principle_violated=bool(np.max(phi_fin) > np.max(trace.phis[0])),
        t_end=t_end,
    )
