"""Finite-difference evolution of the reduced axisymmetric director-angle
equation

    lambda1 (phi_t + r phi_r) = phi_rr + phi_r/r - sin(2 phi)/(2 r^2)
                                 - 3 lambda2 sin(phi) cos(phi)

on r in [0, 1] with Dirichlet data phi(0, t) = 0 and phi(1, t) frozen at its
initial value.  The background flow is static: v(r) = r, w(z) = -2z.

Discretisation: second-order central differences on a uniform node grid
r_i = i/n.  Two time integrators:

  * ``explicit``       classical RK4 on the full right-hand side, with the
                       diffusive step guard dt <= 0.25 dr^2 lambda1;
  * ``semi_implicit``  Crank-Nicolson on the linear operator
                       phi_rr + phi_r/r via a tridiagonal solve, everything
                       else explicit.  The singular reaction
                       -sin(2 phi)/(2 r^2) has Jacobian -cos(2 phi)/r^2,
                       which at the first node is as stiff as diffusion, so
                       its damping part (cos(2 phi) > 0) is folded into the
                       tridiagonal diagonal; this keeps the scheme
                       first-order consistent while removing the near-origin
                       step restriction.

Apart from sin(2 phi), each right-hand side is three bands fixed for the run
(DECISIONS.md section 9), formed once in ``_Batch._build`` with every buffer
a step writes into; a step applies them and, for Crank-Nicolson, calls
LAPACK ``dptsv`` once.  phi_rr + phi_r/r is (1/r)(r phi_r)_r, so each
Crank-Nicolson row times its node radius r gives a symmetric, positive
definite tridiagonal matrix, which ``dptsv`` factors as L D L^T without
pivoting.

The origin node carries the Dirichlet value phi = 0, so the singular terms
are never evaluated at r = 0.

There is one radial marching loop.  ``simulate_batch`` groups its runs by
scheme and dt and marches each group as one node vector: one ``step`` call,
and for Crank-Nicolson one ``dptsv`` call, advances all of them, and each
run's trace is bit-identical to marching it alone (DECISIONS.md section 7).
The gradient guard compares each run's largest numerator with a threshold
formed once, which decides exactly as the gradient against the guard.
``simulate`` is a batch of one.  ``RunRecord`` holds the run-shape rules it
shares with the Poiseuille loop and the buffer a run records into,
allocated up front; ``plan_record`` checks a run against ``MAX_STEPS`` and
``MAX_RECORD_BYTES`` without allocating (DECISIONS.md section 3).  A run
given a ``sink`` records into one block of ``row_blocks`` size and hands
each block to the sink as it fills, and the last one when it ends, so it
never holds its ``(snapshots, nodes)`` trace; a run without one keeps the
whole trace.  ``energy`` is the one walk over recorded rows, phi_r(0)
included: it takes them in ``row_blocks``, with the same operations on each
row in the same order whatever the block size, so the numbers do not
depend on it (DECISIONS.md section 4).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .coeffs import LeslieCoefficients
from .errors import SolverHalt

_trapz = np.trapezoid

Scheme = Literal["semi_implicit", "explicit"]
Sink = Callable[[np.ndarray, np.ndarray], None]  # sink(times, rows) of a streamed record


# ---------------------------------------------------------------------------
# grids and states


@dataclass(frozen=True)
class RadialGrid:
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 16:
            raise ValueError("need at least 16 cells")

    @property
    def dr(self) -> float:
        return 1.0 / self.n_cells

    @cached_property
    def r(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_cells + 1)


@dataclass
class RadialState:
    grid: RadialGrid
    phi: np.ndarray
    t: float = 0.0

    def validate(self) -> None:
        if self.phi.shape != (self.grid.n_cells + 1,):
            raise ValueError("phi length does not match grid")
        if self.phi[0] != 0.0:
            raise ValueError("origin value must be 0")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("non-finite entries in phi")


def make_state(grid: RadialGrid, phi0) -> RadialState:
    """Build a state from an array or a callable phi0(r); pins phi(0) = 0."""
    phi = np.asarray(phi0(grid.r) if callable(phi0) else phi0, dtype=float).copy()
    phi[0] = 0.0
    state = RadialState(grid, phi)
    state.validate()
    return state


# ---------------------------------------------------------------------------
# initial-data presets


PRESET_PARAMS = {
    "linear": (),
    "scaled_linear": ("amplitude",),
    "bubble": ("beta0",),
    "bubble_linear_max": ("beta0", "amplitude"),
    "table": ("points",),
}


def initial_profile(grid: RadialGrid, preset: str, **params) -> np.ndarray:
    """Named initial angles on the grid nodes; ``PRESET_PARAMS`` names the
    parameters each preset takes.

    linear                  phi0 = r
    scaled_linear           phi0 = amplitude * r
    bubble                  phi0 = 2 arctan(r / beta0)
    bubble_linear_max       pointwise max of bubble and scaled_linear
    table                   linear interpolation of (r, phi) pairs
    """
    if preset not in PRESET_PARAMS:
        raise ValueError(f"unknown preset {preset!r}")
    expected = PRESET_PARAMS[preset]
    if set(params) != set(expected):
        raise ValueError(
            f"preset {preset!r} takes parameters {sorted(expected)}, got {sorted(params)}"
        )
    r = grid.r
    if preset == "linear":
        return r.copy()
    if preset == "scaled_linear":
        return params["amplitude"] * r
    if preset == "table":
        pts = sorted(params["points"])
        rs = np.array([p[0] for p in pts], dtype=float)
        phis = np.array([p[1] for p in pts], dtype=float)
        if rs[0] > 0.0 or rs[-1] < 1.0:
            raise ValueError("table must cover [0, 1]")
        return np.interp(r, rs, phis)
    beta0 = params["beta0"]
    if beta0 <= 0:
        raise ValueError("beta0 must be positive")
    bubble = 2.0 * np.arctan(r / beta0)
    if preset == "bubble":
        return bubble
    return np.maximum(bubble, params["amplitude"] * r)


# ---------------------------------------------------------------------------
# solver parameters


@dataclass(frozen=True)
class SolverParams:
    dt: float
    scheme: Scheme = "semi_implicit"
    t_end: float = 1.0
    clip_guard: float | None = None  # default 0.5/dr, resolved per grid

    def __post_init__(self):
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def check_stability(self, grid: RadialGrid, c: LeslieCoefficients) -> None:
        if self.scheme == "explicit":
            bound = 0.25 * grid.dr**2 * c.lambda1
            if self.dt > bound:
                raise ValueError(
                    f"explicit scheme needs dt <= 0.25*dr^2*lambda1 = {bound:.3e}"
                )

    def guard_for(self, grid: RadialGrid) -> float:
        return 0.5 / grid.dr if self.clip_guard is None else self.clip_guard


def default_dt(
    grid: RadialGrid, c: LeslieCoefficients, scheme: Scheme, t_end: float
) -> float:
    """1e-4 for Crank-Nicolson; for RK4 the largest dt that takes a whole
    number of steps to t_end without exceeding min(0.25 dr^2 lambda1, 1e-5)."""
    if scheme != "explicit":
        return 1e-4
    return whole_step_dt(t_end, min(0.25 * grid.dr**2 * c.lambda1, 1e-5))


def whole_step_dt(t_end: float, dt_max: float) -> float:
    """The largest dt <= dt_max that takes a whole number of steps from 0 to
    t_end; ValueError unless t_end > 0 and that number of steps is finite."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if not (dt_max > 0.0 and math.isfinite(t_end / dt_max)):
        raise ValueError(f"t_end = {t_end!r} takes too many steps of {dt_max!r}")
    steps = max(1, math.ceil(t_end / dt_max))  # the quotient may underflow to 0
    if t_end / steps > dt_max:  # t_end / dt_max rounded onto an integer from above
        steps += 1
    return t_end / steps


# Ceilings on one run, checked before anything is allocated (DECISIONS.md
# section 4): the steps of any marching run, and the bytes of the buffer it
# records its snapshots into.
MAX_STEPS = 10**9
MAX_RECORD_BYTES = 2**30


def step_count(t0: float, t_end: float, dt: float) -> int:
    """The number of dt steps from t0 to t_end; ValueError unless it is a
    whole number, to a relative 1e-9, from 1 to MAX_STEPS."""
    steps = (t_end - t0) / dt
    if not abs(steps) <= MAX_STEPS:  # also catches nan
        raise ValueError(
            f"t_end = {t_end!r} takes too many steps of dt = {dt!r} "
            f"(more than {MAX_STEPS})"
        )
    n = round(steps)
    if n < 1 or abs(steps - n) > 1e-9 * n:
        raise ValueError(
            f"t_end = {t_end!r} is not a whole number of dt = {dt!r} steps "
            f"after t0 = {t0!r}"
        )
    return n


def plan_record(
    t0: float, t_end: float, dt: float, stride: int, row_values: int,
    min_rows: int = 0,
) -> tuple[int, int, int]:
    """(steps, rows, bytes) of a run recording rows of ``row_values``
    floats, without allocating: ValueError for a stride below 1, from
    ``step_count``, when the run would record fewer than ``min_rows``
    snapshots, or when the buffer would pass MAX_RECORD_BYTES."""
    if stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    n_steps = step_count(t0, t_end, dt)
    recorded = 1 + math.ceil(n_steps / stride)  # the initial state, each record step
    if recorded < min_rows:
        raise ValueError(
            f"need at least {min_rows} snapshots: {n_steps} steps at "
            f"snapshot_stride {stride} record {recorded}"
        )
    rows = 2 + n_steps // stride
    nbytes = rows * row_values * 8
    if nbytes > MAX_RECORD_BYTES:
        raise ValueError(
            f"{rows} snapshots of {row_values} values exceed the "
            f"{MAX_RECORD_BYTES}-byte record buffer"
        )
    return n_steps, rows, nbytes


# A run with a sink records, and every trace diagnostic walks, blocks of
# about this many values, so neither grows with the run.  At 2**16 (512 KB)
# a block and its few temporaries fit a 2 MB L2 cache: over the 26,001
# streamed snapshots of blowup_dense (n = 512), energy() took 0.30 s in all
# with it, 0.28 s at 2**14 and 0.42 s at 2**20 (one core of a 2-core x86-64
# Xeon, best of three).
CHUNK_VALUES = 2**16


def row_blocks(n_rows: int, row_len: int) -> list[slice]:
    """Consecutive row slices of an (n_rows, row_len) array, each under
    ``CHUNK_VALUES`` values and at least one row long."""
    rows = max(1, CHUNK_VALUES // row_len)
    return [slice(i, i + rows) for i in range(0, n_rows, rows)]


class RunRecord:
    """The run-shape rules both marching loops share, and the buffer a run
    records into.  Step k ends at t0 + k*dt, and the last step at t_end
    itself.  The rows are the initial state (``values[0]``, which the caller
    fills), each stride step, and the last or halting step off the stride.

    ``times`` holds the time of every row.  Without a ``sink``, ``values``
    holds every row.  With one, it holds a block of the ``row_blocks`` size,
    at most the rows the run records; ``flush`` hands the rows written since
    the last flush to ``sink(times, values)`` as views, which ``add`` does
    when a row is due and the block is full, and the run's owner once at the
    end."""

    def __init__(
        self, t0: float, t_end: float, dt: float, stride: int,
        row_shape: tuple[int, ...], row_values: int, sink: Sink | None = None,
    ):
        self.n_steps, rows, _ = plan_record(t0, t_end, dt, stride, row_values)
        self.t0, self.t_end, self.dt, self.stride = t0, t_end, dt, stride
        self.times = np.empty(rows)
        if sink is not None:
            rows = min(rows, max(1, CHUNK_VALUES // row_values))
        self.values = np.empty((rows,) + row_shape)
        self.sink = sink
        self.times[0] = t0
        self.j = 1  # rows written
        self.flushed = 0  # rows handed to the sink
        self.next_record = min(stride, self.n_steps)

    def time(self, k: int) -> float:
        return self.t_end if k == self.n_steps else self.t0 + k * self.dt

    def add(self, k: int) -> int:
        """Record the time of step k, due or not; returns the row of
        ``values`` the caller fills with its state."""
        if self.j - self.flushed == len(self.values):  # only a sink's block fills
            self.flush()
        j = self.j
        self.times[j] = self.time(k)
        self.j = j + 1
        self.next_record = min(k + self.stride, self.n_steps)
        return j - self.flushed

    def flush(self) -> None:
        """Hand the rows written since the last flush to the sink."""
        if self.j > self.flushed:
            self.sink(self.times[self.flushed : self.j], self.values[: self.j - self.flushed])
            self.flushed = self.j

    def rows(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(times, values) of the rows written so far, as views; no values
        when a sink took them."""
        values = self.values[: self.j] if self.sink is None else None
        return self.times[: self.j], values


# ---------------------------------------------------------------------------
# spatial operators


def first_derivative(f: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order first derivative along ``axis`` (>= 0) with spacing h:
    central inside, one-sided at the two ends."""
    lead = (slice(None),) * axis

    def at(i):
        return lead + (i,)

    out = np.empty_like(f)
    out[at(slice(1, -1))] = (f[at(slice(2, None))] - f[at(slice(None, -2))]) / (2.0 * h)
    out[at(0)] = (-3.0 * f[at(0)] + 4.0 * f[at(1)] - f[at(2)]) / (2.0 * h)
    out[at(-1)] = (3.0 * f[at(-1)] - 4.0 * f[at(-2)] + f[at(-3)]) / (2.0 * h)
    return out


def _end_stencils(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(3, 2 runs) node indices of the one-sided stencils at both ends of
    each run of a node vector; run i holds nodes starts[i]..ends[i]."""
    return np.stack([np.concatenate([starts + i, ends - i]) for i in range(3)])


def _max_numerators(
    phi: np.ndarray, stencils: np.ndarray, starts: np.ndarray, num: np.ndarray
) -> np.ndarray:
    """The largest absolute numerator of ``first_derivative`` over each run
    of a node vector, formed in ``num``: one segment max.  Both one-sided
    numerators are formed as 3 f0 - 4 f1 + f2; at the left end that is the
    exact negation of the stencil -3 f0 + 4 f1 - f2, since rounding is
    symmetric, so its absolute value is the same.  A nan numerator
    propagates, as in ``np.max``."""
    np.subtract(phi[2:], phi[:-2], out=num[1:-1])
    f = phi[stencils]
    num[stencils[0]] = 3.0 * f[0] - 4.0 * f[1] + f[2]
    return np.maximum.reduceat(np.abs(num, out=num), starts)


def _guard_threshold(guard: float, two_dr: float) -> float:
    """The largest double T with T / two_dr <= guard (guard itself when it
    is infinite or nan), so that x > T decides x / two_dr > guard for every
    double x, inf and nan included: division by a positive constant is
    monotone under rounding (DECISIONS.md section 7)."""
    if math.isinf(guard) or math.isnan(guard):
        return guard
    t = guard * two_dr  # within an ulp or two of T
    while t / two_dr > guard:
        t = math.nextafter(t, -math.inf)
    while math.nextafter(t, math.inf) / two_dr <= guard:
        t = math.nextafter(t, math.inf)
    return t


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of ``x`` is finite.  A sum of squares with an inf
    or nan in it is never finite, so a finite ``np.vdot(x, x)`` settles it
    in one BLAS call, which sets off no floating-point warning; the entries
    are tested one by one only when it is not, as when finite squares pass
    the largest double (DECISIONS.md section 7)."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def _operator(r, two_dr, dr2, lambda1, lambda2):
    """(diag, upper, lower, adv, q) of phi_t = diag phi_i + upper phi_{i+1}
    + lower phi_{i-1} + adv (phi_{i-1} - phi_{i+1}) + q sin(2 phi_i): the
    three-point phi_rr + phi_r/r and the reaction over lambda1, and -r phi_r;
    the coefficients come per node (a batch) or as scalars (one run)."""
    upper = (1.0 / dr2 + 1.0 / (two_dr * r)) / lambda1
    lower = (1.0 / dr2 - 1.0 / (two_dr * r)) / lambda1
    q = -(0.5 / r**2 + 1.5 * lambda2) / lambda1
    return -2.0 / dr2 / lambda1, upper, lower, r / two_dr, q


def _banded(bands, nodes, two_p: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """c0 phi_i + c+ phi_{i+1} + c- phi_{i-1} + q sin(2 phi_i) into ``out``,
    for bands (c0, c+, c-, q), nodes (phi_i, phi_{i+1}, phi_{i-1}) as views
    of a node vector and two_p = 2 phi_i; ``tmp`` is scratch."""
    c0, c_up, c_lo, q = bands
    mid, up, lo = nodes
    np.multiply(c0, mid, out=out)
    out += np.multiply(c_up, up, out=tmp)
    out += np.multiply(c_lo, lo, out=tmp)
    out += np.multiply(q, np.sin(two_p, out=tmp), out=tmp)
    return out


def step(batch: _Batch) -> list[_Run]:
    """Advance every run of ``batch`` one time step, in place; boundary
    values are reimposed.  Returns the runs whose field went non-finite:
    they have left the batch, unadvanced."""
    if batch.scheme == "explicit":
        return _step_rk4(batch)
    return _step_cn(batch)


def _step_rk4(b: _Batch) -> list[_Run]:
    mid = b.nodes[0]
    stage_mid = b.stage_nodes[0]
    two_p, tmp, dt = b.two_p, b.tmp, b.dt
    k1, k2, k3, k4 = b.ks
    _banded(b.bands, b.nodes, np.multiply(mid, 2.0, out=two_p), k1, tmp)
    # Every stage gets its boundary values back, so a run whose stage went
    # non-finite cannot reach its neighbour through the nodes they share
    # as stencil ends.
    for h, k, k_next in ((0.5 * dt, k1, k2), (0.5 * dt, k2, k3), (dt, k3, k4)):
        np.add(mid, np.multiply(k, h, out=tmp), out=stage_mid)
        b.reset_boundaries(b.stage)
        _banded(b.bands, b.stage_nodes, np.multiply(stage_mid, 2.0, out=two_p), k_next, tmp)
    # phi += dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
    k1 += np.multiply(k2, 2.0, out=k2)
    k1 += np.multiply(k3, 2.0, out=k3)
    k1 += k4
    mid += np.multiply(k1, dt / 6.0, out=k1)
    b.reset_boundaries(b.phi)
    if all_finite(b.phi):
        return []
    bad = b.runs_failing(np.isfinite(b.phi), b.starts)
    b.remove(bad)
    return bad


def _step_cn(b: _Batch) -> list[_Run]:
    mid = b.nodes[0]
    two_p, dt_damp, rhs, tmp = b.two_p, b.dt_damp, b.rhs, b.tmp
    np.multiply(mid, 2.0, out=two_p)
    # The damping part of the reaction's Jacobian, cos(2 phi)/r^2 where
    # positive, goes on both sides, so fixed points stay zeros of phi_t:
    # without it the first node is as stiff as diffusion and dt would be
    # O(dr^2).
    np.maximum(np.cos(two_p, out=dt_damp), 0.0, out=dt_damp)
    dt_damp *= b.damp
    _banded(b.bands, b.nodes, two_p, rhs, tmp)
    rhs += b.boundary
    rhs += np.multiply(dt_damp, mid, out=tmp)
    if not all_finite(rhs):
        # a non-finite row would reach every later row of the elimination
        bad = b.runs_failing(np.isfinite(rhs), np.maximum(b.starts - 1, 0))
        b.remove(bad)
        return bad + (_step_cn(b) if b.runs else [])

    d = np.add(b.d_const, dt_damp, out=b.d)
    _, _, new, info = b.dptsv(d, b.e, rhs, overwrite_d=1, overwrite_b=1)
    if info != 0:  # pragma: no cover - defensive
        raise SolverHalt(f"tridiagonal solve breakdown: dptsv info {info}")
    mid[:] = new
    b.reset_boundaries(b.phi)
    return []


# ---------------------------------------------------------------------------
# energies of every snapshot of a trace

def check_local_radius(grid: RadialGrid, R: float) -> None:
    """ValueError unless 2 dr <= R <= 1, the local radii ``energy`` resolves."""
    if R < 2.0 * grid.dr:
        raise ValueError(f"R = {R} unresolvable: need R >= 2*dr = {2 * grid.dr}")
    if R > 1.0:
        raise ValueError(f"R = {R} must lie in (0, 1]")


def energy(grid: RadialGrid, phis: np.ndarray, R: float):
    """(e_total, e_grad, e_sin, e_local, grad_origin), one entry per
    snapshot (row) of ``phis``: trapezoidal quadrature over [0, 1] of
    phi_r^2 * r and sin^2(phi)/r, whose second integrand extends to 0 at the
    origin by continuity, and of phi_r^2 * r over [0, R]; and phi_r(0), the
    one-sided end of ``first_derivative``: (4 phi_1 - phi_2) / (2 dr)."""
    check_local_radius(grid, R)
    dr, r = grid.dr, grid.r
    k = int(np.floor(R / dr + 1e-12))
    e_grad, e_sin, e_local = [], [], []
    grad_origin = np.empty(len(phis))
    for rows in row_blocks(*phis.shape):
        block = phis[rows]
        grad_integrand = first_derivative(block, dr, axis=1)  # phi_r until squared
        grad_origin[rows] = grad_integrand[:, 0]
        grad_integrand = grad_integrand**2 * r
        sin_integrand = np.empty_like(block)
        sin_integrand[:, 0] = 0.0
        sin_integrand[:, 1:] = np.sin(block[:, 1:]) ** 2 / r[1:]
        e_grad.append(_trapz(grad_integrand, r, axis=1))
        e_sin.append(_trapz(sin_integrand, r, axis=1))
        local = _trapz(grad_integrand[:, : k + 1], r[: k + 1], axis=1)
        if k < grid.n_cells and R > r[k]:
            # partial trapezoid on the clipped last interval
            frac = (R - r[k]) / dr
            f_k = grad_integrand[:, k]
            f_r = f_k + frac * (grad_integrand[:, k + 1] - f_k)
            local += 0.5 * (f_k + f_r) * (R - r[k])
        e_local.append(local)
    e_grad, e_sin = np.concatenate(e_grad), np.concatenate(e_sin)
    return e_grad + e_sin, e_grad, e_sin, np.concatenate(e_local), grad_origin


# ---------------------------------------------------------------------------
# full simulation with snapshot recording


@dataclass
class RunTrace:
    """Snapshots of one simulation, including the initial state and the
    state at halt or t_end; a run that streamed them to a sink keeps only
    their times."""

    grid: RadialGrid
    params: SolverParams
    times: np.ndarray
    phis: np.ndarray | None  # shape (n_snapshots, n_nodes)
    halted: bool = False
    halt_reason: str | None = None

    @property
    def n_snapshots(self) -> int:
        return len(self.times)


class _Run:
    """One run of a batch: its inputs, its record and its halt."""

    def __init__(
        self,
        state0: RadialState,
        c: LeslieCoefficients,
        p: SolverParams,
        snapshot_stride: int = 1,
        sink: Sink | None = None,
    ):
        state0.validate()
        p.check_stability(state0.grid, c)
        self.grid, self.c, self.p = state0.grid, c, p
        self.threshold = _guard_threshold(p.guard_for(state0.grid), 2.0 * state0.grid.dr)
        n = len(state0.phi)
        self.record = RunRecord(state0.t, p.t_end, p.dt, snapshot_stride, (n,), n, sink)
        self.record.values[0] = state0.phi
        self.halted, self.halt_reason = False, None
        # the guard on the initial state, decided as ``_Batch.tripped`` decides
        # it after every step; a run that trips here never enters a batch
        phi0, starts = self.record.values[0], np.array([0])
        num = _max_numerators(phi0, _end_stencils(starts, starts + n - 1), starts, np.empty(n))
        if num[0] > self.threshold:
            self.halted, self.halt_reason = True, "gradient guard"

    def advance(self, k: int, phi: np.ndarray, tripped: bool) -> bool:
        """Take the state after step k: record it when it is due or trips
        the guard.  True when the run ends with this step."""
        record = self.record
        if k == record.next_record or tripped:
            record.values[record.add(k)] = phi
        if tripped:
            self.halted, self.halt_reason = True, "gradient guard"
        return k == record.n_steps or tripped

    def trace(self) -> RunTrace:
        """The run's trace, once it has ended; a sink first takes the rows
        it has not had."""
        if self.record.sink is not None:
            self.record.flush()
        times, phis = self.record.rows()
        return RunTrace(self.grid, self.p, times, phis, self.halted, self.halt_reason)


class _Batch:
    """The runs still marching, laid out as one node vector ``phi``: each
    run's nodes 0..n in turn.  The system a step solves has a row for each
    node 1..N-2 of that vector: a run's interior nodes are its
    Crank-Nicolson rows, multiplied by their node radius so that the matrix
    is symmetric, and its end nodes inside the vector are identity rows
    with zero couplings and a zero right-hand side, so one ``dptsv`` call
    solves every run and each run's numbers are those of its own solve
    (DECISIONS.md section 7).  ``_build`` forms every band, per-row
    coefficient and buffer a step uses, from each run's grid, coefficients
    and dt."""

    def __init__(self, runs: list[_Run]):
        self.scheme, self.dt = runs[0].p.scheme, runs[0].p.dt
        if self.scheme == "semi_implicit":
            # scipy loads with a Crank-Nicolson batch only (DECISIONS.md section 8)
            from scipy.linalg.lapack import dptsv
            self.dptsv = dptsv
        self._build(runs, np.concatenate([run.record.values[0] for run in runs]))

    def _build(self, runs: list[_Run], phi: np.ndarray) -> None:
        self.runs, self.phi = runs, phi
        sizes = np.array([run.grid.n_cells + 1 for run in runs])
        self.ends = np.cumsum(sizes) - 1
        self.starts = self.ends - sizes + 1
        self.stencils = _end_stencils(self.starts, self.ends)
        # each run with a view of its nodes, which every step updates in place
        bounds = zip(self.starts.tolist(), self.ends.tolist())
        self.spans = [(run, phi[s : e + 1]) for run, (s, e) in zip(runs, bounds)]
        self.phi[self.starts] = 0.0  # phi(0) = 0, as after any step
        phi_end = phi[self.ends]
        # the boundary values every step writes back, in one assignment
        self.edges = np.concatenate([self.starts, self.ends])
        self.edge_values = np.concatenate([np.zeros(len(runs)), phi_end])
        self.thresholds = np.array([run.threshold for run in runs])
        self.num = np.empty_like(phi)  # the guard's numerators
        # phi_i, phi_{i+1} and phi_{i-1} on the rows; row i is node i + 1
        self.nodes = phi[1:-1], phi[2:], phi[:-2]
        self.two_p, self.tmp = np.empty(len(phi) - 2), np.empty(len(phi) - 2)
        # A run's interior nodes are its Crank-Nicolson rows; its end nodes
        # are identity rows, on which every band is zero (DECISIONS.md
        # section 7).
        cn = np.ones(len(phi), dtype=bool)
        cn[self.starts] = cn[self.ends] = False
        cn = cn[1:-1]

        def per_row(per_run) -> np.ndarray:  # one value per run, on each of its rows
            return np.repeat(per_run, sizes)[1:-1]

        # per-run scalars as Python floats: dr**2 is pow, not dr * dr
        lambda1 = per_row([run.c.lambda1 for run in runs])
        r = np.where(cn, np.concatenate([run.grid.r for run in runs])[1:-1], 1.0)
        diag, upper, lower, adv, q = _operator(
            r,
            per_row([2.0 * run.grid.dr for run in runs]),
            per_row([run.grid.dr**2 for run in runs]),
            lambda1,
            per_row([run.c.lambda2 for run in runs]),
        )
        if self.scheme == "explicit":
            bands = diag, upper - adv, lower + adv, q
            self.bands = tuple(np.where(cn, band, 0.0) for band in bands)
            self.stage = np.empty_like(phi)
            self.stage_nodes = self.stage[1:-1], self.stage[2:], self.stage[:-2]
            self.ks = np.empty((4, len(phi) - 2))
            return
        # Crank-Nicolson, each row times its node radius r: r phi + dt/2 r
        # (phi_rr + phi_r/r)/lambda1 + dt r (the rest of phi_t) on the right;
        # the damping, on both sides, each step forms (DECISIONS.md section 9)
        dt, half = self.dt, 0.5 * self.dt
        bands = 1.0 + half * diag, half * upper - dt * adv, half * lower + dt * adv, dt * q
        self.bands = tuple(np.where(cn, r * band, 0.0) for band in bands)
        self.damp = np.where(cn, dt / (lambda1 * r), 0.0)
        self.d_const = np.where(cn, r * (1.0 - half * diag), 1.0)  # before the damping
        # One coupling for both neighbours: r_i upper_i = r_{i+1} lower_{i+1}
        # in exact arithmetic.  Rows i and i + 1 are coupled only when both
        # are Crank-Nicolson rows; phi(0) = 0 and the constant phi(1) enter
        # no coupling.
        r_upper = r * (half * upper)
        pair = cn[:-1] & cn[1:]
        self.e = np.where(pair, -r_upper[:-1], 0.0)
        # the new state's half of the constant phi(1) on each run's row n - 1
        # (the band applies the old half); + 0.0 turns -0.0 into +0.0
        last = self.ends - 2
        self.boundary = np.zeros(len(cn))
        self.boundary[last] = r_upper[last] * phi_end + 0.0
        self.dt_damp, self.rhs, self.d = (np.empty(len(cn)) for _ in range(3))

    def reset_boundaries(self, phi: np.ndarray) -> np.ndarray:
        """Reimpose, in a node vector of this batch, phi(0) = 0 and every
        run's frozen phi(1), whose zero a step may flip; returns ``phi``."""
        phi[self.edges] = self.edge_values
        return phi

    def tripped(self) -> np.ndarray:
        """Whether each run's largest gradient is above its guard: its
        largest numerator above its threshold, with no division."""
        return _max_numerators(self.phi, self.stencils, self.starts, self.num) > self.thresholds

    def runs_failing(self, ok: np.ndarray, row_starts: np.ndarray) -> list[_Run]:
        """The runs with a False in their segment of ``ok``, whose run i
        begins at row_starts[i]."""
        passed = np.logical_and.reduceat(ok, row_starts)
        return [run for run, good in zip(self.runs, passed) if not good]

    def remove(self, leaving: list[_Run]) -> None:
        keep = [(run, nodes) for run, nodes in self.spans if run not in leaving]
        if keep:
            self._build([run for run, _ in keep], np.concatenate([nodes for _, nodes in keep]))
        else:
            self.runs = []


def simulate_batch(runs) -> list[RunTrace]:
    """``simulate`` for each of ``runs``, (state0, c, p, snapshot_stride)
    or (state0, c, p, snapshot_stride, sink) tuples of any scheme and dt;
    the runs that share (scheme, dt) march as one system, and the traces
    come back in the order of ``runs``.

    Every run keeps its own guard, stride, step count and halt record, and
    leaves its batch when it reaches t_end or halts.  Its trace is
    bit-identical to the trace of marching it alone (DECISIONS.md
    section 7).
    """
    members = [_Run(*run) for run in runs]
    batches: dict = {}
    for run in [run for run in members if not run.halted]:
        # a run whose 2 phi(1) overflows takes sin and cos of inf on its end's
        # identity row in a batch, so it marches alone (DECISIONS.md section 7)
        alone = not math.isfinite(2.0 * run.record.values[0][-1])
        batches.setdefault(run if alone else (run.p.scheme, run.p.dt), []).append(run)
    for batch in batches.values():
        _march(_Batch(batch))
    return [run.trace() for run in members]


def _march(batch: _Batch) -> None:
    """Step ``batch`` until every run has left it: one call of ``step`` per
    step, then one guard check over all runs."""
    next_event = min(run.record.next_record for run in batch.runs)
    k = 0
    while batch.runs:
        k += 1
        for run in step(batch):
            run.halted, run.halt_reason = True, "non-finite field"
        if not batch.runs:
            break
        tripped = batch.tripped()
        if k == next_event or np.logical_or.reduce(tripped):
            leaving = [
                run
                for (run, phi), trip in zip(batch.spans, tripped.tolist())
                if run.advance(k, phi, trip)
            ]
            if leaving:
                batch.remove(leaving)
            if batch.runs:
                next_event = min(run.record.next_record for run in batch.runs)


def simulate(
    state0: RadialState,
    c: LeslieCoefficients,
    p: SolverParams,
    snapshot_stride: int = 1,
    sink: Sink | None = None,
) -> RunTrace:
    """March to t_end, recording every ``snapshot_stride``-th state.

    Step k ends at t0 + k*dt and the last step at t_end itself, which must
    lie a whole number of steps after t0.  Halts (without raising) when
    max|phi_r| exceeds the gradient guard or the field goes non-finite; the
    offending state is the last snapshot.  With a ``sink``, the snapshots
    go to it a ``RunRecord`` block at a time, and the trace keeps their
    times only.  A batch of one run of ``simulate_batch``.
    """
    return simulate_batch([(state0, c, p, snapshot_stride, sink)])[0]
