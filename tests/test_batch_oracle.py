"""Batched marching against a reference copy of the one-run driver.

``reference_simulate`` is the radial driver as it was before runs were
batched: one run, one step at a time, the Crank-Nicolson step with its own
weighted bands and ``dptsv`` call, RK4 on the interior right-hand side, the
gradient guard as the maximum of the full derivative against the guard, and
``np.isfinite`` on the right-hand side and after every step.
``simulate_batch`` marches several runs as one system; every field of every
run's trace must equal the reference's bit for bit.  The reference
forms each step from three bands and one sine coefficient per node, each
Crank-Nicolson row times its node radius, as the program does;
``tests/test_cn_oracle.py`` bounds how far that order is from the
unweighted ``dgtsv`` step and from the per-term order, and relates the
reaction to sin(phi) cos(phi).
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dptsv

from nematiclab.axisym import (
    RadialGrid,
    RadialState,
    SolverParams,
    first_derivative,
    make_state,
    simulate,
    simulate_batch,
    step_count,
)
from nematiclab.coeffs import LeslieCoefficients, sample_validated
from nematiclab.errors import SolverHalt

L2_SETS = (
    LeslieCoefficients(0, -0.5, 0.5, 1, 0, 0.0),
    LeslieCoefficients(0, -0.25, 0.75, 1, 0, 0.5),
    LeslieCoefficients(0, -0.75, 0.25, 1, 0, -0.5),
)


# ---------------------------------------------------------------------------
# the one-run driver, as a reference


def reference_operator(grid, c):
    """(diag, upper, lower, adv, q) of phi_t = diag phi_i + upper phi_{i+1}
    + lower phi_{i-1} + adv (phi_{i-1} - phi_{i+1}) + q sin(2 phi_i)."""
    dr, r = grid.dr, grid.r[1:-1]
    two_dr, dr2 = 2.0 * dr, dr**2
    upper = (1.0 / dr2 + 1.0 / (two_dr * r)) / c.lambda1
    lower = (1.0 / dr2 - 1.0 / (two_dr * r)) / c.lambda1
    q = -(0.5 / r**2 + 1.5 * c.lambda2) / c.lambda1
    return -2.0 / dr2 / c.lambda1, upper, lower, r / two_dr, q


def reference_rhs(phi, grid, c):
    diag, upper, lower, adv, q = reference_operator(grid, c)
    p = phi[1:-1]
    return diag * p + (upper - adv) * phi[2:] + (lower + adv) * phi[:-2] + q * np.sin(2.0 * p)


def reference_step_rk4(phi, grid, c, dt):
    def f(ph):
        return reference_rhs(ph, grid, c)

    k1 = f(phi)
    ph2 = phi.copy()
    ph2[1:-1] += 0.5 * dt * k1
    k2 = f(ph2)
    ph3 = phi.copy()
    ph3[1:-1] += 0.5 * dt * k2
    k3 = f(ph3)
    ph4 = phi.copy()
    ph4[1:-1] += dt * k3
    k4 = f(ph4)
    out = phi.copy()
    out[1:-1] += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out[0] = 0.0
    out[-1] = phi[-1]
    return out


def reference_cn_system(phi, grid, c, dt):
    """(d, e, right-hand side) of one Crank-Nicolson step, each row times
    its node radius r."""
    diag, upper, lower, adv, q = reference_operator(grid, c)
    r = grid.r[1:-1]
    half = 0.5 * dt
    interior = phi[1:-1]
    two_p = 2.0 * interior
    dt_damp = np.maximum(np.cos(two_p), 0.0) * (dt / (c.lambda1 * r))
    r_upper = r * (half * upper)
    boundary = np.zeros(grid.n_cells - 1)
    boundary[-1] = r_upper[-1] * phi[-1] + 0.0
    rhs_vec = (
        r * (1.0 + half * diag) * interior
        + r * (half * upper - dt * adv) * phi[2:]
        + r * (half * lower + dt * adv) * phi[:-2]
        + r * (dt * q) * np.sin(two_p)
        + boundary
        + dt_damp * interior
    )
    return r * (1.0 - half * diag) + dt_damp, -r_upper[:-1], rhs_vec


def reference_step_cn(phi, grid, c, dt):
    d, e, rhs_vec = reference_cn_system(phi, grid, c, dt)
    if not np.all(np.isfinite(rhs_vec)):
        raise SolverHalt("non-finite field")
    _, _, new_interior, info = dptsv(d, e, rhs_vec)
    assert info == 0
    out = phi.copy()
    out[1:-1] = new_interior
    out[0] = 0.0
    return out


def reference_max_gradient(phi, grid):
    return float(np.max(np.abs(first_derivative(phi, grid.dr))))


def reference_simulate(state0, c, p, stride):
    """(times, phis, halted, halt_reason) of one run marched alone."""
    grid = state0.grid
    guard = p.guard_for(grid)
    t0 = state0.t
    n_steps = step_count(t0, p.t_end, p.dt)
    step = reference_step_rk4 if p.scheme == "explicit" else reference_step_cn
    times, phis = [state0.t], [state0.phi.copy()]
    phi = state0.phi
    if reference_max_gradient(phi, grid) > guard:
        return np.array(times), np.array(phis), True, "gradient guard"
    for k in range(1, n_steps + 1):
        try:
            phi = step(phi, grid, c, p.dt)
        except SolverHalt:
            return np.array(times), np.array(phis), True, "non-finite field"
        if not np.all(np.isfinite(phi)):
            return np.array(times), np.array(phis), True, "non-finite field"
        t = p.t_end if k == n_steps else t0 + k * p.dt
        tripped = reference_max_gradient(phi, grid) > guard
        if k % stride == 0 or k == n_steps or tripped:
            times.append(t)
            phis.append(phi.copy())
        if tripped:
            return np.array(times), np.array(phis), True, "gradient guard"
    return np.array(times), np.array(phis), False, None


def assert_batch_matches_reference(runs):
    traces = simulate_batch(runs)
    assert len(traces) == len(runs)
    for (state0, c, p, stride), trace in zip(runs, traces):
        times, phis, halted, reason = reference_simulate(state0, c, p, stride)
        assert np.array_equal(trace.times, times)
        assert np.array_equal(trace.phis, phis)
        assert trace.phis.tobytes() == phis.tobytes()  # signed zeros too
        assert trace.halted == halted
        assert trace.halt_reason == reason
        assert trace.grid is state0.grid and trace.params is p
    return traces


# ---------------------------------------------------------------------------
# runs


def profile(kind, amplitude):
    if kind == "zero":
        return lambda r: 0.0 * r
    if kind == "negative_zero":  # phi(1) = -0.0
        return lambda r: -0.0 * r
    if kind == "wavy":
        return lambda r: amplitude * r + 0.3 * np.sin(3.0 * np.pi * r)
    return lambda r: amplitude * r  # "linear"; above pi it steepens at the origin


def make_run(n, c, kind, amplitude, dt, scheme, steps, stride):
    """A run of ``steps`` steps.  "above_guard" gets a guard below its
    initial gradient; "trips" a guard between its initial gradient and the
    largest one it reaches, so that it halts mid-run when it steepens."""
    grid = RadialGrid(n)
    data = "linear" if kind in ("above_guard", "trips") else kind
    state0 = make_state(grid, profile(data, amplitude))
    g0 = reference_max_gradient(state0.phi, grid)
    guard = None
    if kind == "above_guard":
        guard = 0.5 * g0
    elif kind == "trips":
        free = SolverParams(dt=dt, scheme=scheme, t_end=steps * dt, clip_guard=math.inf)
        _, phis, _, _ = reference_simulate(state0, c, free, 1)
        g_max = max(reference_max_gradient(phi, grid) for phi in phis)
        if g_max > g0:
            guard = 0.5 * (g0 + g_max)
    p = SolverParams(dt=dt, scheme=scheme, t_end=steps * dt, clip_guard=guard)
    return state0, c, p, stride


def make_batch(scheme, cn_dt, specs):
    """Runs of (n, coeffs, kind, amplitude, steps, stride) specs with one
    dt: ``cn_dt``, or for RK4 the largest step every run allows."""
    if scheme == "explicit":
        dt = min(0.25 * RadialGrid(n).dr ** 2 * c.lambda1 for n, c, *_ in specs)
    else:
        dt = cn_dt
    return [
        make_run(n, c, kind, amplitude, dt, scheme, steps, stride)
        for n, c, kind, amplitude, steps, stride in specs
    ]


@pytest.mark.parametrize("scheme", ["semi_implicit", "explicit"])
def test_batch_with_a_guarded_start_a_mid_run_trip_and_zero_data(scheme):
    runs = make_batch(
        scheme,
        1e-4,
        [
            (48, L2_SETS[0], "above_guard", 2.0, 30, 4),
            (97, L2_SETS[0], "trips", 3.4, 40, 7),
            (16, L2_SETS[1], "zero", 0.0, 25, 3),
            (33, L2_SETS[2], "negative_zero", 0.0, 20, 6),
            (130, L2_SETS[2], "wavy", 2.5, 33, 5),
        ],
    )
    traces = assert_batch_matches_reference(runs)
    reasons = [t.halt_reason for t in traces]
    assert reasons == ["gradient guard", "gradient guard", None, None, None]
    assert traces[0].n_snapshots == 1
    assert 1 < traces[1].n_snapshots < 40 // 7 + 2
    assert traces[1].times[-1] < runs[1][2].t_end
    assert np.all(traces[2].phis == 0.0)


@pytest.mark.parametrize(
    "scheme, dt, huge",
    [
        # the Crank-Nicolson bands scale phi by about 1 at this dt, so the
        # overflow comes from 2 phi, which passes the largest double
        ("semi_implicit", 1e-4, lambda r: 1e308 * r),
        ("explicit", 1e-5, lambda r: 1e306 * np.sin(7.0 * r)),
    ],
)
def test_batch_drops_a_run_whose_field_goes_non_finite(scheme, dt, huge):
    # the huge run overflows on its first step; with an infinite guard
    # nothing stops it before, and the runs beside it march on
    runs = [
        make_run(64, L2_SETS[1], "linear", 2.9, dt, scheme, 20, 3),
        (
            make_state(RadialGrid(32), huge),
            L2_SETS[0],
            SolverParams(dt=dt, scheme=scheme, t_end=20 * dt, clip_guard=math.inf),
            2,
        ),
        make_run(40, L2_SETS[2], "wavy", 1.0, dt, scheme, 20, 6),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        traces = assert_batch_matches_reference(runs)
    assert [t.halt_reason for t in traces] == [None, "non-finite field", None]
    assert traces[1].n_snapshots == 1


@pytest.mark.parametrize("scheme", ["semi_implicit", "explicit"])
def test_a_guard_at_the_initial_gradient_marches_and_one_double_below_halts(scheme):
    # the initial state's guard decides as every later step's: a run whose
    # largest initial gradient equals its guard marches, and one whose guard
    # is the next double down halts before its first step, alone or batched
    base = make_batch(
        scheme,
        1e-4,
        [(64, L2_SETS[1], "wavy", 2.0, 12, 1), (40, L2_SETS[2], "linear", 1.0, 12, 5)],
    )
    (state0, c, p, stride), other = base
    g0 = reference_max_gradient(state0.phi, state0.grid)
    at = (state0, c, replace(p, clip_guard=g0), stride)
    below = (state0, c, replace(p, clip_guard=math.nextafter(g0, -math.inf)), stride)
    for runs in ([at], [below], [at, below, other], [other, below, at]):
        traces = assert_batch_matches_reference(runs)
        for run, trace in zip(runs, traces):
            if run is at:
                assert trace.n_snapshots > 1
            if run is below:
                assert trace.halt_reason == "gradient guard"
                assert np.array_equal(trace.times, [0.0])


def test_simulate_is_a_batch_of_one():
    run = make_run(200, L2_SETS[1], "wavy", 2.0, 1e-4, "semi_implicit", 50, 9)
    (batched,) = simulate_batch([run])
    alone = simulate(*run)
    assert np.array_equal(batched.times, alone.times)
    assert np.array_equal(batched.phis, alone.phis)
    assert simulate_batch([]) == []


coefficient_sets = st.one_of(
    st.sampled_from(L2_SETS),
    st.integers(0, 10_000).map(lambda seed: sample_validated(np.random.default_rng(seed))),
)
member = st.tuples(
    st.integers(16, 300),
    coefficient_sets,
    st.sampled_from(["linear", "wavy", "zero", "negative_zero", "above_guard", "trips"]),
    st.floats(0.5, 3.5),
    st.integers(1, 40),  # steps
    st.integers(1, 12),  # stride
)


@given(
    members=st.lists(
        st.tuples(st.sampled_from(["semi_implicit", "explicit"]), st.integers(0, 1), member),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=40, deadline=None)
def test_batch_equals_each_run_marched_alone(members):
    # scheme and dt are drawn per member, so one call holds several
    # (scheme, dt) groups: a Crank-Nicolson member takes dt 1e-4 or 2.5e-4,
    # an RK4 member half of or the largest step every RK4 member allows
    rk4 = [spec for scheme, _, spec in members if scheme == "explicit"]
    rk4_dt = min((0.25 * RadialGrid(n).dr ** 2 * c.lambda1 for n, c, *_ in rk4), default=0.0)
    dts = {"semi_implicit": (1e-4, 2.5e-4), "explicit": (0.5 * rk4_dt, rk4_dt)}
    assert_batch_matches_reference([
        make_run(n, c, kind, amplitude, dts[scheme][pick], scheme, steps, stride)
        for scheme, pick, (n, c, kind, amplitude, steps, stride) in members
    ])


def test_batch_keeps_a_negative_zero_that_underflows_on_a_runs_last_row():
    # dptts2 divides before it subtracts: the last row of a run gets
    # b/d - x e, with e = +0.0 toward the identity row after it.  Here b/d
    # underflows to -0.0 and phi(1) < 0; were the identity row's solution
    # phi(1), x e would be -0.0 and the difference +0.0.  Its right-hand
    # side is +0.0, so the run keeps the -0.0 it gets alone.
    eta = 5e-324
    phi = np.zeros(1001)
    phi[-3:] = 3 * eta, -3 * eta, -2 * eta
    p = SolverParams(dt=1e-4, t_end=2e-4, clip_guard=math.inf)
    run = (RadialState(RadialGrid(1000), phi), L2_SETS[0], p, 1)
    (alone,) = assert_batch_matches_reference([run])
    assert np.signbit(alone.phis[1, -2]) and alone.phis[1, -2] == 0.0
    after = make_run(32, L2_SETS[1], "linear", 0.5, 1e-4, "semi_implicit", 2, 1)
    assert_batch_matches_reference([run, after])


@pytest.mark.parametrize("scheme, dt", [("semi_implicit", 1e-4), ("explicit", 1e-5)])
def test_batch_with_an_infinite_guard_reaches_t_end(scheme, dt):
    p = SolverParams(dt, scheme, 30 * dt, math.inf)
    runs = [
        (make_state(RadialGrid(n), lambda r: a * r), c, p, 7)
        for n, c, a in ((64, L2_SETS[1], 3.4), (100, L2_SETS[2], 1.0))
    ]
    for trace in assert_batch_matches_reference(runs):
        assert not trace.halted
        assert trace.times[-1] == 30 * dt


@pytest.mark.parametrize("scheme, dt", [("semi_implicit", 1e-4), ("explicit", 1e-5)])
def test_a_run_whose_doubled_end_value_overflows_marches_as_it_would_alone(scheme, dt):
    # phi = 0 but phi(1) = 1e308, so 2 phi(1) is inf; in a batch the end
    # node is an identity row whose step would take sin and cos of it
    phi = np.zeros(65)
    phi[-1] = 1e308
    p = SolverParams(dt, scheme, 5 * dt, math.inf)
    huge = (RadialState(RadialGrid(64), phi), L2_SETS[1], p, 1)
    other = (make_state(RadialGrid(32), lambda r: 2.0 * r), L2_SETS[2], p, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # the t0 guard's numerators
        alone = simulate(*huge)
        traces = assert_batch_matches_reference([huge, other])
    assert np.array_equal(traces[0].times, alone.times)
    assert np.array_equal(traces[0].phis, alone.phis)
    assert traces[0].halt_reason == alone.halt_reason
    assert traces[1].times[-1] == 5 * dt
    if scheme == "semi_implicit":  # RK4's interior stencil overflows next to phi(1)
        assert not alone.halted and alone.n_snapshots == 6


def test_finite_right_hand_side_whose_sum_overflows_marches_without_a_warning():
    # the right-hand side sums past the largest double, every entry finite;
    # the finite check must not halt the run or warn
    grid = RadialGrid(256)
    state0 = make_state(grid, lambda r: 1e307 * r)
    p = SolverParams(dt=1e-4, t_end=5e-4, clip_guard=math.inf)
    rhs = reference_cn_system(state0.phi, grid, L2_SETS[1], p.dt)[2]
    assert np.all(np.isfinite(rhs))
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(rhs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (trace,) = assert_batch_matches_reference([(state0, L2_SETS[1], p, 1)])
    assert not trace.halted and trace.n_snapshots == 6
