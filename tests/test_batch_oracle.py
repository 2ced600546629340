"""Batched marching against a reference copy of the one-run driver.

``reference_simulate`` is the radial driver as it was before runs were
batched: one run, one step at a time, the Crank-Nicolson step with its own
bands and ``dgtsv`` call, RK4 on the interior right-hand side, the gradient
guard as the maximum of the full derivative, and a finite check after every
step.  ``simulate_batch`` marches several runs as one system; every field
of every run's trace must equal the reference's bit for bit.  The reference
forms each step from three bands and one sine coefficient per node, as the
program does; ``tests/test_cn_oracle.py`` bounds how far that order is from
the per-term order and relates the reaction to sin(phi) cos(phi).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgtsv

from nematiclab.axisym import (
    RadialGrid,
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


def reference_step_cn(phi, grid, c, dt):
    diag, upper, lower, adv, q = reference_operator(grid, c)
    r = grid.r[1:-1]
    half = 0.5 * dt
    interior = phi[1:-1]
    two_p = 2.0 * interior
    dt_damp = dt / (c.lambda1 * r**2) * np.maximum(np.cos(two_p), 0.0)
    boundary = np.zeros(grid.n_cells - 1)
    boundary[-1] = half * upper[-1] * phi[-1] + 0.0
    rhs_vec = (
        (1.0 + half * diag) * interior
        + (half * upper - dt * adv) * phi[2:]
        + (half * lower + dt * adv) * phi[:-2]
        + dt * q * np.sin(two_p)
        + boundary
        + dt_damp * interior
    )
    if not np.all(np.isfinite(rhs_vec)):
        raise SolverHalt("non-finite field")
    d = (1.0 - half * diag) + dt_damp
    _, _, _, new_interior, info = dgtsv(-half * lower[1:], d, -half * upper[:-1], rhs_vec)
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


def test_simulate_is_a_batch_of_one():
    run = make_run(200, L2_SETS[1], "wavy", 2.0, 1e-4, "semi_implicit", 50, 9)
    (batched,) = simulate_batch([run])
    alone = simulate(*run)
    assert np.array_equal(batched.times, alone.times)
    assert np.array_equal(batched.phis, alone.phis)


def test_batch_rejects_runs_that_do_not_share_scheme_and_dt():
    grid = RadialGrid(32)
    state0 = make_state(grid, lambda r: r)
    runs = [
        (state0, L2_SETS[0], SolverParams(dt=1e-4, t_end=1e-3), 1),
        (state0, L2_SETS[0], SolverParams(dt=2e-4, t_end=1e-3), 1),
    ]
    with pytest.raises(ValueError, match="share"):
        simulate_batch(runs)
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
    scheme=st.sampled_from(["semi_implicit", "explicit"]),
    members=st.lists(member, min_size=1, max_size=4),
    cn_dt=st.sampled_from([1e-4, 2.5e-4]),
)
@settings(max_examples=40, deadline=None)
def test_batch_equals_each_run_marched_alone(scheme, members, cn_dt):
    assert_batch_matches_reference(make_batch(scheme, cn_dt, members))
