"""Whole-trace diagnostics against reference copies of their per-snapshot
forms.

The references below are the energy, local-energy, origin-gradient and
gradient-guard formulas as they were written for one state at a time.  The
program evaluates them over a whole recorded trace, in blocks of rows; every
value must agree with the reference bit for bit, whatever the block size.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nematiclab import axisym
from nematiclab.axisym import (
    RadialGrid,
    RadialState,
    SolverParams,
    energy,
    first_derivative,
    make_state,
    simulate,
)
from nematiclab.blowup import detect
from nematiclab.coeffs import LeslieCoefficients

L2_ZERO = LeslieCoefficients(0, -0.5, 0.5, 1, 0, 0.0)
RADIUS = 0.05


def reference_first_derivative(f, h):
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def reference_energy(phi, grid):
    r = grid.r
    d1 = reference_first_derivative(phi, grid.dr)
    grad_integrand = d1**2 * r
    sin_integrand = np.empty_like(r)
    sin_integrand[0] = 0.0
    sin_integrand[1:] = np.sin(phi[1:]) ** 2 / r[1:]
    e_grad = float(np.trapezoid(grad_integrand, r))
    e_sin = float(np.trapezoid(sin_integrand, r))
    return e_grad + e_sin, e_grad, e_sin


def reference_local_energy(phi, grid, R):
    dr = grid.dr
    r = grid.r
    integrand = reference_first_derivative(phi, dr) ** 2 * r
    k = int(np.floor(R / dr + 1e-12))
    total = float(np.trapezoid(integrand[: k + 1], r[: k + 1]))
    if k < grid.n_cells and R > r[k]:
        frac = (R - r[k]) / dr
        f_r = integrand[k] + frac * (integrand[k + 1] - integrand[k])
        total += 0.5 * (integrand[k] + f_r) * (R - r[k])
    return total


def reference_origin_gradient(phi, grid):
    return float((4.0 * phi[1] - phi[2]) / (2.0 * grid.dr))


def reference_origin_gradients(trace):
    """``reference_origin_gradient`` of every snapshot, as ``detect`` takes
    it."""
    return (4.0 * trace.phis[:, 1] - trace.phis[:, 2]) / (2.0 * trace.grid.dr)


def reference_max_gradient(phi, grid):
    return float(np.max(np.abs(reference_first_derivative(phi, grid.dr))))


def max_gradient(state):
    """The largest absolute numerator of the derivative, as the gradient
    guard forms it, over 2 dr: the guard decides on the numerator against a
    threshold that decides as this quotient does (DECISIONS.md section 7)."""
    starts, ends = np.array([0]), np.array([state.grid.n_cells])
    stencils = axisym._end_stencils(starts, ends)
    num = axisym._max_numerators(state.phi, stencils, starts, np.empty_like(state.phi))
    return float(num[0]) / (2.0 * state.grid.dr)


def reference_columns(trace, R):
    """Per-snapshot reference values as columns: e_total, e_grad, e_sin,
    local energy at R, origin gradient."""
    rows = [
        (*reference_energy(phi, trace.grid), reference_local_energy(phi, trace.grid, R),
         reference_origin_gradient(phi, trace.grid))
        for phi in trace.phis
    ]
    return np.array(rows).T


def assert_trace_matches(trace, R):
    e_total, e_grad, e_sin, le, grad = reference_columns(trace, R)
    got = energy(trace.grid, trace.phis, R)
    assert np.array_equal(got[0], e_total)
    assert np.array_equal(got[1], e_grad)
    assert np.array_equal(got[2], e_sin)
    assert np.array_equal(got[3], le)
    assert got[4].tobytes() == grad.tobytes()  # signed zeros too


@pytest.fixture(scope="module")
def blowup_trace():
    # boundary angle above pi: the origin gradient grows through the
    # resolvable range and on to the discrete step profile, as in a blow-up
    # run, whose guard 4/dr lets it continue past detection
    grid = RadialGrid(64)
    state0 = make_state(grid, lambda r: 1.2 * np.pi * r)
    params = SolverParams(dt=1e-3, t_end=1.0, clip_guard=4.0 / grid.dr)
    trace = simulate(state0, L2_ZERO, params)
    grads = reference_origin_gradients(trace)
    first = np.flatnonzero(grads > 0.5 / grid.dr)[0]
    assert detect(trace, grads, trace.phis[first]).t_detect < 0.5
    return trace


@pytest.fixture(scope="module")
def global_trace():
    grid = RadialGrid(100)
    state0 = make_state(grid, lambda r: (np.pi - 0.1) * r)
    trace = simulate(state0, L2_ZERO, SolverParams(dt=1e-3, t_end=0.3), 3)
    assert not trace.halted
    return trace


def test_blowup_trace_matches_reference(blowup_trace):
    assert_trace_matches(blowup_trace, RADIUS)


def test_halted_trace_matches_reference(blowup_trace):
    # the same data under the default guard 0.5/dr halts early
    grid = blowup_trace.grid
    state0 = make_state(grid, blowup_trace.phis[0])
    trace = simulate(state0, L2_ZERO, SolverParams(dt=1e-3, t_end=1.0), 7)
    assert trace.halted and trace.halt_reason == "gradient guard"
    assert_trace_matches(trace, RADIUS)


def test_global_trace_matches_reference_at_several_radii(global_trace):
    dr = global_trace.grid.dr
    for R in (2.0 * dr, 0.05, 0.333, 1.0 - 0.5 * dr, 1.0):
        assert_trace_matches(global_trace, R)


def test_single_state_matches_reference(blowup_trace):
    grid = blowup_trace.grid
    for i in (0, len(blowup_trace.times) // 2, -1):
        phi = blowup_trace.phis[i]
        phis = phi[np.newaxis]
        got = tuple(e[0] for e in energy(grid, phis, RADIUS))
        assert got[:3] == reference_energy(phi, grid)
        assert got[3] == reference_local_energy(phi, grid, RADIUS)
        assert got[4] == reference_origin_gradient(phi, grid)
        assert max_gradient(RadialState(grid, phi)) == reference_max_gradient(phi, grid)


@pytest.mark.parametrize("rows", [1, 7, 10**6])
def test_any_block_size_gives_the_same_values(blowup_trace, monkeypatch, rows):
    # R inside a cell, on a node, at 2 dr, in the last cell (k = n - 1),
    # where the local energy's last stencil is the row's one-sided end, and
    # at 1, where it takes the whole row
    dr = blowup_trace.grid.dr
    radii = (RADIUS, 10.0 * dr, 2.0 * dr, 1.0 - 0.5 * dr, 1.0)
    n_nodes = blowup_trace.grid.n_cells + 1
    for R in radii:
        monkeypatch.setattr(axisym, "CHUNK_VALUES", rows * n_nodes)
        assert_trace_matches(blowup_trace, R)
        # and a budget below one row still walks row by row
        monkeypatch.setattr(axisym, "CHUNK_VALUES", 1)
        head = dataclasses.replace(
            blowup_trace, times=blowup_trace.times[:9], phis=blowup_trace.phis[:9]
        )
        assert_trace_matches(head, R)


def test_energy_memory_does_not_grow_with_the_trace():
    # the walk keeps no block temporary past its block: a version that kept
    # a view of each block's derivative, for phi_r(0), held a trace-sized
    # array and raised blowup_dense's peak RSS from 197 to 296 MB
    grid = RadialGrid(256)
    phis = np.tile(3.0 * grid.r, (6000, 1))
    energy(grid, phis[:10], RADIUS)  # first-call allocations
    tracemalloc.start()
    try:
        energy(grid, phis, RADIUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < phis.nbytes / 2, peak  # measured 2.8 MB of an 11.8 MB trace


@settings(max_examples=300, deadline=None)
@given(
    n_cells=st.integers(16, 80),
    scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8, 1e307]),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_gradient_equals_max_of_the_derivative(n_cells, scale, seed):
    # at 1e307 the stencils overflow to inf and to nan, which must come out
    # the same way
    rng = np.random.default_rng(seed)
    phi = scale * rng.standard_normal(n_cells + 1) * rng.uniform(0.0, 1.0, n_cells + 1)
    state = RadialState(RadialGrid(n_cells), phi)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.max(np.abs(first_derivative(phi, state.grid.dr)))
        assert np.array_equal(max_gradient(state), expected, equal_nan=True)


def test_max_gradient_keeps_nan_from_overflowing_end_stencils():
    # -3*1e308 + 4*1e308 is -inf + inf: the old maximum was nan, which never
    # trips the guard, and so is the new one
    state = RadialState(RadialGrid(16), np.full(17, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(reference_max_gradient(state.phi, state.grid))
        assert np.isnan(max_gradient(state))


def ulps_around(t):
    """t and the three doubles on each side of it."""
    out = [t]
    for direction in (-math.inf, math.inf):
        x = t
        for _ in range(3):
            x = math.nextafter(x, direction)
            out.append(x)
    return out


@given(
    n=st.one_of(st.sampled_from([16, 17, 1000, 1024, 2**20]), st.integers(16, 2**20)),
    clip_guard=st.sampled_from([None, 1.0, 50.0, 1e300, math.inf]),
    x=st.floats(allow_nan=True, allow_infinity=True),
)
@settings(max_examples=300, deadline=None)
def test_guard_threshold_decides_as_the_division_by_two_dr(n, clip_guard, x):
    # the batch compares each run's largest numerator with a threshold; it
    # must trip exactly where the largest numerator over 2 dr passes the
    # guard, as a lone run's check does (None is the default guard 0.5/dr)
    grid = RadialGrid(n)
    guard = SolverParams(dt=1e-4, clip_guard=clip_guard).guard_for(grid)
    two_dr = 2.0 * grid.dr
    t = axisym._guard_threshold(guard, two_dr)
    for value in ulps_around(t) + [x, 0.0, math.inf, math.nan]:
        assert (value > t) == (value / two_dr > guard), (n, guard, value, t)


# ---------------------------------------------------------------------------
# simulate returns exactly the rows it wrote


def _every_step(trace_params, state0):
    return simulate(state0, L2_ZERO, trace_params, 1)


def _expected_rows(k_last, stride):
    """Step numbers a run ending at step k_last records at this stride."""
    ks = list(range(0, k_last + 1, stride))
    return ks if ks[-1] == k_last else ks + [k_last]


def _assert_rows(trace, full, ks):
    assert len(trace.times) == len(ks)
    assert np.array_equal(trace.times, full.times[ks])
    assert np.array_equal(trace.phis, full.phis[ks])


def test_simulate_rows_when_halted_on_a_stride_step(blowup_trace):
    grid = blowup_trace.grid
    state0 = make_state(grid, blowup_trace.phis[0])
    params = SolverParams(dt=1e-3, t_end=1.0)
    full = _every_step(params, state0)
    assert full.halted
    k_last = len(full.times) - 1
    stride = next(s for s in range(5, k_last) if k_last % s == 0)
    trace = simulate(state0, L2_ZERO, params, stride)
    assert trace.halted
    _assert_rows(trace, full, _expected_rows(k_last, stride))


def test_simulate_rows_when_halted_off_a_stride_step(blowup_trace):
    grid = blowup_trace.grid
    state0 = make_state(grid, blowup_trace.phis[0])
    params = SolverParams(dt=1e-3, t_end=1.0)
    full = _every_step(params, state0)
    k_last = len(full.times) - 1
    stride = next(s for s in range(5, k_last) if k_last % s != 0)
    trace = simulate(state0, L2_ZERO, params, stride)
    assert trace.halted
    _assert_rows(trace, full, _expected_rows(k_last, stride))


def test_simulate_rows_when_the_stride_does_not_divide_the_steps():
    grid = RadialGrid(32)
    state0 = make_state(grid, lambda r: 0.5 * r)
    params = SolverParams(dt=1e-3, t_end=0.1)
    full = _every_step(params, state0)
    trace = simulate(state0, L2_ZERO, params, 7)
    assert not trace.halted
    ks = _expected_rows(100, 7)
    assert ks[-2:] == [98, 100]
    _assert_rows(trace, full, ks)


def test_simulate_rows_when_the_initial_state_trips_the_guard():
    grid = RadialGrid(32)
    state0 = make_state(grid, lambda r: 3.0 * r)
    params = SolverParams(dt=1e-3, t_end=0.1, clip_guard=1.0)
    trace = simulate(state0, L2_ZERO, params, 3)
    assert trace.halted and trace.halt_reason == "gradient guard"
    assert np.array_equal(trace.times, [0.0])
    assert np.array_equal(trace.phis, state0.phi[np.newaxis])
