"""The row-block barrier ordering check against a reference copy of its
whole-trace form.

The reference builds the full (snapshots, nodes) violation arrays and takes
np.argmax over them, as check_ordering did before it walked the trace in
blocks.  Every report field, down to the first worst node in row-major order
with nan counting as worst, must agree at any block size.
"""

import dataclasses

import numpy as np
import pytest

from nematiclab import axisym
from nematiclab.axisym import RadialGrid, SolverParams, initial_profile, make_state, simulate
from nematiclab.barriers import (
    OrderingReport,
    OrderingScan,
    barrier_value,
    check_ordering,
    eta_barrier,
    subsolution,
    supersolution,
)
from nematiclab.coeffs import LeslieCoefficients

L2_ZERO = LeslieCoefficients(0, -0.5, 0.5, 1, 0, 0.0)


def reference_check_ordering(sub, trace, sup):
    grid = trace.grid
    tol = 10.0 * (grid.dr**2 + trace.params.dt)
    r = grid.r[np.newaxis, :]
    t = trace.times[:, np.newaxis]
    phi = trace.phis
    neg_inf = np.full_like(phi, -np.inf)
    low_viol = (barrier_value(sub, r, t) - phi) if sub is not None else neg_inf
    up_viol = (phi - barrier_value(sup, r, t)) if sup is not None else neg_inf
    precondition = max(
        float(np.max(low_viol[0])),
        float(np.max(up_viol[0])),
        float(np.max(low_viol[:, [0, -1]])),
        float(np.max(up_viol[:, [0, -1]])),
    )
    if precondition > tol:
        raise ValueError(
            "ordering precondition fails at t=0 or on the boundary "
            f"(worst {precondition:.3e} > tol {tol:.3e})"
        )
    li = np.unravel_index(int(np.argmax(low_viol)), low_viol.shape)
    ui = np.unravel_index(int(np.argmax(up_viol)), up_viol.shape)
    lower_worst = float(low_viol[li])
    upper_worst = float(up_viol[ui])
    return OrderingReport(
        passed=max(lower_worst, upper_worst) <= tol,
        tolerance=tol,
        lower_worst=lower_worst,
        lower_at=(float(trace.times[li[0]]), float(grid.r[li[1]])),
        upper_worst=upper_worst,
        upper_at=(float(trace.times[ui[0]]), float(grid.r[ui[1]])),
    )


def ordering(sub, trace, sup):
    """``check_ordering`` over a whole trace, in one call, and its report."""
    scan = OrderingScan(sub, sup, trace.grid, trace.params.dt)
    check_ordering(scan, trace.times, trace.phis)
    return scan.report()


def same(a, b):
    # repr tells nan from nan and -0.0 from 0.0 apart the way JSON output does
    return repr(dataclasses.astuple(a)) == repr(dataclasses.astuple(b))


def assert_matches(sub, trace, sup):
    assert same(ordering(sub, trace, sup), reference_check_ordering(sub, trace, sup))


@pytest.fixture(scope="module")
def global_trace():
    # 3,001 snapshots of 129 nodes: six blocks at the default budget
    grid = RadialGrid(128)
    state0 = make_state(grid, lambda r: (np.pi - 0.1) * r)
    trace = simulate(state0, L2_ZERO, SolverParams(dt=1e-4, t_end=0.3), 1)
    assert trace.n_snapshots * (grid.n_cells + 1) > 5 * axisym.CHUNK_VALUES
    return trace


@pytest.fixture(scope="module")
def eta_trace():
    grid = RadialGrid(256)
    phi0 = initial_profile(grid, "bubble_linear_max", beta0=1e-3, amplitude=1.05 * np.pi)
    params = SolverParams(dt=1e-4, t_end=0.05, clip_guard=np.inf)
    return simulate(make_state(grid, phi0), L2_ZERO, params, 2)


SUB, SUP = subsolution(0.05, L2_ZERO), supersolution(0.05, L2_ZERO)
ROWS = [1, 7, 10**6]


@pytest.mark.parametrize("rows", ROWS)
def test_global_trace_matches_reference(global_trace, monkeypatch, rows):
    assert_matches(SUB, global_trace, SUP)
    assert_matches(None, global_trace, SUP)
    monkeypatch.setattr(axisym, "CHUNK_VALUES", rows * global_trace.phis.shape[1])
    assert_matches(SUB, global_trace, SUP)
    assert_matches(SUB, global_trace, None)


@pytest.mark.parametrize("rows", ROWS)
def test_one_sided_eta_trace_matches_reference(eta_trace, monkeypatch, rows):
    spec = eta_barrier(1e-3, L2_ZERO)
    report = ordering(spec, eta_trace, None)
    assert report.upper_worst == -np.inf
    assert_matches(spec, eta_trace, None)
    monkeypatch.setattr(axisym, "CHUNK_VALUES", rows * eta_trace.phis.shape[1])
    assert_matches(spec, eta_trace, None)


def _with(trace, cells):
    phis = trace.phis.copy()
    for (i, j), v in cells.items():
        phis[i, j] = v
    return dataclasses.replace(trace, phis=phis)


@pytest.mark.parametrize(
    "cells",
    [
        {(2000, 60): -5.0, (2600, 30): -5.0},  # a tie across blocks: the first wins
        {(700, 40): -5.0, (1900, 50): -5.0, (1900, 20): -5.0},  # and inside a row
        {(2500, 70): np.nan, (1200, 10): np.nan, (1000, 5): -5.0},  # the first nan wins
        {(400, 0): np.nan},  # nan on the boundary after t = 0
        {(0, 3): np.nan},  # nan at t = 0
        {(1500, 64): np.inf},
    ],
)
@pytest.mark.parametrize("rows", [7, 500])
def test_ties_and_nans_pick_the_same_node(global_trace, monkeypatch, cells, rows):
    trace = _with(global_trace, cells)
    monkeypatch.setattr(axisym, "CHUNK_VALUES", rows * trace.phis.shape[1])
    with np.errstate(invalid="ignore"):
        assert_matches(SUB, trace, SUP)
        assert_matches(SUB, trace, None)


def test_precondition_error_matches_reference(global_trace, monkeypatch):
    monkeypatch.setattr(axisym, "CHUNK_VALUES", 7 * global_trace.phis.shape[1])
    for trace in (global_trace, _with(global_trace, {(1000, 128): 9.0})):
        sup = supersolution(30.0, L2_ZERO) if trace is global_trace else SUP
        with pytest.raises(ValueError) as got:
            ordering(SUB, trace, sup)
        with pytest.raises(ValueError) as want:
            reference_check_ordering(SUB, trace, sup)
        assert str(got.value) == str(want.value)
