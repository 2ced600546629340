"""The Crank-Nicolson step against a reference copy of its original form.

The reference rebuilds the tridiagonal bands on every step, solves with
``scipy.linalg.solve_banded`` and evaluates the reaction term twice.  The
cached-band step in ``nematiclab.axisym``, driven through ``simulate`` (a
batch of one run), must agree with it bit for bit.
"""

import numpy as np
from scipy.linalg import solve_banded

from nematiclab.axisym import RadialGrid, RadialState, SolverParams, make_state, rhs, simulate
from nematiclab.coeffs import LeslieCoefficients

L2_HALF = LeslieCoefficients(0, -0.25, 0.75, 1, 0, 0.5)  # lambda1=1, lambda2=0.5
L2_NEG = LeslieCoefficients(0, -0.75, 0.75, 1, 0, -0.5)  # lambda1=1.5, lambda2=-0.5


def reference_rhs(phi, grid, c):
    dr = grid.dr
    r = grid.r[1:-1]
    p = phi[1:-1]
    d1 = (phi[2:] - phi[:-2]) / (2.0 * dr)
    d2 = (phi[2:] - 2.0 * p + phi[:-2]) / dr**2
    reaction = -np.sin(2.0 * p) / (2.0 * r**2) - 3.0 * c.lambda2 * np.sin(p) * np.cos(p)
    return (d2 + d1 / r + reaction) / c.lambda1 - r * d1


def reference_explicit_terms(phi, grid, c):
    dr = grid.dr
    r = grid.r[1:-1]
    p = phi[1:-1]
    d1 = (phi[2:] - phi[:-2]) / (2.0 * dr)
    reaction = -np.sin(2.0 * p) / (2.0 * r**2) - 3.0 * c.lambda2 * np.sin(p) * np.cos(p)
    return reaction / c.lambda1 - r * d1


def reference_step_cn(phi, grid, c, dt):
    dr = grid.dr
    r = grid.r[1:-1]
    n = grid.n_cells
    theta = dt / (2.0 * c.lambda1)

    lower = 1.0 / dr**2 - 1.0 / (2.0 * dr * r)
    diag = np.full(n - 1, -2.0 / dr**2)
    upper = 1.0 / dr**2 + 1.0 / (2.0 * dr * r)

    interior = phi[1:-1]
    l_phi = diag * interior
    l_phi[:-1] += upper[:-1] * interior[1:]
    l_phi[1:] += lower[1:] * interior[:-1]
    bvec = np.zeros(n - 1)
    bvec[-1] = upper[-1] * phi[-1]

    damp = np.maximum(np.cos(2.0 * interior), 0.0) / (c.lambda1 * r**2)
    rhs_vec = (
        interior * (1.0 + dt * damp)
        + theta * (l_phi + 2.0 * bvec)
        + dt * reference_explicit_terms(phi, grid, c)
    )

    ab = np.zeros((3, n - 1))
    ab[0, 1:] = -theta * upper[:-1]
    ab[1, :] = 1.0 - theta * diag + dt * damp
    ab[2, :-1] = -theta * lower[1:]
    out = phi.copy()
    out[1:-1] = solve_banded((1, 1), ab, rhs_vec)
    out[0] = 0.0
    out[-1] = phi[-1]
    return out


def program_step(state, c, dt):
    """One step of the program: a batch of one run that is one step long."""
    trace = simulate(state, c, SolverParams(dt=dt, t_end=state.t + dt))
    assert not trace.halted and trace.n_snapshots == 2
    return RadialState(trace.grid, trace.phis[-1], float(trace.times[-1]))


def march_both(grid, c, phi0, dts, n_steps=200):
    """Step the program and the reference side by side, cycling through
    ``dts``; return the number of steps on which cos(2 phi) changed sign
    somewhere in the interior."""
    state = make_state(grid, phi0)
    ref = state.phi.copy()
    sign_flips = 0
    for k in range(n_steps):
        dt = dts[k % len(dts)]
        before = np.cos(2.0 * ref[1:-1]) > 0.0
        state = program_step(state, c, dt)
        ref = reference_step_cn(ref, grid, c, dt)
        assert np.array_equal(state.phi, ref), f"step {k + 1} (dt={dt}) differs"
        sign_flips += bool(np.any(before != (np.cos(2.0 * ref[1:-1]) > 0.0)))
    return sign_flips


def test_cn_step_matches_reference_below_pi():
    grid = RadialGrid(128)
    march_both(grid, L2_HALF, lambda r: 0.95 * np.pi * r, [1e-4])


def test_cn_step_matches_reference_above_pi_with_damping_switching():
    # data above pi: cos(2 phi) changes sign across the profile and the
    # damping term switches on and off at nodes as the profile moves
    grid = RadialGrid(96)
    phi0 = lambda r: 1.07 * np.pi * r + 0.3 * np.sin(3.0 * np.pi * r)
    flips = march_both(grid, L2_NEG, phi0, [2e-4])
    assert flips > 0


def test_cn_step_matches_reference_with_alternating_dt():
    # two step sizes on one grid and one coefficient set: a cache keyed on
    # (grid, coeffs) alone would reuse the wrong bands
    grid = RadialGrid(64)
    march_both(grid, L2_HALF, lambda r: 2.5 * r, [1e-4, 3e-4])


def test_rhs_matches_reference():
    for n, c in ((64, L2_HALF), (200, L2_NEG)):
        grid = RadialGrid(n)
        state = make_state(grid, lambda r: 3.5 * r + 0.2 * np.sin(5.0 * r))
        assert np.array_equal(rhs(state, c), reference_rhs(state.phi, grid, c))
