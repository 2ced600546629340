import math

import numpy as np
import pytest

from nematiclab.coeffs import LeslieCoefficients, simplified_coefficients
from nematiclab.poiseuille import (
    IntervalGrid,
    PoiseuilleState,
    counterexample_bc,
    counterexample_run,
    energy_identity_residual,
    heat_reduction_check,
    homogeneous_bc,
    plan_run,
    simulate,
    stability_bound,
    step_general,
    step_simplified,
    velocity_potential,
)

SIMPLIFIED = simplified_coefficients()


def _compact_state(n, L=10.0, amplitude=1.0):
    grid = IntervalGrid(L, n)
    return PoiseuilleState(
        grid, w=amplitude * grid.x * np.exp(-(grid.x**2)), phi=np.zeros(n + 1)
    )


def _first_derivative(f, dx):
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2 * dx)
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * dx)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * dx)
    return out


# ---------------------------------------------------------------------------
# stepping


def test_rest_state_is_equilibrium():
    grid = IntervalGrid(5.0, 64)
    state = PoiseuilleState(grid, w=np.zeros(65), phi=np.zeros(65))
    out = state
    for _ in range(20):
        out = step_general(out, SIMPLIFIED, 1e-4, homogeneous_bc())
    assert np.all(out.w == 0.0) and np.all(out.phi == 0.0)


def test_step_rejects_unstable_dt():
    grid = IntervalGrid(5.0, 128)
    state = PoiseuilleState(grid, w=np.zeros(129), phi=np.zeros(129))
    bound = stability_bound(grid, SIMPLIFIED, state.phi)
    with pytest.raises(ValueError, match="stability"):
        step_general(state, SIMPLIFIED, 1.1 * bound, homogeneous_bc())


def test_dual_route_simplified_agreement():
    # flux-form general stepper vs the hard-coded simplified stencils
    grid = IntervalGrid(5.0, 128)
    x = grid.x
    state_a = PoiseuilleState(
        grid, w=np.sin(np.pi * x / 5.0), phi=0.3 * np.cos(np.pi * x / 10.0)
    )
    state_b = PoiseuilleState(grid, state_a.w.copy(), state_a.phi.copy())
    dt = 0.5 * stability_bound(grid, SIMPLIFIED, state_a.phi)
    bc = homogeneous_bc()
    for _ in range(5):
        state_a = step_general(state_a, SIMPLIFIED, dt, bc)
        state_b = step_simplified(state_b, dt, bc)
    assert np.max(np.abs(state_a.w - state_b.w)) <= 1e-12
    assert np.max(np.abs(state_a.phi - state_b.phi)) <= 1e-12


def test_exact_pair_is_discrete_fixed_profile():
    # w = -2x stays put and phi advances by exactly dt each step
    L, n = 5.0, 100
    grid = IntervalGrid(L, n)
    state = PoiseuilleState(grid, w=-2.0 * grid.x, phi=np.zeros(n + 1))
    dt = 0.5 * stability_bound(grid, SIMPLIFIED, state.phi)
    out = step_general(state, SIMPLIFIED, dt, counterexample_bc(L))
    assert np.max(np.abs(out.w + 2.0 * grid.x)) <= 1e-14
    assert np.max(np.abs(out.phi - dt)) <= 1e-15


# ---------------------------------------------------------------------------
# the counterexample


def test_counterexample_matches_exact_solution():
    report, _ = counterexample_run(L=5.0, n=200, t_end=1.0)
    assert report.max_phi_initial == 0.0
    assert report.max_phi_error <= 1e-6  # measured 8e-14
    assert report.max_w_error <= 1e-8  # measured 2e-15
    assert report.heat_residual <= 1e-6  # measured 1e-11
    assert report.maximum_principle_violated
    assert report.max_phi_final == pytest.approx(1.0, abs=1e-6)


def test_counterexample_boundary_warning_on_energy_identity():
    _, trace = counterexample_run(L=5.0, n=100, t_end=0.05)
    assert energy_identity_residual(trace).boundary_warning


def test_simulate_ends_exactly_at_t_end_without_drift():
    grid = IntervalGrid(5.0, 64)
    state = PoiseuilleState(grid, w=-2.0 * grid.x, phi=np.zeros(65))
    trace = simulate(state, SIMPLIFIED, 1e-3, 0.011, counterexample_bc(5.0), 1)
    assert list(trace.times) == [k * 1e-3 for k in range(11)] + [0.011]
    # the boundary data are taken at the recorded time
    assert np.all(trace.phis[:, 0] == trace.times)
    with pytest.raises(ValueError, match="whole number"):
        simulate(state, SIMPLIFIED, 1e-3, 0.0105, counterexample_bc(5.0), 1)


def test_plan_run_default_dt_takes_whole_steps_under_the_bound():
    grid = IntervalGrid(10.0, 64)
    bound = stability_bound(grid, SIMPLIFIED, np.zeros(65))
    dt, stride = plan_run(grid, SIMPLIFIED, 0.5)
    assert dt <= 0.8 * bound
    assert 0.5 / dt == round(0.5 / dt) == math.ceil(0.5 / (0.8 * bound))
    assert stride == 1
    with pytest.raises(ValueError, match="stability bound"):
        plan_run(grid, SIMPLIFIED, 0.5, dt=1.01 * bound)
    with pytest.raises(ValueError, match="3 snapshots"):
        plan_run(grid, SIMPLIFIED, 0.5, snapshot_stride=10**6)


# ---------------------------------------------------------------------------
# heat-equation reduction of v + phi


def test_heat_reduction_zero_data():
    grid = IntervalGrid(5.0, 64)
    state = PoiseuilleState(grid, w=np.zeros(65), phi=np.zeros(65))
    trace = simulate(state, SIMPLIFIED, 1e-4, 0.01, homogeneous_bc(), 10)
    assert heat_reduction_check(trace) == 0.0


def test_heat_reduction_needs_three_snapshots():
    grid = IntervalGrid(5.0, 64)
    state = PoiseuilleState(grid, w=np.zeros(65), phi=np.zeros(65))
    trace = simulate(state, SIMPLIFIED, 1e-3, 1e-3, homogeneous_bc(), 1)
    with pytest.raises(ValueError, match="3 snapshots"):
        heat_reduction_check(trace)


def test_heat_reduction_refines_at_second_order():
    def residual(n, dt):
        trace = simulate(
            _compact_state(n), SIMPLIFIED, dt, 0.01, homogeneous_bc(), 10
        )
        return heat_reduction_check(trace)

    r_coarse = residual(512, 2e-5)
    r_fine = residual(1024, 5e-6)
    assert r_coarse / r_fine >= 2.5  # measured 3.97 under (dx/2, dt/4)


# ---------------------------------------------------------------------------
# energy identity


def test_energy_identity_compact_pulse():
    state = _compact_state(512)
    dt, _ = plan_run(state.grid, SIMPLIFIED, 0.02, snapshot_stride=10)
    trace = simulate(state, SIMPLIFIED, dt, 0.02, homogeneous_bc(), 10)
    result = energy_identity_residual(trace)
    assert not result.boundary_warning
    assert result.residual <= 5e-3
    # dissipation: energy never increases beyond the identity residual
    de = np.diff(result.energies) / np.diff(trace.times)
    assert np.all(de <= result.residual)
    assert result.energies[-1] < result.energies[0]


def test_energy_identity_zero_data():
    grid = IntervalGrid(5.0, 64)
    state = PoiseuilleState(grid, w=np.zeros(65), phi=np.zeros(65))
    trace = simulate(state, SIMPLIFIED, 1e-4, 0.01, homogeneous_bc(), 10)
    assert energy_identity_residual(trace).residual == 0.0


# ---------------------------------------------------------------------------
# the velocity potential


def test_v_recovery_second_order():
    errs = {}
    for n in (512, 1024):
        trace = simulate(
            _compact_state(n), SIMPLIFIED, 5e-6, 0.005, homogeneous_bc(), 100
        )
        worst = 0.0
        for i in range(trace.n_snapshots):
            v = velocity_potential(trace, i)
            worst = max(
                worst,
                float(np.max(np.abs(_first_derivative(v, trace.grid.dx) - trace.ws[i]))),
            )
        errs[n] = worst
    assert errs[512] <= 1e-3  # measured 7.4e-4
    assert errs[512] / errs[1024] >= 3.5  # measured 3.99


def test_counterexample_potential_matches_closed_form():
    _, trace = counterexample_run(L=5.0, n=100, t_end=0.1)
    i = trace.n_snapshots - 1
    v = velocity_potential(trace, i)
    exact = -trace.grid.x**2 - 3.0 * trace.times[i]
    assert np.max(np.abs(v - exact)) <= 1e-8


# ---------------------------------------------------------------------------
# generic coefficients


def test_step_general_runs_with_generic_coefficients():
    coeffs = LeslieCoefficients(0.3, -0.7, 0.9, 2.0, 0.1, 0.3)
    assert coeffs.lambda1 > 0
    state = _compact_state(128, L=5.0, amplitude=0.5)
    dt = 0.5 * stability_bound(state.grid, coeffs, state.phi)
    trace = simulate(state, coeffs, dt, 50 * dt, homogeneous_bc(), 10)
    assert np.all(np.isfinite(trace.ws)) and np.all(np.isfinite(trace.phis))
    # angle responds to the shear through h(phi) w_x
    assert np.max(np.abs(trace.phis[-1])) > 0.0
