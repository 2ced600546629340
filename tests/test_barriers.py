import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematiclab.axisym import RadialGrid, SolverParams, initial_profile, make_state, simulate
from nematiclab.barriers import (
    BetaClock,
    OrderingScan,
    barrier_residual,
    barrier_value,
    check_ordering,
    eta_barrier,
    subsolution,
    supersolution,
)
from nematiclab.coeffs import LeslieCoefficients, sample_validated, simplified_coefficients

L2_ZERO = LeslieCoefficients(0, -0.5, 0.5, 1, 0, 0.0)


# ---------------------------------------------------------------------------
# the concentration clock


def test_clock_initial_value_and_expiry():
    clock = BetaClock(1e-3)
    assert clock.beta(0.0) == pytest.approx(1e-3, rel=1e-14)
    assert clock.t0 == pytest.approx(0.3, rel=1e-14)
    with pytest.raises(ValueError, match="expired"):
        clock.beta(0.31)
    with pytest.raises(ValueError, match="expired"):
        clock.beta(clock.t0)


def test_clock_closed_form_solves_its_ode():
    # d beta/dt + beta^(2/3) = 0, checked by central differencing
    clock = BetaClock(1e-3)
    h = 1e-5
    for t in np.linspace(0.01, 0.28, 25):
        dbeta = (clock.beta(t + h) - clock.beta(t - h)) / (2 * h)
        assert abs(dbeta + clock.beta(t) ** (2.0 / 3.0)) <= 1e-10


def test_clock_specific_value():
    # beta0 = 1e-3: beta^(1/3)(0.15) = (0.3 - 0.15)/3 = 0.05
    assert BetaClock(1e-3).beta(0.15) == pytest.approx(1.25e-4, abs=1e-12)


# ---------------------------------------------------------------------------
# values


def test_supersolution_value_example():
    spec = supersolution(1.0, L2_ZERO)
    assert spec.b == 0.0
    assert barrier_value(spec, 1.0, 0.0) == pytest.approx(np.pi / 2, abs=1e-14)


def test_eta_origin_slope_diverges_toward_t0():
    spec = eta_barrier(1e-3, L2_ZERO)
    clock = spec.clock()
    slopes = [2.0 / clock.beta(t) for t in (0.1, 0.25, 0.29, 0.299)]
    assert all(b > a for a, b in zip(slopes, slopes[1:]))
    assert slopes[-1] > 1e8
    # value matches the profile built from the clock
    r = np.linspace(0, 1, 11)
    assert np.allclose(
        barrier_value(spec, r, 0.2), 2 * np.arctan(r / clock.beta(0.2))
    )


def test_eta_constraint_checked_at_construction():
    coeffs = LeslieCoefficients(0, -0.25, 0.75, 1, 0, 0.5)  # limit = 1/2.5 = 0.4
    with pytest.raises(ValueError, match="beta0"):
        eta_barrier(0.4**3 + 1e-6, coeffs)
    eta_barrier(0.39**3, coeffs)  # inside the window
    eta_barrier(0.5, coeffs, strict=False)  # escape hatch for controls


def test_boundary_inequality_for_blowup_setup():
    # eta(1, t) <= pi < phi0(1) for all t before the clock expires
    spec = eta_barrier(1e-3, L2_ZERO)
    ts = np.linspace(0.0, 0.299, 50)
    vals = barrier_value(spec, 1.0, ts)
    assert np.all(vals < np.pi)
    assert np.pi < 1.05 * np.pi


# ---------------------------------------------------------------------------
# residual signs (closed forms, no tolerance)


def test_super_residual_examples():
    spec = supersolution(1.0, L2_ZERO)
    assert barrier_residual(spec, L2_ZERO, 0.0, 0.3) == 0.0
    assert barrier_residual(spec, L2_ZERO, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_eta_residual_nonpositive_on_dense_sample():
    spec = eta_barrier(1e-3, L2_ZERO)
    r = np.linspace(0.01, 1.0, 100)[np.newaxis, :]
    t = np.linspace(0.0, 0.29, 100)[:, np.newaxis]
    res = barrier_residual(spec, L2_ZERO, r, t)
    assert np.max(res) <= 0.0


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_residual_signs_for_random_validated_sets(seed):
    coeffs = sample_validated(np.random.default_rng(seed))
    r = np.linspace(0.01, 1.0, 40)[np.newaxis, :]
    t = np.linspace(0.0, 5.0, 40)[:, np.newaxis]
    assert np.min(barrier_residual(supersolution(1.0, coeffs), coeffs, r, t)) >= 0.0
    assert np.max(barrier_residual(subsolution(1.0, coeffs), coeffs, r, t)) <= 0.0

    limit = coeffs.lambda1 / (coeffs.lambda1 + 3 * abs(coeffs.lambda2))
    eta = eta_barrier((0.5 * limit) ** 3, coeffs)
    t_eta = np.linspace(0.0, 0.99 * eta.clock().t0, 40)[:, np.newaxis]
    assert np.max(barrier_residual(eta, coeffs, r, t_eta)) <= 0.0


def test_negative_control_produces_positive_sample():
    # clock started past the admissible window: for the simplified set any
    # beta0 above 1 makes the bracket positive while beta(t) > 1
    coeffs = simplified_coefficients()
    spec = eta_barrier(1.05**3, coeffs, strict=False)
    r = np.linspace(0.01, 1.0, 50)[np.newaxis, :]
    t = np.linspace(1e-3, 0.14, 50)[:, np.newaxis]
    assert np.max(barrier_residual(spec, coeffs, r, t)) > 0.0


def test_negative_control_fires_for_positive_lambda2():
    coeffs = LeslieCoefficients(0, -0.25, 0.75, 1, 0, 0.5)  # limit 0.4
    spec = eta_barrier(0.7**3, coeffs, strict=False)  # violates 0.7 > 0.4
    r = np.linspace(0.001, 1.0, 200)[np.newaxis, :]
    t = np.linspace(0.0, 0.2, 50)[:, np.newaxis]
    assert np.max(barrier_residual(spec, coeffs, r, t)) > 0.0


def test_super_residual_stable_under_exponent_overflow():
    coeffs = LeslieCoefficients(0, -2.0, 2.0, 10.0, 0.0, 0.0)
    spec = supersolution(1.0, coeffs)
    object.__setattr__(spec, "b", 200.0)  # force an extreme exponent
    val = barrier_residual(spec, coeffs, 0.5, 5.0)
    assert np.isfinite(val) and val >= 0.0


# ---------------------------------------------------------------------------
# ordering harness


def check_ordering_of(sub, trace, sup):
    """``check_ordering`` over a whole trace, and its report."""
    scan = OrderingScan(sub, sup, trace.grid, trace.params.dt, trace.n_snapshots)
    check_ordering(scan, trace.times, trace.phis)
    return scan.report(trace.times)


def _global_trace(n=128, t_end=0.3):
    grid = RadialGrid(n)
    state0 = make_state(grid, lambda r: (np.pi - 0.1) * r)
    params = SolverParams(dt=1e-4, scheme="semi_implicit", t_end=t_end)
    return simulate(state0, L2_ZERO, params, snapshot_stride=20)


def test_ordering_holds_on_global_run():
    trace = _global_trace()
    report = check_ordering_of(
        subsolution(0.05, L2_ZERO), trace, supersolution(0.05, L2_ZERO)
    )
    assert report.passed
    assert report.lower_worst <= report.tolerance
    assert report.upper_worst <= report.tolerance


def test_ordering_precondition_rejects_misconfiguration():
    trace = _global_trace(t_end=0.01)
    # c chosen so the "supersolution" starts below the data: harness error
    with pytest.raises(ValueError, match="precondition"):
        check_ordering_of(None, trace, supersolution(30.0, L2_ZERO))


def test_ordering_requires_some_barrier():
    trace = _global_trace(t_end=0.01)
    with pytest.raises(ValueError, match="at least one"):
        check_ordering_of(None, trace, None)


def test_run_started_at_supersolution_falls_below_it():
    # residual >= 0 pushes the evolved solution under the barrier
    c = 0.3
    grid = RadialGrid(256)
    state0 = make_state(grid, lambda r: 2 * np.arctan(r / c))
    params = SolverParams(dt=1e-4, scheme="semi_implicit", t_end=0.2)
    trace = simulate(state0, L2_ZERO, params, snapshot_stride=20)
    report = check_ordering_of(None, trace, supersolution(c, L2_ZERO))
    assert report.passed  # never rises above
    final = trace.phis[-1]
    barrier = barrier_value(supersolution(c, L2_ZERO), grid.r, trace.times[-1])
    assert np.max(barrier[1:-1] - final[1:-1]) > 0.01  # strictly below inside


def test_eta_ordering_up_to_detection_on_steep_data():
    grid = RadialGrid(256)
    phi0 = initial_profile(grid, "bubble_linear_max", beta0=1e-3, amplitude=1.05 * np.pi)
    state0 = make_state(grid, phi0)
    params = SolverParams(dt=1e-4, scheme="semi_implicit", t_end=0.05, clip_guard=np.inf)
    trace = simulate(state0, L2_ZERO, params, snapshot_stride=10)
    # domination is guaranteed at t = 0 by construction; detection fires on
    # the first snapshot, so the checked window is that snapshot alone
    from nematiclab.blowup import detect

    grads = (4.0 * trace.phis[:, 1] - trace.phis[:, 2]) / (2.0 * grid.dr)
    report = detect(trace, grads, trace.phis[0])
    assert report.detected and report.t_detect == 0.0
    sliced = simulate(state0, L2_ZERO, params, snapshot_stride=10)
    sliced.times = sliced.times[:1]
    sliced.phis = sliced.phis[:1]
    ordering = check_ordering_of(eta_barrier(1e-3, L2_ZERO), sliced, None)
    assert ordering.passed
