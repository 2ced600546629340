import numpy as np
import pytest

from nematiclab.axisym import (
    RadialGrid,
    RunTrace,
    SolverParams,
    energy,
    initial_profile,
    make_state,
    simulate,
)
from nematiclab.blowup import (
    BlowupReport,
    detect,
    extract_profile,
    fit_beta_law,
)
from nematiclab.coeffs import LeslieCoefficients

L2_ZERO = LeslieCoefficients(0, -0.5, 0.5, 1, 0, 0.0)


def _constant_trace(n_snapshots=12, n=64):
    grid = RadialGrid(n)
    phi = initial_profile(grid, "scaled_linear", amplitude=1.0)
    params = SolverParams(dt=1e-3, scheme="semi_implicit", t_end=1.0)
    times = np.linspace(0.0, 1.0, n_snapshots)
    return RunTrace(
        grid=grid,
        params=params,
        times=times,
        phis=np.tile(phi, (n_snapshots, 1)),
    )


def reference_gradient(grid, phis):
    """(4 phi_1 - phi_2) / (2 dr), the origin gradient of each snapshot
    (row) of ``phis``, or of one snapshot: what ``detect`` and
    ``extract_profile`` take, independent of ``axisym.energy``."""
    return (4.0 * phis[..., 1] - phis[..., 2]) / (2.0 * grid.dr)


def detect_on(trace):
    grads = reference_gradient(trace.grid, trace.phis)
    over = np.flatnonzero(grads > 0.5 / trace.grid.dr)
    return detect(trace, grads, trace.phis[over[0] if len(over) else -1])


# ---------------------------------------------------------------------------
# origin gradient, as the energy walk reports it


def origin_gradient(state):
    return energy(state.grid, state.phi[np.newaxis], 1.0)[4][0]


def test_origin_gradient_zero_field():
    assert origin_gradient(make_state(RadialGrid(64), lambda r: 0 * r)) == 0.0


def test_origin_gradient_bubble_within_one_percent():
    state = make_state(RadialGrid(1024), lambda r: 2 * np.arctan(r / 0.01))
    grad = origin_gradient(state)
    assert grad == pytest.approx(200.0, rel=0.01)


def test_origin_gradient_sign_for_monotone_data():
    state = make_state(RadialGrid(64), lambda r: np.sqrt(r))
    assert origin_gradient(state) >= 0.0


# ---------------------------------------------------------------------------
# detection


def test_detect_requires_ten_snapshots():
    with pytest.raises(ValueError, match="10 snapshots"):
        detect_on(_constant_trace(n_snapshots=5))


def test_constant_field_not_detected():
    report = detect_on(_constant_trace())
    assert not report.detected
    assert report.t_detect is None
    assert len(report.grad_history) == 12


def test_global_run_not_detected():
    grid = RadialGrid(256)
    state0 = make_state(grid, lambda r: (np.pi - 0.1) * r)
    trace = simulate(
        state0,
        L2_ZERO,
        SolverParams(dt=1e-4, scheme="semi_implicit", t_end=0.5),
        snapshot_stride=50,
    )
    assert not detect_on(trace).detected


def test_steep_data_detected_immediately():
    grid = RadialGrid(256)
    phi0 = initial_profile(grid, "bubble_linear_max", beta0=1e-3, amplitude=1.05 * np.pi)
    state0 = make_state(grid, phi0)
    trace = simulate(
        state0,
        L2_ZERO,
        SolverParams(dt=1e-4, scheme="semi_implicit", t_end=0.05, clip_guard=np.inf),
        snapshot_stride=10,
    )
    report = detect_on(trace)
    assert report.detected
    assert report.t_detect == 0.0
    assert report.grad_history[-1] >= 0.5 / grid.dr


def test_resolvable_formation_detects_with_clean_bubble():
    # boundary angle above pi drives genuine gradient growth through the
    # resolvable range; at detection the rescaled profile is a bubble
    grid = RadialGrid(512)
    state0 = make_state(grid, lambda r: 1.05 * np.pi * r)
    trace = simulate(
        state0,
        L2_ZERO,
        SolverParams(dt=1e-4, scheme="semi_implicit", t_end=4.0),
        snapshot_stride=10,
    )
    assert trace.halted and trace.halt_reason == "gradient guard"
    report = detect_on(trace)
    assert report.detected
    assert 2.0 < report.t_detect < 3.0  # measured 2.2403
    assert report.profile_fit_error <= 0.05  # measured 0.0331
    # gradient history ramps monotonically into detection
    tail = report.grad_history[-max(2, len(report.grad_history) // 5):]
    assert np.all(np.diff(tail) > 0)
    # local energy concentrates monotonically over the last decade of growth
    decade = report.grad_history >= report.grad_history[-1] / 10.0
    phis = trace.phis[: len(report.times)]
    le = energy(trace.grid, phis, report.local_energy_radius)[3][decade]
    assert np.all(np.diff(le) > 0)

    slope, r2 = fit_beta_law(report)
    assert slope < 0.0
    assert r2 >= 0.9


def test_detection_mesh_consistency_on_resolvable_run():
    t_det = {}
    for n in (256, 512, 1024):
        grid = RadialGrid(n)
        state0 = make_state(grid, lambda r: 1.05 * np.pi * r)
        trace = simulate(
            state0,
            L2_ZERO,
            SolverParams(dt=1e-4, scheme="semi_implicit", t_end=4.0),
            snapshot_stride=10,
        )
        # the first snapshot whose origin gradient passes the threshold 128
        t_det[n] = float(trace.times[np.nonzero(reference_gradient(grid, trace.phis) > 128.0)[0][0]])
    # the crossing time of a fixed gradient threshold converges with the
    # mesh: measured 2.0052, 2.1090, 2.1440
    d_coarse = abs(t_det[256] - t_det[512])
    d_fine = abs(t_det[512] - t_det[1024])
    assert d_fine < d_coarse
    assert d_fine <= 0.05  # measured 0.035


# ---------------------------------------------------------------------------
# profile extraction


def test_extract_profile_needs_a_bubble():
    with pytest.raises(ValueError, match="no bubble yet"):
        extract_profile(RadialGrid(256), np.zeros(257), 0.0)


def test_extract_profile_exact_bubble_self_test():
    state = make_state(RadialGrid(1024), lambda r: 2 * np.arctan(r / 0.005))
    beta_hat, err = extract_profile(state.grid, state.phi, reference_gradient(state.grid, state.phi))
    assert beta_hat == pytest.approx(0.005, rel=0.025)  # measured -2.13%
    assert err <= 0.03  # measured 0.0267 (one-sided gradient bias dominates)


def test_extract_profile_scale_consistency():
    # feeding phi(s r) divides beta_hat by s and leaves the fit error alone;
    # resolved scales make both statements tight
    n, beta, s = 2**17, 0.02, 2.0
    grid = RadialGrid(n)
    s1 = make_state(grid, lambda r: 2 * np.arctan(r / beta))
    s2 = make_state(grid, lambda r: 2 * np.arctan(s * r / beta))
    b1, e1 = extract_profile(grid, s1.phi, reference_gradient(grid, s1.phi))
    b2, e2 = extract_profile(grid, s2.phi, reference_gradient(grid, s2.phi))
    assert abs(b1 / (s * b2) - 1.0) <= 1e-6
    assert abs(e1 - e2) <= 1e-6


# ---------------------------------------------------------------------------
# beta law fitting


def _synthetic_report(times, beta_hats):
    times = np.asarray(times, dtype=float)
    beta_hats = np.asarray(beta_hats, dtype=float)
    return BlowupReport(
        detected=True,
        t_detect=float(times[-1]),
        times=times,
        grad_history=2.0 / beta_hats,
        profile_beta=None,
        profile_fit_error=None,
        local_energy_radius=None,
    )


def test_fit_beta_law_exact_clock():
    t = np.linspace(0.0, 0.25, 30)
    beta = ((0.3 - t) / 3.0) ** 3
    slope, r2 = fit_beta_law(_synthetic_report(t, beta))
    assert abs(slope + 1.0 / 3.0) <= 1e-10
    assert abs(r2 - 1.0) <= 1e-10


def test_fit_beta_law_constant_series():
    t = np.linspace(0.0, 1.0, 25)
    slope, _ = fit_beta_law(_synthetic_report(t, np.full_like(t, 1e-3)))
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_fit_beta_law_insufficient_samples():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="insufficient"):
        fit_beta_law(_synthetic_report(t, np.full_like(t, 1e-3)))


def test_fit_beta_law_requires_detection():
    report = detect_on(_constant_trace())
    with pytest.raises(ValueError, match="no blow-up"):
        fit_beta_law(report)


def test_nonfinite_halt_flags_hard_overflow():
    trace = _constant_trace()
    trace.halted = True
    trace.halt_reason = "non-finite field"
    report = detect_on(trace)  # gradient never crosses the cap, halt decides
    assert report.detected
    assert report.hard_overflow
    assert report.t_detect == pytest.approx(trace.times[-1])
