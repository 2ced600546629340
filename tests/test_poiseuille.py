import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nematiclab.cli import main
from nematiclab.coeffs import (
    LeslieCoefficients,
    g_coeff,
    sample_validated,
    simplified_coefficients,
)
from nematiclab.config import parse_config, poiseuille_run
from nematiclab.errors import ConfigError, SolverHalt
from nematiclab.experiments import _require_finite, run
from nematiclab.poiseuille import (
    IntervalGrid,
    PoiseuilleState,
    PoiseuilleTrace,
    counterexample_bc,
    counterexample_run,
    energy_identity_residual,
    heat_reduction_applies,
    heat_reduction_check,
    homogeneous_bc,
    plan_run,
    simulate,
    stability_bound,
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


def step_simplified(state, dt, bc):
    """Hard-coded stepper for the simplified system
    w_t = 2 w_xx + phi_tx, 2 phi_t = phi_xx - w_x; dual route used to
    cross-check the general step under the simplified coefficients."""
    grid = state.grid
    dx = grid.dx
    phi, w = state.phi, state.w
    phi_t = np.empty_like(phi)
    phi_t[1:-1] = (
        (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dx**2
        - (w[2:] - w[:-2]) / (2.0 * dx)
    ) / 2.0
    phi_t[0] = bc.phi_left_rate(state.t)
    phi_t[-1] = bc.phi_right_rate(state.t)
    w_t = 2.0 * (w[2:] - 2.0 * w[1:-1] + w[:-2]) / dx**2 + (
        phi_t[2:] - phi_t[:-2]
    ) / (2.0 * dx)

    t_new = state.t + dt
    w_new = w.copy()
    w_new[1:-1] += dt * w_t
    phi_new = phi + dt * phi_t
    w_new[0] = bc.w_left(t_new)
    w_new[-1] = bc.w_right(t_new)
    phi_new[0] = bc.phi_left(t_new)
    phi_new[-1] = bc.phi_right(t_new)
    return PoiseuilleState(grid, w_new, phi_new, t_new, state.a)


# ---------------------------------------------------------------------------
# stepping


def test_rest_state_is_equilibrium():
    grid = IntervalGrid(5.0, 64)
    state = PoiseuilleState(grid, w=np.zeros(65), phi=np.zeros(65))
    trace = simulate(state, SIMPLIFIED, 1e-4, 20 * 1e-4, homogeneous_bc(), 1)
    assert trace.n_snapshots == 21
    assert np.all(trace.ws == 0.0) and np.all(trace.phis == 0.0)


def test_dual_route_simplified_agreement():
    # flux-form general stepper vs the hard-coded simplified stencils
    grid = IntervalGrid(5.0, 128)
    x = grid.x
    state_a = PoiseuilleState(
        grid, w=np.sin(np.pi * x / 5.0), phi=0.3 * np.cos(np.pi * x / 10.0)
    )
    state_b = PoiseuilleState(grid, state_a.w.copy(), state_a.phi.copy())
    dt = 0.5 * stability_bound(grid, SIMPLIFIED)
    bc = homogeneous_bc()
    trace = simulate(state_a, SIMPLIFIED, dt, 5 * dt, bc, 1)
    for _ in range(5):
        state_b = step_simplified(state_b, dt, bc)
    assert np.max(np.abs(trace.ws[-1] - state_b.w)) <= 1e-12
    assert np.max(np.abs(trace.phis[-1] - state_b.phi)) <= 1e-12


def test_exact_pair_is_discrete_fixed_profile():
    # w = -2x stays put and phi advances by exactly dt each step
    L, n = 5.0, 100
    grid = IntervalGrid(L, n)
    state = PoiseuilleState(grid, w=-2.0 * grid.x, phi=np.zeros(n + 1))
    dt = 0.5 * stability_bound(grid, SIMPLIFIED)
    trace = simulate(state, SIMPLIFIED, dt, dt, counterexample_bc(L), 1)
    assert np.max(np.abs(trace.ws[1] + 2.0 * grid.x)) <= 1e-14
    assert np.max(np.abs(trace.phis[1] - dt)) <= 1e-15


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


@pytest.mark.parametrize("dt_line", ["", "dt = 1e-3\n"])
def test_counterexample_config_path_marches_the_counterexample_run(dt_line):
    config = parse_config(
        "[experiment]\nkind = poiseuille_counterexample\n\n[poiseuille]\n"
        f"half_length = 5.0\nn_cells = 64\n{dt_line}t_end = 0.05\n"
    )
    p = config.poiseuille
    via_config = simulate(*poiseuille_run(config))
    _, direct = counterexample_run(p.half_length, p.n_cells, p.t_end, p.dt)
    for name in ("times", "ws", "phis", "phi_ts"):
        assert np.array_equal(getattr(via_config, name), getattr(direct, name))


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
    bound = stability_bound(grid, SIMPLIFIED)
    dt, stride = plan_run(grid, SIMPLIFIED, 0.5)
    assert dt <= 0.8 * bound
    assert 0.5 / dt == round(0.5 / dt) == math.ceil(0.5 / (0.8 * bound))
    assert stride == 1
    with pytest.raises(ValueError, match="stability bound"):
        plan_run(grid, SIMPLIFIED, 0.5, dt=1.01 * bound)
    with pytest.raises(ValueError, match="3 snapshots"):
        plan_run(grid, SIMPLIFIED, 0.5, snapshot_stride=10**6)


@pytest.mark.parametrize(
    "t_end, dt, message",
    [
        (0.05, 0.0, "dt must be positive"),
        (0.05, -1e-3, "dt must be positive"),
        (0.0, None, "t_end must be positive"),
        (-1.0, None, "t_end must be positive"),
    ],
)
def test_plan_run_rejects_a_time_or_step_that_is_not_positive(t_end, dt, message):
    # dt = 0 and t_end = 0 used to divide by zero; t_end = -1 asked for snapshots
    with pytest.raises(ValueError, match=message):
        plan_run(IntervalGrid(10.0, 16), SIMPLIFIED, t_end, dt)


def test_grid_whose_squared_cell_width_overflows_is_rejected():
    # dx = 1.25e199; stability_bound used to raise OverflowError on dx**2
    with pytest.raises(ValueError, match="half_length = 1e\\+200 over n_cells = 16"):
        IntervalGrid(1e200, 16)
    assert IntervalGrid(1.3e154, 16).dx == 1.3e154 / 8


# ---------------------------------------------------------------------------
# heat-equation reduction of v + phi


def test_heat_reduction_zero_data():
    grid = IntervalGrid(5.0, 64)
    state = PoiseuilleState(grid, w=np.zeros(65), phi=np.zeros(65))
    trace = simulate(state, SIMPLIFIED, 1e-4, 0.01, homogeneous_bc(), 10)
    assert heat_reduction_check(trace) == 0.0


def test_heat_check_of_an_all_nan_trace_is_nan():
    # a residual that is nan at every snapshot pair used to read 0.0, a pass
    grid = IntervalGrid(5.0, 16)
    state = PoiseuilleState(grid, w=np.zeros(17), phi=np.zeros(17))
    trace = simulate(state, SIMPLIFIED, 1e-3, 0.01, homogeneous_bc(), 1)
    trace.phis[:] = np.nan
    assert math.isnan(heat_reduction_check(trace))


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


@pytest.mark.parametrize(
    "mus",
    [
        (0.0, -0.25, 0.75, 1.0, 0.0, 0.5),
        sample_validated(np.random.default_rng(1)).as_tuple(),
        SIMPLIFIED.as_tuple(),
    ],
)
def test_energy_identity_converges_for_every_validated_set(mus):
    # D = int(g w_x^2 + 2 h w_x phi_t + lambda1 phi_t^2).  With the
    # simplified set's D the first two read 0.98 -> 0.99 and 0.69 -> 0.71;
    # measured 7.4e-3 -> 1.9e-3, 2.1e-2 -> 5.4e-3 and 1.7e-2 -> 4.3e-3
    coarse, fine = _pulse_residuals(mus)
    assert coarse / fine >= 3.0 and fine <= 6e-3


def test_energy_identity_includes_the_pressure_work(tmp_path):
    # dE/dt + D = -a int w; without the work term the residual read 6.1 at
    # both sizes, and the heat check, which a breaks, 49.7
    coarse, fine = _pulse_residuals(SIMPLIFIED.as_tuple(), a=2.5)
    assert coarse / fine >= 3.0 and fine <= 6e-3  # measured 1.7e-2 -> 4.3e-3
    config = parse_config(_pulse_text(SIMPLIFIED.as_tuple(), 256, a=2.5))
    assert not heat_reduction_applies(simulate(*poiseuille_run(config)))
    assert run(config, out_dir=tmp_path, plots=False).report["heat_reduction_residual"] is None
    no_pressure = parse_config(_pulse_text(SIMPLIFIED.as_tuple(), 256))
    assert heat_reduction_applies(simulate(*poiseuille_run(no_pressure)))


@pytest.mark.parametrize("a, flag", [(2.5, None), (-2.5, None), (0.0, True)])
def test_energy_nonincreasing_is_reported_only_without_pressure(tmp_path, a, flag):
    # dE/dt + D = -a int w: a pressure-driven run read false before, with an
    # energy-identity residual of 1.3e-2
    text = _generic_config(SIMPLIFIED.as_tuple(), "", n_cells=256, t_end=0.5, amplitude=0.0)
    config = parse_config(text + f"a = {a!r}\n")
    assert run(config, out_dir=tmp_path, plots=False).report["energy_nonincreasing"] is flag


# ---------------------------------------------------------------------------
# the velocity potential


def test_v_recovery_second_order():
    errs = {}
    for n in (512, 1024):
        trace = simulate(
            _compact_state(n), SIMPLIFIED, 5e-6, 0.005, homogeneous_bc(), 100
        )
        v = velocity_potential(trace)
        worst = 0.0
        for i in range(trace.n_snapshots):
            worst = max(
                worst,
                float(np.max(np.abs(_first_derivative(v[i], trace.grid.dx) - trace.ws[i]))),
            )
        errs[n] = worst
    assert errs[512] <= 1e-3  # measured 7.4e-4
    assert errs[512] / errs[1024] >= 3.5  # measured 3.99


def test_counterexample_potential_matches_closed_form():
    _, trace = counterexample_run(L=5.0, n=100, t_end=0.1)
    i = trace.n_snapshots - 1
    v = velocity_potential(trace)[i]
    exact = -trace.grid.x**2 - 3.0 * trace.times[i]
    assert np.max(np.abs(v - exact)) <= 1e-8


# ---------------------------------------------------------------------------
# generic coefficients


def test_step_general_runs_with_generic_coefficients():
    coeffs = LeslieCoefficients(0.3, -0.7, 0.9, 2.0, 0.1, 0.3)
    assert coeffs.lambda1 > 0
    state = _compact_state(128, L=5.0, amplitude=0.5)
    dt = 0.5 * stability_bound(state.grid, coeffs)
    trace = simulate(state, coeffs, dt, 50 * dt, homogeneous_bc(), 10)
    assert np.all(np.isfinite(trace.ws)) and np.all(np.isfinite(trace.phis))
    # angle responds to the shear through h(phi) w_x
    assert np.max(np.abs(trace.phis[-1])) > 0.0


# ---------------------------------------------------------------------------
# the step bound holds for every phi

# A sample_validated draw with g(0) = 1.23 and max g = 2.15: dt = 0.019 is
# under the step bound at phi = 0 (0.0198) but not under the bound at the
# angles the run reaches (0.0186 there, 0.0114 over every phi).
FOUND_COEFFS = (
    0.9966284667817014, -1.7553421479094617, 0.8392933800943347,
    1.8148056446248708, 0.7225669923553368, -0.19348177545979017,
)


def _generic_config(coeffs, dt_line, n_cells=64, t_end=1.9, amplitude=20.0):
    mus = "\n".join(f"mu{i} = {m!r}" for i, m in enumerate(coeffs, 1))
    return (
        "[experiment]\nkind = poiseuille_generic\nsnapshot_stride = 1\n\n"
        f"[coefficients]\n{mus}\n\n"
        f"[poiseuille]\nhalf_length = 10.0\nn_cells = {n_cells}\n{dt_line}"
        f"t_end = {t_end!r}\nvelocity_amplitude = {amplitude!r}\n"
    )


def _pulse_text(mus, n_cells, a=0.0):
    """The generic pulse on [-10, 10] to t = 0.05 at the default dt."""
    return _generic_config(mus, "", n_cells=n_cells, t_end=0.05, amplitude=1.0) + f"a = {a!r}\n"


def _pulse_residuals(mus, a=0.0):
    return [
        energy_identity_residual(simulate(*poiseuille_run(parse_config(_pulse_text(mus, n, a)))))
        .residual
        for n in (256, 512)
    ]


def _g_max_sampled(c):
    return float(np.max(g_coeff(c, np.linspace(0.0, np.pi, 200_001))))


def test_step_bound_uses_the_largest_g():
    c = LeslieCoefficients(*FOUND_COEFFS)
    grid = IntervalGrid(10.0, 64)
    assert g_coeff(c, 0.0) == pytest.approx(1.23, abs=0.01)
    g_max = _g_max_sampled(c)
    assert g_max == pytest.approx(2.15, abs=0.01)
    assert stability_bound(grid, c) == pytest.approx(0.25 * grid.dx**2 / g_max, rel=1e-9)
    # simplified coefficients: g == 2 everywhere, the bound is g's own at 0
    assert stability_bound(grid, SIMPLIFIED) == 0.25 * grid.dx**2 * 0.5


def test_found_config_is_rejected_at_parse_time(tmp_path):
    c = LeslieCoefficients(*FOUND_COEFFS)
    with pytest.raises(ConfigError, match="stability bound"):
        parse_config(_generic_config(FOUND_COEFFS, "dt = 0.019\n"))
    # with the default dt the same run finishes and reaches t_end exactly
    cfg = tmp_path / "found.ini"
    cfg.write_text(_generic_config(FOUND_COEFFS, ""))
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "out"), "--no-plots"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["dt"] <= 0.8 * stability_bound(IntervalGrid(10.0, 64), c)


@pytest.mark.parametrize("mu1_sign", [1.0, -1.0])
def test_step_bound_closed_form_against_sampling(mu1_sign):
    rng = np.random.default_rng(7)
    grid = IntervalGrid(5.0, 32)
    for _ in range(200):
        c = sample_validated(rng)
        c = LeslieCoefficients(mu1_sign * c.mu1, *c.as_tuple()[1:])
        bound = stability_bound(grid, c)
        g_max = _g_max_sampled(c)
        expected = 0.25 * grid.dx**2 * min(c.lambda1, 1.0 / g_max)
        assert bound == pytest.approx(expected, rel=1e-9)
        assert bound <= expected * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(16, 40),
    amplitude=st.sampled_from([1.0, 20.0, 100.0]),
)
def test_sampled_coefficients_validate_and_run(seed, n_cells, amplitude):
    c = sample_validated(np.random.default_rng(seed))
    text = _generic_config(c.as_tuple(), "", n_cells=n_cells, t_end=0.5, amplitude=amplitude)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.ini", Path(tmp) / "out"
        cfg.write_text(text)
        assert main(["validate", str(cfg)]) == 0
        assert main(["simulate", str(cfg), "--out", str(out), "--no-plots"]) == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the runs overflow on purpose
@pytest.mark.parametrize(
    "amplitude, extra, snapshot, t",
    [
        (1e200, "", 0, "0"),  # w^2 overflows at t = 0
        (1.0, "a = 1e308\n", 1, "0.005"),  # w = -a t overflows w^2 after one step
    ],
)
def test_overflowed_run_halts_at_its_first_non_finite_snapshot(
    tmp_path, capsys, amplitude, extra, snapshot, t
):
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(_generic_config(SIMPLIFIED.as_tuple(), "", t_end=0.01, amplitude=amplitude) + extra)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out", str(out), "--no-plots"]) == 3
    err = capsys.readouterr().err
    assert f"non-finite energy or dissipation at snapshot {snapshot} at t={t}" in err
    assert not (out / "report.json").exists()


def test_non_finite_residual_halts_at_the_last_snapshot():
    trace = PoiseuilleTrace(
        IntervalGrid(10.0, 16), homogeneous_bc(), SIMPLIFIED, 0.0, np.array([0.0, 0.5]), *[None] * 3
    )
    _require_finite(trace, np.ones(2), np.ones(2), heat_reduction_residual=None)
    with pytest.raises(SolverHalt, match="non-finite energy_identity_residual") as halt:
        _require_finite(trace, np.ones(2), np.ones(2), energy_identity_residual=math.inf)
    assert halt.value.t == 0.5
