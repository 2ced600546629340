import numpy as np
import pytest
from scipy.integrate import quad

from nematiclab import axisym
from nematiclab.axisym import (
    RadialGrid,
    SolverParams,
    energy,
    initial_profile,
    make_state,
    simulate,
)
from nematiclab.coeffs import LeslieCoefficients

L2_ZERO = LeslieCoefficients(0, -0.5, 0.5, 1, 0, 0.0)  # lambda1=1, lambda2=0
L2_HALF = LeslieCoefficients(0, -0.25, 0.75, 1, 0, 0.5)  # lambda1=1, lambda2=0.5


def rhs(state, c):
    """phi_t at the interior nodes i = 1..n-1, as the program's RK4 step
    evaluates it: the bands of an RK4 batch of this one run, applied by the
    step's ``_banded``."""
    dt = 0.25 * state.grid.dr**2 * c.lambda1
    run = axisym._Run(state, c, SolverParams(dt=dt, scheme="explicit", t_end=dt))
    b = axisym._Batch([run])
    rows = len(b.phi) - 2
    return axisym._banded(b.bands, b.nodes, 2.0 * b.nodes[0], np.empty(rows), np.empty(rows))


def weighted_l2(err, r):
    return float(np.sqrt(np.trapezoid(err**2 * r[1:-1], r[1:-1])))


# ---------------------------------------------------------------------------
# grids, states, presets


def test_grid_rejects_too_few_cells():
    with pytest.raises(ValueError):
        RadialGrid(8)


def test_make_state_pins_origin():
    grid = RadialGrid(32)
    state = make_state(grid, lambda r: r + 1.0)
    assert state.phi[0] == 0.0


def test_presets():
    grid = RadialGrid(64)
    r = grid.r
    assert np.allclose(initial_profile(grid, "linear"), r)
    assert np.allclose(initial_profile(grid, "scaled_linear", amplitude=2.5), 2.5 * r)
    bub = initial_profile(grid, "bubble", beta0=0.1)
    assert np.allclose(bub, 2 * np.arctan(r / 0.1))
    mix = initial_profile(grid, "bubble_linear_max", beta0=0.1, amplitude=4.0)
    assert np.all(mix >= bub) and np.all(mix >= 4.0 * r - 1e-15)
    tab = initial_profile(grid, "table", points=[(0, 0), (0.5, 1.0), (1.0, 3.0)])
    assert tab[0] == 0.0 and tab[-1] == 3.0
    with pytest.raises(ValueError):
        initial_profile(grid, "swirl")
    with pytest.raises(ValueError, match="cover"):
        initial_profile(grid, "table", points=[(0.2, 0), (1.0, 1)])
    with pytest.raises(ValueError):
        initial_profile(grid, "bubble", beta0=-1.0)


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_zero_field_is_zero():
    state = make_state(RadialGrid(64), lambda r: 0 * r)
    assert np.all(rhs(state, L2_HALF) == 0.0)


def test_rhs_matches_bubble_closed_form():
    # for the bubble the spatial operator vanishes, leaving the pure
    # advection -r phi_r = -2 r beta / (beta^2 + r^2) at lambda2 = 0;
    # the first node carries an O(dr) pointwise truncation from phi_r/r,
    # which the r-weighted norm downweights back to second order
    beta = 0.1
    errs = {}
    outer_max = {}
    for n in (256, 512, 1024):
        grid = RadialGrid(n)
        state = make_state(grid, lambda r: 2 * np.arctan(r / beta))
        r_int = grid.r[1:-1]
        exact = -2.0 * r_int * beta / (beta**2 + r_int**2)
        err = rhs(state, L2_ZERO) - exact
        errs[n] = weighted_l2(err, grid.r)
        outer_max[n] = float(np.max(np.abs(err[r_int >= 0.1])))
    assert errs[256] <= 2e-2  # measured 1.26e-2
    assert errs[256] / errs[512] >= 3.2  # measured 3.33
    assert errs[512] / errs[1024] >= 3.2  # measured 3.49
    assert outer_max[256] / outer_max[512] >= 3.5  # measured 4.00
    assert outer_max[512] <= 1e-2  # measured 5.9e-3


def test_rhs_refinement_ratio_on_generic_smooth_field():
    f = lambda r: 2.3 * r * (1 - r) + 0.4 * np.sin(2 * np.pi * r)
    vals = {}
    for n in (128, 256, 512):
        grid = RadialGrid(n)
        vals[n] = (grid, rhs(make_state(grid, f), L2_HALF))
    # Richardson: successive differences on common nodes drop ~4x per doubling
    def diff(na, nb):
        (ga, va), (gb, vb) = vals[na], vals[nb]
        stride = nb // na
        common = vb[stride - 1 :: stride][: len(va)]
        return weighted_l2(va - common, ga.r)

    assert diff(128, 256) / diff(256, 512) >= 3.3


# ---------------------------------------------------------------------------
# stepping


def test_equilibrium_is_exactly_preserved():
    grid = RadialGrid(128)
    state = make_state(grid, lambda r: 0 * r)
    for scheme, dt in (("semi_implicit", 1e-4), ("explicit", 1e-6)):
        params = SolverParams(dt=dt, scheme=scheme, t_end=50 * dt)
        trace = simulate(state, L2_HALF, params)
        assert trace.n_snapshots == 51
        assert np.all(trace.phis == 0.0)


def test_explicit_guard_enforced():
    grid = RadialGrid(256)
    params = SolverParams(dt=1e-4, scheme="explicit", t_end=1.0)
    with pytest.raises(ValueError, match="explicit scheme needs"):
        params.check_stability(grid, L2_ZERO)


def test_cross_scheme_agreement():
    grid = RadialGrid(256)
    state0 = make_state(grid, lambda r: (np.pi - 0.1) * r)
    tr_exp = simulate(
        state0,
        L2_HALF,
        SolverParams(dt=2e-6, scheme="explicit", t_end=0.05),
        snapshot_stride=10**9,
    )
    tr_imp = simulate(
        state0,
        L2_HALF,
        SolverParams(dt=1e-5, scheme="semi_implicit", t_end=0.05),
        snapshot_stride=10**9,
    )
    assert np.max(np.abs(tr_exp.phis[-1] - tr_imp.phis[-1])) <= 1e-4


def test_interior_bounds_hold_on_global_run():
    # data below pi stays strictly inside (0, pi) at interior nodes
    grid = RadialGrid(256)
    state0 = make_state(grid, lambda r: (np.pi - 0.1) * r)
    trace = simulate(
        state0,
        L2_HALF,
        SolverParams(dt=1e-4, scheme="semi_implicit", t_end=1.0),
        snapshot_stride=100,
    )
    assert not trace.halted
    interior = trace.phis[1:, 1:-1]  # after t=0
    assert np.min(interior) > 0.0
    assert np.max(interior) < np.pi


def test_energy_stays_bounded_on_global_run():
    grid = RadialGrid(256)
    state0 = make_state(grid, lambda r: (np.pi - 0.1) * r)
    trace = simulate(
        state0,
        L2_HALF,
        SolverParams(dt=1e-4, scheme="semi_implicit", t_end=1.0),
        snapshot_stride=100,
    )
    e_total = energy(trace.grid, trace.phis, 1.0)[0]
    e0 = e_total[0]
    c_hat = 2.0  # fitted once on this family of runs, then frozen
    assert np.all(e_total <= np.exp(c_hat * trace.times) * (e0 + 1.0))


def test_simulate_records_strictly_increasing_times():
    grid = RadialGrid(64)
    state0 = make_state(grid, lambda r: 0.5 * r)
    trace = simulate(
        state0,
        L2_ZERO,
        SolverParams(dt=1e-3, scheme="semi_implicit", t_end=0.1),
        snapshot_stride=7,
    )
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(0.1, abs=1e-12)
    assert np.all(np.diff(trace.times) > 0)


def test_simulate_ends_exactly_at_t_end_without_drift():
    # a running sum of dt = 1e-4 drifts to 0.3499999999999778 over 3500 steps
    grid = RadialGrid(64)
    state0 = make_state(grid, lambda r: 0.5 * r)
    params = SolverParams(dt=1e-4, scheme="semi_implicit", t_end=0.35)
    trace = simulate(state0, L2_ZERO, params, snapshot_stride=250)
    assert trace.times[-1] == 0.35
    k = np.arange(0, 3500, 250)
    assert np.array_equal(trace.times[:-1], k * 1e-4)


@pytest.mark.parametrize("t_end", [2.5e-4, 4e-5])
def test_simulate_rejects_t_end_off_the_step_grid(t_end):
    state0 = make_state(RadialGrid(64), lambda r: 0.5 * r)
    params = SolverParams(dt=1e-4, scheme="semi_implicit", t_end=t_end)
    with pytest.raises(ValueError, match="whole number of dt"):
        simulate(state0, L2_ZERO, params)


def test_batch_identity_rows_hold_the_values_of_decisions_section_7():
    # where two runs meet, the end nodes are identity rows: every band zero
    # (a +0.0 right-hand side for Crank-Nicolson, a zero rate for RK4), the
    # weight 1, so a unit diagonal d, and a coupling e into and out of them
    # that is +0.0, so that LDL^T passes d and the right-hand side across a
    # junction unchanged
    data = [(16, L2_ZERO, 0.1), (37, L2_HALF, -0.0), (64, L2_ZERO, 0.1)]  # the middle phi(1) = -0.0
    for scheme, dt in (("semi_implicit", 1e-4), ("explicit", 1e-5)):
        params = SolverParams(dt, scheme, 1e-3)
        runs = [axisym._Run(make_state(RadialGrid(n), lambda r: a * r), c, params)
                for n, c, a in data]
        b = axisym._Batch(runs)
        rows = np.concatenate([b.ends[:-1], b.starts[1:]]) - 1  # row i is node i + 1
        for k, band in enumerate(b.bands):
            assert np.array_equal(band[rows], np.zeros(len(rows))), (scheme, k)
            assert not np.signbit(band[rows]).any(), (scheme, k)
        if scheme == "explicit":
            continue
        for name, value in (("d_const", 1.0), ("damp", 0.0), ("boundary", 0.0)):
            assert np.array_equal(getattr(b, name)[rows], np.full(len(rows), value)), name
        # the boundary is nonzero on each run's row n - 1 only where phi(1)
        # is, and never -0.0
        assert np.count_nonzero(b.boundary) == 2
        assert not np.signbit(b.boundary).any()
        touching = np.unique([rows - 1, rows])  # coupling j joins rows j and j + 1
        assert np.all(b.e[touching] == 0.0)
        assert not np.signbit(b.e[touching]).any()
        assert np.count_nonzero(b.e) == len(b.e) - len(touching)


def test_weighted_couplings_are_symmetric_and_every_row_dominant():
    # e_i = r_i (-dt/2 upper_i) also stands for r_{i+1} (-dt/2 lower_{i+1}).
    # The two are equal in exact arithmetic; in doubles each rounds eight
    # times and linspace's spacing r_{i+1} - r_i errs from dr by up to 4u
    # relative, so they are within 20 ulps (tests/test_cn_oracle.py,
    # weighted_bound).  d, before the damping adds to it, passes the sum of
    # the couplings of its row by r_i.
    l1_half = LeslieCoefficients(0, -0.25, 0.25, 1, 0, 0.3)  # lambda1 = 0.5
    l1_three = LeslieCoefficients(0, -1.5, 1.5, 1, 0, -0.5)  # lambda1 = 3
    worst = 0.0
    for n in (16, 37, 64, 300, 1024, 4096):
        for c in (L2_ZERO, l1_half, l1_three):
            for dt in (1e-4, 2.5e-4, 1e-3):
                grid = RadialGrid(n)
                params = SolverParams(dt, "semi_implicit", dt)
                b = axisym._Batch([axisym._Run(make_state(grid, lambda r: r), c, params)])
                dr2, r = grid.dr**2, grid.r[1:-1]
                lower = (1.0 / dr2 - 1.0 / (2.0 * grid.dr * r)) / c.lambda1
                paired = r[1:] * (-(0.5 * dt) * lower[1:])
                ulps = np.abs(paired - b.e) / np.spacing(np.abs(b.e))
                assert np.all(ulps <= 20.0), (n, c.lambda1, dt)
                worst = max(worst, float(np.max(ulps)))
                e = np.abs(b.e)
                couplings = np.concatenate([[0.0], e]) + np.concatenate([e, [0.0]])
                assert np.all(b.d_const > couplings), (n, c.lambda1, dt)
    assert worst > 0.0  # the two do round differently


# ---------------------------------------------------------------------------
# energies


def test_energy_zero_field():
    state = make_state(RadialGrid(64), lambda r: 0 * r)
    assert [e[0] for e in energy(state.grid, state.phi[np.newaxis], 1.0)] == [0.0] * 5


def test_energy_bubble_against_quadrature_oracle():
    # phi = 2 arctan(r): both integrands collapse to 4 r / (1+r^2)^2, whose
    # integral over [0, 1] is 1 (antiderivative -2/(1+r^2))
    closed = lambda r: 4.0 * r / (1.0 + r**2) ** 2
    oracle, err = quad(closed, 0.0, 1.0)
    assert err < 1e-10
    assert oracle == pytest.approx(1.0, abs=1e-10)

    state = make_state(RadialGrid(1024), lambda r: 2 * np.arctan(r))
    e_total, e_grad, e_sin, _, _ = (e[0] for e in energy(state.grid, state.phi[np.newaxis], 1.0))
    assert e_grad == pytest.approx(oracle, abs=5e-6)
    assert e_sin == pytest.approx(oracle, abs=5e-6)
    assert e_total == pytest.approx(2.0, abs=1e-5)


def test_bubble_gradient_energy_whole_line_limit():
    # independent quadrature oracle for the degree-one profile on [0, inf)
    val, err = quad(lambda r: 4.0 * r / (1.0 + r**2) ** 2, 0.0, np.inf)
    assert err < 1e-6
    assert val == pytest.approx(2.0, abs=1e-7)


def test_local_energy_monotone_and_guarded():
    grid = RadialGrid(256)
    phis = make_state(grid, lambda r: 2 * np.arctan(r / 0.2)).phi[np.newaxis]
    radii = np.linspace(2.5 * grid.dr, 1.0, 40)
    vals = [energy(grid, phis, R)[3][0] for R in radii]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert energy(grid, np.zeros((1, grid.n_cells + 1)), 0.5)[3][0] == 0.0
    with pytest.raises(ValueError, match="unresolvable"):
        energy(grid, phis, 1.5 * grid.dr)
    with pytest.raises(ValueError):
        energy(grid, phis, 1.2)
