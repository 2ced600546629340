"""The Poiseuille step, run loop and trace diagnostics against reference
copies, in the folded order of the step and per term.

Folded order.  ``reference_phi_time_derivative`` and
``reference_step_general`` take the step as the program does: phi_t is the
second difference of phi, less w_{i+1} - w_{i-1} (summed from two
neighbouring differences of w) times h dx/2, over lambda1 dx^2; the flux
is (phi_t,i + phi_t,i+1) h dt/(2 dx) + (w_{i+1} - w_i) g dt/dx^2; the new
state is w + (the difference of the flux - dt a) and phi + phi_t dt.  They
evaluate g and h through ``coeffs.g_coeff`` and ``coeffs.h_coeff`` on every
call (four cosines and sines per step), form every factor on every call,
and return fresh arrays.  The program's step, which marches a run in two
reused buffers (``poiseuille._March``), must agree with them bit for bit:
w, phi and phi_t after every step, and the time at which a non-finite step
halts.

Per term.  ``per_term_phi_time_derivative`` and ``per_term_step_general``
are the step as it was before its factors were folded: each term with its
own division by dx, dx^2, 2 dx and lambda1, and the update w + dt w_t.  The
two orders round differently; ``test_one_step_is_within_rounding_of_the_per_term_step``
bounds the difference of one step by a bound derived from the magnitudes
of the terms.

The run-loop reference records into three separate buffers with its own
time rule and stride schedule, stepping with the folded-order reference,
and the diagnostic references work one snapshot at a time.  ``simulate``
(which records through ``axisym.RunRecord`` into one buffer) and the
whole-trace diagnostics must agree with them bit for bit.  The dissipation
reference keeps the simplified set's own form, int(w_x^2 + phi_t^2 +
(w_x + phi_t)^2), which the program's general D must reproduce bit for bit;
for any other set it takes g and h from ``coeffs`` one snapshot at a time
and checks its sum against the plain int(g w_x^2 + 2 h w_x phi_t + lambda1
phi_t^2).

Under the simplified coefficients, and under any set whose trig weights are
+0.0 with h_const != 0, the step folds g and h as constants into its
factors and calls no trig function.  The same references pin that branch,
down to the sign of a zero, and the cases below show where the selection
and the constants would go wrong: a -0.0 weight, a zero h_const, g without
its ``0.0 +``, h taken into the product in another order, and angles or
rates near overflow.  Any other set multiplies the arrays of the same two
functions by the same factors; forcing a constant set down that path gives
the same bytes.

``velocity_potential`` computes scipy's trapezoid in numpy; a property
checks it bit for bit against ``scipy.integrate.cumulative_trapezoid`` on
whole traces of arbitrary doubles, overflow, nan and signed zeros included.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import cumulative_trapezoid

from nematiclab.coeffs import (
    LeslieCoefficients,
    g_coeff,
    h_coeff,
    sample_validated,
    simplified_coefficients,
)
from nematiclab import axisym, poiseuille
from nematiclab.errors import SolverHalt
from nematiclab.poiseuille import (
    BoundaryData,
    IntervalGrid,
    PoiseuilleState,
    PoiseuilleTrace,
    counterexample_bc,
    counterexample_report,
    counterexample_setup,
    energies,
    energy_identity_residual,
    heat_reduction_check,
    homogeneous_bc,
    simulate,
    stability_bound,
    step_general,
    velocity_potential,
)

SIMPLIFIED = simplified_coefficients()
# the relations hold, mu1 = 0 and b = a, lambda2 = 0: g == 2.375, h == 1.5
CONSTANT_15 = LeslieCoefficients(0.0, -1.5, 1.5, 3.0, 0.25, 0.25)


# ---------------------------------------------------------------------------
# the folded order


def reference_phi_time_derivative(state, c, bc):
    dx = state.grid.dx
    phi, w = state.phi, state.w
    out = np.empty_like(phi)
    dw = np.diff(w)
    h_w = h_coeff(c, phi[1:-1]) * (0.5 * dx)
    d2phi = phi[2:] - 2.0 * phi[1:-1] + phi[:-2]
    out[1:-1] = (d2phi - (dw[1:] + dw[:-1]) * h_w) / (c.lambda1 * dx**2)
    out[0] = bc.phi_left_rate(state.t)
    out[-1] = bc.phi_right_rate(state.t)
    return out


def reference_step_general(state, c, dt, bc, t_new=None):
    grid = state.grid
    dx = grid.dx
    phi, w = state.phi, state.w
    phi_t = reference_phi_time_derivative(state, c, bc)

    phi_mid = 0.5 * (phi[:-1] + phi[1:])
    h_f = h_coeff(c, phi_mid) * (dt / (2.0 * dx))
    g_f = g_coeff(c, phi_mid) * (dt / dx**2)
    flux = (phi_t[:-1] + phi_t[1:]) * h_f + np.diff(w) * g_f

    if t_new is None:
        t_new = state.t + dt
    w_new = w.copy()
    w_new[1:-1] += np.diff(flux) - dt * state.a
    phi_new = phi + phi_t * dt
    w_new[0] = bc.w_left(t_new)
    w_new[-1] = bc.w_right(t_new)
    phi_new[0] = bc.phi_left(t_new)
    phi_new[-1] = bc.phi_right(t_new)
    if not (np.all(np.isfinite(w_new)) and np.all(np.isfinite(phi_new))):
        raise SolverHalt("non-finite field", t_new)
    return PoiseuilleState(grid, w_new, phi_new, t_new, state.a)


# ---------------------------------------------------------------------------
# per term: the step before its factors were folded


def per_term_phi_time_derivative(state, c, bc):
    dx = state.grid.dx
    phi, w = state.phi, state.w
    out = np.empty_like(phi)
    d2phi = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dx**2
    d1w = (w[2:] - w[:-2]) / (2.0 * dx)
    out[1:-1] = (d2phi - h_coeff(c, phi[1:-1]) * d1w) / c.lambda1
    out[0] = bc.phi_left_rate(state.t)
    out[-1] = bc.phi_right_rate(state.t)
    return out


def per_term_step_general(state, c, dt, bc, t_new=None):
    grid = state.grid
    dx = grid.dx
    phi, w = state.phi, state.w
    phi_t = per_term_phi_time_derivative(state, c, bc)

    phi_mid = 0.5 * (phi[:-1] + phi[1:])
    flux = g_coeff(c, phi_mid) * np.diff(w) / dx + h_coeff(c, phi_mid) * 0.5 * (
        phi_t[:-1] + phi_t[1:]
    )
    w_t = -state.a + np.diff(flux) / dx

    if t_new is None:
        t_new = state.t + dt
    w_new = w.copy()
    w_new[1:-1] += dt * w_t
    phi_new = phi + dt * phi_t
    w_new[0] = bc.w_left(t_new)
    w_new[-1] = bc.w_right(t_new)
    phi_new[0] = bc.phi_left(t_new)
    phi_new[-1] = bc.phi_right(t_new)
    if not (np.all(np.isfinite(w_new)) and np.all(np.isfinite(phi_new))):
        raise SolverHalt("non-finite field", t_new)
    return PoiseuilleState(grid, w_new, phi_new, t_new, state.a)


# ---------------------------------------------------------------------------
# the program's step against the folded order


def program_step(state, c, dt, bc, t_new=None):
    """One step of the program from ``state``, as a new state."""
    march = poiseuille._March(state, c, dt, bc)
    step_general(march, state.t + dt if t_new is None else t_new)
    w, phi = march.state
    return PoiseuilleState(state.grid, w, phi, march.t, state.a)


def program_rate(state, c, bc):
    """phi_t of the program on every node of ``state``: the angle equation
    its step applies (``_March.rate``; dt does not enter it)."""
    return poiseuille._March(state, c, 0.0, bc).rate(np.empty_like(state.phi))


def same_bits(ours, ref):
    """Equal values, nan equal to nan, and every other zero of the same sign."""
    signed = ~np.isnan(ref)
    return np.array_equal(ours, ref, equal_nan=True) and np.array_equal(
        np.signbit(ours[signed]), np.signbit(ref[signed])
    )


def _advance(step, state, c, dt, bc, t_new):
    """(state, None) after one step, or (None, t) when it halts at t."""
    try:
        return step(state, c, dt, bc, t_new), None
    except SolverHalt as exc:
        return None, exc.t


def march_both(state0, c, dt, bc, n_steps=200, explicit_t=False):
    """Step one program run and the reference side by side from one state;
    assert they agree bit for bit.  Step k ends at t0 + k dt if
    ``explicit_t``, else at the previous time plus dt.  Returns the halt
    time, or None when all n_steps ran."""
    march = poiseuille._March(state0, c, dt, bc)
    ref = state0
    for k in range(1, n_steps + 1):
        t_new = state0.t + k * dt if explicit_t else ref.t + dt
        assert same_bits(
            march.rate(np.empty(len(ref.phi))), reference_phi_time_derivative(ref, c, bc)
        ), f"phi_t before step {k} differs"
        try:
            step_general(march, t_new)
            t_ours = None
        except SolverHalt as exc:
            t_ours = exc.t
        ref, t_ref = _advance(reference_step_general, ref, c, dt, bc, t_new)
        assert t_ours == t_ref, f"step {k}: halts at {t_ours} and {t_ref}"
        if t_ref is not None:
            return t_ref
        w, phi = march.state
        assert march.t == ref.t, f"step {k}: t differs"
        assert same_bits(w, ref.w), f"step {k}: w differs"
        assert same_bits(phi, ref.phi), f"step {k}: phi differs"
    return None


def _pulse(n, L=10.0, amplitude=1.0, a=0.0):
    grid = IntervalGrid(L, n)
    x = grid.x
    return PoiseuilleState(
        grid,
        w=amplitude * x * np.exp(-(x**2)),
        phi=0.3 * np.exp(-((x - 0.5) ** 2)),
        a=a,
    )


@pytest.mark.parametrize("explicit_t", [False, True])
def test_counterexample_data_matches_reference(explicit_t):
    L, n = 5.0, 200
    grid = IntervalGrid(L, n)
    state = PoiseuilleState(grid, w=-2.0 * grid.x, phi=np.zeros(n + 1))
    dt = 0.8 * stability_bound(grid, SIMPLIFIED)
    assert march_both(state, SIMPLIFIED, dt, counterexample_bc(L), 250, explicit_t) is None


def test_homogeneous_pulse_with_pressure_gradient_matches_reference():
    state = _pulse(256, amplitude=1.5, a=0.7)
    dt = 0.8 * stability_bound(state.grid, SIMPLIFIED)
    assert march_both(state, SIMPLIFIED, dt, homogeneous_bc(), 250) is None


@pytest.mark.parametrize("mu1_sign", [1.0, -1.0])
def test_sampled_coefficients_match_reference(mu1_sign):
    rng = np.random.default_rng(11)
    for _ in range(4):
        c = sample_validated(rng)
        c = LeslieCoefficients(mu1_sign * c.mu1, *c.as_tuple()[1:])
        state = _pulse(128, L=5.0, amplitude=2.0, a=-0.3)
        dt = 0.8 * stability_bound(state.grid, c)
        # nonzero Dirichlet data and rates: the boundary terms enter the flux
        march_both(state, c, dt, counterexample_bc(5.0), 200, explicit_t=True)


def test_boundary_rates_are_taken_at_the_start_of_each_step():
    # phi = 1 + t^2 at both ends: the rate 2t in the flux is that of the
    # state the step starts from, the data those of the time it ends at
    bc = BoundaryData(
        phi_left=lambda t: 1.0 + t * t,
        phi_right=lambda t: 1.0 + t * t,
        phi_left_rate=lambda t: 2.0 * t,
        phi_right_rate=lambda t: 2.0 * t,
    )
    state = _pulse(64, L=5.0, amplitude=1.5)
    state.phi[[0, -1]] = 1.0
    dt = 0.8 * stability_bound(state.grid, CONSTANT_15)
    assert march_both(state, CONSTANT_15, dt, bc, 100, explicit_t=True) is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_non_finite_step_halts_at_the_same_time():
    # six times the step bound: the explicit step grows the pulse until it
    # overflows, at step 456
    state = _pulse(64)
    dt = 6.0 * stability_bound(state.grid, SIMPLIFIED)
    t_halt = march_both(state, SIMPLIFIED, dt, homogeneous_bc(), 1000)
    assert t_halt is not None and t_halt > 200 * dt


# ---------------------------------------------------------------------------
# constant g and h


@pytest.mark.parametrize(
    "c, g, h",
    [
        (SIMPLIFIED, 2.0, 1.0),
        (CONSTANT_15, 2.375, 1.5),
        # g_sin2 = 0.25 mu1 is -0.0
        (LeslieCoefficients(-0.0, -1.0, 1.0, 3.0, 0.0, 0.0), None, None),
        # mu1 = 0 and h_cos = 0 but b != a, so g_cos != 0 (Parodi does not
        # hold, which the step does not check)
        (LeslieCoefficients(0.0, -1.0, 1.0, 3.0, 0.5, 0.0), None, None),
    ],
)
def test_constant_g_and_h_only_for_plus_zero_trig_weights(c, g, h):
    state = _pulse(128, L=5.0, amplitude=2.0, a=-0.3)
    gh = c.constant_gh
    assert (gh[:2] if gh else (None, None)) == (g, h)
    dt = 0.8 * stability_bound(state.grid, c)
    assert march_both(state, c, dt, counterexample_bc(5.0), 200, explicit_t=True) is None


@pytest.mark.parametrize("mu1", [-0.0, 0.0])
def test_signed_zero_g_matches_reference(mu1):
    # subnormal viscosities make g_const = 0.5 (a + b) and g_mu4 -0.0 while
    # h_const = -5e-324 != 0 (lambda1 < 0, which the step does not check);
    # at phi = pi/2, cos 2phi = -1, and the sign of g = 0 reaches w through
    # the right end flux, since w is -0.0
    c = LeslieCoefficients(mu1, 5e-324, -5e-324, -0.0, 0.0, 0.0)
    quarter = lambda t: np.pi / 2
    minus_zero = lambda t: -0.0
    bc = BoundaryData(minus_zero, minus_zero, quarter, quarter)
    state = PoiseuilleState(IntervalGrid(10.0, 16), np.full(17, -0.0), np.full(17, np.pi / 2))
    assert march_both(state, c, 1e-3, bc, 5) is None


@pytest.mark.parametrize("phi0", [0.0, np.pi / 2])
def test_zero_h_const_keeps_the_trig_path(phi0):
    # every trig weight is +0.0 but h_const = 0.5 (mu3 - mu2) is -0.0, so the
    # per-node h = -0.0 + (+0.0 cos 2phi) takes the sign of cos 2phi: +0.0
    # at phi = 0, -0.0 at pi/2.  Either constant zero flips the sign of the
    # h flux at one of them, where w is -0.0, and w differs at step 1.
    c = LeslieCoefficients(0.0, 5e-324, 0.0, -1.0, 0.0, 0.0)
    assert c.constant_gh is None
    w = np.zeros(17)
    w[3] = -0.0
    state = PoiseuilleState(IntervalGrid(10.0, 16), w, np.full(17, phi0))
    bc = BoundaryData(phi_left=lambda t: phi0, phi_right=lambda t: phi0)
    assert march_both(state, c, 1e-3, bc, 5) is None


@pytest.mark.parametrize(
    "c, calls",
    [(SIMPLIFIED, 0), (CONSTANT_15, 0), (sample_validated(np.random.default_rng(5)), 8)],
)
def test_only_phi_dependent_coefficients_form_g_and_h_arrays(monkeypatch, c, calls):
    # the constant branch is what every shipped and benchmark run takes
    counted = []

    def counting(f):
        def counted_call(*args):
            counted.append(f)
            return f(*args)

        return counted_call

    state = _pulse(64, amplitude=1.5)
    dt = 0.8 * stability_bound(state.grid, c)
    monkeypatch.setattr(poiseuille, "g_coeff", counting(g_coeff))
    monkeypatch.setattr(poiseuille, "h_coeff", counting(h_coeff))
    for _ in range(2):
        program_rate(state, c, homogeneous_bc())
        state = program_step(state, c, dt, homogeneous_bc())
    # h at the nodes for each phi_t, and g and h at the midpoints per step
    assert len(counted) == calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
@pytest.mark.parametrize(
    "n, node, value",
    [
        (64, 30, 1e308),  # 2 phi overflows at an interior node
        (16, 0, 1.79e308),  # phi_0 + phi_1 overflows, phi_xx stays finite
        (16, 16, 1.79e308),  # phi_n-1 + phi_n
        # 2 phi overflows at two neighbours, whose differences stay finite
        (64, [30, 31], 1e308),
    ],
)
def test_overflowing_angle_halts_both_steps_at_the_same_time(n, node, value):
    state = _pulse(n)
    state.phi[node] = value
    state.phi[[1, -2]] = 1e307
    ours = program_rate(state, SIMPLIFIED, homogeneous_bc())
    ref = reference_phi_time_derivative(state, SIMPLIFIED, homogeneous_bc())
    # where 2 phi overflows the reference's h is nan and phi_t nan; constant
    # h leaves phi_t +-inf there.  No step can be taken from such a state.
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(ours), finite)
    assert same_bits(ours[finite], ref[finite])
    dt = stability_bound(state.grid, SIMPLIFIED)
    t_ours = _advance(program_step, state, SIMPLIFIED, dt, homogeneous_bc(), None)[1]
    t_ref = _advance(reference_step_general, state, SIMPLIFIED, dt, homogeneous_bc(), None)[1]
    assert t_ours == t_ref == dt


def test_all_finite_finds_a_non_finite_value_in_either_row_and_at_the_ends():
    x = np.ones((2, 9))
    assert axisym.all_finite(x)
    for node in [(0, 0), (0, 4), (0, -1), (1, 0), (1, 4), (1, -1)]:
        for value in (math.inf, -math.inf, math.nan):
            y = x.copy()
            y[node] = value
            assert not axisym.all_finite(y), (node, value)
    # finite entries whose squares and plain sum overflow, with no warning
    y = np.full((2, 9), 1.7976931348623157e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert axisym.all_finite(y)
        assert axisym.all_finite(-y)


NON_FINITE = (math.inf, -math.inf, math.nan)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("end", ["w_left", "w_right", "phi_left", "phi_right"])
def test_non_finite_boundary_value_halts_both_steps_at_the_same_time(end, value):
    state = _pulse(32)
    dt = 0.8 * stability_bound(state.grid, SIMPLIFIED)
    # the end's data goes non-finite from the third step on
    bc = BoundaryData(**{end: lambda t: value if t > 2.5 * dt else 0.0})
    assert march_both(state, SIMPLIFIED, dt, bc, 10, explicit_t=True) == 3 * dt


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_overflowing_velocity_halts_both_steps_at_the_same_time(sign):
    # w_{i+1} - w_i overflows in the w row; the flux carries +-inf and nan
    state = _pulse(32)
    state.w[15], state.w[16] = sign * 1.7e308, -sign * 1.7e308
    dt = 0.8 * stability_bound(state.grid, SIMPLIFIED)
    assert march_both(state, SIMPLIFIED, dt, homogeneous_bc(), 10) == dt


def test_finite_state_whose_sum_overflows_marches_without_a_warning():
    # every value is finite and the step stays finite, but the plain sum
    # of the state passes the largest double
    grid = IntervalGrid(10.0, 64)
    w = 1.5e308 * (1.0 - 0.01 * np.exp(-(grid.x**2)))
    state = PoiseuilleState(grid, w=w, phi=0.3 * np.exp(-(grid.x**2)))
    bc = BoundaryData(w_left=lambda t: w[0], w_right=lambda t: w[-1])
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(np.stack([state.w, state.phi])))
    dt = 0.8 * stability_bound(grid, SIMPLIFIED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert march_both(state, SIMPLIFIED, dt, bc, 20) is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_phi_t_sum_near_overflow_matches_reference():
    # h (phi_t,0 + phi_t,1) overflows where (h / 2) (phi_t,0 + phi_t,1) does not
    bc = BoundaryData(phi_left_rate=lambda t: 1.5e308)
    state = _pulse(16)
    dt = 0.8 * stability_bound(state.grid, CONSTANT_15)
    assert march_both(state, CONSTANT_15, dt, bc, 20) is None


def test_recorded_phi_t_rows_with_pressure_gradient_match_reference():
    # h = 1.5: under h = 1 the order of the h product cannot show
    c = CONSTANT_15
    state = _pulse(128, L=5.0, amplitude=1.5, a=0.7)
    dt = 0.8 * stability_bound(state.grid, c)
    trace = simulate(state, c, dt, 70 * dt, homogeneous_bc(), 7)
    assert trace.n_snapshots == 11
    for t, w, phi, phi_t in zip(trace.times, trace.ws, trace.phis, trace.phi_ts):
        row = PoiseuilleState(state.grid, w, phi, float(t), state.a)
        assert same_bits(phi_t, reference_phi_time_derivative(row, c, homogeneous_bc()))


def _forced_arrays(c):
    """A copy of ``c`` whose steps take g and h as per-step ``g_coeff`` and
    ``h_coeff`` arrays: ``constant_gh`` is a cached property, read from the
    instance first."""
    forced = LeslieCoefficients(*c.as_tuple())
    vars(forced)["constant_gh"] = None
    return forced


@pytest.mark.parametrize("c", [SIMPLIFIED, CONSTANT_15])
@pytest.mark.parametrize("data", ["counterexample", "pulse"])
def test_constant_g_and_h_give_the_same_bytes_as_scalars_and_as_arrays(c, data):
    # one kernel: the folded scalars and the arrays times the same factors
    if data == "counterexample":
        grid = IntervalGrid(5.0, 200)
        state = PoiseuilleState(grid, w=-2.0 * grid.x, phi=np.zeros(201))
        bc = counterexample_bc(5.0)
    else:
        state, bc = _pulse(128, L=5.0, amplitude=1.5, a=0.7), homogeneous_bc()
    forced = _forced_arrays(c)
    assert c.constant_gh is not None and forced.constant_gh is None
    dt = 0.8 * stability_bound(state.grid, c)
    scalars = simulate(state, c, dt, 250 * dt, bc, 5)
    arrays_ = simulate(state, forced, dt, 250 * dt, bc, 5)
    for name in ("times", "ws", "phis", "phi_ts"):
        assert getattr(scalars, name).tobytes() == getattr(arrays_, name).tobytes(), name


U = 2.0**-53  # unit roundoff


def gamma(k):
    return k * U / (1.0 - k * U)


def term_magnitudes(state, c, dt, bc):
    """(X, M_phi, M_w): phi_t, the new phi and the new interior w with every
    input replaced by its absolute value and every difference by a sum."""
    dx, lam = state.grid.dx, abs(c.lambda1)
    phi, w = np.abs(state.phi), np.abs(state.w)
    mid = 0.5 * (state.phi[:-1] + state.phi[1:])
    g_mid, h_mid = np.abs(g_coeff(c, mid)), np.abs(h_coeff(c, mid))
    x = np.empty_like(phi)
    x[1:-1] = (phi[2:] + 2.0 * phi[1:-1] + phi[:-2]) / (lam * dx**2) + np.abs(
        h_coeff(c, state.phi[1:-1])
    ) * (w[2:] + 2.0 * w[1:-1] + w[:-2]) / (2.0 * dx * lam)
    x[0], x[-1] = abs(bc.phi_left_rate(state.t)), abs(bc.phi_right_rate(state.t))
    flux = g_mid * (w[1:] + w[:-1]) / dx + 0.5 * h_mid * (x[:-1] + x[1:])
    m_w = w[1:-1] + dt * (abs(state.a) + (flux[1:] + flux[:-1]) / dx)
    return x, phi + dt * x, m_w


def _one_step_cases():
    c = sample_validated(np.random.default_rng(3))
    pulse = _pulse(128, L=5.0, amplitude=2.0, a=-0.3)
    grid = IntervalGrid(5.0, 200)
    counter = PoiseuilleState(grid, w=-2.0 * grid.x, phi=np.full(201, 0.25), t=0.25)
    return [
        (counter, SIMPLIFIED, counterexample_bc(5.0)),
        (_pulse(256, amplitude=1.5, a=0.7), SIMPLIFIED, homogeneous_bc()),
        (_pulse(256, amplitude=1.5, a=0.7), CONSTANT_15, homogeneous_bc()),
        (pulse, c, counterexample_bc(5.0)),
        (pulse, LeslieCoefficients(-c.mu1, *c.as_tuple()[1:]), counterexample_bc(5.0)),
    ]


@pytest.mark.parametrize("case", range(5))
def test_one_step_is_within_rounding_of_the_per_term_step(case):
    """One step of the program against ``per_term_step_general`` from the
    same state.

    Both evaluate the same real expression of the same doubles (w, phi, the
    g and h values, dt, dx, lambda1, a and the boundary rates).  Higham's
    Lemma 3.1: when every path from an input to the result passes through
    at most k roundings, divisions and rounded factors (dx^2, dx/2, ...)
    included, the computed value lies within gamma_k = k u / (1 - k u) of
    the exact one times the magnitude M, the expression with every input
    taken by its absolute value and every difference made a sum.  The two
    orders expand to the same terms, except that the folded one forms
    w_{i+1} - w_{i-1} as (w_{i+1} - w_i) + (w_i - w_{i-1}), so M counts
    2 |w_i| there.  With no overflow or underflow, the roundings per path:

    - phi_t.  Per term: phi - 2 phi, + phi, / fl(dx^2) (two), - the w term,
      / lambda1: 6; the w term w - w, / 2 dx, * h, -, / lambda1: 5.  Folded:
      phi - 2 phi, + phi, - the w term, / fl(lambda1 fl(dx^2)) (three): 6;
      the w term dw, the sum, * fl(h fl(dx/2)) (two), -, the divisor
      (three): 8.  So |difference| <= (gamma_6 + gamma_8) X.
    - phi.  One product by dt and one sum more: gamma_8 + gamma_10.
    - w.  Per term, phi_t (6), the phi_t sum, * fl(h 0.5), the flux sum,
      the flux difference, / dx, - a, * dt, + w: 15.  Folded, phi_t (8),
      the sum, * fl(h fl(dt / 2 dx)) (three), the flux sum, the difference,
      - dt a, + w: 16.  The g paths are shorter (9 each).  So
      gamma_15 + gamma_16.

    M is itself a floating-point sum, within a relative 1e-14 of its exact
    value; the bounds take it times 1.001.  The ends are the boundary data
    on both sides and must be equal."""
    state, c, bc = _one_step_cases()[case]
    dt = 0.8 * stability_bound(state.grid, c)
    x, m_phi, m_w = term_magnitudes(state, c, dt, bc)
    ours_rate = program_rate(state, c, bc)
    ref_rate = per_term_phi_time_derivative(state, c, bc)
    assert np.all(np.abs(ours_rate - ref_rate) <= (gamma(6) + gamma(8)) * 1.001 * x)
    ours = program_step(state, c, dt, bc)
    ref = per_term_step_general(state, c, dt, bc)
    assert ours.t == ref.t
    assert np.all(np.abs(ours.phi - ref.phi) <= (gamma(8) + gamma(10)) * 1.001 * m_phi)
    assert np.all(np.abs(ours.w[1:-1] - ref.w[1:-1]) <= (gamma(15) + gamma(16)) * 1.001 * m_w)
    assert np.array_equal(ours.w[[0, -1]], ref.w[[0, -1]])
    assert np.array_equal(ours.phi[[0, -1]], ref.phi[[0, -1]])


# ---------------------------------------------------------------------------
# the run loop and the trace diagnostics


def reference_simulate(state0, c, dt, t_end, bc, snapshot_stride=1):
    t0 = state0.t
    n_steps = axisym.step_count(t0, t_end, dt)
    times = np.empty(2 + n_steps // snapshot_stride)
    ws, phis, phi_ts = (np.empty((len(times), len(state0.w))) for _ in range(3))

    def record(j, state):
        times[j], ws[j], phis[j] = state.t, state.w, state.phi
        phi_ts[j] = reference_phi_time_derivative(state, c, bc)

    record(0, state0)
    j = 1
    state = state0
    for k in range(1, n_steps + 1):
        t_k = t_end if k == n_steps else t0 + k * dt
        state = reference_step_general(state, c, dt, bc, t_k)
        if k % snapshot_stride == 0 or k == n_steps:
            record(j, state)
            j += 1
    return PoiseuilleTrace(state0.grid, bc, c, state0.a, times[:j], ws[:j], phis[:j], phi_ts[:j])


def reference_velocity_potential(trace, i):
    v = cumulative_trapezoid(trace.ws[i], trace.grid.x, initial=0.0)
    return v + trace.bc.v_left(float(trace.times[i]))


def reference_heat_reduction_check(trace):
    dx = trace.grid.dx
    s = np.array(
        [reference_velocity_potential(trace, i) + trace.phis[i] for i in range(trace.n_snapshots)]
    )
    worst = 0.0
    for m in range(trace.n_snapshots - 1):
        dt_m = float(trace.times[m + 1] - trace.times[m])
        s_t = (s[m + 1, 1:-1] - s[m, 1:-1]) / dt_m
        s_xx = (s[m, 2:] - 2.0 * s[m, 1:-1] + s[m, :-2]) / dx**2
        worst = max(worst, float(np.max(np.abs(s_t - s_xx))))
    return worst


def reference_energies(trace, i):
    x = trace.grid.x
    dx = trace.grid.dx
    w = trace.ws[i]
    phi_x = axisym.first_derivative(trace.phis[i], dx)
    w_x = axisym.first_derivative(w, dx)
    phi_t = trace.phi_ts[i]
    e = 0.5 * float(np.trapezoid(w**2 + phi_x**2, x))
    c = trace.coeffs
    if c == SIMPLIFIED:  # g = 2, h = 1, lambda1 = 2
        d = float(np.trapezoid(w_x**2 + phi_t**2 + (w_x + phi_t) ** 2, x))
        return e, d
    # int(g w_x^2 + 2 h w_x phi_t + lambda1 phi_t^2), with g and h at the
    # nodes, summed in the program's order; the plain sum is within rounding
    g, h = g_coeff(c, trace.phis[i]), h_coeff(c, trace.phis[i])
    d = float(np.trapezoid(
        ((g - 1.0) * w_x**2 + (c.lambda1 - 1.0) * phi_t**2)
        + (w_x + phi_t) ** 2 + 2.0 * (h - 1.0) * w_x * phi_t, x
    ))
    plain = np.trapezoid(g * w_x**2 + 2.0 * h * w_x * phi_t + c.lambda1 * phi_t**2, x)
    assert d == pytest.approx(plain, rel=1e-12, abs=1e-12)
    return e, d


def reference_energy_identity_residual(trace):
    pairs = [reference_energies(trace, i) for i in range(trace.n_snapshots)]
    e = np.array([p[0] for p in pairs])
    d = np.array([p[1] for p in pairs])
    de = np.diff(e) / np.diff(trace.times)
    if trace.a == 0.0:
        resid = float(np.max(np.abs(de + 0.5 * (d[:-1] + d[1:]))))
    else:  # dE/dt + D = -a int w
        w_int = np.array([np.trapezoid(w, trace.grid.x) for w in trace.ws])
        work = trace.a * (0.5 * (w_int[:-1] + w_int[1:]))
        resid = float(np.max(np.abs(de + 0.5 * (d[:-1] + d[1:]) + work)))
    edge = max(
        float(np.max(np.abs(trace.ws[:, [0, -1]]))),
        float(np.max(np.abs(trace.phi_ts[:, [0, -1]]))),
    )
    return resid, edge > 1e-12, e, d


def assert_diagnostics_match(trace, heat=True):
    e, d = energies(trace)
    pairs = [reference_energies(trace, i) for i in range(trace.n_snapshots)]
    assert np.array_equal(e, [p[0] for p in pairs], equal_nan=True)
    assert np.array_equal(d, [p[1] for p in pairs], equal_nan=True)
    v = velocity_potential(trace)
    assert v.shape == (trace.n_snapshots, trace.grid.n_cells + 1)
    for i in range(trace.n_snapshots):
        assert np.array_equal(v[i], reference_velocity_potential(trace, i), equal_nan=True)
    result = energy_identity_residual(trace)
    resid, warning, e_ref, d_ref = reference_energy_identity_residual(trace)
    assert result.residual == resid and result.boundary_warning == warning
    assert np.array_equal(result.energies, e_ref) and np.array_equal(result.dissipations, d_ref)
    if heat:
        assert heat_reduction_check(trace) == reference_heat_reduction_check(trace)


def assert_traces_equal(ours, ref):
    for name in ("times", "ws", "phis", "phi_ts"):
        assert np.array_equal(getattr(ours, name), getattr(ref, name)), name


def test_counterexample_trace_and_diagnostics_match_reference():
    trace = simulate(*counterexample_setup(5.0, 200, 0.5))
    report = counterexample_report(trace)
    dt, stride = poiseuille.plan_run(trace.grid, SIMPLIFIED, 0.5)
    state0 = PoiseuilleState(trace.grid, w=-2.0 * trace.grid.x, phi=np.zeros(201))
    ref = reference_simulate(state0, SIMPLIFIED, dt, 0.5, trace.bc, stride)
    assert_traces_equal(trace, ref)
    assert report.heat_residual == reference_heat_reduction_check(ref)
    assert_diagnostics_match(trace)


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_sampled_coefficient_traces_and_diagnostics_match_reference(seed):
    c = sample_validated(np.random.default_rng(seed))
    for state, bc in [
        (_pulse(128, L=5.0, amplitude=2.0, a=-0.3), counterexample_bc(5.0)),
        (_pulse(96, amplitude=20.0), homogeneous_bc()),
    ]:
        dt = 0.8 * stability_bound(state.grid, c)
        trace = simulate(state, c, dt, 222 * dt, bc, 1)
        assert trace.n_snapshots == 223
        assert_traces_equal(trace, reference_simulate(state, c, dt, 222 * dt, bc, 1))
        assert_diagnostics_match(trace)


@pytest.mark.parametrize("stride", [3, 7, 50, 100])
def test_stride_off_the_step_count_matches_reference(stride):
    # 68 steps from t0 = 0.25 to 0.2568, which t0 + 68 dt misses by one ulp:
    # the last step is off every stride
    state = _pulse(64, amplitude=1.5)
    state.t = 0.25
    trace = simulate(state, SIMPLIFIED, 1e-4, 0.2568, homogeneous_bc(), stride)
    ref = reference_simulate(state, SIMPLIFIED, 1e-4, 0.2568, homogeneous_bc(), stride)
    assert trace.n_snapshots == 2 + 68 // stride
    assert_traces_equal(trace, ref)
    if trace.n_snapshots >= 3:  # stride 100 records the first and last steps
        assert_diagnostics_match(trace)


@pytest.mark.parametrize("chunk", [1, 65 * 3, 10**9])
def test_energies_do_not_depend_on_the_block_size(monkeypatch, chunk):
    # 1 value: one row per block; 3 rows; the whole trace in one block
    state = _pulse(64, amplitude=1.5)
    trace = simulate(state, SIMPLIFIED, 1e-3, 0.04, homogeneous_bc(), 3)
    monkeypatch.setattr(axisym, "CHUNK_VALUES", chunk)
    assert_diagnostics_match(trace)


def test_heat_check_passes_over_a_nan_pair_as_the_reference_does():
    state = _pulse(64, amplitude=1.5)
    trace = simulate(state, SIMPLIFIED, 1e-3, 0.02, homogeneous_bc(), 2)
    trace.phis[4] = np.nan  # snapshot pairs 3 and 4 have nan residuals
    checked = heat_reduction_check(trace)
    assert checked == reference_heat_reduction_check(trace) and checked > 0.0


FINITE = st.floats(-1e300, 1e300)
DOUBLES = FINITE | st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])


@st.composite
def potential_traces(draw):
    """A trace of 1-50 snapshots of 2-300 nodes, with any doubles for w and
    sorted finite x, under the counterexample's v_left."""
    rows, nodes = draw(st.integers(1, 50)), draw(st.integers(2, 300))
    ws = draw(arrays(np.float64, (rows, nodes), elements=DOUBLES))
    x = np.sort(draw(arrays(np.float64, nodes, elements=FINITE)))
    times = np.arange(rows) * 0.25
    # velocity_potential reads only grid.x, which IntervalGrid (at least 16
    # cells) cannot give for every node count drawn here
    grid = SimpleNamespace(x=x)
    return PoiseuilleTrace(grid, counterexample_bc(10.0), SIMPLIFIED, 0.0, times, ws, ws, ws)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is drawn on purpose
@settings(max_examples=200, deadline=None)
@given(potential_traces())
def test_velocity_potential_is_scipys_cumulative_trapezoid(trace):
    v_left = np.array([trace.bc.v_left(float(t)) for t in trace.times])
    ref = cumulative_trapezoid(trace.ws, trace.grid.x, axis=1, initial=0.0)
    ref = ref + v_left[:, np.newaxis]
    v = velocity_potential(trace)
    assert np.array_equal(v, ref, equal_nan=True)
    signed = ~np.isnan(ref)  # zeros keep their sign, as CSV text shows it
    assert np.array_equal(np.signbit(v[signed]), np.signbit(ref[signed]))


# t0 + k dt misses t_end by one ulp at the last step in the last two cases:
# 700 * 1e-3 and 0.25 + 68 * 1e-4
@pytest.mark.parametrize(
    "t0, t_end, dt, stride",
    [(0.0, 0.011, 1e-3, 1), (0.0, 0.7, 1e-3, 9), (0.25, 0.2568, 1e-4, 5)],
)
def test_radial_and_poiseuille_runs_record_the_same_times(t0, t_end, dt, stride):
    radial0 = axisym.make_state(axisym.RadialGrid(16), lambda r: 0.1 * r)
    radial0.t = t0
    radial = axisym.simulate(
        radial0,
        LeslieCoefficients(0.0, -0.5, 0.5, 1.0, 0.0, 0.0),
        axisym.SolverParams(dt=dt, t_end=t_end),
        stride,
    )
    state = _pulse(32)
    state.t = t0
    pois = simulate(state, SIMPLIFIED, dt, t_end, homogeneous_bc(), stride)
    assert not radial.halted
    assert radial.times.tolist() == pois.times.tolist()
    assert pois.times[-1] == t_end
