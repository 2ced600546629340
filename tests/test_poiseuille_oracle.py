"""The Poiseuille step against a reference copy of its original form.

The references below evaluate g and h through ``coeffs.g_coeff`` and
``coeffs.h_coeff`` on every call (four cosines and sines per step), with
fresh temporaries and separate w and phi arrays.  The lean step in
``nematiclab.poiseuille`` must agree with them bit for bit: w, phi and t
after every step, and the time at which a non-finite step halts.
"""

import numpy as np
import pytest

from nematiclab.coeffs import (
    LeslieCoefficients,
    g_coeff,
    h_coeff,
    sample_validated,
    simplified_coefficients,
)
from nematiclab.errors import SolverHalt
from nematiclab.poiseuille import (
    IntervalGrid,
    PoiseuilleState,
    counterexample_bc,
    homogeneous_bc,
    phi_time_derivative,
    stability_bound,
    step_general,
)

SIMPLIFIED = simplified_coefficients()


def reference_phi_time_derivative(state, c, bc):
    dx = state.grid.dx
    phi, w = state.phi, state.w
    out = np.empty_like(phi)
    d2phi = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dx**2
    d1w = (w[2:] - w[:-2]) / (2.0 * dx)
    out[1:-1] = (d2phi - h_coeff(c, phi[1:-1]) * d1w) / c.lambda1
    out[0] = bc.phi_left_rate(state.t)
    out[-1] = bc.phi_right_rate(state.t)
    return out


def reference_step_general(state, c, dt, bc, t_new=None):
    grid = state.grid
    dx = grid.dx
    phi, w = state.phi, state.w
    phi_t = reference_phi_time_derivative(state, c, bc)

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


def _advance(step, state, c, dt, bc, t_new):
    """(state, None) after one step, or (None, t) when it halts at t."""
    try:
        return step(state, c, dt, bc, t_new), None
    except SolverHalt as exc:
        return None, exc.t


def march_both(state0, c, dt, bc, n_steps=200, explicit_t=False):
    """Step the program and the reference side by side from copies of one
    state; assert they agree bit for bit.  Returns the halt time, or None
    when all n_steps ran."""
    ours = PoiseuilleState(state0.grid, state0.w.copy(), state0.phi.copy(), state0.t, state0.a)
    ref = state0
    for k in range(1, n_steps + 1):
        t_new = state0.t + k * dt if explicit_t else None
        assert np.array_equal(
            phi_time_derivative(ours, c, bc),
            reference_phi_time_derivative(ref, c, bc),
            equal_nan=True,
        ), f"phi_t before step {k} differs"
        ours, t_ours = _advance(step_general, ours, c, dt, bc, t_new)
        ref, t_ref = _advance(reference_step_general, ref, c, dt, bc, t_new)
        assert t_ours == t_ref, f"step {k}: halts at {t_ours} and {t_ref}"
        if t_ref is not None:
            return t_ref
        assert ours.t == ref.t, f"step {k}: t differs"
        assert np.array_equal(ours.w, ref.w), f"step {k}: w differs"
        assert np.array_equal(ours.phi, ref.phi), f"step {k}: phi differs"
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_non_finite_step_halts_at_the_same_time():
    # six times the step bound: the explicit step grows the pulse until it
    # overflows, at step 456
    state = _pulse(64)
    dt = 6.0 * stability_bound(state.grid, SIMPLIFIED)
    t_halt = march_both(state, SIMPLIFIED, dt, homogeneous_bc(), 1000)
    assert t_halt is not None and t_halt > 200 * dt
