"""The Crank-Nicolson step against a reference copy of its original form.

The reference rebuilds the tridiagonal bands on every step and solves with
``scipy.linalg.solve_banded``.  The cached-band step in
``nematiclab.axisym``, driven through ``simulate`` (a batch of one run),
must agree with it bit for bit.

Both take the reaction -sin(2 phi)/(2 r^2) - 3 lambda2 sin(phi) cos(phi)
from one sine, as -s/(2 r^2) - 1.5 lambda2 s with s = sin(2 phi).  The last
tests relate that to the form the paper writes: the same doubles, whole CN
and RK4 steps included, when lambda2 = +-0.0, and a derived ulp bound
otherwise.
"""

import math

import numpy as np
from scipy.linalg import solve_banded

from nematiclab import axisym
from nematiclab.axisym import RadialGrid, RadialState, SolverParams, make_state, rhs, simulate
from nematiclab.coeffs import LeslieCoefficients

L2_HALF = LeslieCoefficients(0, -0.25, 0.75, 1, 0, 0.5)  # lambda1=1, lambda2=0.5
L2_NEG = LeslieCoefficients(0, -0.75, 0.75, 1, 0, -0.5)  # lambda1=1.5, lambda2=-0.5
L2_PLUS_ZERO = LeslieCoefficients(0, -0.5, 0.5, 1, 0.0, 0.0)  # lambda2 = 0.0 - 0.0 = +0.0
L2_MINUS_ZERO = LeslieCoefficients(0, -0.5, 0.5, 1, 0.0, -0.0)  # lambda2 = -0.0 - 0.0 = -0.0


def folded_reaction(p, r, c):
    """The reaction from one sine, as the program takes it."""
    s = np.sin(2.0 * p)
    return -s / (2.0 * r**2) - 1.5 * c.lambda2 * s


def sincos_reaction(p, r, c):
    """The reaction as the paper writes it."""
    return -np.sin(2.0 * p) / (2.0 * r**2) - 3.0 * c.lambda2 * np.sin(p) * np.cos(p)


def reference_rhs(phi, grid, c, reaction=folded_reaction):
    dr = grid.dr
    r = grid.r[1:-1]
    p = phi[1:-1]
    d1 = (phi[2:] - phi[:-2]) / (2.0 * dr)
    d2 = (phi[2:] - 2.0 * p + phi[:-2]) / dr**2
    return (d2 + d1 / r + reaction(p, r, c)) / c.lambda1 - r * d1


def reference_explicit_terms(phi, grid, c, reaction=folded_reaction):
    dr = grid.dr
    r = grid.r[1:-1]
    p = phi[1:-1]
    d1 = (phi[2:] - phi[:-2]) / (2.0 * dr)
    return reaction(p, r, c) / c.lambda1 - r * d1


def reference_step_cn(phi, grid, c, dt, reaction=folded_reaction):
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
        + dt * reference_explicit_terms(phi, grid, c, reaction)
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


def reference_step_rk4(phi, grid, c, dt, reaction):
    def f(ph):
        return reference_rhs(ph, grid, c, reaction)

    k1 = f(phi)
    ph2 = phi.copy()
    ph2[1:-1] += 0.5 * dt * k1
    k2 = f(ph2)
    ph3 = phi.copy()
    ph3[1:-1] += 0.5 * dt * k2
    k3 = f(ph3)
    ph4 = phi.copy()
    ph4[1:-1] += dt * k3
    k4 = f(ph4)
    out = phi.copy()
    out[1:-1] += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def program_step(state, c, dt, scheme="semi_implicit", clip_guard=None):
    """One step of the program: a batch of one run that is one step long."""
    params = SolverParams(dt=dt, scheme=scheme, t_end=state.t + dt, clip_guard=clip_guard)
    trace = simulate(state, c, params)
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


# ---------------------------------------------------------------------------
# the one-sine reaction against sin(phi) cos(phi)


def awkward_angles():
    """Signed zeros, the smallest subnormal, angles a few ulps around
    multiples of pi/2 up to 2 pi (where sin(2 phi) and sin(phi) cos(phi)
    are nearest zero), and a random spread."""
    centres = [k * np.pi / 2.0 for k in range(-4, 5) if k != 0]
    near = [np.nextafter(x, x + d) for x in centres for d in (-1.0, 1.0)]
    near += [np.nextafter(np.nextafter(x, np.inf), np.inf) for x in centres]
    spread = np.random.default_rng(23).uniform(-7.0, 7.0, 2000)
    return np.concatenate([[0.0, -0.0, 5e-324, -5e-324], centres, near, spread])


def same_doubles(a, b):
    return a.tobytes() == b.tobytes()  # signed zeros too


def test_folded_reaction_is_the_sincos_reaction_bit_for_bit_when_lambda2_is_zero():
    p = awkward_angles()
    r = np.linspace(0.0, 1.0, len(p) + 2)[1:-1]
    for c in (L2_PLUS_ZERO, L2_MINUS_ZERO):
        folded = axisym._reaction(2.0 * p, 2.0 * r**2, 1.5 * c.lambda2)
        assert same_doubles(folded, sincos_reaction(p, r, c))
    assert math.copysign(1.0, L2_MINUS_ZERO.lambda2) < 0.0


def test_folded_steps_are_the_sincos_steps_bit_for_bit_when_lambda2_is_zero():
    # interior nodes at +0.0 and -0.0 and around pi/2 and pi, whose jumps
    # pass any gradient guard; the first and last node stay the Dirichlet
    # values
    grid = RadialGrid(64)
    p = awkward_angles()
    phi = np.concatenate([[0.0], p[: grid.n_cells - 1], [np.pi]])
    assert {math.copysign(1.0, x) for x in phi[1:-1] if x == 0.0} == {1.0, -1.0}
    state = RadialState(grid, phi)
    for c in (L2_PLUS_ZERO, L2_MINUS_ZERO):
        cn = program_step(state, c, 1e-4, clip_guard=math.inf).phi
        assert same_doubles(cn, reference_step_cn(phi, grid, c, 1e-4, sincos_reaction))
        rk4 = program_step(state, c, 5e-5, "explicit", math.inf).phi
        assert same_doubles(rk4, reference_step_rk4(phi, grid, c, 5e-5, sincos_reaction))
        assert same_doubles(rhs(state, c), reference_rhs(phi, grid, c, sincos_reaction))


def test_folded_reaction_is_within_a_derived_ulp_bound_of_the_sincos_reaction():
    """With lambda2 != 0 the two forms round differently.  With k = 1.5
    lambda2, T = k sin(2 phi) = 3 lambda2 sin(phi) cos(phi) exactly, and
    u = 2**-53.  sin and cos are within one ulp (relative error 2u) and
    each product or 1.5 lambda2 and 3 lambda2 rounds once (relative error
    u), so the folded term k s carries at most 4u |T| and the sin-cos term
    3 lambda2 sin(phi) cos(phi) at most 7u |T|: they differ by at most
    12u |T| <= 12u |k| <= 12 spacing(|k|).  Both subtract their term from
    the same -s/(2 r^2) and round once more, by at most half a spacing of
    each result."""
    p = awkward_angles()
    r = np.linspace(0.0, 1.0, len(p) + 2)[1:-1]
    moved = 0
    for lambda2 in (0.5, -0.5, 0.3, -1.7, 7.3e-3, 41.0):
        c = LeslieCoefficients(0, -0.5, 0.5, 1, 0.0, lambda2)
        k = 1.5 * c.lambda2
        folded = axisym._reaction(2.0 * p, 2.0 * r**2, k)
        sincos = sincos_reaction(p, r, c)
        bound = 12.0 * np.spacing(abs(k)) + 0.5 * (
            np.spacing(np.abs(folded)) + np.spacing(np.abs(sincos))
        )
        assert np.all(np.abs(folded - sincos) <= bound), lambda2
        moved += np.count_nonzero(folded != sincos)
    assert moved > 0  # the forms do round differently
