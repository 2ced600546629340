"""The radial steps against reference copies, in band order and per term.

Band order.  ``reference_operator`` splits phi_t of one run into the
three-point diffusion, the advection and the sine coefficient;
``reference_rhs`` applies the RK4 bands, and ``reference_step_cn`` forms the
Crank-Nicolson bands, applies them and solves with
``scipy.linalg.solve_banded``, rebuilding everything on every step.  The
program's steps, driven through ``simulate`` (a batch of one run), and
``rhs`` must agree with them bit for bit.

Per term.  ``per_term_rhs`` and ``per_term_step_cn`` are the steps as they
were before the bands: the differences of phi first, then each term with
its own division, and the reaction from one sine, as -s/(2 r^2) - 1.5
lambda2 s with s = sin(2 phi).  The two orders round differently.  The
last tests bound the difference of one Crank-Nicolson step and one RK4 step
by a bound derived from the magnitudes of the terms, and relate the
per-term reaction to the form the paper writes, sin(phi) cos(phi).
"""

import math

import numpy as np
from scipy.linalg import solve_banded

from nematiclab.axisym import RadialGrid, RadialState, SolverParams, make_state, rhs, simulate
from nematiclab.coeffs import LeslieCoefficients

L2_HALF = LeslieCoefficients(0, -0.25, 0.75, 1, 0, 0.5)  # lambda1=1, lambda2=0.5
L2_NEG = LeslieCoefficients(0, -0.75, 0.75, 1, 0, -0.5)  # lambda1=1.5, lambda2=-0.5

U = 2.0**-53  # unit roundoff
ETA = 2.0**-1074  # spacing of the subnormals


# ---------------------------------------------------------------------------
# band order


def reference_operator(grid, c):
    """(diag, upper, lower, adv, q) of phi_t = diag phi_i + upper phi_{i+1}
    + lower phi_{i-1} + adv (phi_{i-1} - phi_{i+1}) + q sin(2 phi_i)."""
    dr, r = grid.dr, grid.r[1:-1]
    two_dr, dr2 = 2.0 * dr, dr**2
    upper = (1.0 / dr2 + 1.0 / (two_dr * r)) / c.lambda1
    lower = (1.0 / dr2 - 1.0 / (two_dr * r)) / c.lambda1
    q = -(0.5 / r**2 + 1.5 * c.lambda2) / c.lambda1
    return -2.0 / dr2 / c.lambda1, upper, lower, r / two_dr, q


def reference_rhs(phi, grid, c):
    diag, upper, lower, adv, q = reference_operator(grid, c)
    p = phi[1:-1]
    return diag * p + (upper - adv) * phi[2:] + (lower + adv) * phi[:-2] + q * np.sin(2.0 * p)


def reference_step_cn(phi, grid, c, dt):
    diag, upper, lower, adv, q = reference_operator(grid, c)
    r = grid.r[1:-1]
    half = 0.5 * dt
    p = phi[1:-1]
    two_p = 2.0 * p
    dt_damp = dt / (c.lambda1 * r**2) * np.maximum(np.cos(two_p), 0.0)
    boundary = np.zeros(grid.n_cells - 1)
    boundary[-1] = half * upper[-1] * phi[-1] + 0.0
    rhs_vec = (
        (1.0 + half * diag) * p
        + (half * upper - dt * adv) * phi[2:]
        + (half * lower + dt * adv) * phi[:-2]
        + dt * q * np.sin(two_p)
        + boundary
        + dt_damp * p
    )
    ab = np.zeros((3, grid.n_cells - 1))
    ab[0, 1:] = -half * upper[:-1]
    ab[1, :] = (1.0 - half * diag) + dt_damp
    ab[2, :-1] = -half * lower[1:]
    out = phi.copy()
    out[1:-1] = solve_banded((1, 1), ab, rhs_vec)
    return out


def rk4_step(f, phi, dt):
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
    return out, (phi, ph2, ph3, ph4), (k1, k2, k3, k4)


def reference_step_rk4(phi, grid, c, dt):
    return rk4_step(lambda ph: reference_rhs(ph, grid, c), phi, dt)[0]


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
# per term, as before the bands


def folded_reaction(p, r, c):
    """The reaction from one sine."""
    s = np.sin(2.0 * p)
    return -s / (2.0 * r**2) - 1.5 * c.lambda2 * s


def sincos_reaction(p, r, c):
    """The reaction as the paper writes it."""
    return -np.sin(2.0 * p) / (2.0 * r**2) - 3.0 * c.lambda2 * np.sin(p) * np.cos(p)


def per_term_rhs(phi, grid, c):
    dr = grid.dr
    r = grid.r[1:-1]
    p = phi[1:-1]
    d1 = (phi[2:] - phi[:-2]) / (2.0 * dr)
    d2 = (phi[2:] - 2.0 * p + phi[:-2]) / dr**2
    return (d2 + d1 / r + folded_reaction(p, r, c)) / c.lambda1 - r * d1


def per_term_step_cn(phi, grid, c, dt):
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
    l_phi[-1] += 2.0 * (upper[-1] * phi[-1])

    damp = np.maximum(np.cos(2.0 * interior), 0.0) / (c.lambda1 * r**2)
    d1 = (phi[2:] - phi[:-2]) / (2.0 * dr)
    explicit = folded_reaction(interior, r, c) / c.lambda1 - r * d1
    rhs_vec = interior * (1.0 + dt * damp) + theta * l_phi + dt * explicit

    ab = np.zeros((3, n - 1))
    ab[0, 1:] = -theta * upper[:-1]
    ab[1, :] = 1.0 - theta * diag + dt * damp
    ab[2, :-1] = -theta * lower[1:]
    out = phi.copy()
    out[1:-1] = solve_banded((1, 1), ab, rhs_vec)
    return out


def per_term_step_rk4(phi, grid, c, dt):
    return rk4_step(lambda ph: per_term_rhs(ph, grid, c), phi, dt)[0]


def magnitudes(grid, c):
    """(P, S, A, Q) per interior node: the exact phi_t is P (phi_{i+1} -
    2 phi_i + phi_{i-1}) + S (phi_{i+1} - phi_{i-1}) - A (phi_{i+1} -
    phi_{i-1}) - (1/(2 r^2) + 1.5 lambda2) sin(2 phi_i) / lambda1, so P =
    1/(dr^2 lambda1), S = 1/(2 dr r lambda1), A = r/(2 dr), and Q bounds the
    sine coefficient."""
    dr, r, lam1 = grid.dr, grid.r[1:-1], c.lambda1
    return 1.0 / (dr * dr * lam1), 1.0 / (2.0 * dr * r * lam1), r / (2.0 * dr), (
        0.5 / r**2 + 1.5 * abs(c.lambda2)
    ) / lam1


def rate_size(psi, grid, c):
    """max_i of the sum of the absolute summands of phi_t at psi."""
    P, S, A, Q = magnitudes(grid, c)
    a = np.abs(psi)
    sizes = 2.0 * P * a[1:-1] + (P + S + A) * (a[2:] + a[:-2])
    return float(np.max(sizes + Q * np.abs(np.sin(2.0 * psi[1:-1]))))


def rk4_bound(phi, grid, c, dt):
    """A bound on the largest difference between one RK4 step from phi in
    band order and one per term.

    Let gamma_n = n u / (1 - n u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 3.1), and M(psi) the largest sum over a
    node of the absolute summands of phi_t (``rate_size``).  Count the
    roundings on the path of each summand, one ulp of a sine counting as
    two.  In band order a coefficient rounds at most seven times (the upper
    band: the pow of dr^2, two divisions, a product, a sum, the division by
    lambda1, then the advection's division and the difference), its
    product once and the sum of four products at most three times; the sine
    term adds its two: gamma_11.  Per term the longest path has eight
    roundings (the second difference: two sums, the pow and a division; then
    three sums and the division by lambda1 ... ): gamma_8.  Both are within
    their gamma of the exact rate at the same state, so the two rates differ
    by at most 20 u M.

    The stages then differ.  The exact rate changes by at most Lambda times
    the largest change of the state, Lambda = max_i (4 P + 2 S + 2 A + 2 Q)
    (the sine of 2 phi is Lipschitz with constant 2), and M by as much, so
    stage j differs by at most eps_j = 20 u (M_j + Lambda delta_j) + Lambda
    delta_j, where delta_j bounds the difference of the stage states and M_j
    is taken at the per-term stage.  A stage state phi + h k rounds twice
    in each order: delta_{j+1} <= (1 + 4u) h eps_j + 3u (h K_j + X_{j+1}),
    with K_j and X_{j+1} the largest per-term rate and stage value.  The
    last update sums the four rates (three roundings), scales by dt/6 and
    adds phi: (1 + 5u) dt/6 (eps_1 + 2 eps_2 + 2 eps_3 + eps_4) plus
    10u dt/6 (K_1 + 2 K_2 + 2 K_3 + K_4) plus 2u times the largest new
    value.  Rounding in the subnormals errs by an absolute eta/2 instead;
    2**10 eta covers every such rounding with any amplification a later
    division by dr or r can give it."""
    P, S, A, Q = magnitudes(grid, c)
    lam = float(np.max(4.0 * P + 2.0 * S + 2.0 * A + 2.0 * Q))
    new, states, rates = rk4_step(lambda ph: per_term_rhs(ph, grid, c), phi, dt)
    sizes = [float(np.max(np.abs(k))) for k in rates]
    steps = (0.5 * dt, 0.5 * dt, dt)
    delta, eps = 0.0, []
    for j, psi in enumerate(states):
        eps.append(20.0 * U * (rate_size(psi, grid, c) + lam * delta) + lam * delta + 2**10 * ETA)
        if j < 3:
            x_next = float(np.max(np.abs(states[j + 1])))
            delta = (1.0 + 4.0 * U) * steps[j] * eps[j] + 3.0 * U * (steps[j] * sizes[j] + x_next)
    weights = (1.0, 2.0, 2.0, 1.0)
    total = sum(w * e for w, e in zip(weights, eps))
    k_total = sum(w * k for w, k in zip(weights, sizes))
    return (
        (1.0 + 5.0 * U) * dt / 6.0 * total
        + 10.0 * U * dt / 6.0 * k_total
        + 2.0 * U * float(np.max(np.abs(new)))
        + 2**10 * ETA
    )


def cn_bound(phi, grid, c, dt):
    """A bound on the largest difference between one Crank-Nicolson step
    from phi in band order and one per term.

    Both orders take the same sin(2 phi) and max(cos(2 phi), 0): the same
    operations on the same doubles.  Let M_i be the sum of the absolute
    summands of the exact right-hand side at node i,

        (1 + dt P + dt D c_i) |phi_i| + (dt/2 (P + S) + dt A)
        (|phi_{i+1}| + |phi_{i-1}|) + dt Q |s_i|,

    plus dt/2 (P + S) |phi(1)| on the last row (``magnitudes``; D = 1/(lambda1
    r^2), c_i = max(cos(2 phi_i), 0), s_i = sin(2 phi_i)).  In band order
    a summand rounds at most fourteen times (the upper band's six, the
    factor dt/2, the advection's two and the difference, the product, and
    the five sums), per term at most thirteen (the stencil's five, the
    product and three sums of L phi, theta and its product, and the two
    sums of the right-hand side): the right-hand sides differ by at most
    28u M_i.  The diagonal rounds at most six times in each order and a
    coupling seven, so the matrices differ entrywise by at most 14u |A|.

    The matrix is strictly diagonally dominant with margin 1
    (DECISIONS.md section 7), so ||A^-1||_inf <= 1 (Varah's bound).
    Elimination without pivoting on a diagonally dominant tridiagonal
    matrix has |L||U| <= 3|A| (Higham, chapter 9, on tridiagonal systems),
    and the computed solution of each order solves (A + E) x = b with
    |E| <= 16u |A|.  So
    the solutions differ by at most 28u max M + (14u + 2 * 16u) ||A||_inf
    max |x|, which the test rounds up to 30u and 50u, plus 2**10 eta for
    the subnormals."""
    P, S, A, Q = magnitudes(grid, c)
    r = grid.r[1:-1]
    a = np.abs(phi)
    damp = np.maximum(np.cos(2.0 * phi[1:-1]), 0.0) / (c.lambda1 * r**2)
    sizes = (
        (1.0 + dt * P + dt * damp) * a[1:-1]
        + (0.5 * dt * (P + S) + dt * A) * (a[2:] + a[:-2])
        + dt * Q * np.abs(np.sin(2.0 * phi[1:-1]))
    )
    sizes[-1] += 0.5 * dt * (P + S[-1]) * a[-1]
    norm_a = float(np.max(1.0 + 2.0 * dt * P + dt * damp))
    x = float(np.max(np.abs(per_term_step_cn(phi, grid, c, dt))))
    return 30.0 * U * float(np.max(sizes)) + 50.0 * U * norm_a * x + 2**10 * ETA


def awkward_angles():
    """Signed zeros, the smallest subnormal, angles a few ulps around
    multiples of pi/2 up to 2 pi (where sin(2 phi) and sin(phi) cos(phi)
    are nearest zero), and a random spread."""
    centres = [k * np.pi / 2.0 for k in range(-4, 5) if k != 0]
    near = [np.nextafter(x, x + d) for x in centres for d in (-1.0, 1.0)]
    near += [np.nextafter(np.nextafter(x, np.inf), np.inf) for x in centres]
    spread = np.random.default_rng(23).uniform(-7.0, 7.0, 2000)
    return np.concatenate([[0.0, -0.0, 5e-324, -5e-324], centres, near, spread])


LAMBDA2S = (0.0, -0.0, 0.5, -0.5, 0.3, -1.7, 7.3e-3, 41.0)


def test_band_steps_are_within_a_derived_ulp_bound_of_the_per_term_steps():
    # interior nodes at +0.0 and -0.0, the smallest subnormals and angles
    # around the multiples of pi/2, whose jumps pass any gradient guard; the
    # first and last node stay the Dirichlet values
    grid = RadialGrid(64)
    p = awkward_angles()
    phi = np.concatenate([[0.0], p[: grid.n_cells - 1], [np.pi]])
    assert {math.copysign(1.0, x) for x in phi[1:-1] if x == 0.0} == {1.0, -1.0}
    state = RadialState(grid, phi)
    worst, moved = 0.0, 0
    for lambda2 in LAMBDA2S:
        c = LeslieCoefficients(0, -0.5, 0.5, 1, 0.0, lambda2)
        for scheme, dt, per_term, bound in (
            ("semi_implicit", 1e-4, per_term_step_cn, cn_bound),
            ("explicit", 5e-5, per_term_step_rk4, rk4_bound),
        ):
            banded = program_step(state, c, dt, scheme, math.inf).phi
            diff = float(np.max(np.abs(banded - per_term(phi, grid, c, dt))))
            limit = bound(phi, grid, c, dt)
            assert diff <= limit, (lambda2, scheme, diff, limit)
            worst = max(worst, diff / limit)
            moved += int(diff > 0.0)
    assert moved > 0  # the orders do round differently
    assert worst > 1e-3  # and the bound is not vacuous


def test_folded_reaction_is_within_a_derived_ulp_bound_of_the_sincos_reaction():
    """The per-term reaction, from one sine, against the paper's sin(phi)
    cos(phi).  With k = 1.5 lambda2, T = k sin(2 phi) = 3 lambda2 sin(phi)
    cos(phi) exactly, and u = 2**-53.  sin and cos are within one ulp
    (relative error 2u) and each product or 1.5 lambda2 and 3 lambda2
    rounds once (relative error u), so the folded term k s carries at most
    4u |T| and the sin-cos term 3 lambda2 sin(phi) cos(phi) at most 7u |T|:
    they differ by at most 12u |T| <= 12u |k| <= 12 spacing(|k|).  Both
    subtract their term from the same -s/(2 r^2) and round once more, by at
    most half a spacing of each result."""
    p = awkward_angles()
    r = np.linspace(0.0, 1.0, len(p) + 2)[1:-1]
    moved = 0
    for lambda2 in LAMBDA2S[2:]:
        c = LeslieCoefficients(0, -0.5, 0.5, 1, 0.0, lambda2)
        k = 1.5 * c.lambda2
        folded = folded_reaction(p, r, c)
        sincos = sincos_reaction(p, r, c)
        bound = 12.0 * np.spacing(abs(k)) + 0.5 * (
            np.spacing(np.abs(folded)) + np.spacing(np.abs(sincos))
        )
        assert np.all(np.abs(folded - sincos) <= bound), lambda2
        moved += np.count_nonzero(folded != sincos)
    assert moved > 0  # the forms do round differently
