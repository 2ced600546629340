"""Hopf quadratures against reference copies of the whole-grid path, and the
ball energy against a one-dimensional reference.

The references below build the full (mesh, mesh, 2 mesh, 3) field with its
components on a trailing axis.  The sphere and the ball each sum one phi
column: each must equal 2 mesh times its reference's own column-0 sum bit
for bit, and the whole-grid reference within the reference's own phi
spread; their memory must stay bounded.  ``reference_ball_parts`` keeps the
ball grid whose polar axis is x[2], with the velocity quadrature, as the
accuracy comparator of the one-column ball.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from nematiclab import hopf
from nematiclab.axisym import first_derivative
from nematiclab.hopf import ball_energy_parts, dirichlet_energy_s3


def reference_hopf_arr(q):
    q0, q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            q0**2 + q1**2 - q2**2 - q3**2,
            2.0 * (q0 * q2 + q1 * q3),
            2.0 * (q1 * q2 - q0 * q3),
        ],
        axis=-1,
    )


def reference_psi_arr(q, lam):
    denom = 1.0 - q[..., 0]
    near_pole = denom < 1e-14
    safe = np.where(near_pole, 1.0, denom)
    y = q[..., 1:] * (lam / safe)[..., None]
    s = np.sum(y**2, axis=-1)
    out = np.empty_like(q)
    out[..., 0] = (s - 1.0) / (s + 1.0)
    out[..., 1:] = 2.0 * y / (s + 1.0)[..., None]
    if np.any(near_pole):
        out[near_pole] = hopf.POLE
    return out


def reference_grad_sq(f, h0, h1, h2, inv_m1, inv_m2):
    e2 = np.sum(first_derivative(f, h0, 0) ** 2, axis=-1)
    e2 += np.sum(first_derivative(f, h1, 1) ** 2, axis=-1) * inv_m1
    d2 = (np.roll(f, -1, axis=2) - np.roll(f, 1, axis=2)) / (2.0 * h2)
    e2 += np.sum(d2**2, axis=-1) * inv_m2
    return e2


def centered(n, width):
    h = width / n
    return (np.arange(n) + 0.5) * h, h


def reference_sphere_integrand(lam, mesh):
    """The weighted integrand e2 r^2 sin(theta) on the whole grid, and the
    spacings (h_chi, h_theta, h_phi)."""
    chi, h_chi = centered(mesh, np.pi)
    the, h_the = centered(mesh, np.pi)
    phi, h_phi = centered(2 * mesh, 2.0 * np.pi)
    sc, cc = np.sin(chi), np.cos(chi)
    st, ct = np.sin(the), np.cos(the)
    sp, cp = np.sin(phi), np.cos(phi)
    q = np.empty((mesh, mesh, 2 * mesh, 4))
    q[..., 0] = cc[:, None, None]
    q[..., 1] = sc[:, None, None] * ct[None, :, None]
    q[..., 2] = sc[:, None, None] * (st[None, :, None] * cp[None, None, :])
    q[..., 3] = sc[:, None, None] * (st[None, :, None] * sp[None, None, :])
    f = reference_hopf_arr(reference_psi_arr(q, lam))
    inv_m1 = 1.0 / sc[:, None, None] ** 2
    inv_m2 = inv_m1 / st[None, :, None] ** 2
    e2 = reference_grad_sq(f, h_chi, h_the, h_phi, inv_m1, inv_m2)
    weight = sc[:, None, None] ** 2 * st[None, :, None]
    return e2 * weight, (h_chi, h_the, h_phi)


def vortex(x):
    """The solenoidal vortex u = 4 (1-|x|^2) (-y, x, 0) on arrays (3, ...),
    whose half-integral energy is hopf.ball_energy_parts' velocity part."""
    rho2 = np.sum(x**2, axis=0)
    u = np.empty_like(x)
    u[0] = -4.0 * (1.0 - rho2) * x[1]
    u[1] = 4.0 * (1.0 - rho2) * x[0]
    u[2] = 0.0
    return u


def reference_ball_integrand(lam, mesh):
    """The weighted director integrand e2 rho^2 sin(theta) on the whole ball
    grid whose polar axis is x[0], and the spacings (h_rho, h_theta, h_phi).
    The chart takes the point rho n to (-cos(pi rho), sin(pi rho) n)."""
    rho, h_r = centered(mesh, 1.0)
    the, h_t = centered(mesh, np.pi)
    phi, h_p = centered(2 * mesh, 2.0 * np.pi)
    st, ct = np.sin(the), np.cos(the)
    sp, cp = np.sin(phi), np.cos(phi)
    ang = np.pi * rho
    s = np.sin(ang)[:, None, None]
    q = np.empty((mesh, mesh, 2 * mesh, 4))
    q[..., 0] = -np.cos(ang)[:, None, None]
    q[..., 1] = s * ct[None, :, None]
    q[..., 2] = s * (st[None, :, None] * cp[None, None, :])
    q[..., 3] = s * (st[None, :, None] * sp[None, None, :])
    f = reference_hopf_arr(reference_psi_arr(q, lam))
    inv_m1 = 1.0 / rho[:, None, None] ** 2
    inv_m2 = inv_m1 / st[None, :, None] ** 2
    e2 = reference_grad_sq(f, h_r, h_t, h_p, inv_m1, inv_m2)
    weight = rho[:, None, None] ** 2 * st[None, :, None]
    return e2 * weight, (h_r, h_t, h_p)


def reference_ball_parts(lam, mesh):
    """(velocity part, director part) on the whole ball grid whose polar axis
    is x[2]: the ball quadrature before it took one column."""
    rho, h_r = centered(mesh, 1.0)
    the, h_t = centered(mesh, np.pi)
    phi, h_p = centered(2 * mesh, 2.0 * np.pi)
    st, ct = np.sin(the), np.cos(the)
    sp, cp = np.sin(phi), np.cos(phi)
    x = np.empty((mesh, mesh, 2 * mesh, 3))
    x[..., 0] = rho[:, None, None] * st[None, :, None] * cp[None, None, :]
    x[..., 1] = rho[:, None, None] * st[None, :, None] * sp[None, None, :]
    x[..., 2] = rho[:, None, None] * ct[None, :, None]
    weight = rho[:, None, None] ** 2 * st[None, :, None]
    cell = h_r * h_t * h_p

    u2 = np.sum(vortex(np.moveaxis(x, -1, 0)) ** 2, axis=0)
    e_vel = 0.5 * lam**-2 * float(np.sum(u2 * weight) * cell)

    r = np.linalg.norm(x, axis=-1)
    ang = np.pi * r
    q = np.empty(x.shape[:-1] + (4,))
    q[..., 0] = -np.cos(ang)
    q[..., 1:] = x * (np.sin(ang) / r)[..., None]
    f = reference_hopf_arr(reference_psi_arr(q, lam))
    inv_m1 = 1.0 / rho[:, None, None] ** 2
    inv_m2 = inv_m1 / st[None, :, None] ** 2
    e2 = reference_grad_sq(f, h_r, h_t, h_p, inv_m1, inv_m2)
    e_dir = 0.5 * float(np.sum(e2 * weight) * cell)
    return e_vel, e_dir


def exact_ball_director(lam):
    """The director part as a 1-D integral (DECISIONS.md section 5):
    (16 pi/3) int_0^1 Omega^2 (pi^2 rho^2 + 2 sin^2(pi rho)) drho with the
    dilation's conformal factor Omega = 2 lam / (1 + c + lam^2 (1 - c)),
    c = cos(pi rho)."""
    def integrand(rho):
        c = np.cos(np.pi * rho)
        omega = 2.0 * lam / (1.0 + c + lam**2 * (1.0 - c))
        return omega**2 * (np.pi**2 * rho**2 + 2.0 * np.sin(np.pi * rho) ** 2)

    value, _ = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return 16.0 * np.pi / 3.0 * value


MESHES = (16, 17, 23, 48, 64)
LAMBDAS = (1.0, 2.5, 8.0, 40.0)


@pytest.mark.parametrize("mesh", MESHES)
def test_sphere_energy_is_2mesh_times_the_reference_column(mesh):
    for lam in LAMBDAS:
        integrand, (h_chi, h_the, h_phi) = reference_sphere_integrand(lam, mesh)
        column = np.ascontiguousarray(integrand[:, :, 0])
        expected = float(np.sum(column) * (2 * mesh) * h_chi * h_the * h_phi)
        assert dirichlet_energy_s3(lam, mesh) == expected


@pytest.mark.parametrize("mesh", (16, 17, 64))
def test_reference_integrand_does_not_depend_on_phi(mesh):
    # exact arithmetic gives every phi column the same integrand; the
    # measured worst spread is 9.1e-15 of the column maximum (mesh 64)
    for lam in LAMBDAS:
        integrand, _ = reference_sphere_integrand(lam, mesh)
        spread = np.max(np.ptp(integrand, axis=2))
        assert spread <= 1e-13 * np.max(integrand[:, :, 0])


@pytest.mark.parametrize("mesh", MESHES)
def test_sphere_energy_equals_whole_grid_reference(mesh):
    # the whole grid sums 2 mesh columns that differ by rounding only, so the
    # energies may differ by the reference's own relative phi spread plus the
    # rounding of the two sums
    for lam in LAMBDAS:
        integrand, (h_chi, h_the, h_phi) = reference_sphere_integrand(lam, mesh)
        ref = float(np.sum(integrand) * h_chi * h_the * h_phi)
        spread = np.sum(np.ptp(integrand, axis=2)) / np.sum(integrand[:, :, 0])
        bound = spread * ref + 4 * np.spacing(ref)
        assert abs(dirichlet_energy_s3(lam, mesh) - ref) <= bound


@pytest.mark.parametrize("mesh", MESHES)
def test_ball_energy_is_2mesh_times_the_reference_column(mesh):
    for lam in LAMBDAS:
        integrand, (h_r, h_t, h_p) = reference_ball_integrand(lam, mesh)
        column = np.ascontiguousarray(integrand[:, :, 0])
        expected = 0.5 * float(np.sum(column) * (2 * mesh) * h_r * h_t * h_p)
        assert ball_energy_parts(lam, mesh)[1] == expected


@pytest.mark.parametrize("mesh", (16, 17, 64))
def test_turned_ball_integrand_does_not_depend_on_phi(mesh):
    # a phi rotation of the turned grid rotates w, which commutes with the
    # chart, the dilation and the fibration; the measured worst spread is
    # 1.1e-14 of the column maximum (mesh 64)
    for lam in LAMBDAS:
        integrand, _ = reference_ball_integrand(lam, mesh)
        spread = np.max(np.ptp(integrand, axis=2))
        assert spread <= 1e-13 * np.max(integrand[:, :, 0])


@pytest.mark.parametrize("mesh", MESHES)
def test_ball_energy_equals_whole_grid_reference(mesh):
    # as for the sphere: within the reference's own relative phi spread plus
    # the rounding of the two sums
    for lam in LAMBDAS:
        integrand, (h_r, h_t, h_p) = reference_ball_integrand(lam, mesh)
        ref = 0.5 * float(np.sum(integrand) * h_r * h_t * h_p)
        spread = np.sum(np.ptp(integrand, axis=2)) / np.sum(integrand[:, :, 0])
        bound = spread * ref + 4 * np.spacing(ref)
        assert abs(ball_energy_parts(lam, mesh)[1] - ref) <= bound


ACCURACY_LAMBDAS = (0.5, 1.0, 2.0, 4.0, 8.0, 40.0)


@pytest.mark.parametrize("mesh", (32, 64))
def test_ball_director_error_is_within_five_percent_of_the_x2_axis_grid(mesh):
    # measured ratios 0.98-1.03 of the error of the x[2]-axis whole grid
    for lam in ACCURACY_LAMBDAS:
        exact = exact_ball_director(lam)
        error = abs(ball_energy_parts(lam, mesh)[1] - exact)
        assert error <= 1.05 * abs(reference_ball_parts(lam, mesh)[1] - exact)


def test_ball_director_error_falls_at_least_twofold_per_mesh_doubling():
    # measured 2.31-3.97 from mesh 32 to 128, tending to 4; lam = 40 is not
    # asymptotic at these meshes (+5.9e-2, -2.65e-2, -2.26e-2) and is left out
    for lam in ACCURACY_LAMBDAS[:-1]:
        exact = exact_ball_director(lam)
        errors = [abs(ball_energy_parts(lam, m)[1] - exact) for m in (32, 64, 128)]
        assert all(fine <= coarse / 2 for coarse, fine in zip(errors, errors[1:]))


def test_vortex_velocity_divergence_free_and_boundary_zero():
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 0.5, (3, 200))
    h = 1e-6
    div = np.zeros(x.shape[1])
    for a in range(3):
        dx = np.zeros((3, 1))
        dx[a] = h
        div += (vortex(x + dx)[a] - vortex(x - dx)[a]) / (2 * h)
    assert np.max(np.abs(div)) <= 1e-8
    sphere = rng.standard_normal((3, 50))
    sphere /= np.linalg.norm(sphere, axis=0)
    assert np.max(np.abs(vortex(sphere))) <= 1e-12


def test_vortex_quadrature_converges_to_the_closed_form():
    # the premise of the ball's closed-form velocity part: the quadrature's
    # relative error is positive and falls like mesh^-4 (measured 7.1e-5,
    # 4.5e-6 and 2.8e-7 at meshes 16, 32 and 64)
    for lam in (1.0, 3.0):
        exact = 512.0 * np.pi / (945.0 * lam**2)
        errors = [reference_ball_parts(lam, m)[0] / exact - 1.0 for m in (16, 32, 64)]
        assert all(e > 0.0 for e in errors)
        assert all(fine <= coarse / 12 for coarse, fine in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-6


def test_sphere_energy_memory_is_bounded():
    # the whole-grid path peaked at 84.6 MB for this call
    dirichlet_energy_s3(1.0, 16)  # import-time and first-call allocations
    tracemalloc.start()
    try:
        dirichlet_energy_s3(1.0, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 84.6 * 2**20 / 4


def test_ball_energy_memory_is_bounded_at_the_largest_mesh():
    # measured 54.2 MB: the window and its fields grow as mesh^2
    ball_energy_parts(1.0, 16)
    tracemalloc.start()
    try:
        ball_energy_parts(1.0, hopf.MESH_RANGE[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
