"""Hopf quadratures against a reference copy of the whole-grid path.

The references below build the full (mesh, mesh, 2 mesh, 3) field with its
components on a trailing axis, as the quadratures did before the ball walked
the radial axis in slabs and the sphere shrank to one phi column.  The ball
must agree with its reference bit for bit at any slab height.  The sphere
must equal 2 mesh times the reference's own column-0 sum bit for bit, and
the whole-grid reference within the reference's own phi spread; its memory
must stay bounded.
"""

import tracemalloc

import numpy as np
import pytest

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


def reference_ball_parts(lam, mesh):
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

    rho2 = np.sum(x**2, axis=-1)
    u = np.empty_like(x)
    u[..., 0] = -4.0 * (1.0 - rho2) * x[..., 1]
    u[..., 1] = 4.0 * (1.0 - rho2) * x[..., 0]
    u[..., 2] = 0.0
    e_vel = 0.5 * lam**-2 * float(np.sum(np.sum(u**2, axis=-1) * weight) * cell)

    r = np.linalg.norm(x, axis=-1)
    ang = np.pi * r
    with np.errstate(invalid="ignore", divide="ignore"):
        fac = np.where(r > 0.0, np.sin(ang) / np.where(r > 0.0, r, 1.0), np.pi)
    q = np.empty(x.shape[:-1] + (4,))
    q[..., 0] = -np.cos(ang)
    q[..., 1:] = x * fac[..., None]
    f = reference_hopf_arr(reference_psi_arr(q, lam))
    inv_m1 = 1.0 / rho[:, None, None] ** 2
    inv_m2 = inv_m1 / st[None, :, None] ** 2
    e2 = reference_grad_sq(f, h_r, h_t, h_p, inv_m1, inv_m2)
    e_dir = 0.5 * float(np.sum(e2 * weight) * cell)
    return e_vel, e_dir


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
def test_ball_energy_parts_equal_whole_grid_reference(mesh):
    for lam in LAMBDAS:
        assert ball_energy_parts(lam, mesh) == reference_ball_parts(lam, mesh)


@pytest.mark.parametrize("slab_rows", [1, 2, 3, 7, 100])
def test_energies_do_not_depend_on_slab_height(monkeypatch, slab_rows):
    # mesh 17 at 1 and 2 rows per slab ends on a slab of one row, at 3 rows
    # on one of two, and at 100 rows the whole grid is one slab
    mesh = 17
    monkeypatch.setattr(hopf, "SLAB_VALUES", slab_rows * 2 * mesh * mesh)
    assert ball_energy_parts(2.5, mesh) == reference_ball_parts(2.5, mesh)


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
