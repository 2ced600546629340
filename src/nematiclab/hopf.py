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
cell-centred grids keep the coordinate poles out of the stencil.  Both grids
put w = (q2, q3) in sin(theta) e^{i phi}: the sphere through hyperspherical
angles, the ball through a polar axis along x[0].  Rotating w fixes the
pole, commutes with the dilation and the chart and only rotates the image,
so each integrand is the same in every phi column, and each energy is one
column's sum counted 2 mesh times (DECISIONS.md section 5).  Inside the
quadratures, vector fields keep their components on the leading axis.

The built-in divergence-free velocity sample is the solenoidal vortex

    u(x) = 4 (1 - |x|^2) (-y, x, 0),

smooth, tangential, and vanishing on the boundary sphere.  Its energy is
known in closed form, so the ball's velocity part is that form.
"""

from __future__ import annotations

import numpy as np

from .axisym import first_derivative

POLE = np.array([1.0, 0.0, 0.0, 0.0])
_POLE_SNAP = 1e-14


def _sq_sum(v: np.ndarray) -> np.ndarray:
    """(v0^2 + v1^2) + v2^2 over the leading axis of v (3, ...): the order
    np.sum takes over a trailing axis of length 3."""
    s = v[0] ** 2
    s += v[1] ** 2
    s += v[2] ** 2
    return s


def _hopf_arr(q: np.ndarray) -> np.ndarray:
    """Fibration on R^4 arrays (4, ...) -> unit vectors (3, ...)."""
    q0, q1, q2, q3 = q
    f = np.empty((3,) + q.shape[1:])
    f[0] = q0**2 + q1**2 - q2**2 - q3**2
    f[1] = 2.0 * (q0 * q2 + q1 * q3)
    f[2] = 2.0 * (q1 * q2 - q0 * q3)
    return f


def _psi_arr(q: np.ndarray, lam: float) -> np.ndarray:
    """Conformal dilation on R^4 arrays (4, ...): project from POLE, scale by
    lam in R^3, project back.  Points within 1e-14 of the pole snap to the
    pole.  Works in its output buffer, so it holds about three planes of
    temporaries."""
    shape = q.shape
    q = q.reshape(4, -1)
    out = np.empty_like(q)
    denom = 1.0 - q[0]
    near_pole = denom < _POLE_SNAP
    denom[near_pole] = 1.0
    np.divide(lam, denom, out=denom)
    y = np.multiply(q[1:], denom, out=out[1:])
    s = _sq_sum(y)
    s_plus = np.add(s, 1.0, out=denom)
    np.divide(np.subtract(s, 1.0, out=s), s_plus, out=out[0])
    y *= 2.0
    y /= s_plus
    out[:, near_pole] = POLE[:, None]
    return out.reshape(shape)


def sphere_energy_exact(lam: float) -> float:
    """Dirichlet energy of hopf o psi_lam on the unit three-sphere,
    64 pi^2 lam / (1 + lam)^2 (DECISIONS.md section 2); 16 pi^2 at lam = 1."""
    return 64.0 * np.pi**2 * lam / (1.0 + lam) ** 2


# Accepted dilations.  Unresolved, the sphere and director energies fall like
# lam^-2 and lam^2 (to 1e-197..1e-192 at the ends, meshes 16 and 64) and the
# velocity part grows like lam^-2 (1.7e200), so all stay positive normal
# floats.  The closed form overflows above 1.3e154, the velocity part below 1e-154.
LAMBDA_RANGE = (1e-100, 1e100)


# A sphere energy whose quadrature is further than this, relatively, from
# sphere_energy_exact is reported as under-resolved.  Measured: mesh 64 is
# 0.89% off at lam = 8 and 1.48% at lam = 12; mesh 32 is 1.56% off at lam = 4.
UNDER_RESOLVED_ERROR = 1e-2


# ---------------------------------------------------------------------------
# grids, one-column quadrature

# Accepted mesh and ball_mesh.  A quadrature holds a (4, mesh, mesh, 3)
# window and a few fields of its size, so memory grows as mesh^2: at 406 a
# call takes about 0.1 s and peaks near 49 MB (tracemalloc).
MESH_RANGE = (16, 406)


def check_mesh(mesh: int) -> None:
    """ValueError unless mesh lies in MESH_RANGE."""
    lo, hi = MESH_RANGE
    if not lo <= mesh <= hi:
        raise ValueError(f"mesh must lie in [{lo}, {hi}]")


def _check(lam: float, mesh: int) -> None:
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    check_mesh(mesh)


def _centered(n: int, width: float) -> tuple[np.ndarray, float]:
    h = width / n
    return (np.arange(n) + 0.5) * h, h


def _angles(mesh: int):
    """Cell-centred (theta, phi) grids of a (mesh, 2 mesh) sphere and their
    spacings."""
    the, h_the = _centered(mesh, np.pi)
    phi, h_phi = _centered(2 * mesh, 2.0 * np.pi)
    return the, phi, h_the, h_phi


def _directions(mesh: int) -> np.ndarray:
    """Unit vectors (cos theta, sin theta cos phi, sin theta sin phi) as a
    (3, 1, mesh, 3) array: every theta, and the phi columns 2 mesh - 1, 0
    and 1, the middle one and the two its phi difference reads."""
    the, phi, _, _ = _angles(mesh)
    st = np.sin(the)[:, None]
    cols = [-1, 0, 1]
    n = np.empty((3, 1, mesh, 3))
    n[0] = np.cos(the)[:, None]
    n[1] = st * np.cos(phi)[cols]
    n[2] = st * np.sin(phi)[cols]
    return n


def _points(c, s, n: np.ndarray) -> np.ndarray:
    """The points (c, s n) of S^3 as a (4, ...) array, for unit vectors n
    (3, ...) and c^2 + s^2 = 1."""
    q = np.empty((4,) + np.broadcast_shapes(np.shape(c), np.shape(s), n.shape[1:]))
    q[0] = c
    np.multiply(s, n, out=q[1:])
    return q


def _column_quadrature(q: np.ndarray, r: np.ndarray, h_r: float, lam: float) -> float:
    """Quadrature of |grad (hopf o psi_lam)|^2 r^2 sin(theta) over the
    (mesh, mesh, 2 mesh) product grid, from the points q (4, mesh, mesh, 3)
    on the columns of ``_directions``, the radial metric factor r
    (mesh, 1) and its spacing h_r.  Only phi column 0, the middle one, is
    differentiated; its phi difference reads the outer two.  Rotating w
    turns the integrand's phi columns into one another, so column 0's sum
    is counted 2 mesh times (DECISIONS.md section 5)."""
    mesh = len(r)
    the, _, h_the, h_phi = _angles(mesh)
    st = np.sin(the)
    f = _hopf_arr(_psi_arr(q, lam))
    mid = f[..., 1]
    inv_m1 = 1.0 / r**2
    e2 = _sq_sum(first_derivative(mid, h_r, 1))
    e2 += _sq_sum(first_derivative(mid, h_the, 2)) * inv_m1
    d_phi = np.subtract(f[..., 2], f[..., 0])
    d_phi /= 2.0 * h_phi
    e2 += _sq_sum(d_phi) * (inv_m1 / st**2)
    total = np.sum(e2 * (r**2 * st)) * (2 * mesh)
    return float(total * h_r * h_the * h_phi)


def dirichlet_energy_s3(lam: float, mesh: int) -> float:
    """Quadrature of |grad (hopf o psi_lam)|^2 over the three-sphere using
    hyperspherical angles (chi, theta, phi) on a cell-centred product grid
    of shape (mesh, mesh, 2 mesh), from phi column 0 alone."""
    _check(lam, mesh)
    chi, h_chi = _centered(mesh, np.pi)
    sc = np.sin(chi)[:, None]
    q = _points(np.cos(chi)[:, None, None], sc[..., None], _directions(mesh))
    return _column_quadrature(q, sc, h_chi, lam)


# ---------------------------------------------------------------------------
# ball chart, ball energy


def _chart(rho, n: np.ndarray) -> np.ndarray:
    """Ball chart: the point rho n of the unit ball, for unit vectors n
    (3, ...), goes to polar angle pi*rho from the antipode on S^3 (4, ...),
    so the boundary sphere collapses onto the pole."""
    ang = np.pi * rho
    return _points(-np.cos(ang), np.sin(ang), n)


# Integral of |u|^2 = 16 (1 - |x|^2)^2 (x^2 + y^2) over the unit ball for the
# built-in vortex u: 16 times the radial integral of (1 - rho^2)^2 rho^4,
# 8/315, times the integral of x^2 + y^2 over the unit sphere, 8 pi/3.
VORTEX_SQ_INTEGRAL = 1024.0 * np.pi / 945.0


def ball_energy_parts(lam: float, mesh: int) -> tuple[float, float]:
    """(velocity part, director part) of the half-integral energy over the
    unit ball; the velocity enters as u/lam.  The director part is a
    quadrature on a (mesh, mesh, 2 mesh) grid of (rho, theta, phi) whose
    polar axis is x[0], from phi column 0 alone."""
    _check(lam, mesh)
    rho, h_r = _centered(mesh, 1.0)
    rho = rho[:, None]
    e_dir = 0.5 * _column_quadrature(_chart(rho[..., None], _directions(mesh)), rho, h_r, lam)
    return 0.5 * lam**-2 * VORTEX_SQ_INTEGRAL, e_dir
