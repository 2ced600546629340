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
cell-centred grids keep the coordinate poles out of the stencil.  The sphere
integrand is the same in every phi column (rotating w fixes the pole,
commutes with the dilation and only rotates the image), so the sphere energy
is one column's sum counted 2 mesh times.  The ball walks its radial axis in
slabs of about ``SLAB_VALUES`` grid points, each evaluated with a one-row
halo into full-size buffers that single pairwise sums total, so its energies
do not depend on the slab height (DECISIONS.md section 5).  Inside the
quadratures, vector fields keep their components on the leading axis.

The built-in divergence-free velocity sample is the solenoidal vortex

    u(x) = 4 (1 - |x|^2) (-y, x, 0),

smooth, tangential, and vanishing on the boundary sphere.
"""

from __future__ import annotations

import numpy as np

from .axisym import MAX_RECORD_BYTES, first_derivative

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
# grids, gradient kernel, ball slab walker, sphere energy

# Grid points per ball slab (slab rows x theta x phi).  Any value gives the
# same energies.  ball_mesh 32 is one slab at any budget from 2**16; 2**17
# ties 2**16 at ball_mesh 64 and is within 4% of the fastest at 128
# (DECISIONS.md section 5).
SLAB_VALUES = 2**17


def _centered(n: int, width: float) -> tuple[np.ndarray, float]:
    h = width / n
    return (np.arange(n) + 0.5) * h, h


def _angles(mesh: int):
    """Cell-centred (theta, phi) grids of a (mesh, 2 mesh) sphere and their
    spacings."""
    the, h_the = _centered(mesh, np.pi)
    phi, h_phi = _centered(2 * mesh, 2.0 * np.pi)
    return the, phi, h_the, h_phi


def _grad_sq(f: np.ndarray, rows: slice, h: tuple[float, float, float],
             inv_m1: np.ndarray, inv_m2: np.ndarray) -> np.ndarray:
    """|grad f|^2 on ``rows`` of a window f (3, w, n1, n2) on an orthogonal
    coordinate grid with spacings h and inverse metric weights along axes 2
    and 3; axis 3 is periodic.  The window holds the rows plus their
    neighbours along axis 1, so the axis-1 stencil is the whole grid's."""
    h0, h1, h2 = h
    core = f[:, rows]
    e2 = _sq_sum(first_derivative(f, h0, 1)[:, rows])
    e2 += _sq_sum(first_derivative(core, h1, 2)) * inv_m1
    d = np.empty_like(core)
    np.subtract(core[..., 2:], core[..., :-2], out=d[..., 1:-1])
    np.subtract(core[..., 1], core[..., -1], out=d[..., 0])
    np.subtract(core[..., 0], core[..., -2], out=d[..., -1])
    d /= 2.0 * h2
    e2 += _sq_sum(d) * inv_m2
    return e2


SPHERE_SUMS, BALL_SUMS = 1, 2  # integrands: the energy; velocity and director


def check_mesh(mesh: int, n_sums: int) -> None:
    """ValueError unless mesh >= 16 and the (n_sums, mesh, mesh, 2 mesh)
    float totals of ``_quadrature_sums`` fit under MAX_RECORD_BYTES.  The
    sphere, which builds no totals, keeps the same accepted range."""
    if mesh < 16:
        raise ValueError("mesh must be at least 16")
    nbytes = n_sums * 16 * mesh**3
    if nbytes > MAX_RECORD_BYTES:
        raise ValueError(
            f"its {nbytes}-byte totals buffer exceeds the {MAX_RECORD_BYTES}-byte ceiling"
        )


def _check(lam: float, mesh: int, n_sums: int) -> None:
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    check_mesh(mesh, n_sums)


def _quadrature_sums(r: np.ndarray, h_r: float, field) -> list[float]:
    """Sums over the (mesh, mesh, 2 mesh) product grid of the integrands
    |grad f|^2 r^2 sin(theta), then v r^2 sin(theta) for each extra scalar v,
    where ``field(a, b)`` returns f (3, b - a, mesh, 2 mesh) and the extras
    (b - a, mesh, 2 mesh) on radial rows a..b-1, and r (mesh,) is the radial
    metric factor.

    The radial rows go in slabs of about SLAB_VALUES points.  Each slab
    evaluates ``field`` on its rows plus a one-row halo (widened to three
    rows at the ends, where the stencil is one-sided) and writes its
    weighted integrands into full-size buffers; each buffer is then summed
    once, in the pairwise order of a whole-grid np.sum."""
    mesh = len(r)
    the, _, h_the, h_phi = _angles(mesh)
    st = np.sin(the)[:, None]
    totals = None
    step = max(1, SLAB_VALUES // (2 * mesh * mesh))
    for lo in range(0, mesh, step):
        hi = min(lo + step, mesh)
        a, b = max(0, min(lo - 1, mesh - 3)), min(mesh, max(hi + 1, 3))
        f, *extras = field(a, b)
        r_s = r[lo:hi, None, None]
        inv_m1 = 1.0 / r_s**2
        inv_m2 = inv_m1 / st**2
        weight = r_s**2 * st
        rows = slice(lo - a, hi - a)
        integrands = [_grad_sq(f, rows, (h_r, h_the, h_phi), inv_m1, inv_m2)]
        integrands += [v[rows] for v in extras]
        if totals is None:
            totals = np.empty((len(integrands), mesh, mesh, 2 * mesh))
        for total, v in zip(totals, integrands):
            np.multiply(v, weight, out=total[lo:hi])
        del f, extras, integrands  # not held while the next slab is built
    return [np.sum(total) for total in totals]


def dirichlet_energy_s3(lam: float, mesh: int) -> float:
    """Quadrature of |grad (hopf o psi_lam)|^2 over the three-sphere using
    hyperspherical angles (chi, theta, phi) on a cell-centred product grid
    of shape (mesh, mesh, 2 mesh), from phi column 0 alone: the integrand is
    the same in every column (DECISIONS.md section 5)."""
    _check(lam, mesh, SPHERE_SUMS)
    chi, h_chi = _centered(mesh, np.pi)
    the, phi, h_the, h_phi = _angles(mesh)
    cols = [-1, 0, 1]  # only the middle column's periodic phi stencil is kept
    sc = np.sin(chi)[:, None, None]
    st = np.sin(the)[:, None]
    q = np.empty((4, mesh, mesh, 3))
    q[0] = np.cos(chi)[:, None, None]
    np.multiply(sc, np.cos(the)[:, None], out=q[1])
    np.multiply(sc, st * np.cos(phi)[cols], out=q[2])
    np.multiply(sc, st * np.sin(phi)[cols], out=q[3])
    f = _hopf_arr(_psi_arr(q, lam))
    inv_m1 = 1.0 / sc**2
    e2 = _grad_sq(f, slice(None), (h_chi, h_the, h_phi), inv_m1, inv_m1 / st**2)
    total = np.sum(e2[..., 1:2] * (sc**2 * st)) * (2 * mesh)
    return float(total * h_chi * h_the * h_phi)


# ---------------------------------------------------------------------------
# ball chart, built-in velocity, ball energy


def _chart(x: np.ndarray) -> np.ndarray:
    """Ball chart (3, ...) -> S^3 (4, ...): |x| = rho goes to polar angle
    pi*rho from the antipode, so the boundary sphere collapses onto the pole."""
    rho = np.sqrt(_sq_sum(x))
    ang = np.pi * rho
    # sin(pi rho)/rho extends smoothly by pi at the origin
    with np.errstate(invalid="ignore", divide="ignore"):
        fac = np.where(rho > 0.0, np.sin(ang) / np.where(rho > 0.0, rho, 1.0), np.pi)
    q = np.empty((4,) + x.shape[1:])
    q[0] = -np.cos(ang)
    np.multiply(x, fac, out=q[1:])
    return q


def _vortex(x: np.ndarray) -> np.ndarray:
    """The built-in sample u = 4 (1-|x|^2) (-y, x, 0) on arrays (3, ...)."""
    rho2 = _sq_sum(x)
    u = np.empty_like(x)
    u[0] = -4.0 * (1.0 - rho2) * x[1]
    u[1] = 4.0 * (1.0 - rho2) * x[0]
    u[2] = 0.0
    return u


def ball_energy_parts(lam: float, mesh: int) -> tuple[float, float]:
    """(velocity part, director part) of the half-integral energy over the
    unit ball; the velocity enters as u/lam."""
    _check(lam, mesh, BALL_SUMS)
    rho, h_r = _centered(mesh, 1.0)
    the, phi, h_t, h_p = _angles(mesh)
    st, ct = np.sin(the)[:, None], np.cos(the)[:, None]

    def field(a, b):
        r_st = rho[a:b, None, None] * st
        x = np.empty((3, b - a, mesh, 2 * mesh))
        np.multiply(r_st, np.cos(phi), out=x[0])
        np.multiply(r_st, np.sin(phi), out=x[1])
        x[2] = rho[a:b, None, None] * ct
        return _hopf_arr(_psi_arr(_chart(x), lam)), _sq_sum(_vortex(x))

    e2_sum, u2_sum = _quadrature_sums(rho, h_r, field)
    cell = h_r * h_t * h_p
    e_vel = 0.5 * lam**-2 * float(u2_sum * cell)
    e_dir = 0.5 * float(e2_sum * cell)
    return e_vel, e_dir

