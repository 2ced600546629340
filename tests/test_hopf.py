import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematiclab.config import parse_config
from nematiclab.experiments import run
from nematiclab.hopf import (
    POLE,
    UNDER_RESOLVED_ERROR,
    DilationParam,
    S3Point,
    ball_chart,
    ball_energy_parts,
    dirichlet_energy_s3,
    director_field,
    hopf,
    initial_data_energy,
    psi_lambda,
    sphere_energy_exact,
    vortex_velocity,
)


def _random_s3(rng, size):
    q = rng.standard_normal((size, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _point(q):
    return S3Point(complex(q[0], q[1]), complex(q[2], q[3]))


# ---------------------------------------------------------------------------
# the fibration


def test_hopf_axis_points():
    assert np.allclose(hopf(S3Point(1 + 0j, 0j)), [1.0, 0.0, 0.0])
    assert np.allclose(hopf(S3Point(0j, 1 + 0j)), [-1.0, 0.0, 0.0])


def test_hopf_unit_norm_on_bulk_sample():
    rng = np.random.default_rng(7)
    q = _random_s3(rng, 100_000)
    from nematiclab.hopf import _hopf_arr

    norms = np.linalg.norm(_hopf_arr(q.T), axis=0)  # components lead
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_s3point_rejects_off_sphere():
    with pytest.raises(ValueError, match="three-sphere"):
        S3Point(1 + 0j, 1 + 0j)
    with pytest.raises(ValueError):
        DilationParam(0.0)


# ---------------------------------------------------------------------------
# conformal dilations


@given(seed=st.integers(min_value=0, max_value=5000))
@settings(max_examples=50, deadline=None)
def test_psi_identity_at_lambda_one(seed):
    q = _random_s3(np.random.default_rng(seed), 1)[0]
    out = psi_lambda(_point(q), DilationParam(1.0))
    assert np.max(np.abs(out.as_r4() - q)) <= 1e-12


@given(
    seed=st.integers(min_value=0, max_value=5000),
    lam=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_psi_group_inverse(seed, lam):
    q = _random_s3(np.random.default_rng(seed), 1)[0]
    p = _point(q)
    out = psi_lambda(psi_lambda(p, DilationParam(lam)), DilationParam(1.0 / lam))
    assert np.max(np.abs(out.as_r4() - q)) <= 1e-10


@given(
    seed=st.integers(min_value=0, max_value=5000),
    lam=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_psi_preserves_unit_norm(seed, lam):
    q = _random_s3(np.random.default_rng(seed), 1)[0]
    out = psi_lambda(_point(q), DilationParam(lam)).as_r4()
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_psi_fixes_pole_and_antipode():
    for lam in (0.5, 1.0, 7.0):
        d = DilationParam(lam)
        assert np.allclose(psi_lambda(_point(POLE), d).as_r4(), POLE)
        antipode = -POLE
        assert np.allclose(psi_lambda(_point(antipode), d).as_r4(), antipode)


# ---------------------------------------------------------------------------
# sphere energy


def test_sphere_energy_matches_frozen_reference():
    # the reference is the closed form 16 pi^2; mesh 32 is within one
    # percent of it
    e32 = dirichlet_energy_s3(1.0, 32)
    exact = sphere_energy_exact(1.0)
    assert exact == 16.0 * np.pi**2
    assert abs(e32 - exact) / exact <= 0.01


def test_sphere_energy_mesh_convergence():
    e16 = dirichlet_energy_s3(1.0, 16)
    e32 = dirichlet_energy_s3(1.0, 32)
    e64 = dirichlet_energy_s3(1.0, 64)
    assert abs(e16 - e32) / abs(e32 - e64) >= 3.0  # measured 3.80


def test_sphere_energy_strictly_decreasing_on_ladder():
    es = [dirichlet_energy_s3(lam, 32) for lam in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(es, es[1:]))


def test_sphere_energy_closed_form_oracle():
    # constant energy density of the fibration gives
    # E(lam) = 64 pi^2 lam / (1 + lam)^2 exactly; quadrature converges to it
    for lam in (1.0, 2.0, 8.0):
        exact = 64.0 * np.pi**2 * lam / (1.0 + lam) ** 2
        assert dirichlet_energy_s3(lam, 64) == pytest.approx(exact, rel=0.01)


@pytest.mark.parametrize(
    "lambdas, mesh, flags",
    [
        # 0.89% and 1.48% off the closed form
        ((8.0, 12.0), 64, [False, True]),
        # 1.56% off: flagged, where the old lam > mesh/8 rule did not flag it
        ((4.0,), 32, [True]),
    ],
)
def test_under_resolved_flag_follows_the_measured_error(tmp_path, lambdas, mesh, flags):
    config = parse_config(
        "[experiment]\nkind = hopf_decay\nout_dir = out\n\n[hopf]\n"
        f"lambdas = {', '.join(map(str, lambdas))}\nmesh = {mesh}\nball_mesh = 16\n"
    )
    result = run(config, out_dir=tmp_path, plots=False)
    table = result.report["table"]
    assert [row["under_resolved"] for row in table] == flags
    assert [row["relative_error"] > UNDER_RESOLVED_ERROR for row in table] == flags
    decay = np.loadtxt(tmp_path / "decay.csv", delimiter=",", skiprows=1, ndmin=2)
    assert list(decay[:, 3]) == [float(f) for f in flags]


def test_energy_rejects_bad_dilation_and_mesh():
    with pytest.raises(ValueError):
        dirichlet_energy_s3(-1.0, 64)
    with pytest.raises(ValueError):
        dirichlet_energy_s3(1.0, 8)


# ---------------------------------------------------------------------------
# ball data


def test_ball_chart_hits_antipode_and_pole():
    origin = ball_chart(np.zeros(3))
    assert np.allclose(origin, -POLE)
    near_boundary = ball_chart(np.array([0.0, 0.0, 1.0 - 1e-9]))
    assert abs(near_boundary[0] - 1.0) <= 1e-14


def test_boundary_director_is_pole_image_for_all_lambdas():
    x = np.array([0.0, 0.0, 1.0 - 1e-9])
    for lam in (1.0, 4.0, 64.0):
        assert np.allclose(director_field(x, lam), hopf(_point(POLE)))


def test_director_field_unit_norm():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.57, 0.57, (2000, 3))  # inside the ball
    f = director_field(x, 5.0)
    assert np.max(np.abs(np.linalg.norm(f, axis=-1) - 1.0)) <= 1e-12


def test_vortex_velocity_divergence_free_and_boundary_zero():
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 0.5, (200, 3))
    h = 1e-6
    div = np.zeros(len(x))
    for a in range(3):
        dx = np.zeros(3)
        dx[a] = h
        div += (vortex_velocity(x + dx)[:, a] - vortex_velocity(x - dx)[:, a]) / (2 * h)
    assert np.max(np.abs(div)) <= 1e-8
    sphere = rng.standard_normal((50, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    assert np.max(np.abs(vortex_velocity(sphere))) <= 1e-12


def test_velocity_energy_scales_exactly_as_inverse_square():
    e1, _ = ball_energy_parts(1.0, 24)
    for lam in (2.0, 8.0):
        e_lam, _ = ball_energy_parts(lam, 24)
        assert e_lam == pytest.approx(e1 / lam**2, rel=1e-14)


def test_velocity_energy_matches_analytic_value():
    # 0.5 * integral of 16 (1-rho^2)^2 (x^2+y^2) over the unit ball
    e1, _ = ball_energy_parts(1.0, 48)
    assert e1 == pytest.approx(512.0 * np.pi / 945.0, rel=1e-4)


def test_initial_data_energy_decreasing_in_lambda():
    vals = [initial_data_energy(lam, 24) for lam in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # u in place of u/lam: the velocity part is that of lam = 1
    unscaled = ball_energy_parts(1.0, 24)[0] + ball_energy_parts(8.0, 24)[1]
    assert unscaled > vals[3]  # the velocity term is no longer suppressed
