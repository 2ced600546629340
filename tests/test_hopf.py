"""The Hopf kernels the quadratures run (fibration, dilation, ball chart) on
(4, ...) and (3, ...) arrays, the sphere and ball energies, and
the dilation range a hopf_decay run accepts."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematiclab import hopf
from nematiclab.cli import main
from nematiclab.config import parse_config
from nematiclab.experiments import run
from nematiclab.hopf import (
    LAMBDA_RANGE,
    POLE,
    UNDER_RESOLVED_ERROR,
    _chart,
    _hopf_arr,
    _psi_arr,
    ball_energy_parts,
    dirichlet_energy_s3,
    sphere_energy_exact,
)


def _random_s3(rng, size):
    """size points of the unit three-sphere as a (4, size) array."""
    q = rng.standard_normal((4, size))
    return q / np.linalg.norm(q, axis=0)


# ---------------------------------------------------------------------------
# the fibration


def test_hopf_axis_points():
    assert np.allclose(_hopf_arr(np.array([1.0, 0.0, 0.0, 0.0])), [1.0, 0.0, 0.0])
    assert np.allclose(_hopf_arr(np.array([0.0, 0.0, 1.0, 0.0])), [-1.0, 0.0, 0.0])


def test_hopf_unit_norm_on_bulk_sample():
    q = _random_s3(np.random.default_rng(7), 100_000)
    norms = np.linalg.norm(_hopf_arr(q), axis=0)  # components lead
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# conformal dilations (the kernel does not renormalise its output)


@given(seed=st.integers(min_value=0, max_value=5000))
@settings(max_examples=50, deadline=None)
def test_psi_identity_at_lambda_one(seed):
    q = _random_s3(np.random.default_rng(seed), 1)[:, 0]
    assert np.max(np.abs(_psi_arr(q, 1.0) - q)) <= 1e-12


@given(
    seed=st.integers(min_value=0, max_value=5000),
    lam=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_psi_group_inverse(seed, lam):
    q = _random_s3(np.random.default_rng(seed), 1)[:, 0]
    out = _psi_arr(_psi_arr(q, lam), 1.0 / lam)
    assert np.max(np.abs(out - q)) <= 1e-10


@given(
    seed=st.integers(min_value=0, max_value=5000),
    lam=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_psi_preserves_unit_norm(seed, lam):
    q = _random_s3(np.random.default_rng(seed), 1)[:, 0]
    assert abs(np.linalg.norm(_psi_arr(q, lam)) - 1.0) <= 1e-12


def test_psi_fixes_pole_and_antipode():
    for lam in (0.5, 1.0, 7.0):
        assert np.allclose(_psi_arr(POLE, lam), POLE)
        assert np.allclose(_psi_arr(-POLE, lam), -POLE)


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
    for lam in (-1.0, 0.0):
        with pytest.raises(ValueError):
            dirichlet_energy_s3(lam, 64)
    with pytest.raises(ValueError):
        dirichlet_energy_s3(1.0, 8)


# both quadratures accept meshes 16 to 406
@pytest.mark.parametrize("energy", [dirichlet_energy_s3, ball_energy_parts])
@pytest.mark.parametrize("mesh", [15, 407])
def test_quadrature_outside_the_mesh_range_raises_before_allocating(monkeypatch, energy, mesh):
    def no_quadrature(*args):
        raise AssertionError("the quadrature ran")

    # both paths build their angle grids before any field
    monkeypatch.setattr(hopf, "_angles", no_quadrature)
    with pytest.raises(ValueError, match=r"mesh must lie in \[16, 406\]"):
        energy(1.0, mesh)
    assert hopf.MESH_RANGE == (16, 406)
    hopf.check_mesh(16)
    hopf.check_mesh(406)


# ---------------------------------------------------------------------------
# ball data


def test_ball_chart_hits_antipode_and_pole():
    n = np.array([0.0, 0.0, 1.0])
    assert np.allclose(_chart(0.0, n), -POLE)
    assert abs(_chart(1.0 - 1e-9, n)[0] - 1.0) <= 1e-14


def test_boundary_director_is_pole_image_for_all_lambdas():
    n = np.array([0.0, 0.0, 1.0])
    for lam in (1.0, 4.0, 64.0):
        assert np.allclose(_hopf_arr(_psi_arr(_chart(1.0 - 1e-9, n), lam)), _hopf_arr(POLE))


def test_director_field_unit_norm():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.57, 0.57, (3, 2000))  # inside the ball
    rho = np.linalg.norm(x, axis=0)
    f = _hopf_arr(_psi_arr(_chart(rho, x / rho), 5.0))
    assert np.max(np.abs(np.linalg.norm(f, axis=0) - 1.0)) <= 1e-12


def test_velocity_energy_scales_exactly_as_inverse_square():
    e1, _ = ball_energy_parts(1.0, 24)
    for lam in (0.5, 2.0, 8.0):  # powers of two scale without rounding
        e_lam, _ = ball_energy_parts(lam, 24)
        assert e_lam == e1 * lam**-2


def test_velocity_energy_matches_analytic_value():
    # 0.5 * integral of 16 (1-rho^2)^2 (x^2+y^2) over the unit ball, at any mesh
    for mesh in (16, 48):
        assert ball_energy_parts(1.0, mesh)[0] == 512.0 * np.pi / 945.0
    assert ball_energy_parts(3.0, 16)[0] == pytest.approx(512.0 * np.pi / (945.0 * 9.0), rel=1e-15)


def test_initial_data_energy_decreasing_in_lambda():
    vals = [sum(ball_energy_parts(lam, 24)) for lam in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # u in place of u/lam: the velocity part is that of lam = 1
    unscaled = ball_energy_parts(1.0, 24)[0] + ball_energy_parts(8.0, 24)[1]
    assert unscaled > vals[3]  # the velocity term is no longer suppressed


# ---------------------------------------------------------------------------
# the dilations a run accepts


@pytest.mark.parametrize(
    "lambdas, code",
    [
        (LAMBDA_RANGE, 0),
        ((np.nextafter(LAMBDA_RANGE[0], 0.0),), 2),
        ((np.nextafter(LAMBDA_RANGE[1], np.inf),), 2),
        ((1e300, 1e301), 2),  # overflowed the closed form, exit 1, before the range
        ((0.0,), 2),
    ],
)
def test_lambda_range_runs_to_exit_0_or_is_a_config_error(tmp_path, capsys, lambdas, code):
    out = tmp_path / "out"
    cfg = tmp_path / "hopf.ini"
    cfg.write_text(
        f"[experiment]\nkind = hopf_decay\nout_dir = {out}\n\n[hopf]\n"
        f"lambdas = {', '.join(repr(float(lam)) for lam in lambdas)}\n"
        "mesh = 16\nball_mesh = 16\n"
    )
    assert main(["simulate", str(cfg)]) == code
    if code == 2:
        assert "lambdas must lie in [1e-100, 1e+100]" in capsys.readouterr().err
        return
    report = json.loads((out / "report.json").read_text())
    parts = ("sphere_energy", "ball_energy_velocity", "ball_energy_director")
    energies = np.array([[row[k] for k in parts] for row in report["table"]])
    assert np.all(np.isfinite(energies)) and np.all(energies > 0.0)
    # so the log-log plot keeps every point
    assert "<desc>dropped=0;kind=loglog</desc>" in (out / "decay.svg").read_text()
