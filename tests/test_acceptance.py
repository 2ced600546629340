"""Acceptance gate: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with ``pytest -s`` to see them inline).

Two sub-clauses are implemented faithfully and expected to fail; analysis in
the decisions ledger:

  * the blow-up scenario's bubble-profile fit (criterion 4b): any initial
    angle dominating the concentrating barrier at beta0 = 1e-3 starts with
    origin slope ~2000, past the n=1024/2048 resolution caps, so detection
    fires on the initial snapshot where the one-cell layer cannot match the
    rescaled bubble within 0.05;
  * the Hopf decay ratio (criterion 7b): the dilated fibration's sphere
    energy obeys E(lam) = 64 pi^2 lam/(1+lam)^2 exactly, so
    E(8)/E(1) = 32/81 = 0.395 > 0.3 for every correct quadrature.
"""

import time

import numpy as np
import pytest

from nematiclab import axisym, barriers, blowup, hopf, poiseuille
from nematiclab.coeffs import (
    LeslieCoefficients,
    g_coeff,
    h_coeff,
    simplified_coefficients,
    validate,
)
from nematiclab.config import parse_config
from nematiclab.experiments import _run_barrier_check

L2_SETS = {
    0.0: LeslieCoefficients(0, -0.5, 0.5, 1, 0, 0.0),
    0.5: LeslieCoefficients(0, -0.25, 0.75, 1, 0, 0.5),
    -0.5: LeslieCoefficients(0, -0.75, 0.25, 1, 0, -0.5),
}


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def _detect(trace):
    """``blowup.detect`` on the origin gradient (4 phi_1 - phi_2) / (2 dr)
    of each snapshot."""
    grads = (4.0 * trace.phis[:, 1] - trace.phis[:, 2]) / (2.0 * trace.grid.dr)
    over = np.flatnonzero(grads > 0.5 / trace.grid.dr)
    return blowup.detect(trace, grads, trace.phis[over[0] if len(over) else -1])


# ---------------------------------------------------------------------------
# criterion 1: coefficient relations


def test_c1_simplified_coefficient_relations():
    c = simplified_coefficients()
    elapsed = []
    for _ in range(5):
        t0 = time.perf_counter()
        res = validate(c)
        g = g_coeff(c, 0.37)
        h = h_coeff(c, 0.37)
        elapsed.append(time.perf_counter() - t0)
    ok = (
        res.ok
        and c.lambda1 == 2.0
        and c.lambda2 == 0.0
        and g == 2.0
        and h == 1.0
        and min(elapsed) < 1e-3
    )
    phis = np.linspace(-4.0, 4.0, 101)
    ok = ok and np.all(g_coeff(c, phis) == 2.0) and np.all(h_coeff(c, phis) == 1.0)
    _report(
        "C1",
        ok,
        f"lambda1={c.lambda1} lambda2={c.lambda2} g==2,h==1 exact, "
        f"runtime {min(elapsed) * 1e6:.1f} us",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: barrier residual signs


def test_c2_barrier_residual_signs():
    config = parse_config(
        """
[experiment]
kind = barrier_check
out_dir = unused

[barrier_check]
n_sets = 10
n_r = 100
n_t = 100
t_max = 5.0
seed = 20240611
"""
    )
    t0 = time.perf_counter()
    report, _ = _run_barrier_check(config)
    elapsed = time.perf_counter() - t0
    ok = (
        report["super_residual_min"] >= 0.0
        and report["sub_residual_max"] <= 0.0
        and report["eta_residual_max"] <= 0.0
        and report["negative_control_fired"]
        and elapsed < 1.0
    )
    _report(
        "C2",
        ok,
        f"super_min={report['super_residual_min']:.3e} "
        f"eta_max={report['eta_residual_max']:.3e} "
        f"control_max={report['negative_control_max']:.3e} "
        f"runtime {elapsed:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: global existence (three stretching coefficients)


@pytest.fixture(scope="module")
def global_traces():
    # the three runs march as one batch; each is charged the batch's time
    grid = axisym.RadialGrid(1024)
    state0 = axisym.make_state(grid, lambda r: (np.pi - 0.1) * r)
    params = axisym.SolverParams(dt=1e-4, scheme="semi_implicit", t_end=2.0)
    t0 = time.perf_counter()
    traces = axisym.simulate_batch(
        [(state0, coeffs, params, 20) for coeffs in L2_SETS.values()]
    )
    elapsed = time.perf_counter() - t0
    return {l2: (trace, elapsed) for l2, trace in zip(L2_SETS, traces)}


def test_c3_global_existence(global_traces):
    all_ok = True
    for l2, (trace, elapsed) in global_traces.items():
        coeffs = L2_SETS[l2]
        tol = 10.0 * trace.grid.dr**2
        detected = _detect(trace).detected
        bounds_ok = float(np.min(trace.phis)) >= 0.0 and float(
            np.max(trace.phis)
        ) <= np.pi + tol
        scan = barriers.OrderingScan(
            barriers.subsolution(0.05, coeffs),
            barriers.supersolution(0.05, coeffs),
            trace.grid,
            trace.params.dt,
            trace.n_snapshots,
        )
        barriers.check_ordering(scan, trace.times, trace.phis)
        ordering = scan.report(trace.times)
        ok = (not detected) and bounds_ok and ordering.passed and elapsed < 120.0
        all_ok = all_ok and ok
        _report(
            "C3",
            ok,
            f"lambda2={l2}: detected={detected} "
            f"phi in [{np.min(trace.phis):.2e}, {np.max(trace.phis):.6f}] "
            f"ordering_worst={max(ordering.lower_worst, ordering.upper_worst):.2e} "
            f"runtime {elapsed:.0f}s",
        )
    assert all_ok


# ---------------------------------------------------------------------------
# criterion 4: blow-up scenario


@pytest.fixture(scope="module")
def blowup_reports():
    out = {}
    coeffs = L2_SETS[0.0]
    for n in (1024, 2048):
        grid = axisym.RadialGrid(n)
        phi0 = axisym.initial_profile(
            grid, "bubble_linear_max", beta0=1e-3, amplitude=1.05 * np.pi
        )
        state0 = axisym.make_state(grid, phi0)
        params = axisym.SolverParams(
            dt=1e-4, scheme="semi_implicit", t_end=0.35, clip_guard=4.0 / grid.dr
        )
        t0 = time.perf_counter()
        trace = axisym.simulate(state0, coeffs, params, snapshot_stride=10)
        report = _detect(trace)
        out[n] = (report, time.perf_counter() - t0, grid.dr)
    return out


def test_c4_blowup_detection(blowup_reports):
    (r1, e1, dr1), (r2, e2, dr2) = blowup_reports[1024], blowup_reports[2048]
    ok = (
        r1.detected
        and r2.detected
        and r1.t_detect < 0.35
        and r2.t_detect < 0.35
        and abs(r1.t_detect - r2.t_detect) <= 0.02
        and r1.grad_history[-1] >= 0.5 / dr1
        and r2.grad_history[-1] >= 0.5 / dr2
        and e1 + e2 < 600.0
    )
    _report(
        "C4",
        ok,
        f"t_detect(1024)={r1.t_detect:.4f} t_detect(2048)={r2.t_detect:.4f} "
        f"grads=({r1.grad_history[-1]:.0f}, {r2.grad_history[-1]:.0f}) "
        f"runtime {e1 + e2:.0f}s",
    )
    assert ok


def test_c4_blowup_profile_fit(blowup_reports):
    # Faithful but unattainable at these grids: the admissible initial data
    # is one cell wide, so the detection-time state cannot match the
    # rescaled bubble.  Measured errors ~0.153 (n=1024) and ~0.100 (n=2048);
    # see the decisions ledger.  The resolvable-formation run in
    # test_blowup.py shows the profile machinery meeting 0.05 when the
    # concentration happens on resolved scales.
    (r1, _, _), (r2, _, _) = blowup_reports[1024], blowup_reports[2048]
    ok = r1.profile_fit_error <= 0.05 and r2.profile_fit_error <= 0.05
    _report(
        "C4-profile",
        ok,
        f"profile_fit_error(1024)={r1.profile_fit_error:.4f} "
        f"profile_fit_error(2048)={r2.profile_fit_error:.4f} vs 0.05 "
        "(under-resolved by construction: initial origin slope 2/beta0 ~ 2000 "
        "exceeds both grids' caps)",
    )
    assert ok, (
        "bubble profile fit at detection cannot reach 0.05 on n=1024/2048: "
        "data dominating the beta0=1e-3 barrier is under-resolved at t=0 "
        f"(errors {r1.profile_fit_error:.3f}, {r2.profile_fit_error:.3f})"
    )


# ---------------------------------------------------------------------------
# criterion 5: Poiseuille counterexample


def test_c5_poiseuille_counterexample():
    t0 = time.perf_counter()
    trace = poiseuille.simulate(*poiseuille.counterexample_setup(5.0, 500, 1.0))
    report = poiseuille.counterexample_report(trace)
    elapsed = time.perf_counter() - t0
    ok = (
        report.max_phi_error <= 1e-6
        and report.max_w_error <= 1e-8
        and report.maximum_principle_violated
        and report.heat_residual <= 1e-6
        and elapsed < 60.0
    )
    _report(
        "C5",
        ok,
        f"phi_err={report.max_phi_error:.2e} w_err={report.max_w_error:.2e} "
        f"heat={report.heat_residual:.2e} violated={report.maximum_principle_violated} "
        f"runtime {elapsed:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: Poiseuille energy identity


def test_c6_energy_identity():
    c = simplified_coefficients()

    def residual(n, dt):
        grid = poiseuille.IntervalGrid(10.0, n)
        state0 = poiseuille.PoiseuilleState(
            grid, w=grid.x * np.exp(-(grid.x**2)), phi=np.zeros(n + 1)
        )
        trace = poiseuille.simulate(
            state0, c, dt, 0.05, poiseuille.homogeneous_bc(), 100
        )
        return poiseuille.energy_identity_residual(trace).residual

    t0 = time.perf_counter()
    r_coarse = residual(2048, 1e-5)
    r_fine = residual(4096, 2.5e-6)
    elapsed = time.perf_counter() - t0
    ok = r_coarse <= 5e-3 and r_coarse / r_fine >= 3.0 and elapsed < 120.0
    _report(
        "C6",
        ok,
        f"residual(2048)={r_coarse:.2e} ratio={r_coarse / r_fine:.2f} "
        f"runtime {elapsed:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: Hopf energy decay


@pytest.fixture(scope="module")
def hopf_ladder():
    t0 = time.perf_counter()
    energies = {lam: hopf.dirichlet_energy_s3(lam, 64) for lam in (1.0, 2.0, 4.0, 8.0)}
    return energies, time.perf_counter() - t0


def test_c7_hopf_decay(hopf_ladder):
    energies, elapsed = hopf_ladder
    vals = [energies[lam] for lam in (1.0, 2.0, 4.0, 8.0)]
    exact = hopf.sphere_energy_exact(1.0)
    rel = abs(energies[1.0] - exact) / exact
    ok = all(b < a for a, b in zip(vals, vals[1:])) and rel <= 0.02 and elapsed < 120.0
    _report(
        "C7",
        ok,
        f"E={['%.2f' % v for v in vals]} decreasing, E(1) off reference by "
        f"{rel:.2%}, runtime {elapsed:.0f}s",
    )
    assert ok


def test_c7_hopf_decay_ratio(hopf_ladder):
    # Faithful but unattainable: the closed form E(lam) = 64 pi^2 lam/(1+lam)^2
    # (constant fibration energy density, conformal factor integral) gives
    # E(8)/E(1) = 32/81 = 0.3951, confirmed by an independent 1D quadrature
    # and by this product grid (0.3925 at mesh 64).  See the decisions ledger.
    energies, _ = hopf_ladder
    ratio = energies[8.0] / energies[1.0]
    ok = ratio < 0.3
    _report(
        "C7-ratio",
        ok,
        f"E(8)/E(1)={ratio:.4f} vs 0.3 (exact value 32/81 = {32 / 81:.4f})",
    )
    assert ok, (
        f"E(8)/E(1) = {ratio:.4f}; the exact ratio is 32/81 = 0.3951, above "
        "the stated 0.3 for every correct implementation"
    )


# ---------------------------------------------------------------------------
# criterion 8: solver verification


def test_c8_solver_verification():
    coeffs = L2_SETS[0.5]
    t0 = time.perf_counter()

    # equilibrium over 1e4 steps, both schemes
    grid = axisym.RadialGrid(256)
    zero = axisym.make_state(grid, lambda r: 0 * r)
    eq_dev = 0.0
    for scheme, dt in (("semi_implicit", 1e-4), ("explicit", 3e-6)):
        params = axisym.SolverParams(dt=dt, scheme=scheme, t_end=1e4 * dt)
        trace = axisym.simulate(zero, coeffs, params, snapshot_stride=2500)
        eq_dev = max(eq_dev, float(np.max(np.abs(trace.phis))))

    # cross-scheme agreement at t = 0.1
    state0 = axisym.make_state(grid, lambda r: (np.pi - 0.1) * r)
    tr_exp = axisym.simulate(
        state0,
        coeffs,
        axisym.SolverParams(dt=2e-6, scheme="explicit", t_end=0.1),
        snapshot_stride=10**9,
    )
    tr_imp = axisym.simulate(
        state0,
        coeffs,
        axisym.SolverParams(dt=1e-5, scheme="semi_implicit", t_end=0.1),
        snapshot_stride=10**9,
    )
    cross = float(np.max(np.abs(tr_exp.phis[-1] - tr_imp.phis[-1])))

    # spatial refinement against a 4x finer reference, the ladder as one batch
    def run(n):
        g = axisym.RadialGrid(n)
        s0 = axisym.make_state(g, lambda r: (np.pi - 0.1) * r)
        p = axisym.SolverParams(dt=1e-6, scheme="semi_implicit", t_end=0.05)
        return s0, coeffs, p, 10**9

    ladder = axisym.simulate_batch([run(64), run(128), run(512)])
    phi64, phi128, ref = (trace.phis[-1] for trace in ladder)
    err64 = float(np.max(np.abs(phi64 - ref[::8])))
    err128 = float(np.max(np.abs(phi128 - ref[::4])))
    ratio = err64 / err128
    elapsed = time.perf_counter() - t0

    ok = eq_dev <= 1e-12 and cross <= 1e-4 and ratio >= 3.5 and elapsed < 300.0
    _report(
        "C8",
        ok,
        f"equilibrium_dev={eq_dev:.1e} cross_scheme={cross:.2e} "
        f"refinement_ratio={ratio:.2f} runtime {elapsed:.0f}s",
    )
    assert ok
