"""Correctness checks of one operation's output directory.

Each check compares what the program wrote against the inputs the benchmark
generated, using an independent reference, a closed form or a property of
the method; none compares against a stored copy of earlier output.
``check(op)`` returns a list of problems; an empty list means the operation
passed.  ``selftest.py`` shows that each check rejects a corrupted artifact.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.sparse import diags

from workloads import Op

# Relative tolerance per unit dt of the radial reference comparison.  The
# Crank-Nicolson step folds the damping Jacobian into the diagonal, so it is
# first order in dt: on the n=128 member (lambda2 = 0.5) the relative gap to
# the BDF reference is at most 3.8e-4 (phi_r(0)) and 2.9e-5 (e_total) at
# dt=1e-4 over the seeded amplitude range, and halves with dt.
REFERENCE_REL_PER_DT = 10.0
# Hopf sphere energy: relative quadrature error <= (16 + lam^2) / mesh^2.
# Measured (rel * mesh^2): 9.8 at lam=1, 16.8 at lam=4, 36.4 at lam=8.
HOPF_ERROR_CONSTANT = 16.0
# Poiseuille energy identity |dE/dt + D| over snapshot pairs, relative to
# max D; measured 1.85e-4 (the simplified system is linear, so the ratio
# does not depend on the amplitude).
ENERGY_IDENTITY_REL = 1e-3
EXACT_PAIR_TOL = 1e-9


def _report(op: Op) -> dict:
    return json.loads((op.out / "report.json").read_text(encoding="utf-8"))


def _csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def _col(header: list[str], rows: np.ndarray, name: str) -> np.ndarray:
    return rows[:, header.index(name)]


def _svg_ok(path) -> bool:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError):
        return False
    return root.tag.endswith("svg") and any(
        el.tag.endswith("polyline") for el in root.iter()
    )


class _Problems(list):
    def require(self, ok, what: str) -> None:
        if not ok:
            self.append(what)


# ---------------------------------------------------------------------------
# radial angle equation


def radial_reference(n: int, mus, amplitude: float, t_end: float) -> np.ndarray:
    """Node values at t_end of the semi-discrete angle equation

        lambda1 (phi_t + r phi_r) = phi_rr + phi_r/r - sin(2 phi)/(2 r^2)
                                     - 3 lambda2 sin(phi) cos(phi)

    (central differences on r_i = i/n, phi(0) = 0, phi(1) frozen), solved by
    BDF to tight tolerance from phi0 = amplitude * r."""
    lam1 = mus[2] - mus[1]
    lam2 = mus[5] - mus[4]
    dr = 1.0 / n
    r = np.linspace(0.0, 1.0, n + 1)[1:-1]

    def f(_t, p):
        ext = np.concatenate(([0.0], p, [amplitude]))
        d1 = (ext[2:] - ext[:-2]) / (2.0 * dr)
        d2 = (ext[2:] - 2.0 * p + ext[:-2]) / dr**2
        react = -np.sin(2.0 * p) / (2.0 * r**2) - 3.0 * lam2 * np.sin(p) * np.cos(p)
        return (d2 + d1 / r + react) / lam1 - r * d1

    sparsity = diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(n - 1, n - 1))
    sol = solve_ivp(
        f, (0.0, t_end), amplitude * r, method="BDF",
        jac_sparsity=sparsity, rtol=1e-10, atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return np.concatenate(([0.0], sol.y[:, -1], [amplitude]))


def radial_energy(phi: np.ndarray) -> tuple[float, float]:
    """(e_total, phi_r(0)): trapezoid of (phi_r^2 + sin^2(phi)/r^2) r over
    [0, 1] with second-order differences, one-sided at the ends."""
    n = len(phi) - 1
    dr = 1.0 / n
    r = np.linspace(0.0, 1.0, n + 1)
    d1 = np.gradient(phi, dr, edge_order=2)
    sin_term = np.zeros_like(r)
    sin_term[1:] = np.sin(phi[1:]) ** 2 / r[1:]
    return float(np.trapezoid(d1**2 * r + sin_term, r)), float(d1[0])


def check_radial(op: Op) -> list[str]:
    p = op.params
    bad = _Problems()
    rep = _report(op)
    dr = 1.0 / p["n"]
    bad.require(rep["ordering"]["passed"] is True, "barrier ordering failed")
    bad.require(rep["blowup"]["detected"] is False, "blow-up detected in a global run")
    bad.require(rep["halted"] is False, "run halted")
    bad.require(rep["min_phi"] >= 0.0, "phi < 0")
    bad.require(rep["max_phi"] <= math.pi + 10.0 * dr**2, "phi > pi + tol")
    bad.require(abs(rep["t_final"] - p["t_end"]) <= p["dt"] / 2, "t_final != t_end")

    header, rows = _csv(op.out / "series.csv")
    t = _col(header, rows, "t")
    stride = p["snapshot_stride"]
    bad.require(len(t) == p["steps"] // stride + 1, "series row count != snapshot count")
    bad.require(abs(t[-1] - p["t_end"]) <= p["dt"] / 2, "series does not end at t_end")

    # closed forms of the initial data phi0 = a r: e_grad = a^2/2 and
    # phi_r(0) = a exactly; e_sin = int_0^1 sin^2(a r)/r dr to O(dr^2)
    a = p["amplitude"]
    row0 = rows[0]
    bad.require(abs(row0[header.index("e_grad")] - a * a / 2) <= 1e-9 * a * a, "e_grad(0) != a^2/2")
    bad.require(abs(row0[header.index("phi_r_origin")] - a) <= 1e-9 * a, "phi_r(0, 0) != a")
    e_sin0 = quad(lambda r: math.sin(a * r) ** 2 / r if r > 0 else 0.0, 0.0, 1.0)[0]
    bad.require(abs(row0[header.index("e_sin")] - e_sin0) <= 10.0 * dr**2, "e_sin(0) off the quadrature")

    if p.get("reference"):
        e_ref, g_ref = radial_energy(radial_reference(p["n"], p["mus"], a, p["t_end"]))
        tol = REFERENCE_REL_PER_DT * p["dt"]
        last = rows[-1]
        e_got = last[header.index("e_total")]
        g_got = last[header.index("phi_r_origin")]
        bad.require(abs(e_got - e_ref) <= tol * abs(e_ref), "e_total(t_end) off the BDF reference")
        bad.require(abs(g_got - g_ref) <= tol * abs(g_ref), "phi_r(0, t_end) off the BDF reference")
    return bad


# ---------------------------------------------------------------------------
# blow-up


def check_blowup(op: Op) -> list[str]:
    p = op.params
    bad = _Problems()
    rep = _report(op)
    blow = rep["blowup"]
    n_snap = p["steps"] // p["snapshot_stride"] + 1
    bad.require(blow["detected"] is True, "no blow-up detected")
    fit = blow["profile_fit_error"]
    bad.require(fit is not None and fit <= 0.05, "bubble-fit error > 0.05")
    law = rep.get("beta_law", {})
    bad.require("slope" in law, "no beta law fitted")
    if "slope" not in law:
        return bad
    bad.require(law["slope"] < 0.0 and law["r2"] >= 0.9, "beta law: slope >= 0 or r2 < 0.9")

    header, rows = _csv(op.out / "series.csv")
    bad.require(len(rows) == n_snap, "series row count != snapshot count")
    hheader, hist = _csv(op.out / "blowup_history.csv")
    bad.require(len(hist) == n_snap, "history row count != snapshot count")
    bad.require(np.array_equal(_col(header, rows, "t"), _col(hheader, hist, "t")), "history times differ from series")

    # detection is the first time phi_r(0) exceeds half the resolvable
    # slope 0.5/dr; the beta law is a line through (t, beta_hat^(1/3)) over
    # the readable part (gradient >= 100) of the history up to detection
    t = _col(hheader, hist, "t")
    grad = _col(hheader, hist, "phi_r_origin")
    over = np.nonzero(grad > 0.5 * p["n"])[0]
    bad.require(len(over) > 0, "history never crosses 0.5/dr")
    if len(over) == 0:
        return bad
    k = int(over[0])
    bad.require(t[k] == blow["t_detect"], "t_detect is not the first crossing of 0.5/dr")
    bad.require(0.0 < t[k] < p["t_end"], "t_detect outside the run")
    beta = _col(hheader, hist, "beta_hat")[: k + 1]
    readable = grad[: k + 1] >= 100.0
    bad.require(
        np.allclose(beta[readable], 2.0 / grad[: k + 1][readable], rtol=1e-12),
        "beta_hat != 2/phi_r(0)",
    )
    tt, y = t[: k + 1][readable], beta[readable] ** (1.0 / 3.0)
    slope, icpt = np.polyfit(tt, y, 1)
    r2 = 1.0 - np.sum((y - (slope * tt + icpt)) ** 2) / np.sum((y - y.mean()) ** 2)
    bad.require(
        abs(slope - law["slope"]) <= 1e-6 * abs(slope) and abs(r2 - law["r2"]) <= 1e-6,
        "beta law does not match the history",
    )
    for name in ("series.svg", "blowup_history.svg"):
        bad.require(_svg_ok(op.out / name), f"{name} is not an SVG plot")
    return bad


# ---------------------------------------------------------------------------
# Poiseuille, barrier sampling, Hopf


def check_counterexample(op: Op) -> list[str]:
    bad = _Problems()
    rep = _report(op)
    bad.require(rep["maximum_principle_violated"] is True, "maximum principle not violated")
    header, rows = _csv(op.out / "series.csv")
    t = _col(header, rows, "t")
    # the exact pair w = -2x, phi = t: max |phi| is t and w has no error
    bad.require(np.all(np.abs(_col(header, rows, "max_abs_phi") - t) <= EXACT_PAIR_TOL), "phi != t")
    bad.require(np.all(_col(header, rows, "max_err_w") <= EXACT_PAIR_TOL), "w != -2x")
    bad.require(abs(t[-1] - op.params["t_end"]) <= 1e-9, "run does not end at t_end")
    bad.require(abs(rep["max_phi_final"] - op.params["t_end"]) <= EXACT_PAIR_TOL, "final max phi != t_end")
    return bad


def check_generic(op: Op) -> list[str]:
    p = op.params
    bad = _Problems()
    rep = _report(op)
    header, rows = _csv(op.out / "series.csv")
    t = _col(header, rows, "t")
    e = _col(header, rows, "energy")
    d = _col(header, rows, "dissipation")
    bad.require(len(t) == p["steps"] // p["snapshot_stride"] + 1, "series row count != snapshot count")
    # E(0) = 0.5 int (A x exp(-x^2))^2 dx = A^2 sqrt(2 pi) / 16 (phi0 = 0)
    e0 = p["velocity_amplitude"] ** 2 * math.sqrt(2.0 * math.pi) / 16.0
    bad.require(abs(e[0] - e0) <= 1e-9 * e0, "E(0) != A^2 sqrt(2 pi)/16")
    resid = np.abs(np.diff(e) / np.diff(t) + 0.5 * (d[:-1] + d[1:]))
    bad.require(np.max(resid) <= ENERGY_IDENTITY_REL * np.max(d), "energy identity dE/dt + D = 0 fails")
    bad.require(np.all(np.diff(e) <= 0.0), "energy increases")
    bad.require(rep["energy_nonincreasing"] is True, "report says energy increases")
    return bad


def check_barrier(op: Op) -> list[str]:
    bad = _Problems()
    rep = _report(op)
    bad.require(rep["signs_ok"] is True, "barrier residual signs wrong")
    bad.require(rep["negative_control_fired"] is True, "negative control did not fire")
    bad.require(len(rep["sets"]) == op.params["n_sets"], "wrong number of coefficient sets")
    for s in rep["sets"]:
        # the clock constraint beta0^(1/3) < lambda1/(lambda1 + 3|lambda2|)
        limit = s["lambda1"] / (s["lambda1"] + 3.0 * abs(s["lambda2"]))
        bad.require(s["eta_beta0"] ** (1.0 / 3.0) < limit, "eta clock outside its window")
        bad.require(
            s["super_residual_min"] >= 0.0 and s["sub_residual_max"] <= 0.0 and s["eta_residual_max"] <= 0.0,
            "a sampled set has a residual of the wrong sign",
        )
    bad.require(rep["negative_control_max"] > 0.0, "negative control residual not positive")
    return bad


def hopf_energy(lam: float) -> float:
    """Sphere energy of the dilated fibration, E = 64 pi^2 lam / (1 + lam)^2."""
    return 64.0 * math.pi**2 * lam / (1.0 + lam) ** 2


def ball_velocity_energy(lam: float) -> float:
    """0.5 int |u/lam|^2 over the unit ball for u = 4 (1 - |x|^2)(-y, x, 0)."""
    return 512.0 * math.pi / (945.0 * lam**2)


def check_hopf(op: Op) -> list[str]:
    p = op.params
    bad = _Problems()
    rep = _report(op)
    header, rows = _csv(op.out / "decay.csv")
    lams = _col(header, rows, "lambda")
    bad.require(np.array_equal(lams, np.asarray(p["lambdas"])), "decay table lambdas differ from the input")
    mesh = p["mesh"]
    for lam, e in zip(lams, _col(header, rows, "energy")):
        bound = (HOPF_ERROR_CONSTANT + lam**2) / mesh**2
        bad.require(abs(e - hopf_energy(lam)) <= bound * hopf_energy(lam), f"E({lam:.4g}) off 64 pi^2 lam/(1+lam)^2")
    for row in rep["table"]:
        exact = ball_velocity_energy(row["lambda"])
        bad.require(
            abs(row["ball_energy_velocity"] - exact) <= exact / p["ball_mesh"] ** 2,
            "ball velocity energy off 512 pi/(945 lam^2)",
        )
    bad.require(rep["strictly_decreasing"] is True, "sphere energy not decreasing")
    return bad


CHECKS = {
    "axisym_global": check_radial,
    "axisym_blowup": check_blowup,
    "poiseuille_counterexample": check_counterexample,
    "poiseuille_generic": check_generic,
    "barrier_check": check_barrier,
    "hopf_decay": check_hopf,
}


def check(op: Op) -> list[str]:
    try:
        return CHECKS[op.kind](op)
    except (OSError, ValueError, KeyError, IndexError, TypeError, RuntimeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
