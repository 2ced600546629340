"""Experiment dispatch: build the scenario from a validated config, run it,
and persist CSV time series, a JSON report, and SVG plots inside the
configured output directory.  The directory is created before the run, so
an output path that cannot be a directory is a config error (exit 2) rather
than a failure after the computation; no file is written into it until the
run finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import axisym, barriers, blowup, hopf, poiseuille
from .coeffs import (
    LeslieCoefficients,
    g_coeff,
    h_coeff,
    sample_validated,
    simplified_coefficients,
)
from .config import ExperimentConfig, serialize_config
from .errors import ConfigError, SolverHalt
from .reporting import TimeSeries, write_csv, write_json
from .svgplot import emit_plot

# Blow-up runs are allowed to continue past the detection threshold up to
# the discrete step profile (slope a bit above pi/dr) so the trace covers
# the analysis window.
BLOWUP_GUARD_FACTOR = 4.0


@dataclass
class RunResult:
    kind: str
    out_dir: Path
    report: dict
    files: list[Path] = field(default_factory=list)


@dataclass
class Artifact:
    """One named output: a CSV series plus an optional plot (possibly of a
    reduced column set)."""

    name: str
    series: TimeSeries
    plot_kind: str | None = "linear"
    plot_series: TimeSeries | None = None


def run(
    config: ExperimentConfig,
    out_dir: Path | None = None,
    plots: bool | None = None,
) -> RunResult:
    """Execute the configured experiment and write its artifacts."""
    target = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    do_plots = config.plots if plots is None else plots
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {target}: {exc}") from exc

    runner = {
        "axisym_global": _run_axisym,
        "axisym_blowup": _run_axisym,
        "barrier_check": _run_barrier_check,
        "poiseuille_counterexample": _run_poiseuille_counterexample,
        "poiseuille_generic": _run_poiseuille_generic,
        "hopf_decay": _run_hopf_decay,
    }[config.kind]
    report, artifacts = runner(config)
    report = {"experiment": config.kind, "config_hash": config.hash(), **report}

    result = RunResult(kind=config.kind, out_dir=target, report=report)

    path = target / "report.json"
    write_json(report, path)
    result.files.append(path)
    for art in artifacts:
        csv_path = target / f"{art.name}.csv"
        write_csv(art.series, csv_path)
        result.files.append(csv_path)
        if do_plots and art.plot_kind is not None:
            svg_path = target / f"{art.name}.svg"
            emit_plot(
                art.plot_series if art.plot_series is not None else art.series,
                svg_path,
                title=f"{config.kind}: {art.name}",
                kind=art.plot_kind,
            )
            result.files.append(svg_path)
    cfg_path = target / "config.normalized.ini"
    cfg_path.write_text(serialize_config(config), encoding="utf-8")
    result.files.append(cfg_path)
    return result


# ---------------------------------------------------------------------------
# axisymmetric experiments


def build_axisym_run(config: ExperimentConfig) -> axisym.RunTrace:
    a = config.axisym
    grid = axisym.RadialGrid(a.n_cells)
    phi0 = axisym.initial_profile(grid, a.preset, **a.preset_params())
    state0 = axisym.make_state(grid, phi0)
    guard = a.clip_guard
    if guard is None and config.kind == "axisym_blowup":
        # let steep runs continue past the detection threshold so the trace
        # covers the analysis window; detection keeps its own cap
        guard = BLOWUP_GUARD_FACTOR / grid.dr
    params = axisym.SolverParams(
        dt=a.dt, scheme=a.scheme, t_end=a.t_end, clip_guard=guard
    )
    trace = axisym.simulate(
        state0, config.coefficients, params, config.snapshot_stride
    )
    if trace.n_snapshots < 10:
        raise SolverHalt(
            f"trace too short for blow-up analysis ({trace.n_snapshots} snapshots); "
            "raise t_end, lower snapshot_stride, or loosen clip_guard",
            float(trace.times[-1]),
        )
    return trace


def axisym_series(trace: axisym.RunTrace, local_radius: float) -> TimeSeries:
    e_total, e_grad, e_sin = axisym.energy(trace)
    return TimeSeries(
        columns=("t", "phi_r_origin", "e_total", "e_grad", "e_sin", "local_energy_R"),
        rows=np.column_stack(
            [
                trace.times,
                blowup.gradient_history(trace),
                e_total,
                e_grad,
                e_sin,
                axisym.local_energy(trace, local_radius),
            ]
        ),
    )


def _run_axisym(config: ExperimentConfig):
    trace = build_axisym_run(config)
    coeffs = config.coefficients
    b = config.barrier
    report: dict = {
        "halted": trace.halted,
        "halt_reason": trace.halt_reason,
        "t_final": float(trace.times[-1]),
        "max_phi": float(np.max(trace.phis)),
        "min_phi": float(np.min(trace.phis)),
    }

    blow = blowup.detect(trace, local_energy_radius=b.local_energy_radius)
    report["blowup"] = blow.as_dict()

    if config.kind == "axisym_global":
        sub = barriers.subsolution(b.c, coeffs)
        sup = barriers.supersolution(b.c, coeffs)
        report["ordering"] = barriers.check_ordering(sub, trace, sup).as_dict()
    else:
        if b.eta_beta0 is not None:
            eta = barriers.eta_barrier(b.eta_beta0, coeffs)
            upto = len(blow.times)
            try:
                report["eta_ordering"] = barriers.check_ordering(
                    eta, trace.head(upto), None
                ).as_dict()
            except ValueError as exc:
                report["eta_ordering"] = {"error": str(exc)}
        warnings = []
        if blow.detected:
            if len(blow.times) == 1:
                warnings.append(
                    f"blow-up detected at the initial snapshot (t = {blow.t_detect!r}): "
                    "the initial data are steeper than the grid resolves"
                )
            try:
                slope, r2 = blowup.fit_beta_law(blow)
                report["beta_law"] = {"slope": slope, "r2": r2}
            except ValueError as exc:
                report["beta_law"] = {"error": str(exc)}
                warnings.append(f"beta law not fitted: {exc}")
        report["warnings"] = warnings

    artifacts = [Artifact("series", axisym_series(trace, b.local_energy_radius))]
    if config.kind == "axisym_blowup":
        # full-trace gradient history; beta_hat only where the bubble scale
        # is readable (gradient >= 100), nan elsewhere
        grads = blowup.gradient_history(trace)
        beta_hat = np.where(
            grads >= blowup.PROFILE_MIN_GRADIENT, 2.0 / np.maximum(grads, 1e-300), np.nan
        )
        full = TimeSeries(
            ("t", "phi_r_origin", "beta_hat"),
            np.column_stack([trace.times, grads, beta_hat]),
        )
        grad_only = TimeSeries(
            ("t", "phi_r_origin"), np.column_stack([trace.times, grads])
        )
        artifacts.append(
            Artifact("blowup_history", full, "linear", plot_series=grad_only)
        )
    return report, artifacts


# ---------------------------------------------------------------------------
# barrier sign sampling


def _eta_beta0_for(coeffs: LeslieCoefficients, fraction: float = 0.5) -> float:
    limit = coeffs.lambda1 / (coeffs.lambda1 + 3.0 * abs(coeffs.lambda2))
    return (fraction * limit) ** 3


def _run_barrier_check(config: ExperimentConfig):
    bc = config.barrier_check
    rng = np.random.default_rng(bc.seed)
    r = np.linspace(1.0 / bc.n_r, 1.0, bc.n_r)[np.newaxis, :]

    sets = []
    worst_super = np.inf
    worst_sub = -np.inf
    worst_eta = -np.inf
    for k in range(bc.n_sets):
        coeffs = sample_validated(rng)
        t = np.linspace(0.0, bc.t_max, bc.n_t)[:, np.newaxis]
        sup = barriers.supersolution(c=1.0, coeffs=coeffs)
        sub = barriers.subsolution(c=1.0, coeffs=coeffs)
        super_min = float(np.min(barriers.barrier_residual(sup, coeffs, r, t)))
        sub_max = float(np.max(barriers.barrier_residual(sub, coeffs, r, t)))

        beta0 = _eta_beta0_for(coeffs)
        eta = barriers.eta_barrier(beta0, coeffs)
        t_eta = np.linspace(0.0, 0.999 * eta.clock().t0, bc.n_t)[:, np.newaxis]
        eta_max = float(np.max(barriers.barrier_residual(eta, coeffs, r, t_eta)))

        worst_super = min(worst_super, super_min)
        worst_sub = max(worst_sub, sub_max)
        worst_eta = max(worst_eta, eta_max)
        sets.append(
            {
                "lambda1": coeffs.lambda1,
                "lambda2": coeffs.lambda2,
                "eta_beta0": beta0,
                "super_residual_min": super_min,
                "sub_residual_max": sub_max,
                "eta_residual_max": eta_max,
            }
        )

    # negative control: clock started past the admissible window must show a
    # positive residual sample (checked on the simplified set, where any
    # beta0 > 1 violates the constraint)
    coeffs = simplified_coefficients()
    control = barriers.eta_barrier(1.05**3, coeffs, strict=False)
    t_ctl = np.linspace(1e-3, 0.14, bc.n_t)[:, np.newaxis]
    control_max = float(np.max(barriers.barrier_residual(control, coeffs, r, t_ctl)))

    report = {
        "n_sets": bc.n_sets,
        "sample_grid": [bc.n_t, bc.n_r],
        "super_residual_min": worst_super,
        "sub_residual_max": worst_sub,
        "eta_residual_max": worst_eta,
        "signs_ok": bool(worst_super >= 0.0 and worst_sub <= 0.0 and worst_eta <= 0.0),
        "negative_control_max": control_max,
        "negative_control_fired": bool(control_max > 0.0),
        "sets": sets,
    }
    return report, []


# ---------------------------------------------------------------------------
# Poiseuille experiments


def _poiseuille_series(trace: poiseuille.PoiseuilleTrace, exact_w=None) -> TimeSeries:
    rows = []
    x = trace.grid.x
    for i in range(trace.n_snapshots):
        e, d = poiseuille.energies(trace, i)
        row = [trace.times[i], float(np.max(np.abs(trace.phis[i])))]
        if exact_w is not None:
            row.append(float(np.max(np.abs(trace.ws[i] - exact_w(x)))))
        row += [e, d]
        rows.append(row)
    cols = ["t", "max_abs_phi"]
    if exact_w is not None:
        cols.append("max_err_w")
    cols += ["energy", "dissipation"]
    return TimeSeries(tuple(cols), np.asarray(rows))


def _run_poiseuille_counterexample(config: ExperimentConfig):
    p = config.poiseuille
    report_obj, trace = poiseuille.counterexample_run(
        L=p.half_length, n=p.n_cells, t_end=p.t_end, dt=p.dt
    )
    series = _poiseuille_series(trace, exact_w=lambda x: -2.0 * x)
    return report_obj.as_dict(), [Artifact("series", series)]


def _run_poiseuille_generic(config: ExperimentConfig):
    p = config.poiseuille
    c = config.coefficients
    grid = poiseuille.IntervalGrid(p.half_length, p.n_cells)
    w0 = p.velocity_amplitude * (grid.x * np.exp(-(grid.x**2)))
    state0 = poiseuille.PoiseuilleState(
        grid, w=w0, phi=np.zeros(p.n_cells + 1), a=p.a
    )
    dt, _ = poiseuille.plan_run(grid, c, p.t_end, p.dt, config.snapshot_stride)
    trace = poiseuille.simulate(
        state0, c, dt, p.t_end, poiseuille.homogeneous_bc(), config.snapshot_stride
    )
    energy_res = poiseuille.energy_identity_residual(trace)
    report = {
        "energy_identity_residual": energy_res.residual,
        "boundary_warning": energy_res.boundary_warning,
        "energy_nonincreasing": bool(
            np.all(np.diff(energy_res.energies) <= energy_res.residual * dt + 1e-14)
        ),
        "heat_reduction_residual": None,
        "dt": dt,
    }
    simplified = (
        abs(g_coeff(c, 0.0) - 2.0) < 1e-12 and abs(h_coeff(c, 0.0) - 1.0) < 1e-12
    )
    if simplified:
        report["heat_reduction_residual"] = poiseuille.heat_reduction_check(trace)
    return report, [Artifact("series", _poiseuille_series(trace))]


# ---------------------------------------------------------------------------
# Hopf energy decay


def _run_hopf_decay(config: ExperimentConfig):
    h = config.hopf
    rows = []
    table = []
    for lam in h.lambdas:
        e_sphere = hopf.dirichlet_energy_s3(lam, h.mesh)
        exact = hopf.sphere_energy_exact(lam)
        e_vel, e_dir = hopf.ball_energy_parts(lam, h.ball_mesh)
        warn = hopf.resolution_warning(lam, h.mesh)
        rows.append((lam, e_sphere, float(h.mesh), 1.0 if warn else 0.0))
        table.append(
            {
                "lambda": lam,
                "sphere_energy": e_sphere,
                "exact_energy": exact,
                "relative_error": abs(e_sphere - exact) / exact,
                "ball_energy_velocity": e_vel,
                "ball_energy_director": e_dir,
                "ball_energy_total": e_vel + e_dir,
                "under_resolved": warn,
            }
        )
    energies = [row["sphere_energy"] for row in table]
    report = {
        "mesh": h.mesh,
        "ball_mesh": h.ball_mesh,
        "reference_energy_lambda1": hopf.sphere_energy_exact(1.0),
        "strictly_decreasing": bool(np.all(np.diff(energies) < 0.0)),
        "decay_ratio_last_first": energies[-1] / energies[0],
        "table": table,
    }
    if 1.0 in h.lambdas:
        report["reference_relative_error"] = table[list(h.lambdas).index(1.0)][
            "relative_error"
        ]
    series = TimeSeries(
        ("lambda", "energy", "mesh", "warning_flag"), np.asarray(rows)
    )
    plot = TimeSeries(("lambda", "energy"), np.asarray(rows)[:, :2])
    return report, [Artifact("decay", series, "loglog", plot_series=plot)]
