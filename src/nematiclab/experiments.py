"""Experiment dispatch: build the scenario from a validated config, run it,
and persist CSV time series, a JSON report, and SVG plots inside the
configured output directory.  The directory is created before the run, so
an output path that cannot be a directory is a config error (exit 2) rather
than a failure after the computation; no file is written into it until the
run finished.  A file that cannot be written after the run is a config
error too, naming its path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import axisym, barriers, blowup, hopf, poiseuille
from .coeffs import sample_validated, simplified_coefficients
from .config import ExperimentConfig, poiseuille_run, radial_run, serialize_config
from .errors import ConfigError, SolverHalt
from .reporting import TimeSeries, write_csv, write_json
from .svgplot import emit_plot

AXISYM_KINDS = ("axisym_global", "axisym_blowup")


@dataclass
class RunResult:
    report: dict
    files: list[Path] = field(default_factory=list)


@dataclass
class Artifact:
    """One named output: a CSV series and its plot (possibly of a reduced
    column set), drawn when the run makes plots."""

    name: str
    series: TimeSeries
    plot_kind: str = "linear"
    plot_series: TimeSeries | None = None


def make_out_dir(target: Path) -> None:
    """Create an output directory; ConfigError (exit 2) when it cannot be."""
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {target}: {exc}") from exc


def run(
    config: ExperimentConfig,
    out_dir: Path | None = None,
    plots: bool | None = None,
    radial: RadialDiagnostics | None = None,
) -> RunResult:
    """Execute the configured experiment and write its artifacts.  An axisym
    config may come with its run already marched, in a batch, into
    ``radial``."""
    target = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    do_plots = config.plots if plots is None else plots
    make_out_dir(target)

    if config.kind in AXISYM_KINDS:
        report, artifacts = _run_axisym(config, radial)
    else:
        runner = {
            "barrier_check": _run_barrier_check,
            "poiseuille_counterexample": _run_poiseuille_counterexample,
            "poiseuille_generic": _run_poiseuille_generic,
            "hopf_decay": _run_hopf_decay,
        }[config.kind]
        report, artifacts = runner(config)
    report = {"experiment": config.kind, "config_hash": config.hash(), **report}

    result = RunResult(report)

    path = target / "report.json"
    try:
        write_json(report, path)
        result.files.append(path)
        for art in artifacts:
            path = target / f"{art.name}.csv"
            write_csv(art.series, path)
            result.files.append(path)
            if do_plots:
                path = target / f"{art.name}.svg"
                emit_plot(
                    art.plot_series if art.plot_series is not None else art.series,
                    path,
                    title=f"{config.kind}: {art.name}",
                    kind=art.plot_kind,
                )
                result.files.append(path)
        path = target / "config.normalized.ini"
        path.write_text(serialize_config(config), encoding="utf-8")
        result.files.append(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return result


# ---------------------------------------------------------------------------
# axisymmetric experiments


def axisym_batches(configs: list[ExperimentConfig]) -> list[list[int]]:
    """The positions of the axisym configs among ``configs``, in batches in
    order, each closed before its record buffers would pass
    ``axisym.MAX_RECORD_BYTES``; ``axisym.simulate_batch`` groups a batch's
    runs by (scheme, dt)."""
    batches: list[list[int]] = []
    used = 0
    for i, config in enumerate(configs):
        if config.kind not in AXISYM_KINDS:
            continue
        a = config.axisym
        _, _, size = axisym.plan_record(
            0.0, a.t_end, a.dt, config.snapshot_stride, a.n_cells + 1
        )
        if not batches or used + size > axisym.MAX_RECORD_BYTES:
            batches.append([])
            used = 0
        batches[-1].append(i)
        used += size
    return batches


def axisym_series(times: np.ndarray, energies: tuple) -> TimeSeries:
    """One row per snapshot: its time, origin gradient, energies and local
    energy, from ``energies``, the columns of ``axisym.energy``."""
    *parts, grads = energies
    return TimeSeries(
        columns=("t", "phi_r_origin", "e_total", "e_grad", "e_sin", "local_energy_R"),
        rows=np.column_stack([times, grads, *parts]),
    )


class RadialDiagnostics:
    """What an axisym config reports of its run, reduced block by block as
    the run records (the sink of ``axisym.RunRecord``), so no
    ``(snapshots, nodes)`` trace is held.  Per block: the five columns of
    ``axisym.energy``, the max and min of phi, the ordering scan (sub and
    super on a global run; eta on a blow-up run up to the first row whose
    phi_r(0) passes the detection cap 0.5/dr), and copies of that first row
    and of the last.  ``args`` are the run's ``axisym.simulate``
    arguments, this object its sink; ``trace``, set once the run has
    ended, holds its times and halt."""

    def __init__(self, config: ExperimentConfig):
        self.args = radial_run(config)
        state0, coeffs, params, _ = self.args
        self.grid, self.radius = state0.grid, config.barrier.local_energy_radius
        self.cap = 0.5 / self.grid.dr
        self.trace: axisym.RunTrace | None = None
        self.columns: list[tuple] = []
        self.max_phi, self.min_phi = -np.inf, np.inf
        self.eta_cut = config.kind == "axisym_blowup"  # its scan stops at detection
        self.crossing = self.last = None  # copies of a snapshot
        b = config.barrier
        self.scan, self.scan_error = None, None
        if config.kind == "axisym_global":
            sub, sup = barriers.subsolution(b.c, coeffs), barriers.supersolution(b.c, coeffs)
            self.scan = barriers.OrderingScan(sub, sup, self.grid, params.dt)
        elif b.eta_beta0 is not None:
            eta = barriers.eta_barrier(b.eta_beta0, coeffs)
            self.scan = barriers.OrderingScan(eta, None, self.grid, params.dt)

    def __call__(self, times: np.ndarray, block: np.ndarray) -> None:
        """Reduce the next snapshots the run recorded, ``block``'s rows, at
        ``times``."""
        columns = axisym.energy(self.grid, block, self.radius)
        self.columns.append(columns)
        # np.maximum and np.minimum propagate a nan, as the max over the
        # whole trace did
        self.max_phi = np.maximum(self.max_phi, np.max(block))
        self.min_phi = np.minimum(self.min_phi, np.min(block))
        self.last = block[-1].copy()
        scanned = len(block)
        if self.crossing is None:
            over = np.flatnonzero(columns[4] > self.cap)
            if len(over):
                self.crossing = block[over[0]].copy()
                if self.eta_cut:
                    scanned = over[0] + 1
        elif self.eta_cut:
            scanned = 0
        if self.scan is not None and self.scan_error is None and scanned:
            try:
                barriers.check_ordering(self.scan, times[:scanned], block[:scanned])
            except ValueError as exc:  # an eta clock expired: reported, not raised
                self.scan_error = str(exc)

    def ordering(self) -> dict:
        """The ordering report, or its error when the data break the
        ordering at t = 0 or on the boundary, where the barriers do not
        apply, or outlive the eta clock."""
        if self.scan_error is not None:
            return {"error": self.scan_error}
        try:
            return self.scan.report().as_dict()
        except ValueError as exc:
            return {"error": str(exc)}


def march(radial: list[RadialDiagnostics]) -> None:
    """March the runs of ``radial`` as one ``axisym.simulate_batch`` call."""
    runs = [(*d.args, d) for d in radial]
    for diagnostics, trace in zip(radial, axisym.simulate_batch(runs)):
        diagnostics.trace = trace


def _run_axisym(config: ExperimentConfig, radial: RadialDiagnostics | None):
    if radial is None:
        radial = RadialDiagnostics(config)
        radial.trace = axisym.simulate(*radial.args, sink=radial)
    trace = radial.trace
    if trace.n_snapshots < blowup.MIN_SNAPSHOTS:
        raise SolverHalt(
            f"trace too short for blow-up analysis ({trace.n_snapshots} snapshots); "
            "raise t_end, lower snapshot_stride, or loosen clip_guard",
            float(trace.times[-1]),
        )
    b = config.barrier
    report: dict = {
        "halted": trace.halted,
        "halt_reason": trace.halt_reason,
        "t_final": float(trace.times[-1]),
        "max_phi": float(radial.max_phi),
        "min_phi": float(radial.min_phi),
    }

    energies = tuple(np.concatenate(column) for column in zip(*radial.columns))
    grads = energies[4]
    row = radial.crossing if radial.crossing is not None else radial.last
    blow = blowup.detect(trace, grads, row, local_energy_radius=b.local_energy_radius)
    report["blowup"] = blow.as_dict()

    if config.kind == "axisym_global":
        report["ordering"] = radial.ordering()
    else:
        if b.eta_beta0 is not None:
            report["eta_ordering"] = radial.ordering()
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

    artifacts = [Artifact("series", axisym_series(trace.times, energies))]
    if config.kind == "axisym_blowup":
        # beta_hat only where the bubble scale is readable (gradient >= 100),
        # nan elsewhere
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
        artifacts.append(Artifact("blowup_history", full, plot_series=grad_only))
    return report, artifacts


# ---------------------------------------------------------------------------
# barrier sign sampling


def _run_barrier_check(config: ExperimentConfig):
    bc = config.barrier_check
    rng = np.random.default_rng(bc.seed)
    r = np.linspace(1.0 / bc.n_r, 1.0, bc.n_r)[np.newaxis, :]

    sets = []
    worst_super = np.inf
    worst_sub = -np.inf
    worst_eta = -np.inf
    t = np.linspace(0.0, bc.t_max, bc.n_t)[:, np.newaxis]
    for k in range(bc.n_sets):
        coeffs = sample_validated(rng)
        sup = barriers.supersolution(c=1.0, coeffs=coeffs)
        sub = barriers.subsolution(c=1.0, coeffs=coeffs)
        super_min = float(np.min(barriers.barrier_residual(sup, coeffs, r, t)))
        sub_max = float(np.max(barriers.barrier_residual(sub, coeffs, r, t)))

        # the beta0 whose cube root is half the eta clock's limit
        beta0 = (0.5 * barriers.eta_clock_limit(coeffs)) ** 3
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


def _poiseuille_series(
    trace: poiseuille.PoiseuilleTrace, e: np.ndarray, d: np.ndarray, exact_w=None
) -> TimeSeries:
    """One row per snapshot, from the energies (E, D) of the whole trace."""
    cols = {"t": trace.times, "max_abs_phi": np.max(np.abs(trace.phis), axis=1)}
    if exact_w is not None:
        cols["max_err_w"] = np.max(np.abs(trace.ws - exact_w(trace.grid.x)), axis=1)
    cols["energy"], cols["dissipation"] = e, d
    return TimeSeries(tuple(cols), np.column_stack(list(cols.values())))


def _require_finite(trace, e: np.ndarray, d: np.ndarray, **residuals) -> None:
    """SolverHalt (exit 3) at the first snapshot whose energy or dissipation
    is non-finite, else at the last one when a reported residual, a maximum
    over the whole run, is: an overflowed run is not a result."""
    bad = ~(np.isfinite(e) & np.isfinite(d))
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverHalt(f"non-finite energy or dissipation at snapshot {i}", float(trace.times[i]))
    for name, value in residuals.items():
        if value is not None and not math.isfinite(value):
            raise SolverHalt(f"non-finite {name} over the run", float(trace.times[-1]))


def _run_poiseuille_counterexample(config: ExperimentConfig):
    trace = poiseuille.simulate(*poiseuille_run(config))
    with np.errstate(over="ignore", invalid="ignore"):  # _require_finite halts on these
        report_obj = poiseuille.counterexample_report(trace)
        e, d = poiseuille.energies(trace)
    _require_finite(trace, e, d, heat_residual=report_obj.heat_residual)
    series = _poiseuille_series(trace, e, d, exact_w=lambda x: -2.0 * x)
    return report_obj.as_dict(), [Artifact("series", series)]


def _run_poiseuille_generic(config: ExperimentConfig):
    run_args = poiseuille_run(config)
    dt = run_args[2]
    trace = poiseuille.simulate(*run_args)
    with np.errstate(over="ignore", invalid="ignore"):  # _require_finite halts on these
        energy_res = poiseuille.energy_identity_residual(trace)
        report = {
            "energy_identity_residual": energy_res.residual,
            "boundary_warning": energy_res.boundary_warning,
            # dE/dt + D = -a int w: only a = 0 makes E nonincreasing
            "energy_nonincreasing": (
                bool(np.all(np.diff(energy_res.energies) <= energy_res.residual * dt + 1e-14))
                if trace.a == 0.0 else None
            ),
            "heat_reduction_residual": (
                poiseuille.heat_reduction_check(trace)
                if poiseuille.heat_reduction_applies(trace) else None
            ),
            "dt": dt,
        }
    _require_finite(
        trace,
        energy_res.energies,
        energy_res.dissipations,
        energy_identity_residual=energy_res.residual,
        heat_reduction_residual=report["heat_reduction_residual"],
    )
    series = _poiseuille_series(trace, energy_res.energies, energy_res.dissipations)
    return report, [Artifact("series", series)]


# ---------------------------------------------------------------------------
# Hopf energy decay


def _run_hopf_decay(config: ExperimentConfig):
    h = config.hopf
    rows = []
    table = []
    for lam in h.lambdas:
        e_sphere = hopf.dirichlet_energy_s3(lam, h.mesh)
        exact = hopf.sphere_energy_exact(lam)
        error = abs(e_sphere - exact) / exact
        e_vel, e_dir = hopf.ball_energy_parts(lam, h.ball_mesh)
        warn = bool(error > hopf.UNDER_RESOLVED_ERROR)
        rows.append((lam, e_sphere, float(h.mesh), 1.0 if warn else 0.0))
        table.append(
            {
                "lambda": lam,
                "sphere_energy": e_sphere,
                "exact_energy": exact,
                "relative_error": error,
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
