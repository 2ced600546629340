"""Poiseuille diagnostics reduced block by block while the run records,
against the same diagnostics taken from the whole trace.

``poiseuille.PoiseuilleDiagnostics`` takes each block a run records, so no
``(snapshots, 3, nodes)`` trace is held.  The reference below is the
whole-trace form the experiment code had before it streamed: it marches
with ``poiseuille.simulate`` and no sink, then reduces whole arrays (the
energies in ``axisym.row_blocks``, the velocity potential and the heat check
as one array each).  The report, the CSV file and the SVG file must agree
byte for byte at record blocks of 1, 2 and 7 rows.  The cases cover the
counterexample, a homogeneous pulse with a pressure gradient, a stride that
does not divide the step count, a heat check whose worst snapshot pair
straddles a block boundary, a nan snapshot and runs that halt (exit 3).
"""

import math
import tracemalloc

import numpy as np
import pytest

from nematiclab import axisym, experiments, poiseuille, reporting, svgplot
from nematiclab.cli import main
from nematiclab.coeffs import g_coeff, h_coeff
from nematiclab.config import parse_config, poiseuille_run
from nematiclab.errors import SolverHalt
from nematiclab.reporting import TimeSeries

SIMPLIFIED = """
[coefficients]
mu1 = 0.0
mu2 = -1.0
mu3 = 1.0
mu4 = 3.0
mu5 = 0.0
mu6 = 0.0
"""

# not the simplified set: g and h depend on phi, and the heat check does not
# apply
SAMPLED = """
[coefficients]
mu1 = 0.4
mu2 = -1.3
mu3 = 0.2
mu4 = 1.1
mu5 = 0.3
mu6 = -0.8
"""

GENERIC = """[experiment]
kind = poiseuille_generic
out_dir = out
snapshot_stride = {stride}
{coefficients}
[poiseuille]
half_length = 10.0
n_cells = {n}
dt = {dt!r}
t_end = {t_end!r}
velocity_amplitude = {amplitude}
a = {a}
"""

COUNTEREXAMPLE = """[experiment]
kind = poiseuille_counterexample
out_dir = out

[poiseuille]
half_length = 5.0
n_cells = {n}
t_end = {t_end!r}
"""


def generic_text(n=64, dt=1e-3, steps=100, stride=1, amplitude="1.5", a="0.0",
                 coefficients=SIMPLIFIED):
    return GENERIC.format(
        stride=stride, coefficients=coefficients, n=n, dt=dt, t_end=steps * dt,
        amplitude=amplitude, a=a,
    )


CASES = {
    # 205 steps at the default stride 1: 206 snapshots
    "counterexample": COUNTEREXAMPLE.format(n=64, t_end=0.5),
    "pulse_with_pressure": generic_text(a="0.7", stride=3),
    # 100 steps at stride 7: 16 snapshots, the last one off the stride
    "stride_off_the_step_count": generic_text(stride=7),
    # the heat check's worst pair, by a factor 1.43, is snapshots 13 and 14:
    # across a block boundary at 1, 2 and 7 rows
    "heat_pair_across_blocks": COUNTEREXAMPLE.format(n=52, t_end=0.1),
    "sampled_coefficients": generic_text(coefficients=SAMPLED, n=48, dt=2e-4, stride=5),
}
ROWS = [1, 2, 7]


# ---------------------------------------------------------------------------
# the whole-trace reference


def reference_energies(trace):
    x, dx, c = trace.grid.x, trace.grid.dx, trace.coeffs
    gh = c.constant_gh
    e, d = [], []
    for rows in axisym.row_blocks(trace.n_snapshots, len(x)):
        w, phi, phi_t = trace.ws[rows], trace.phis[rows], trace.phi_ts[rows]
        phi_x = axisym.first_derivative(phi, dx, axis=1)
        w_x = axisym.first_derivative(w, dx, axis=1)
        g, h = (g_coeff(c, phi), h_coeff(c, phi)) if gh is None else gh
        e.append(0.5 * np.trapezoid(w**2 + phi_x**2, x, axis=1))
        d.append(np.trapezoid(
            ((g - 1.0) * w_x**2 + (c.lambda1 - 1.0) * phi_t**2)
            + (w_x + phi_t) ** 2 + 2.0 * (h - 1.0) * w_x * phi_t, x, axis=1
        ))
    return np.concatenate(e), np.concatenate(d)


def reference_heat_pairs(trace):
    """The heat residual of every snapshot pair, nan ones included."""
    ws = trace.ws
    v = np.zeros(ws.shape)
    np.cumsum(np.diff(trace.grid.x) * (ws[:, 1:] + ws[:, :-1]) / 2.0, axis=1, out=v[:, 1:])
    v_left = np.array([trace.bc.v_left(float(t)) for t in trace.times])
    s = v + v_left[:, np.newaxis] + trace.phis
    s_t = (s[1:, 1:-1] - s[:-1, 1:-1]) / np.diff(trace.times)[:, np.newaxis]
    s_xx = (s[:-1, 2:] - 2.0 * s[:-1, 1:-1] + s[:-1, :-2]) / trace.grid.dx**2
    return np.max(np.abs(s_t - s_xx), axis=1)


def reference_heat_check(trace):
    worst = reference_heat_pairs(trace)
    worst = worst[~np.isnan(worst)]
    return float(worst.max()) if worst.size else math.nan


def reference_identity(trace):
    e, d = reference_energies(trace)
    w_int = np.trapezoid(trace.ws, trace.grid.x, axis=1)
    de = np.diff(e) / np.diff(trace.times)
    work = trace.a * (0.5 * (w_int[:-1] + w_int[1:]))
    resid = float(np.max(np.abs(de + 0.5 * (d[:-1] + d[1:]) + work)))
    edge = max(
        float(np.max(np.abs(trace.ws[:, [0, -1]]))),
        float(np.max(np.abs(trace.phi_ts[:, [0, -1]]))),
    )
    return resid, edge > 1e-12, e, d


def reference_series(trace, e, d, exact_w=None):
    cols = {"t": trace.times, "max_abs_phi": np.max(np.abs(trace.phis), axis=1)}
    if exact_w is not None:
        cols["max_err_w"] = np.max(np.abs(trace.ws - exact_w(trace.grid.x)), axis=1)
    cols["energy"], cols["dissipation"] = e, d
    return TimeSeries(tuple(cols), np.column_stack(list(cols.values())))


def reference_counterexample(config):
    trace = poiseuille.simulate(*poiseuille_run(config))
    with np.errstate(over="ignore", invalid="ignore"):
        t_end = float(trace.times[-1])
        phi_fin = trace.phis[-1]
        report = {
            "max_phi_initial": float(np.max(trace.phis[0])),
            "max_phi_final": float(np.max(phi_fin)),
            "max_phi_error": float(np.max(np.abs(phi_fin - t_end))),
            "max_w_error": float(np.max(np.abs(trace.ws[-1] + 2.0 * trace.grid.x))),
            "heat_residual": reference_heat_check(trace),
            "maximum_principle_violated": bool(np.max(phi_fin) > np.max(trace.phis[0])),
            "t_end": t_end,
        }
        e, d = reference_energies(trace)
    experiments._require_finite(trace, e, d, heat_residual=report["heat_residual"])
    series = reference_series(trace, e, d, exact_w=lambda x: -2.0 * x)
    return report, [experiments.Artifact("series", series)]


def reference_generic(config):
    run_args = poiseuille_run(config)
    dt = run_args[2]
    trace = poiseuille.simulate(*run_args)
    with np.errstate(over="ignore", invalid="ignore"):
        resid, warning, e, d = reference_identity(trace)
        report = {
            "energy_identity_residual": resid,
            "boundary_warning": warning,
            "energy_nonincreasing": (
                bool(np.all(np.diff(e) <= resid * dt + 1e-14)) if trace.a == 0.0 else None
            ),
            "heat_reduction_residual": (
                reference_heat_check(trace) if poiseuille.heat_reduction_applies(trace) else None
            ),
            "dt": dt,
        }
    experiments._require_finite(
        trace, e, d,
        energy_identity_residual=resid,
        heat_reduction_residual=report["heat_reduction_residual"],
    )
    return report, [experiments.Artifact("series", reference_series(trace, e, d))]


def stored(config, out_dir, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(experiments, "_run_poiseuille_counterexample", reference_counterexample)
        m.setattr(experiments, "_run_poiseuille_generic", reference_generic)
        return experiments.run(config, out_dir=out_dir, plots=True)


def files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.fixture
def blocks(monkeypatch):
    """The row counts of every block a ``PoiseuilleDiagnostics`` takes from
    a run."""
    seen = []
    call = poiseuille.PoiseuilleDiagnostics.__call__

    def recorded(self, times, block):
        assert len(times) == len(block) and block.shape[1] == 3
        seen.append(len(block))
        return call(self, times, block)

    monkeypatch.setattr(poiseuille.PoiseuilleDiagnostics, "__call__", recorded)
    return seen


def block_rows(monkeypatch, rows, n_cells):
    """Record blocks of ``rows`` rows: 3 (n_cells + 1) + 1 values a row."""
    monkeypatch.setattr(axisym, "CHUNK_VALUES", rows * (3 * (n_cells + 1) + 1))


# ---------------------------------------------------------------------------
# streamed files against the stored ones


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("case", CASES)
def test_streamed_files_equal_stored(tmp_path, monkeypatch, blocks, case, rows):
    config = parse_config(CASES[case])
    want = stored(config, tmp_path / "stored", monkeypatch)
    block_rows(monkeypatch, rows, config.poiseuille.n_cells)
    got = experiments.run(config, out_dir=tmp_path / "streamed", plots=True)
    assert got.report == want.report
    assert files(tmp_path / "streamed") == files(tmp_path / "stored")
    # one block per full block of rows, and the rest when the run ends
    total = len((tmp_path / "stored" / "series.csv").read_text().splitlines()) - 1
    assert blocks == [rows] * (total // rows) + ([total % rows] if total % rows else [])


def test_cases_reach_what_they_say():
    config = parse_config(CASES["counterexample"])
    trace = poiseuille.simulate(*poiseuille_run(config))
    assert trace.n_snapshots == 206 and poiseuille.heat_reduction_applies(trace)
    pulse = poiseuille.simulate(*poiseuille_run(parse_config(CASES["pulse_with_pressure"])))
    assert pulse.a == 0.7 and not poiseuille.heat_reduction_applies(pulse)
    off = poiseuille.simulate(*poiseuille_run(parse_config(CASES["stride_off_the_step_count"])))
    assert off.n_snapshots == 16 and off.times[-1] - off.times[-2] < 7e-3
    heat = poiseuille.simulate(*poiseuille_run(parse_config(CASES["heat_pair_across_blocks"])))
    pairs = reference_heat_pairs(heat)
    worst = int(np.argmax(pairs))
    assert worst == 13 and pairs[worst] > 1.4 * np.max(np.delete(pairs, worst))
    sampled = poiseuille.simulate(*poiseuille_run(parse_config(CASES["sampled_coefficients"])))
    assert sampled.coeffs.constant_gh is None


# ---------------------------------------------------------------------------
# the fold on a trace with a nan snapshot


@pytest.mark.parametrize("rows", ROWS)
def test_fold_with_a_nan_snapshot_matches_the_whole_trace(rows):
    config = parse_config(CASES["counterexample"])
    trace = poiseuille.simulate(*poiseuille_run(config))
    trace.phis[9] = np.nan  # snapshot pairs 8 and 9 have nan heat residuals
    trace.ws[20, 0] = np.nan  # and the edge maximum is nan
    fold = poiseuille.PoiseuilleDiagnostics(
        trace.grid, trace.bc, trace.coeffs, trace.a, trace.n_snapshots, exact_w=True
    )
    with np.errstate(invalid="ignore"):
        for i in range(0, trace.n_snapshots, rows):
            at = slice(i, i + rows)
            block = np.stack([trace.ws[at], trace.phis[at], trace.phi_ts[at]], axis=1)
            fold(trace.times[at], block)
        got = fold.energy_identity(trace.times)
        resid, warning, e, d = reference_identity(trace)
    assert fold.rows == trace.n_snapshots
    assert np.array_equal(fold.columns[0], e, equal_nan=True)
    assert np.array_equal(fold.columns[1], d, equal_nan=True)
    series = reference_series(trace, e, d, exact_w=lambda x: -2.0 * x).rows
    assert np.array_equal(fold.columns[3], series[:, 1], equal_nan=True)
    assert np.array_equal(fold.columns[4], series[:, 2], equal_nan=True)
    assert math.isnan(got.residual) and math.isnan(resid) and got.boundary_warning == warning
    heat = fold.heat_residual
    assert heat == reference_heat_check(trace) and heat > 0.0


# ---------------------------------------------------------------------------
# runs that halt


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the runs overflow on purpose
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize(
    "text, message",
    [
        # w^2 overflows at t = 0: every energy is inf
        (generic_text(amplitude="1e200", steps=20), "non-finite energy or dissipation at snapshot 0 "),
        # w = -a t overflows w^2 from the second snapshot on
        (generic_text(a="1e308", steps=20), "non-finite energy or dissipation at snapshot 1 "),
        # w = -a t itself overflows near t = 1.8: the march halts on a
        # non-finite field before any energy is checked
        (generic_text(a="1e308", steps=2000, stride=100), "non-finite field at t=1.7"),
    ],
)
def test_halting_runs_halt_as_the_stored_ones(tmp_path, monkeypatch, rows, text, message):
    config = parse_config(text)
    with pytest.raises(SolverHalt) as want:
        stored(config, tmp_path / "stored", monkeypatch)
    block_rows(monkeypatch, rows, config.poiseuille.n_cells)
    with pytest.raises(SolverHalt) as got:
        experiments.run(config, out_dir=tmp_path / "streamed", plots=True)
    assert str(got.value) == str(want.value) and got.value.t == want.value.t
    assert message in str(got.value)
    cfg = tmp_path / "halt.ini"
    cfg.write_text(text.replace("out_dir = out", f"out_dir = {tmp_path / 'cli'}"))
    assert main(["simulate", str(cfg)]) == 3
    assert not (tmp_path / "cli" / "report.json").exists()


# ---------------------------------------------------------------------------
# what a streamed run holds


def run_peak(text: str) -> int:
    """Traced peak of one Poiseuille config, run and written with plots."""
    config = parse_config(text)
    tracemalloc.start()
    try:
        experiments.run(config, plots=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def out(text, path):
    return text.replace("out_dir = out", f"out_dir = {path}")


def test_the_stream_counts_bound_the_traced_growth_of_a_run(tmp_path, monkeypatch):
    # A generic run on the simplified set, whose heat check applies, grows
    # with its snapshot count (10.9 floats a snapshot measured; the
    # counterexample, whose stride is fixed near 200 snapshots, holds one
    # column more of the fold and of series.csv); a counterexample run, the
    # most per node (25.0).  The growth between two sizes leaves out what
    # does not grow: imports, and blocks made small here (7-row record
    # blocks; 64-row writer blocks) so that both sizes are past them.  The
    # whole-trace code held each snapshot's 3 (n + 1) + 1 = 196 recorded
    # values and more.
    run_peak(out(generic_text(n=16, steps=10), tmp_path / "warm"))
    monkeypatch.setattr(axisym, "CHUNK_VALUES", 7 * (3 * 65 + 1))
    monkeypatch.setattr(reporting, "BLOCK_ROWS", 64)
    monkeypatch.setattr(svgplot, "BLOCK_ROWS", 64)
    small, large = (
        run_peak(out(generic_text(steps=steps), tmp_path / str(steps)))
        for steps in (1_000, 2_000)
    )
    per_snapshot = (large - small) / (1_000 * 8)
    assert 8 < per_snapshot <= poiseuille.STREAM_SNAPSHOT_VALUES, per_snapshot

    def counterexample(n):
        # 4 steps at stride 1: one-row record blocks at these sizes
        grid = poiseuille.IntervalGrid(5.0, n)
        dt = 0.8 * poiseuille.stability_bound(grid, poiseuille.simplified_coefficients())
        text = COUNTEREXAMPLE.format(n=n, t_end=4 * dt).replace("t_end", f"dt = {dt!r}\nt_end")
        return out(text, tmp_path / f"c{n}")

    small, large = (run_peak(counterexample(n)) for n in (2**15, 2**17))
    per_node = (large - small) / ((2**17 - 2**15) * 8)
    assert 20 < per_node <= poiseuille.STREAM_NODE_VALUES, per_node
