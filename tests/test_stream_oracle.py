"""Radial diagnostics reduced block by block while the run records, against
the same diagnostics taken from the whole trace.

``experiments.RadialDiagnostics`` takes each block a run records, so no
``(snapshots, nodes)`` trace is held.  The reference below is the whole-trace
form the experiment code had before it streamed: it marches with
``axisym.simulate`` and no sink, then reduces the whole array.  The report,
the CSV files and the SVG files must agree byte for byte at record blocks of
1, 2 and 7 rows. The cases cover strides that do not divide the step count,
guard halts inside a block and at its end, a guard trip at t0, a mixed-size
sweep batch, and an eta ordering whose detection row lies inside a block.
"""

import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nematiclab import axisym, barriers, blowup, experiments, reporting, svgplot
from nematiclab.cli import main
from nematiclab.config import parse_config, radial_run
from nematiclab.errors import SolverHalt
from nematiclab.reporting import TimeSeries

COEFFICIENTS = """
[coefficients]
mu1 = 0.0
mu2 = -0.5
mu3 = 0.5
mu4 = 1.0
mu5 = 0.0
mu6 = 0.0
"""

# 200 steps at stride 3: 68 snapshots, the last one off the stride
GLOBAL = """[experiment]
kind = axisym_global
out_dir = {out}
snapshot_stride = 3
""" + COEFFICIENTS + """
[grid]
n_cells = {n}

[time]
dt = 1e-3
scheme = {scheme}
t_end = 0.2
{guard}
[initial]
preset = scaled_linear
amplitude = {amplitude}

[barrier]
c = 0.03
local_energy_radius = 0.1
"""

# bubble data dominating its own eta barrier: 1,500 steps at stride 7 record
# 216 snapshots, and phi_r(0) first passes 0.5/dr at snapshot 169, the
# second row of a 7-row block, where the ordering is at its worst
BLOWUP_ETA = """[experiment]
kind = axisym_blowup
out_dir = {out}
snapshot_stride = 7
""" + COEFFICIENTS + """
[grid]
n_cells = 128

[time]
dt = 2e-4
t_end = 0.3

[initial]
preset = bubble_linear_max
beta0 = 0.04
amplitude = 3.3

[barrier]
eta_beta0 = 0.04
"""

# the ramp of configs/axisym_blowup.ini at stride 7 (5,000 steps, 716
# snapshots): detection, the bubble profile and the beta-law fit
BLOWUP_RAMP = """[experiment]
kind = axisym_blowup
out_dir = {out}
snapshot_stride = 7
""" + COEFFICIENTS + """
[grid]
n_cells = 256

[time]
dt = 5e-4
t_end = 2.5

[initial]
preset = scaled_linear
amplitude = 3.2986722862692828
"""


def global_text(out="out", n=64, scheme="semi_implicit", amplitude="3.0", guard=None):
    guard = "" if guard is None else f"clip_guard = {guard}\n"
    return GLOBAL.format(out=out, n=n, scheme=scheme, amplitude=amplitude, guard=guard)


CASES = {
    "global": global_text(),
    # the guard halts at snapshot 55, off the stride: inside a 2- and a
    # 7-row block
    "halt_inside_a_block": global_text(amplitude="3.6", guard="8.0"),
    # the guard halts at snapshot 35, off the stride: the last row of a
    # 7-row block
    "halt_at_a_block_end": global_text(amplitude="3.6", guard="6.25"),
    "rk4": global_text(n=32, scheme="explicit", amplitude="3.6").replace(
        "dt = 1e-3", "dt = 5e-5"
    ),
    "eta_cut_inside_a_block": BLOWUP_ETA.format(out="out"),
    "blowup_ramp": BLOWUP_RAMP.format(out="out"),
}
SNAPSHOTS = {"halt_inside_a_block": 55, "halt_at_a_block_end": 35}
ROWS = [1, 2, 7]


def stored_run_axisym(config, radial=None):
    """The report and artifacts of an axisym config from its whole trace."""
    trace = axisym.simulate(*radial_run(config))
    if trace.n_snapshots < blowup.MIN_SNAPSHOTS:
        raise SolverHalt(
            f"trace too short for blow-up analysis ({trace.n_snapshots} snapshots); "
            "raise t_end, lower snapshot_stride, or loosen clip_guard",
            float(trace.times[-1]),
        )
    coeffs, b = config.coefficients, config.barrier
    report = {
        "halted": trace.halted,
        "halt_reason": trace.halt_reason,
        "t_final": float(trace.times[-1]),
        "max_phi": float(np.max(trace.phis)),
        "min_phi": float(np.min(trace.phis)),
    }
    energies = axisym.energy(trace.grid, trace.phis, b.local_energy_radius)
    grads = energies[4]
    over = np.flatnonzero(grads > 0.5 / trace.grid.dr)
    row = trace.phis[over[0] if len(over) else -1]
    blow = blowup.detect(trace, grads, row, local_energy_radius=b.local_energy_radius)
    report["blowup"] = blow.as_dict()

    def ordering(sub, phis, sup):
        try:
            scan = barriers.OrderingScan(sub, sup, trace.grid, trace.params.dt, len(phis))
            barriers.check_ordering(scan, trace.times[: len(phis)], phis)
            return scan.report(trace.times).as_dict()
        except ValueError as exc:
            return {"error": str(exc)}

    if config.kind == "axisym_global":
        sub = barriers.subsolution(b.c, coeffs)
        sup = barriers.supersolution(b.c, coeffs)
        report["ordering"] = ordering(sub, trace.phis, sup)
    else:
        if b.eta_beta0 is not None:
            eta = barriers.eta_barrier(b.eta_beta0, coeffs)
            report["eta_ordering"] = ordering(eta, trace.phis[: len(blow.times)], None)
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

    artifacts = [experiments.Artifact("series", experiments.axisym_series(trace.times, energies))]
    if config.kind == "axisym_blowup":
        beta_hat = np.where(
            grads >= blowup.PROFILE_MIN_GRADIENT, 2.0 / np.maximum(grads, 1e-300), np.nan
        )
        full = TimeSeries(
            ("t", "phi_r_origin", "beta_hat"), np.column_stack([trace.times, grads, beta_hat])
        )
        grad_only = TimeSeries(("t", "phi_r_origin"), np.column_stack([trace.times, grads]))
        artifacts.append(experiments.Artifact("blowup_history", full, plot_series=grad_only))
    return report, artifacts


def files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def snapshots(out_dir):
    """The snapshot count of a run, one row of its series.csv each."""
    return len((out_dir / "series.csv").read_text().splitlines()) - 1


def stored(config, out_dir, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(experiments, "_run_axisym", stored_run_axisym)
        return experiments.run(config, out_dir=out_dir, plots=True)


@pytest.fixture
def blocks(monkeypatch):
    """The row counts of every block a ``RadialDiagnostics`` takes."""
    seen = []
    call = experiments.RadialDiagnostics.__call__

    def recorded(self, times, phis):
        assert len(times) == len(phis)
        seen.append(len(phis))
        return call(self, times, phis)

    monkeypatch.setattr(experiments.RadialDiagnostics, "__call__", recorded)
    return seen


def block_rows(monkeypatch, rows, n_cells):
    monkeypatch.setattr(axisym, "CHUNK_VALUES", rows * (n_cells + 1))


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("case", CASES)
def test_streamed_files_equal_stored(tmp_path, monkeypatch, blocks, case, rows):
    config = parse_config(CASES[case])
    want = stored(config, tmp_path / "stored", monkeypatch)
    block_rows(monkeypatch, rows, config.axisym.n_cells)
    got = experiments.run(config, out_dir=tmp_path / "streamed", plots=True)
    assert got.report == want.report
    assert files(tmp_path / "streamed") == files(tmp_path / "stored")
    # one block per full block of rows, and the rest when the run ends
    total = snapshots(tmp_path / "stored")
    assert blocks == [rows] * (total // rows) + ([total % rows] if total % rows else [])
    if case in SNAPSHOTS:
        assert got.report["halted"] and total == SNAPSHOTS[case]


def test_cases_halt_and_cut_where_they_say():
    inside = axisym.simulate(*radial_run(parse_config(CASES["halt_inside_a_block"])))
    at_end = axisym.simulate(*radial_run(parse_config(CASES["halt_at_a_block_end"])))
    assert inside.halted and inside.n_snapshots % 7 == 6 and inside.n_snapshots % 2 == 1
    assert at_end.halted and at_end.n_snapshots % 7 == 0
    for trace in (inside, at_end):  # the halting step is off the stride
        assert round(trace.times[-1] / trace.params.dt) % 3 != 0
    config = parse_config(CASES["eta_cut_inside_a_block"])
    trace = axisym.simulate(*radial_run(config))
    grads = axisym.energy(trace.grid, trace.phis, 0.05)[4]
    first = np.flatnonzero(grads > 0.5 / trace.grid.dr)[0]
    assert first == 169 and 0 < first % 7 < 6
    report = stored_run_axisym(config)[0]["eta_ordering"]
    assert report["lower_at_t"] == trace.times[first]  # later rows would matter


@pytest.mark.parametrize("rows", ROWS)
def test_guard_trip_at_t0_flushes_its_one_row(tmp_path, monkeypatch, blocks, rows):
    config = parse_config(global_text(amplitude="3.6", guard="1.0"))
    block_rows(monkeypatch, rows, config.axisym.n_cells)
    with pytest.raises(SolverHalt) as got:
        experiments.run(config, out_dir=tmp_path, plots=False)
    with pytest.raises(SolverHalt) as want:
        stored_run_axisym(config)
    assert str(got.value) == str(want.value) and "(1 snapshots)" in str(got.value)
    assert blocks == [1]


@pytest.mark.parametrize("rows", ROWS)
def test_mixed_size_sweep_batch_writes_the_stored_files(tmp_path, monkeypatch, blocks, rows):
    # one sweep batch of five runs on three grids and both schemes, which
    # simulate_batch marches in three (scheme, dt) groups
    monkeypatch.chdir(tmp_path)
    texts = {
        "a": global_text(out="sweep/a"),
        "b": global_text(out="sweep/b", n=32, amplitude="3.6", guard="8.0"),
        "c": global_text(out="sweep/c", n=32, scheme="explicit").replace(
            "dt = 1e-3", "dt = 5e-5"
        ),
        "d": BLOWUP_ETA.format(out="sweep/d"),
        "e": global_text(out="sweep/e", n=128, amplitude="3.6", guard="6.25"),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.ini").write_text(text)
    configs = [parse_config(text) for text in texts.values()]
    assert experiments.axisym_batches(configs) == [[0, 1, 2, 3, 4]]
    # blocks of ``rows`` rows at n = 32, of fewer on the finer grids
    with monkeypatch.context() as m:
        m.setattr(axisym, "CHUNK_VALUES", rows * 33)
        assert main(["sweep", str(tmp_path / "*.ini")]) == 0
    assert max(blocks) == rows
    total = 0
    for name, config in zip(texts, configs):
        stored(config, tmp_path / "stored" / name, monkeypatch)
        assert files(tmp_path / "sweep" / name) == files(tmp_path / "stored" / name)
        total += snapshots(tmp_path / "stored" / name)
    assert sum(blocks) == total


def test_signed_zero_extremes(tmp_path, monkeypatch):
    # a zero field whose boundary value is -0.0: the trace holds +0.0 at the
    # origin and -0.0 elsewhere, and both extremes are zeros.  The whole-trace
    # np.max and np.min choose between the two zeros by numpy's reduction
    # order; the fold over blocks agrees on the value, and on the sign when
    # one block holds the trace.
    config = parse_config(global_text(amplitude="-0.0"))
    trace = axisym.simulate(*radial_run(config))
    assert np.any(np.signbit(trace.phis)) and not np.all(np.signbit(trace.phis))
    want = (np.max(trace.phis), np.min(trace.phis))
    for rows in (1, 2, 7, trace.n_snapshots):
        block_rows(monkeypatch, rows, config.axisym.n_cells)
        report = experiments.run(config, out_dir=tmp_path / str(rows), plots=False).report
        got = (report["max_phi"], report["min_phi"])
        assert got == want == (0.0, 0.0)
        if rows == trace.n_snapshots:
            assert np.signbit(got).tolist() == np.signbit(want).tolist()
    # extremes that are not zeros are exact at any block size, and a trace
    # whose zeros all share a sign keeps it
    for amplitude in ("3.6", "-1e-320", "1e-320"):
        config = parse_config(global_text(amplitude=amplitude))
        phis = axisym.simulate(*radial_run(config)).phis
        for rows in (1, 2, 7):
            block_rows(monkeypatch, rows, config.axisym.n_cells)
            report = experiments.run(config, out_dir=tmp_path / "x", plots=False).report
            got = np.array([report["max_phi"], report["min_phi"]])
            assert got.tobytes() == np.array([np.max(phis), np.min(phis)]).tobytes()


def test_streamed_blowup_run_does_not_hold_its_trace(tmp_path):
    # 5,000 steps at n = 512 and stride 1: a whole record of 20.5 MB.  The
    # streamed run holds one 127-row block (0.5 MB) and its per-snapshot
    # columns; before, it held the whole record.
    text = BLOWUP_RAMP.format(out="out").replace("snapshot_stride = 7", "snapshot_stride = 1")
    text = text.replace("n_cells = 256", "n_cells = 512").replace("dt = 5e-4", "dt = 1e-4")
    config = parse_config(text.replace("t_end = 2.5", "t_end = 0.5"))
    _, rows, nbytes = axisym.plan_record(0.0, 0.5, 1e-4, 1, 513)
    assert nbytes >= 20e6
    import scipy.linalg.lapack  # noqa: F401  a Crank-Nicolson batch's first-call import
    tracemalloc.start()
    try:
        report = experiments.run(config, out_dir=tmp_path, plots=True).report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report["halted"] and snapshots(tmp_path) == rows - 1
    assert peak < nbytes / 4, peak


# ---------------------------------------------------------------------------
# the ceiling on what a streamed run holds

ROOT = Path(__file__).resolve().parent.parent


def validate_quietly(text, tmp_path, capsys):
    """(exit code, stderr, traced peak) of ``validate`` on ``text``."""
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["validate", str(cfg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().err, peak


def test_a_fine_streamed_run_validates_by_what_it_holds(tmp_path, capsys):
    # n = 8192 for 20,000 steps at stride 1: a whole record of 1.3 GB,
    # past the ceiling, of which the streamed run holds one 7-row block
    text = (ROOT / "configs" / "axisym_blowup.ini").read_text()
    for old, new in [
        ("n_cells = 256", "n_cells = 8192"),
        ("dt = 5e-4", "dt = 1e-4"),
        ("t_end = 2.5", "t_end = 2.0"),
    ]:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(ValueError, match="20002 snapshots of 8193 values exceed"):
        axisym.plan_record(0.0, 2.0, 1e-4, 1, 8193)
    code, err, _ = validate_quietly(text, tmp_path, capsys)
    assert code == 0, err
    _, rows, held = axisym.plan_record(
        0.0, 2.0, 1e-4, 1, 8193, streamed=axisym.stream_held(8193)
    )
    assert rows == 20002 and held < 10e6
    # the grid whose per-node buffers alone pass 2**30 bytes is still
    # rejected, before any node array exists
    nodes = axisym.MAX_RECORD_BYTES // (8 * axisym.STREAM_NODE_VALUES) + 1
    coarse = text.replace("n_cells = 8192", f"n_cells = {nodes - 1}")
    coarse = coarse.replace("t_end = 2.0", "t_end = 0.01")
    code, err, peak = validate_quietly(coarse, tmp_path, capsys)
    assert code == 2 and "record buffer" in err, err
    assert peak < 2**20


def test_the_benchmark_radial_ensemble_is_one_sweep_batch(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for seed in (7, 11):
        ops = workloads.radial_ensemble(workloads.pass_rng(seed, 0), Path("out"))
        configs = [parse_config(op.ini()) for op in ops]
        assert len(configs) == 6
        assert experiments.axisym_batches(configs) == [list(range(6))]


def sweep_peak(text: str) -> int:
    """Traced peak of one config run as a sweep runs it: marched into its
    diagnostics, then reported and written with them held."""
    config = parse_config(text)
    tracemalloc.start()
    try:
        radial = experiments.RadialDiagnostics(config)
        experiments.march([radial])
        experiments.run(config, radial=radial)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def eta_scan_text(out, n_cells, dt, steps):
    """A blow-up run whose eta scan covers every snapshot: ramp data that
    never reach the detection cap, at stride 1."""
    text = BLOWUP_ETA.format(out=out)
    for old, new in [
        ("snapshot_stride = 7", "snapshot_stride = 1"),
        ("n_cells = 128", f"n_cells = {n_cells}"),
        ("dt = 2e-4", f"dt = {dt!r}"),
        ("t_end = 0.3", f"t_end = {steps * dt!r}"),
        ("preset = bubble_linear_max\nbeta0 = 0.04\namplitude = 3.3", "preset = scaled_linear\namplitude = 0.5"),
        ("eta_beta0 = 0.04", "eta_beta0 = 0.04\nlocal_energy_radius = 0.25"),
    ]:
        assert old in text
        text = text.replace(old, new)
    return text


def test_the_stream_counts_bound_the_traced_growth_of_a_run(tmp_path, monkeypatch):
    # Such a run, held as a sweep holds it, holds the most per snapshot
    # (24.3 floats measured); a Crank-Nicolson run, the most per node
    # (30.3).  The growth between two sizes leaves out what does not grow:
    # imports, and blocks made small here (7-row record blocks, as at
    # n = 8192; 64-row writer blocks) so that both sizes are past them.
    sweep_peak(eta_scan_text(tmp_path / "warm", 16, 1e-3, 10))
    monkeypatch.setattr(axisym, "CHUNK_VALUES", 7 * 17)
    monkeypatch.setattr(reporting, "BLOCK_ROWS", 64)
    monkeypatch.setattr(svgplot, "BLOCK_ROWS", 64)
    small, large = (
        sweep_peak(eta_scan_text(tmp_path / str(steps), 16, 1e-5, steps))
        for steps in (1_000, 2_000)
    )
    per_snapshot = (large - small) / (1_000 * 8)
    assert 20 < per_snapshot <= axisym.STREAM_SNAPSHOT_VALUES, per_snapshot
    small, large = (
        sweep_peak(eta_scan_text(tmp_path / str(n), n, 1e-3, 10)) for n in (2**16, 2**18)
    )
    per_node = (large - small) / ((2**18 - 2**16) * 8)
    assert 25 < per_node <= axisym.STREAM_NODE_VALUES, per_node
