import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from nematiclab import experiments
from nematiclab.cli import main
from nematiclab.config import load_config, parse_config, serialize_config
from nematiclab.errors import ConfigError
from nematiclab.experiments import run
from nematiclab.reporting import TimeSeries, write_csv
from nematiclab.svgplot import emit_plot

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

TINY_GLOBAL = """
[experiment]
kind = axisym_global
out_dir = {out}
snapshot_stride = 5

[coefficients]
mu1 = 0.0
mu2 = -0.5
mu3 = 0.5
mu4 = 1.0
mu5 = 0.0
mu6 = 0.0

[grid]
n_cells = 64

[time]
dt = 1e-3
scheme = semi_implicit
t_end = 0.05

[initial]
preset = scaled_linear
amplitude = 3.0

[barrier]
c = 0.03
local_energy_radius = 0.1
"""


# ---------------------------------------------------------------------------
# config parsing and validation


def test_shipped_configs_parse_and_round_trip():
    for path in sorted(CONFIG_DIR.glob("*.ini")):
        config = load_config(path)
        normal = serialize_config(config)
        again = parse_config(normal)
        assert serialize_config(again) == normal
        assert again.hash() == config.hash()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.stem)
def test_shipped_config_runs_without_a_warning(tmp_path, capsys, path):
    assert main(["simulate", str(path), "--out", str(tmp_path), "--no-plots"]) == 0
    assert capsys.readouterr().err == ""


def test_empty_config_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("")


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config("[experiment]\nkind = warp_drive\n")


def test_unknown_key_rejected():
    text = TINY_GLOBAL.format(out="x").replace(
        "n_cells = 64", "n_cells = 64\nresolution = 3"
    )
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(text)


def test_unused_section_rejected():
    text = TINY_GLOBAL.format(out="x") + "\n[hopf]\nmesh = 64\n"
    with pytest.raises(ConfigError, match="not used"):
        parse_config(text)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        parse_config(TINY_GLOBAL.format(out="x").replace("scaled_linear", "spiral"))


def test_invalid_coefficients_rejected():
    with pytest.raises(ConfigError, match="relations violated"):
        parse_config(TINY_GLOBAL.format(out="x").replace("mu4 = 1.0", "mu4 = -1.0"))


def test_explicit_stability_guard_checked():
    text = TINY_GLOBAL.format(out="x").replace(
        "scheme = semi_implicit", "scheme = explicit"
    )
    with pytest.raises(ConfigError, match="explicit scheme needs"):
        parse_config(text)


def test_missing_preset_parameter_rejected():
    with pytest.raises(ConfigError, match="amplitude"):
        parse_config(
            TINY_GLOBAL.format(out="x").replace("amplitude = 3.0", "beta0 = 0.1")
        )


@pytest.mark.parametrize(
    "old, new",
    [
        ("mu4 = 1.0", "mu4 = -inf"),
        ("amplitude = 3.0", "amplitude = nan"),
        ("c = 0.03", "c = inf"),
    ],
)
def test_non_finite_float_rejected(old, new):
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config(TINY_GLOBAL.format(out="x").replace(old, new))


def test_non_finite_table_point_and_lambda_rejected():
    table = TINY_GLOBAL.format(out="x").replace(
        "preset = scaled_linear\namplitude = 3.0",
        "preset = table\npoints = 0:0, 0.5:nan, 1:1",
    )
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config(table)
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config("[experiment]\nkind = hopf_decay\n\n[hopf]\nlambdas = 1.0, inf\n")


@pytest.mark.parametrize("t_end", ["2.5e-3", "4e-4"])
def test_t_end_off_the_step_grid_rejected(t_end):
    text = TINY_GLOBAL.format(out="x").replace("t_end = 0.05", f"t_end = {t_end}")
    with pytest.raises(ConfigError, match="whole number of dt"):
        parse_config(text)


def test_explicit_default_dt_takes_whole_steps_under_the_bound():
    text = (
        TINY_GLOBAL.format(out="x")
        .replace("dt = 1e-3\n", "")
        .replace("scheme = semi_implicit", "scheme = explicit")
        .replace("t_end = 0.05", "t_end = 0.0123456")
    )
    a = parse_config(text).axisym
    bound = min(0.25 / 64**2, 1e-5)
    assert a.dt <= bound
    steps = a.t_end / a.dt
    assert abs(steps - math.ceil(a.t_end / bound)) <= 1e-9 * steps


# ---------------------------------------------------------------------------
# experiment runs: artifacts, determinism, containment


def test_run_writes_only_into_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = parse_config(TINY_GLOBAL.format(out="results/a"))
    before = set(tmp_path.rglob("*"))
    result = run(config)
    created = set(tmp_path.rglob("*")) - before
    out_root = tmp_path / "results"
    assert all(str(p).startswith(str(out_root)) for p in created)
    expected = {"report.json", "series.csv", "series.svg", "config.normalized.ini"}
    assert {p.name for p in result.files} == expected


def test_identical_configs_give_byte_identical_outputs(tmp_path):
    config = parse_config(TINY_GLOBAL.format(out="unused"))
    r1 = run(config, out_dir=tmp_path / "one")
    r2 = run(config, out_dir=tmp_path / "two")
    for f1, f2 in zip(sorted(r1.files), sorted(r2.files)):
        assert f1.name == f2.name
        assert f1.read_bytes() == f2.read_bytes()


def test_no_plots_flag_skips_svg(tmp_path):
    config = parse_config(TINY_GLOBAL.format(out="unused"))
    result = run(config, out_dir=tmp_path, plots=False)
    assert not any(p.suffix == ".svg" for p in result.files)


def test_global_report_contents(tmp_path):
    config = parse_config(TINY_GLOBAL.format(out="unused"))
    result = run(config, out_dir=tmp_path)
    report = result.report
    assert report["experiment"] == "axisym_global"
    assert report["blowup"]["detected"] is False
    assert report["ordering"]["passed"] is True
    # series carries the documented columns
    header = (tmp_path / "series.csv").read_text().splitlines()[0]
    assert header == "t,phi_r_origin,e_total,e_grad,e_sin,local_energy_R"


@pytest.mark.parametrize(
    "time, amplitude",
    [
        # the bands scale by dt before they meet phi: about 1e204 here
        ("dt = 1e200\nscheme = semi_implicit\nt_end = 1e201", "3.0"),
        # the largest dt RK4 accepts at n = 64: 0.25 dr^2 lambda1
        ("dt = 6.103515625e-05\nscheme = explicit\nt_end = 6.103515625e-03", "3.0"),
        ("dt = 1e-3\nscheme = semi_implicit\nt_end = 0.05", "-0.0"),
        ("dt = 1e-5\nscheme = explicit\nt_end = 1e-3", "-0.0"),
    ],
    ids=["cn_dt_1e200", "rk4_largest_dt", "cn_minus_zero", "rk4_minus_zero"],
)
def test_radial_runs_at_the_edges_of_the_bands_reach_t_end(tmp_path, time, amplitude):
    text = TINY_GLOBAL.format(out=tmp_path / "out").replace("stride = 5", "stride = 1")
    text = text.replace("dt = 1e-3\nscheme = semi_implicit\nt_end = 0.05", time)
    cfg = tmp_path / "edge.ini"
    cfg.write_text(text.replace("amplitude = 3.0", f"amplitude = {amplitude}"))
    assert main(["simulate", str(cfg), "--no-plots"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (report["halted"], report["halt_reason"]) == (False, None)
    assert report["t_final"] == float(time.split("t_end = ")[1])
    if amplitude == "-0.0":  # zero data stay zero
        assert report["max_phi"] == report["min_phi"] == 0.0


def test_global_data_outside_the_barriers_report_the_ordering_error(tmp_path):
    # phi0 = 1000 r lies above the supersolution at t = 0: the ordering
    # check does not apply, and the run still writes its report
    text = TINY_GLOBAL.format(out="unused").replace("amplitude = 3.0", "amplitude = 1e3")
    config = parse_config(text.replace("t_end = 0.05", "t_end = 0.05\nclip_guard = 1e300"))
    report = run(config, out_dir=tmp_path, plots=False).report
    assert report["ordering"]["error"].startswith("ordering precondition fails at t=0")
    assert json.loads((tmp_path / "report.json").read_text())["ordering"] == report["ordering"]


@pytest.mark.parametrize(
    "mus, reported",
    [
        ((0.0, -1.0, 1.0, 3.0, 0.0, 0.0), True),  # the simplified set: g == 2, h == 1
        # g(0) = 2 and h(0) = 1, but mu1 != 0, b != a and mu2 + mu3 != 0
        ((1.0, -0.5, 1.0, 2.0, 0.5, 1.0), False),
    ],
)
def test_heat_reduction_reported_only_for_constant_g_and_h(tmp_path, mus, reported):
    coefficients = "".join(f"mu{i} = {m}\n" for i, m in enumerate(mus, start=1))
    config = parse_config(
        "[experiment]\nkind = poiseuille_generic\nout_dir = unused\nsnapshot_stride = 5\n\n"
        f"[coefficients]\n{coefficients}\n"
        "[poiseuille]\nhalf_length = 10.0\nn_cells = 64\nt_end = 0.5\n"
        "velocity_amplitude = 5.0\n"
    )
    residual = run(config, out_dir=tmp_path, plots=False).report["heat_reduction_residual"]
    assert isinstance(residual, float) if reported else residual is None
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["heat_reduction_residual"] == residual


# ---------------------------------------------------------------------------
# time series and SVG plots


def test_time_series_validates_shape_and_time():
    with pytest.raises(ValueError, match="arity"):
        TimeSeries(("t", "y"), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="increasing"):
        TimeSeries(("t", "y"), np.array([[0.0, 1.0], [0.0, 2.0]]))


def test_csv_round_trips_full_precision(tmp_path):
    rows = np.array([[0.1, 1.0 / 3.0], [0.2, np.pi]])
    series = TimeSeries(("t", "y"), rows)
    path = tmp_path / "s.csv"
    write_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(parsed == rows)


def test_two_point_series_single_polyline(tmp_path):
    series = TimeSeries(("t", "y"), np.array([[0.0, 1.0], [1.0, 2.0]]))
    path = tmp_path / "p.svg"
    emit_plot(series, path)
    svg = ET.parse(path).getroot()
    polylines = svg.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 1
    points = polylines[0].attrib["points"].split()
    assert len(points) == 2


def test_svg_polyline_matches_data_after_affine_transform(tmp_path):
    t = np.linspace(0.0, 1.0, 17)
    y = np.sin(2 * np.pi * t)
    series = TimeSeries(("t", "y"), np.column_stack([t, y]))
    path = tmp_path / "p.svg"
    emit_plot(series, path)
    svg = ET.parse(path).getroot()
    poly = svg.find(".//{http://www.w3.org/2000/svg}polyline")
    pts = np.array(
        [[float(a) for a in pair.split(",")] for pair in poly.attrib["points"].split()]
    )
    # fit the affine axis transform from the data and check pixel agreement
    ax = np.polyfit(t, pts[:, 0], 1)
    ay = np.polyfit(y, pts[:, 1], 1)
    assert np.max(np.abs(np.polyval(ax, t) - pts[:, 0])) <= 0.5
    assert np.max(np.abs(np.polyval(ay, y) - pts[:, 1])) <= 0.5


def test_svg_drops_nonfinite_points_with_count(tmp_path):
    rows = np.array([[0.0, 1.0], [1.0, np.nan], [2.0, 3.0], [3.0, 4.0]])
    series = TimeSeries(("t", "y"), rows)
    path = tmp_path / "p.svg"
    emit_plot(series, path)
    svg = ET.parse(path).getroot()
    desc = svg.find("{http://www.w3.org/2000/svg}desc")
    assert "dropped=1" in desc.text
    poly = svg.find(".//{http://www.w3.org/2000/svg}polyline")
    assert len(poly.attrib["points"].split()) == 3


def test_empty_series_rejected(tmp_path):
    series = TimeSeries(("t", "y"), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="empty"):
        emit_plot(series, tmp_path / "p.svg")


# ---------------------------------------------------------------------------
# the command line


def _write_tiny(tmp_path, name="tiny.ini", out="results/cli"):
    path = tmp_path / name
    path.write_text(TINY_GLOBAL.format(out=out))
    return path


def test_cli_simulate(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = _write_tiny(tmp_path)
    assert main(["simulate", str(cfg)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert (tmp_path / "results/cli/report.json").exists()
    assert any(line.endswith("report.json") for line in printed)


def test_cli_simulate_out_override_and_no_plots(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_tiny(tmp_path)
    assert main(["simulate", str(cfg), "--out", "elsewhere", "--no-plots"]) == 0
    assert (tmp_path / "elsewhere/report.json").exists()
    assert not (tmp_path / "elsewhere/series.svg").exists()


def test_cli_validate_echoes_normal_form(tmp_path, capsys):
    cfg = _write_tiny(tmp_path)
    assert main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out == serialize_config(parse_config(cfg.read_text()))


def test_cli_rejects_empty_config(tmp_path, capsys):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("")
    assert main(["simulate", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # no partial outputs


def test_cli_out_dir_below_a_file_is_config_error_before_the_run(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").write_text("a regular file")
    cfg = _write_tiny(tmp_path, out="results/cli")

    def never(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(experiments, "_run_axisym", never)
    assert main(["simulate", str(cfg)]) == 2
    assert "cannot create output directory results/cli" in capsys.readouterr().err
    assert (tmp_path / "results").read_text() == "a regular file"


def test_cli_sweep_out_dir_that_cannot_be_created_fails_before_any_run(
    tmp_path, monkeypatch, capsys
):
    # the second of three configs cannot have its directory: exit 2, and
    # neither the first nor the third writes a file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocked").write_text("a regular file")
    _write_tiny(tmp_path, "a.ini", out="results/a")
    _write_tiny(tmp_path, "b.ini", out="blocked/b")
    _write_tiny(tmp_path, "c.ini", out="results/c")
    assert main(["sweep", str(tmp_path / "*.ini"), "--no-plots"]) == 2
    captured = capsys.readouterr()
    assert "cannot create output directory blocked/b" in captured.err
    assert captured.out == ""
    assert not [p for p in (tmp_path / "results").rglob("*") if p.is_file()]


TINY_HOPF = """[experiment]
kind = hopf_decay
out_dir = {out}

[hopf]
lambdas = 1, 2
mesh = 16
ball_mesh = 16
"""


def test_cli_simulate_artifact_that_cannot_be_written_is_config_error(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results/h/report.json").mkdir(parents=True)
    cfg = tmp_path / "h.ini"
    cfg.write_text(TINY_HOPF.format(out="results/h"))
    assert main(["simulate", str(cfg)]) == 2
    assert "cannot write results/h/report.json" in capsys.readouterr().err


def test_cli_sweep_artifact_that_cannot_be_written_is_config_error(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    _write_tiny(tmp_path, "a.ini", out="results/a")
    (tmp_path / "b.ini").write_text(TINY_HOPF.format(out="results/b"))
    (tmp_path / "results/b/decay.csv").mkdir(parents=True)
    assert main(["sweep", str(tmp_path / "*.ini"), "--no-plots"]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"{tmp_path / 'a.ini'}: ok\n"
    assert "cannot write results/b/decay.csv" in captured.err


def test_cli_missing_file_is_config_error(tmp_path):
    assert main(["validate", str(tmp_path / "nope.ini")]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_cli_runtime_halt_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "halt.ini"
    cfg.write_text(
        """
[experiment]
kind = poiseuille_generic
out_dir = results/halt
snapshot_stride = 1

[coefficients]
mu1 = 0.0
mu2 = -1.0
mu3 = 1.0
mu4 = 3.0
mu5 = 0.0
mu6 = 0.0

[poiseuille]
half_length = 10.0
n_cells = 64
t_end = 0.01
velocity_amplitude = 1.7e308
"""
    )
    assert main(["simulate", str(cfg)]) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_poiseuille_halt_prints_only_its_halt_line(tmp_path, capsys):
    # the energies of this run overflow at t = 0; the diagnostics that
    # overflow with them warn nothing, and the halt line is all it prints
    cfg = tmp_path / "huge.ini"
    cfg.write_text(
        """
[experiment]
kind = poiseuille_counterexample
out_dir = results/huge

[poiseuille]
half_length = 1.35e154
n_cells = 16
dt = 1e-4
t_end = 0.01
"""
    )
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "out"), "--no-plots"]) == 3
    assert capsys.readouterr().err == (
        "runtime halt: non-finite energy or dissipation at snapshot 0 at t=0\n"
    )


@pytest.mark.parametrize(
    "old, new", [("dt = 1e-3", "dt = nan"), ("t_end = 0.05", "t_end = inf")]
)
def test_cli_non_finite_time_is_config_error(tmp_path, monkeypatch, capsys, old, new):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(TINY_GLOBAL.format(out="results/bad").replace(old, new))
    assert main(["validate", str(cfg)]) == 2
    assert main(["simulate", str(cfg)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_cli_run_beyond_the_step_ceiling_is_config_error(tmp_path, monkeypatch, capsys):
    # 1e303 steps of dt = 1e-3 would validate without the ceiling
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "long.ini"
    text = TINY_GLOBAL.format(out="results/long")
    cfg.write_text(text.replace("t_end = 0.05", "t_end = 1e300"))
    assert main(["validate", str(cfg)]) == 2
    assert main(["simulate", str(cfg)]) == 2
    assert "too many steps" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


SIMPLIFIED_SECTION = """[coefficients]
mu1 = 0.0
mu2 = -1.0
mu3 = 1.0
mu4 = 3.0
mu5 = 0.0
mu6 = 0.0

"""


@pytest.mark.parametrize(
    "kind, body, message",
    [
        ("generic", "half_length = 10.0\nn_cells = 64\ndt = 1.0", "stability"),
        ("counterexample", "dt = 0.001\nt_end = 0.0004", "stability"),
        ("counterexample", "n_cells = 64\ndt = 1e-3\nt_end = 0.0105", "whole"),
        ("counterexample", "n_cells = 64\ndt = 1e-3\nt_end = 1e-3", "3 snapshots"),
        ("generic", "half_length = 10.0\nn_cells = 64\nt_end = 0.01", "3 snapshots"),
    ],
)
def test_cli_poiseuille_run_that_cannot_finish_is_config_error(
    tmp_path, monkeypatch, capsys, kind, body, message
):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "p.ini"
    coeffs = SIMPLIFIED_SECTION if kind == "generic" else ""
    cfg.write_text(
        f"[experiment]\nkind = poiseuille_{kind}\nout_dir = results/p\n\n"
        f"{coeffs}[poiseuille]\n{body}\n"
    )
    assert main(["validate", str(cfg)]) == 2
    assert main(["simulate", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_cli_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_tiny(tmp_path, "a.ini", out="results/a")
    _write_tiny(tmp_path, "b.ini", out="results/b")
    assert main(["sweep", str(tmp_path / "*.ini"), "--no-plots"]) == 0
    assert (tmp_path / "results/a/report.json").exists()
    assert (tmp_path / "results/b/report.json").exists()


def test_cli_sweep_of_mixed_schemes_and_steps_writes_what_simulate_writes(tmp_path, monkeypatch):
    # the four runs share one sweep batch, which simulate_batch marches in
    # three (scheme, dt) groups; each run's files are those of running it
    # alone, byte for byte
    monkeypatch.chdir(tmp_path)
    rk4 = TINY_GLOBAL.replace("scheme = semi_implicit", "scheme = explicit")
    texts = {
        "a": TINY_GLOBAL,
        "b": TINY_GLOBAL.replace("dt = 1e-3", "dt = 5e-4"),
        "c": rk4.replace("dt = 1e-3", "dt = 5e-5"),
        "d": TINY_GLOBAL.replace("n_cells = 64", "n_cells = 32"),
    }
    configs = []
    for name, text in texts.items():
        (tmp_path / f"{name}.ini").write_text(text.format(out=f"sweep/{name}"))
        configs.append(load_config(tmp_path / f"{name}.ini"))
    assert experiments.axisym_batches(configs) == [[0, 1, 2, 3]]
    assert main(["sweep", str(tmp_path / "*.ini")]) == 0
    for name in texts:
        assert main(["simulate", str(tmp_path / f"{name}.ini"), "--out", f"alone/{name}"]) == 0
        swept, alone = tmp_path / "sweep" / name, tmp_path / "alone" / name
        files = sorted(path.name for path in swept.iterdir())
        assert files == sorted(path.name for path in alone.iterdir())
        assert all((swept / f).read_bytes() == (alone / f).read_bytes() for f in files)


@pytest.mark.parametrize(
    "alias", ["results/same", "results/./same", "./results/same", "{tmp}/results/same"]
)
def test_cli_sweep_rejects_shared_out_dir(tmp_path, monkeypatch, alias):
    # any spelling of one directory: the second config would overwrite the
    # first one's files
    monkeypatch.chdir(tmp_path)
    _write_tiny(tmp_path, "a.ini", out="results/same")
    _write_tiny(tmp_path, "b.ini", out=alias.format(tmp=tmp_path))
    assert main(["sweep", str(tmp_path / "*.ini")]) == 2
    assert not (tmp_path / "results").exists()


# scenario A: data dominating the concentrating barrier at beta0 = 1e-3
STEEP_BLOWUP = """[experiment]
kind = axisym_blowup
out_dir = results/steep
snapshot_stride = 10

[coefficients]
mu1 = 0.0
mu2 = -0.5
mu3 = 0.5
mu4 = 1.0
mu5 = 0.0
mu6 = 0.0

[grid]
n_cells = 1024

[time]
dt = 1e-4
t_end = 0.35

[initial]
preset = bubble_linear_max
beta0 = 1e-3
amplitude = 3.2986722862692828

[barrier]
eta_beta0 = 1e-3
"""


def test_cli_sweep_counts_blowup_warnings(tmp_path, monkeypatch, capsys):
    # scenario A is steeper than its grid: it "detects" on the initial
    # snapshot and has one readable sample for the beta law; the shipped
    # scenario B forms its bubble on resolved scales
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.ini").write_text(STEEP_BLOWUP)
    shipped = (CONFIG_DIR / "axisym_blowup.ini").read_text()
    (tmp_path / "b.ini").write_text(shipped.replace("out/axisym_blowup", "results/resolved"))
    assert main(["sweep", str(tmp_path / "*.ini"), "--no-plots"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{tmp_path / 'a.ini'}: ok (2 warnings)", f"{tmp_path / 'b.ini'}: ok"]

    report = json.loads((tmp_path / "results/steep/report.json").read_text())
    assert report["blowup"]["n_snapshots"] == 1
    assert report["warnings"] == [
        "blow-up detected at the initial snapshot (t = 0.0): "
        "the initial data are steeper than the grid resolves",
        "beta law not fitted: insufficient samples: 1 < 20",
    ]
    resolved = json.loads((tmp_path / "results/resolved/report.json").read_text())
    assert resolved["blowup"]["t_detect"] > 0.0 and "slope" in resolved["beta_law"]
    assert resolved["warnings"] == []


def test_cli_sweep_no_match(tmp_path):
    assert main(["sweep", str(tmp_path / "*.ini")]) == 2


# ---------------------------------------------------------------------------
# start-up: the package imports numpy only, and scipy with the first
# Crank-Nicolson batch (DECISIONS.md section 8)

SCIPY_PROBE = """
import json, sys
from pathlib import Path
from nematiclab.cli import main
from nematiclab.config import load_config

configs = Path(sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
for path in sorted(configs.glob("*.ini")):
    load_config(path)
loaded["import and parse"] = scipy_modules()
for name in ("barrier_check", "hopf_decay", "poiseuille_generic"):
    assert main(["simulate", str(configs / f"{name}.ini"), "--out", name, "--no-plots"]) == 0
loaded["simulate"] = scipy_modules()
for scheme in ("explicit", "semi_implicit"):
    assert main(["simulate", f"{scheme}.ini", "--out", scheme, "--no-plots"]) == 0
    loaded[scheme] = scipy_modules()
print(json.dumps(loaded))
"""


def test_only_crank_nicolson_runs_load_scipy(tmp_path):
    rk4 = (
        TINY_GLOBAL.format(out="unused")
        .replace("dt = 1e-3\n", "")
        .replace("scheme = semi_implicit", "scheme = explicit")
        .replace("t_end = 0.05", "t_end = 0.01")
    )
    (tmp_path / "explicit.ini").write_text(rk4)
    (tmp_path / "semi_implicit.ini").write_text(TINY_GLOBAL.format(out="unused"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(CONFIG_DIR)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["import and parse"] == []
    assert loaded["simulate"] == []
    assert loaded["explicit"] == []
    assert "scipy.linalg" in loaded["semi_implicit"]
    # every report is strict JSON: no NaN or Infinity token
    reports = sorted(tmp_path.glob("*/report.json"))
    assert len(reports) == 5
    for report in reports:
        json.loads(report.read_text(), parse_constant=_reject_json_constant)


def _reject_json_constant(token):
    raise ValueError(f"{token} is not JSON")
