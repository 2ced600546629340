"""The config schema: normal forms pinned to recorded files, a property
over random INI texts, and a property that small configs which validate
also run to exit 0 or 3."""

import contextlib
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nematiclab.axisym import PRESET_PARAMS
from nematiclab.cli import main
from nematiclab.coeffs import sample_validated
from nematiclab.config import load_config, parse_config, serialize_config
from nematiclab.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# config.hash() of each shipped config, recorded with its normal form in
# tests/golden/ before the schema became one table
HASHES = {
    "axisym_blowup.ini": "522792f6c6a2",
    "axisym_global.ini": "820ead5f4e54",
    "barrier_check.ini": "5c24a4aca613",
    "hopf_decay.ini": "bba0fc3d9590",
    "poiseuille_counterexample.ini": "972f3481dc16",
    "poiseuille_generic.ini": "0e327e12e0e7",
}


def test_golden_set_covers_every_shipped_config():
    assert sorted(p.name for p in (ROOT / "configs").glob("*.ini")) == sorted(HASHES)


@pytest.mark.parametrize("name", sorted(HASHES))
def test_validate_prints_the_recorded_normal_form(name, capsys):
    assert main(["validate", str(ROOT / "configs" / name)]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
    assert load_config(ROOT / "configs" / name).hash() == HASHES[name]


TINY = """[experiment]
kind = axisym_global

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


@pytest.mark.parametrize(
    "time",
    [
        "scheme = explicit\nt_end = 1e305",  # RK4 default dt
        "dt = 1e-300\nt_end = 1e10",
    ],
)
def test_step_count_beyond_float_range_is_a_config_error(time):
    old = "dt = 1e-3\nscheme = semi_implicit\nt_end = 0.05"
    with pytest.raises(ConfigError, match="too many steps"):
        parse_config(TINY.replace(old, time))


def test_negative_t_end_of_an_rk4_run_with_no_dt_is_reported_as_such():
    # the default RK4 dt used to divide t_end first: "t_end = -1e+305 takes
    # too many steps of 1e-05"
    old = "dt = 1e-3\nscheme = semi_implicit\nt_end = 0.05"
    with pytest.raises(ConfigError, match="t_end must be positive"):
        parse_config(TINY.replace(old, "scheme = explicit\nt_end = -1e305"))


def test_step_quotient_that_underflows_to_zero_is_a_config_error():
    # t_end / (0.8 step bound) is 1e-153 / 1.6e171, which is 0.0: one step
    # of t_end, used to divide by zero steps instead
    text = (
        "[experiment]\nkind = poiseuille_counterexample\n\n[poiseuille]\n"
        "half_length = 1e87\nn_cells = 16\nt_end = 1e-153\n"
    )
    with pytest.raises(ConfigError, match="need at least 3 snapshots: 1 steps"):
        parse_config(text)


# The record buffer of a radial run holds (2 + steps // stride) rows of
# n_cells + 1 floats.  n_cells = 2**20 - 1 gives rows of 2**23 bytes, so 128
# rows (126 steps at stride 1) fill the 2**30-byte ceiling exactly.
@pytest.mark.parametrize(
    "n_cells, t_end, ok",
    [
        (2**20 - 1, "0.126", True),
        (2**20 - 1, "0.127", False),
        (2**22, "0.1", False),  # 32 MB of nodes, 3.4 GB of record buffer
    ],
)
def test_radial_record_buffer_ceiling(n_cells, t_end, ok):
    text = (
        TINY.replace("kind = axisym_global", "kind = axisym_global\nsnapshot_stride = 1")
        .replace("n_cells = 64", f"n_cells = {n_cells}")
        .replace("t_end = 0.05", f"t_end = {t_end}")
    )
    if ok:
        assert parse_config(text).axisym.n_cells == n_cells
    else:
        with pytest.raises(ConfigError, match="record buffer"):
            parse_config(text)


# 80 steps at the default stride 10 record 9 snapshots, one short of the 10
# the blow-up analysis reads; 81 steps record 10
@pytest.mark.parametrize("t_end, code", [("0.008", 2), ("0.0081", 0)])
def test_radial_schedule_short_of_ten_snapshots_is_a_config_error(
    tmp_path, capsys, t_end, code
):
    text = TINY.replace("t_end = 0.05", f"t_end = {t_end}").replace("dt = 1e-3", "dt = 1e-4")
    cfg = tmp_path / "short.ini"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == code
    if code == 2:
        assert "need at least 10 snapshots: 80 steps" in capsys.readouterr().err
    else:
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_poiseuille_step_bound_overflow_names_its_keys(tmp_path, capsys):
    # dx = 1.25e199, whose square overflows in the step bound
    text = (
        "[experiment]\nkind = poiseuille_counterexample\n\n[poiseuille]\n"
        "half_length = 1e200\nn_cells = 16\n"
    )
    cfg = tmp_path / "wide.ini"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "[poiseuille] half_length = 1e+200" in err and "n_cells = 16" in err


def test_local_energy_radius_above_one_is_a_config_error(tmp_path, capsys):
    # validate used to pass it, and the run ended in local_energy's ValueError
    text = (
        (ROOT / "configs" / "axisym_global.ini")
        .read_text()
        .replace("n_cells = 1024", "n_cells = 64")
        .replace("t_end = 2.0", "t_end = 0.05")
        .replace("local_energy_radius = 0.05", "local_energy_radius = 1.5")
    )
    cfg = tmp_path / "wide_radius.ini"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 2
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "[barrier] local_energy_radius: R = 1.5 must lie in (0, 1]" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_counterexample_whose_potential_overflows_halts(tmp_path, capsys):
    # L * L overflows the potential's left value; L**2 raised OverflowError
    text = (
        "[experiment]\nkind = poiseuille_counterexample\n\n[poiseuille]\n"
        "half_length = 1.35e154\nn_cells = 16\ndt = 0.01\nt_end = 0.05\n"
    )
    cfg = tmp_path / "long.ini"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 0
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "non-finite energy or dissipation at snapshot 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe",  # a UTF-16 byte-order mark
        (ROOT / "configs" / "barrier_check.ini")
        .read_text()
        .replace("out_dir = out/barrier_check", "out_dir = out/caf\xe9")
        .encode("latin-1"),
    ],
    ids=["bom", "latin1_out_dir"],
)
def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, data):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(data)
    assert main(["validate", str(cfg)]) == 2
    assert f"config error: cannot read {cfg}: 'utf-8' codec" in capsys.readouterr().err


# (config, text, a key that cannot take effect there, the same key at its
# default); the default passes
NO_EFFECT = [
    ("axisym_global.ini", "[barrier]\n", "[barrier]\neta_beta0 = 1e-3\n",
     "[barrier]\neta_beta0 =\n", "[barrier] eta_beta0"),
    ("axisym_global.ini", "preset = scaled_linear\namplitude = 3.041592653589793\n",
     "preset = linear\namplitude = 7.0\n", "preset = linear\n", "[initial] amplitude"),
    ("axisym_blowup.ini", "[initial]\n", "[barrier]\nc = 0.03\n\n[initial]\n",
     "[barrier]\nc = 0.05\n\n[initial]\n", "[barrier] c"),
    ("barrier_check.ini", "[barrier_check]\n", "snapshot_stride = 5\n[barrier_check]\n",
     "snapshot_stride = 10\n[barrier_check]\n", "[experiment] snapshot_stride"),
    ("barrier_check.ini", "[barrier_check]\n", "plots = false\n[barrier_check]\n",
     "plots = true\n[barrier_check]\n", "[experiment] plots"),
    ("poiseuille_counterexample.ini", "[poiseuille]\n", "snapshot_stride = 5\n[poiseuille]\n",
     "snapshot_stride = 10\n[poiseuille]\n", "[experiment] snapshot_stride"),
    ("poiseuille_counterexample.ini", "t_end = 1.0\n", "t_end = 1.0\na = 7\n",
     "t_end = 1.0\na = 0\n", "[poiseuille] a"),
    ("poiseuille_counterexample.ini", "t_end = 1.0\n", "t_end = 1.0\nvelocity_amplitude = 9\n",
     "t_end = 1.0\nvelocity_amplitude = 1.0\n", "[poiseuille] velocity_amplitude"),
    ("hopf_decay.ini", "[hopf]\n", "snapshot_stride = 1\n[hopf]\n",
     "snapshot_stride = 10\n[hopf]\n", "[experiment] snapshot_stride"),
]


@pytest.mark.parametrize(
    "name, old, ignored, default, key",
    NO_EFFECT,
    ids=[f"{name[:-4]}-{key.split()[-1]}" for name, *_, key in NO_EFFECT],
)
def test_key_that_cannot_take_effect_is_a_config_error(
    tmp_path, capsys, name, old, ignored, default, key
):
    text = (ROOT / "configs" / name).read_text()
    assert text.count(old) == 1
    cfg = tmp_path / name
    cfg.write_text(text.replace(old, ignored))
    assert main(["validate", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    cfg.write_text(text.replace(old, default))
    assert main(["validate", str(cfg)]) == 0


def test_step_ceiling_applies_to_poiseuille_runs():
    # the counterexample's default grid has the step bound 5e-5
    body = "[experiment]\nkind = poiseuille_counterexample\n\n[poiseuille]\ndt = 5e-5\n"
    assert parse_config(body + "t_end = 5e4\n").poiseuille.t_end == 5e4  # 10**9 steps
    with pytest.raises(ConfigError, match="too many steps"):
        parse_config(body + "t_end = 5.0001e4\n")


def test_poiseuille_record_buffer_ceiling(tmp_path, capsys):
    # 10**8 steps at stride 1 would record 10**8 snapshots of w, phi and
    # phi_t on 65 nodes: 156 GB, under the step ceiling
    text = (ROOT / "configs" / "poiseuille_generic.ini").read_text()
    for old, new in [
        ("snapshot_stride = 50", "snapshot_stride = 1"),
        ("n_cells = 2048", "n_cells = 64"),
        ("dt = 1e-5", "dt = 1e-3"),
        ("t_end = 0.05", "t_end = 1e5"),
    ]:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "long.ini"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 2
    assert "record buffer" in capsys.readouterr().err
    shorter = text.replace("t_end = 1e5", "t_end = 1e3")  # 10**6 snapshots, 1.6 GB
    with pytest.raises(ConfigError, match="record buffer"):
        parse_config(shorter)
    assert parse_config(shorter.replace("snapshot_stride = 1", "snapshot_stride = 2"))


# Both quadratures accept meshes 16 to 406 (hopf.MESH_RANGE).
@pytest.mark.parametrize(
    "mesh, ball_mesh, bad_key",
    [
        (406, 406, None),
        (407, 32, "mesh"),
        (64, 407, "ball_mesh"),
        (15, 32, "mesh"),
        (64, 15, "ball_mesh"),
        (100000, 32, "mesh"),
    ],
)
def test_hopf_mesh_range(tmp_path, capsys, mesh, ball_mesh, bad_key):
    text = (ROOT / "configs" / "hopf_decay.ini").read_text()
    text = text.replace("mesh = 64", f"mesh = {mesh}", 1)
    text = text.replace("ball_mesh = 32", f"ball_mesh = {ball_mesh}")
    cfg = tmp_path / "hopf.ini"
    cfg.write_text(text)
    if bad_key is None:
        assert main(["validate", str(cfg)]) == 0
        hopf = parse_config(text).hopf
        assert (hopf.mesh, hopf.ball_mesh) == (mesh, ball_mesh)
    else:
        assert main(["validate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"[hopf] {bad_key} = " in err and "mesh must lie in [16, 406]" in err


# Each barrier residual is an (n_t, n_r) float array: 2**13 x 2**14 and
# 1 x 2**27 fill the 2**30-byte ceiling exactly.  Validated only, never run.
@pytest.mark.parametrize(
    "n_t, n_r, ok",
    [
        (2**13, 2**14, True),
        (2**13, 2**14 + 1, False),
        (1, 2**27, True),
        (2**27 + 1, 1, False),
        (100000, 100000, False),  # 80 GB
    ],
)
def test_barrier_check_residual_array_ceiling(tmp_path, capsys, n_t, n_r, ok):
    text = (ROOT / "configs" / "barrier_check.ini").read_text()
    for old, new in [("n_r = 100", f"n_r = {n_r}"), ("n_t = 100", f"n_t = {n_t}")]:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "barriers.ini"
    cfg.write_text(text)
    if ok:
        assert main(["validate", str(cfg)]) == 0
        assert parse_config(text).barrier_check.n_r == n_r
    else:
        assert main(["validate", str(cfg)]) == 2
        assert "residual arrays exceed the 1073741824-byte ceiling" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# random configs


KINDS = {
    "axisym_global": ("coefficients", "grid", "time", "initial", "barrier"),
    "axisym_blowup": ("coefficients", "grid", "time", "initial", "barrier"),
    "barrier_check": ("barrier_check",),
    "poiseuille_counterexample": ("poiseuille",),
    "poiseuille_generic": ("coefficients", "poiseuille"),
    "hopf_decay": ("hopf",),
}

SECTIONS = {
    "experiment": {
        "kind": "kind", "out_dir": "text", "snapshot_stride": "int", "plots": "bool"
    },
    "coefficients": {f"mu{i}": "float" for i in range(1, 7)},
    "grid": {"n_cells": "int"},
    "time": {
        "dt": "float", "scheme": "scheme", "t_end": "float", "clip_guard": "float"
    },
    "initial": {
        "preset": "preset", "beta0": "float", "amplitude": "float", "points": "points"
    },
    "barrier": {"c": "float", "eta_beta0": "float", "local_energy_radius": "float"},
    "barrier_check": {
        "n_sets": "int", "n_r": "int", "n_t": "int", "t_max": "float", "seed": "int"
    },
    "poiseuille": {
        "half_length": "float", "n_cells": "int", "dt": "float", "t_end": "float",
        "velocity_amplitude": "float", "a": "float",
    },
    "hopf": {"lambdas": "floats", "mesh": "int", "ball_mesh": "int"},
}

_float = st.one_of(
    st.sampled_from(["0", "1e-5", "1e-4", "1e-3", "0.03", "0.05", "0.5", "1.0", "3.0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_text = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
)
_junk = st.one_of(
    st.sampled_from(["", "  ", "nan", "-inf", "1e400", "0x10", "1_000", "junk", "-1"]),
    _text,
)
VALUES = {
    "float": _float,
    # grid sizes stay small: parsing builds the radial grid's nodes
    "int": st.integers(-2, 4096).map(str),
    "text": _text,
    "kind": st.sampled_from([*KINDS, "warp_drive"]),
    "scheme": st.sampled_from(["semi_implicit", "explicit", "rk9"]),
    "preset": st.sampled_from(
        ["linear", "scaled_linear", "bubble", "bubble_linear_max", "table", "spiral"]
    ),
    "bool": st.sampled_from(["true", "false", "yes", "0", "maybe"]),
    "points": st.lists(st.tuples(_float, _float), max_size=4).map(
        lambda pts: ", ".join(f"{r}:{p}" for r, p in pts)
    ),
    "floats": st.lists(_float, max_size=4).map(", ".join),
}


# a value for every key that every kind reading its section accepts; a
# section drawn "as base" uses these only
BASE = {
    "experiment": {"out_dir": "out", "snapshot_stride": "10", "plots": "true"},
    "coefficients": dict(zip(SECTIONS["coefficients"], "0 -0.5 0.5 1 0 0".split())),
    "grid": {"n_cells": "64"},
    "time": {"dt": "1e-3", "scheme": "semi_implicit", "t_end": "0.1"},
    "initial": {"preset": "scaled_linear", "amplitude": "3.0"},
    "barrier": {"c": "0.05", "local_energy_radius": "0.1"},
    "barrier_check": {"n_sets": "2", "n_r": "10", "n_t": "10", "t_max": "1.0"},
    "poiseuille": {"half_length": "5.0", "n_cells": "64", "t_end": "0.05"},
    "hopf": {"lambdas": "1, 2", "mesh": "16", "ball_mesh": "16"},
}


@st.composite
def config_texts(draw):
    kind = draw(st.sampled_from(list(KINDS)))
    names = ["experiment"]
    names += [s for s in KINDS[kind] if draw(st.integers(0, 9)) != 9]
    names += draw(st.lists(st.sampled_from([*SECTIONS, "extra"]), max_size=1))
    lines = []
    for name in names:
        lines.append(f"[{name}]")
        keys = SECTIONS.get(name, {"key": "text"})
        base = BASE.get(name, {})
        as_base = draw(st.booleans())
        for key, kind_of in keys.items():
            if key == "kind":
                lines.append(f"kind = {kind}")
            elif as_base:
                if key in base:
                    lines.append(f"{key} = {base[key]}")
            elif draw(st.integers(0, 3)) != 3:
                valid = st.just(base.get(key, ""))
                value = draw(st.one_of(VALUES[kind_of], _junk, valid))
                lines.append(f"{key} = {value}")
        if draw(st.integers(0, 19)) == 19:
            lines.append("unknown_key = 1")
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(config_texts())
def test_random_config_is_rejected_or_reaches_its_normal_form(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    normal = serialize_config(config)
    again = parse_config(normal)
    assert again == config
    assert serialize_config(again) == normal


# ---------------------------------------------------------------------------
# random small configs that validate also run

_validated_mus = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda seed: sample_validated(np.random.default_rng(seed)).as_tuple()
    ),
    st.sampled_from(  # the lambda2 = 0, 0.5 and -0.5 sets
        [(0, -0.5, 0.5, 1, 0, 0), (0, -0.25, 0.75, 1, 0, 0.5), (0, -0.75, 0.25, 1, 0, -0.5)]
    ),
)


def _log_uniform(lo_exp, hi_exp):
    """Floats 10**e, e uniform in [lo_exp, hi_exp], in round-trip text."""
    return st.floats(lo_exp, hi_exp).map(lambda e: repr(10.0**e))


def _log_int(lo, hi):
    """Integers from lo to about hi, uniform in their logarithm."""
    return st.floats(np.log2(lo), np.log2(hi)).map(lambda e: str(int(2.0**e)))


# dilations log-uniform over the float range, with the resolved ladder;
# LAMBDA_RANGE rejects the ends at parse
_lambdas = st.sets(
    st.one_of(
        st.sampled_from([0.5, 1.0, 2.0, 8.0, 1e3, 1e8]),
        st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    ),
    min_size=1,
    max_size=3,
).map(lambda lams: ", ".join(map(repr, sorted(lams))))

# values that keep a run small: at most a few thousand steps on at most 64
# cells, Hopf meshes of 16.  The size keys are always written, since their
# defaults are large, and so are the keys without which most draws would be
# rejected.
SMALL = {
    "experiment": {
        "snapshot_stride": st.integers(1, 12).map(str),
        "plots": st.sampled_from(["true", "false"]),
    },
    "grid": {"n_cells": st.integers(16, 64).map(str)},
    "time": {
        "dt": st.sampled_from(["1e-5", "2e-5", "1e-4", "5e-4", "1e-3"]),
        "scheme": st.sampled_from(["semi_implicit", "explicit"]),
        "t_end": st.sampled_from(["0.002", "0.005", "0.05"]),
        "clip_guard": st.sampled_from(["1.0", "50.0", "1e300"]),
    },
    "initial": {
        "preset": st.sampled_from(
            ["linear", "scaled_linear", "bubble", "bubble_linear_max", "table"]
        ),
        "beta0": st.sampled_from(["1e-3", "0.05", "1.0"]),
        "amplitude": st.sampled_from(["-3.0", "0.0", "3.3", "1e3"]),
        "points": st.sampled_from(["0:0, 1:3", "0:0, 0.5:-2, 1:1"]),
    },
    "barrier": {
        "c": st.sampled_from(["0.01", "0.05", "1.0"]),
        "eta_beta0": st.sampled_from(["1e-6", "1e-3", "0.1"]),
        "local_energy_radius": st.sampled_from(["0.05", "0.125", "1.0", "1.5"]),
    },
    "barrier_check": {
        "n_sets": st.integers(1, 2).map(str),
        "n_r": st.integers(1, 10).map(str),
        "n_t": st.integers(1, 10).map(str),
        "t_max": st.sampled_from(["0.1", "5.0", "1e3"]),
        "seed": st.integers(0, 2**32 - 1).map(str),
    },
    "poiseuille": {
        "half_length": st.sampled_from(["0.5", "5.0", "20.0", "1.35e154"]),
        "n_cells": st.integers(16, 64).map(str),
        "dt": st.sampled_from(["1e-4", "1e-3"]),
        "t_end": st.sampled_from(["0.01", "0.05"]),
        "velocity_amplitude": st.sampled_from(["0.0", "1.0", "20.0", "1e150"]),
        "a": st.sampled_from(["0.0", "-3.0", "2.5"]),
    },
    "hopf": {
        "lambdas": _lambdas,
        "mesh": st.just("16"),
        "ball_mesh": st.just("16"),
    },
}
ALWAYS = {
    "n_cells", "t_end", "mesh", "ball_mesh", "n_sets", "n_r", "n_t", "local_energy_radius",
}


# values across the documented ranges, up to the ceilings and past them,
# for configs that are only validated; each key draws from these or from
# its small values, so that many draws still validate.  Radial grids stay
# at most 2**16 cells, since parsing builds the radial nodes.
_EXTREMES = {
    "experiment": {"snapshot_stride": _log_int(1, 1e12)},
    "grid": {"n_cells": _log_int(16, 2**16)},
    "time": {
        "dt": _log_uniform(-300, 0),
        "t_end": _log_uniform(-300, 300),
        "clip_guard": _log_uniform(-300, 300),
    },
    "initial": {"beta0": _log_uniform(-300, 300), "amplitude": _log_uniform(-300, 300)},
    "barrier": {
        "c": _log_uniform(-300, 300),
        "eta_beta0": _log_uniform(-300, 300),
        "local_energy_radius": _log_uniform(-300, 0),
    },
    "barrier_check": {
        "n_sets": _log_int(1, 1e6),
        "n_r": _log_int(1, 2**28),
        "n_t": _log_int(1, 2**28),
        "t_max": _log_uniform(-300, 300),
    },
    "poiseuille": {
        "half_length": _log_uniform(-300, 300),
        "n_cells": _log_int(16, 2**40),
        "dt": _log_uniform(-300, 0),
        "t_end": _log_uniform(-300, 300),
        "velocity_amplitude": _log_uniform(-300, 300),
    },
    "hopf": {"mesh": _log_int(16, 2**11), "ball_mesh": _log_int(16, 2**11)},
}
WIDE = {
    name: {
        key: st.one_of(small, _EXTREMES[name][key]) if key in _EXTREMES[name] else small
        for key, small in values.items()
    }
    for name, values in SMALL.items()
}


@st.composite
def config_texts_from(draw, values):
    kind = draw(st.sampled_from(list(KINDS)))
    lines = ["[experiment]", f"kind = {kind}"]
    for name in ("experiment", *KINDS[kind]):
        if name != "experiment":
            lines.append(f"[{name}]")
        if name == "coefficients":
            mus = draw(_validated_mus)
            lines += [f"mu{i} = {m!r}" for i, m in enumerate(mus, 1)]
            continue
        if name == "initial":  # the preset and the parameters it reads
            preset = draw(values[name]["preset"])
            lines.append(f"preset = {preset}")
            lines += [f"{key} = {draw(values[name][key])}" for key in PRESET_PARAMS[preset]]
            continue
        for key, strategy in values[name].items():
            if key in ALWAYS or draw(st.booleans()):
                lines.append(f"{key} = {draw(strategy)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(config_texts_from(SMALL))
def test_random_small_config_that_validates_runs_to_exit_0_or_3(text):
    try:
        parse_config(text)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.ini"
        cfg.write_text(text)
        assert main(["simulate", str(cfg), "--out", str(Path(tmp) / "out")]) in (0, 3)


@settings(max_examples=300, deadline=None)
@given(config_texts_from(WIDE))
def test_random_config_in_the_documented_ranges_validates_to_exit_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.ini"
        cfg.write_text(text)
        assert main(["validate", str(cfg)]) in (0, 2)


@st.composite
def radial_schedules_past_a_ceiling(draw):
    """(n_cells, snapshot_stride, dt, t_end) of a Crank-Nicolson run on 2**17
    to 2**40 cells that records at least 10 snapshots, whose record buffer
    passes MAX_RECORD_BYTES or whose step count passes MAX_STEPS."""
    n_cells = int(draw(_log_int(2**17, 2**40)))
    stride = int(draw(_log_int(1, 1e12)))
    dt = draw(st.sampled_from([1e-3, 1e-4, 2e-5, 1e-5]))
    rows = 2**27 // (n_cells + 1) + 1  # rows of 8 (n_cells + 1) bytes past 2**30
    steps = max(9, rows - 2) * stride * draw(st.integers(1, 10))
    return n_cells, stride, dt, steps * dt


@settings(max_examples=100, deadline=None)
@given(radial_schedules_past_a_ceiling())
def test_radial_schedule_past_a_ceiling_is_rejected_before_allocating(schedule):
    n_cells, stride, dt, t_end = schedule
    text = (
        TINY.replace("kind = axisym_global", f"kind = axisym_global\nsnapshot_stride = {stride}")
        .replace("n_cells = 64", f"n_cells = {n_cells}")
        .replace("dt = 1e-3", f"dt = {dt!r}")
        .replace("t_end = 0.05", f"t_end = {t_end!r}")
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.ini"
        cfg.write_text(text)
        err = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err):
                code = main(["validate", str(cfg)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 2
    assert "record buffer" in err.getvalue() or "too many steps" in err.getvalue(), err.getvalue()
    assert peak < 2**20
