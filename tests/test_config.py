"""The config schema: normal forms pinned to recorded files, and a property
over random INI texts."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nematiclab.cli import main
from nematiclab.config import load_config, parse_config, serialize_config
from nematiclab.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# config.hash() of each shipped config, recorded with its normal form in
# tests/golden/ before the schema became one table
HASHES = {
    "axisym_blowup.ini": "a8904f311058",
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


# The sphere quadrature sums into 16 mesh^3 bytes of totals, the ball into
# 32 ball_mesh^3; mesh 406 and ball_mesh 322 are the largest under 2**30.
@pytest.mark.parametrize(
    "mesh, ball_mesh, bad_key",
    [
        (406, 322, None),
        (407, 32, "mesh"),
        (64, 323, "ball_mesh"),
        (100000, 32, "mesh"),  # a 16 PB buffer
    ],
)
def test_hopf_totals_buffer_ceiling(tmp_path, capsys, mesh, ball_mesh, bad_key):
    text = (ROOT / "configs" / "hopf_decay.ini").read_text()
    text = text.replace("mesh = 64", f"mesh = {mesh}", 1)
    text = text.replace("ball_mesh = 32", f"ball_mesh = {ball_mesh}")
    cfg = tmp_path / "hopf.ini"
    cfg.write_text(text)
    if bad_key is None:
        assert main(["validate", str(cfg)]) == 0
        assert parse_config(text).hopf.mesh == mesh
    else:
        assert main(["validate", str(cfg)]) == 2
        assert f"[hopf] {bad_key} = " in capsys.readouterr().err


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


# a valid value for every key; a section drawn "as base" uses these only
BASE = {
    "experiment": {"out_dir": "out", "snapshot_stride": "5", "plots": "true"},
    "coefficients": dict(zip(SECTIONS["coefficients"], "0 -0.5 0.5 1 0 0".split())),
    "grid": {"n_cells": "64"},
    "time": {"dt": "1e-3", "scheme": "semi_implicit", "t_end": "0.05"},
    "initial": {"preset": "scaled_linear", "amplitude": "3.0", "beta0": "0.1"},
    "barrier": {"c": "0.03", "local_energy_radius": "0.1", "eta_beta0": "0.001"},
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
