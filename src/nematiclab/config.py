"""Experiment configuration: a flat INI file, one experiment per file.

``_SCHEMA`` declares the file once.  It maps each INI section, in
normal-form order, to the ``ExperimentConfig`` field it fills (``None`` for
the config itself), that field's dataclass, and the section's keys in
normal-form order.  A key's type and default come from its dataclass field;
a field without a default is required.  Reading (``_read``), unknown-key
rejection and ``serialize_config`` all go through the table.

``parse_config`` then validates through the owning modules and the setup
each run marches (``radial_run``, ``poiseuille_run``), so a config that
parses will dispatch.  ``serialize_config`` emits a canonical normal form:
fixed section and key order, shortest round-trip floats, defaults written
out and unset optional keys left out; serialising a parsed config is
idempotent.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .axisym import (
    MAX_RECORD_BYTES,
    PRESET_PARAMS,
    RadialGrid,
    SolverParams,
    check_local_radius,
    default_dt,
    initial_profile,
    make_state,
    plan_record,
    stream_held,
)
from .barriers import eta_barrier, supersolution
from .blowup import MIN_SNAPSHOTS
from .coeffs import LeslieCoefficients
from .coeffs import validate as validate_coeffs
from .errors import ConfigError
from .hopf import LAMBDA_RANGE, check_mesh
from .poiseuille import IntervalGrid, PoiseuilleState, homogeneous_bc, plan_run
from .poiseuille import counterexample_setup


@dataclass(frozen=True)
class AxisymSection:
    n_cells: int = 1024
    dt: float | None = None  # resolved by radial_run from the scheme
    scheme: str = "semi_implicit"
    t_end: float = 1.0
    clip_guard: float | None = None
    preset: str = "linear"
    beta0: float | None = None
    amplitude: float | None = None
    points: tuple[tuple[float, float], ...] | None = None

    def preset_params(self) -> dict:
        return {k: getattr(self, k) for k in PRESET_PARAMS.get(self.preset, ())}


@dataclass(frozen=True)
class BarrierSection:
    c: float = 0.05
    eta_beta0: float | None = None
    local_energy_radius: float = 0.05


@dataclass(frozen=True)
class BarrierCheckSection:
    n_sets: int = 10
    n_r: int = 100
    n_t: int = 100
    t_max: float = 5.0
    seed: int = 20240611


@dataclass(frozen=True)
class PoiseuilleSection:
    half_length: float = 5.0
    n_cells: int = 500
    dt: float | None = None
    t_end: float = 1.0
    velocity_amplitude: float = 1.0
    a: float = 0.0  # constant pressure-gradient term, 0 in the counterexample


@dataclass(frozen=True)
class HopfSection:
    lambdas: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    mesh: int = 64
    ball_mesh: int = 32


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    out_dir: str = "out"
    snapshot_stride: int = 10
    plots: bool = True
    coefficients: LeslieCoefficients | None = None
    axisym: AxisymSection | None = None
    barrier: BarrierSection | None = None
    barrier_check: BarrierCheckSection | None = None
    poiseuille: PoiseuilleSection | None = None
    hopf: HopfSection | None = None

    def hash(self) -> str:
        return hashlib.sha256(serialize_config(self).encode()).hexdigest()[:12]


def _all(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


_SCHEMA = {
    "experiment": (
        None, ExperimentConfig, ("kind", "out_dir", "snapshot_stride", "plots")
    ),
    "coefficients": ("coefficients", LeslieCoefficients, _all(LeslieCoefficients)),
    "grid": ("axisym", AxisymSection, ("n_cells",)),
    "time": ("axisym", AxisymSection, ("dt", "scheme", "t_end", "clip_guard")),
    "initial": ("axisym", AxisymSection, ("preset", "beta0", "amplitude", "points")),
    "barrier": ("barrier", BarrierSection, _all(BarrierSection)),
    "barrier_check": ("barrier_check", BarrierCheckSection, _all(BarrierCheckSection)),
    "poiseuille": ("poiseuille", PoiseuilleSection, _all(PoiseuilleSection)),
    "hopf": ("hopf", HopfSection, _all(HopfSection)),
}

_uses = {
    "axisym_global": {"coefficients", "grid", "time", "initial", "barrier"},
    "axisym_blowup": {"coefficients", "grid", "time", "initial", "barrier"},
    "barrier_check": {"barrier_check"},
    "poiseuille_counterexample": {"poiseuille"},
    "poiseuille_generic": {"coefficients", "poiseuille"},
    "hopf_decay": {"hopf"},
}

EXPERIMENT_KINDS = tuple(_uses)

# keys of a used section that a kind cannot act on, accepted only at defaults
_NO_EFFECT = {
    "axisym_global": [("barrier", "eta_beta0")],
    "axisym_blowup": [("barrier", "c")],
    "barrier_check": [("experiment", "snapshot_stride"), ("experiment", "plots")],
    "poiseuille_counterexample": [
        ("experiment", "snapshot_stride"), ("poiseuille", "velocity_amplitude"),
        ("poiseuille", "a"),
    ],
    "hopf_decay": [("experiment", "snapshot_stride")],
}

# Default blow-up guard, in units of 1/dr: the run continues past detection
# to the discrete step profile (slope a bit above pi/dr) to cover the analysis.
BLOWUP_GUARD_FACTOR = 4.0


def _as_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _as_float(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError("must be finite")
    return val


def _as_points(raw: str) -> tuple[tuple[float, float], ...]:
    pts = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        r_s, _, phi_s = item.partition(":")
        pts.append((_as_float(r_s), _as_float(phi_s)))
    if len(pts) < 2:
        raise ValueError("need at least two r:phi pairs")
    return tuple(pts)


def _as_floats(raw: str) -> tuple[float, ...]:
    vals = tuple(_as_float(v) for v in raw.split(",") if v.strip())
    if not vals:
        raise ValueError("need at least one value")
    return vals


# dataclass field annotation, without "| None", -> converter of the raw text
_CONVERTERS = {
    "int": int,
    "str": str,
    "bool": _as_bool,
    "float": _as_float,
    "tuple[float, ...]": _as_floats,
    "tuple[tuple[float, float], ...]": _as_points,
}


def _value(cp, section: str, key: str):
    """One key, converted; a missing or blank value gives the field default."""
    field = next(f for f in fields(_SCHEMA[section][1]) if f.name == key)
    raw = cp.get(section, key, fallback="").strip()
    if raw == "":
        if field.default is MISSING:
            raise ConfigError(f"[{section}] {key} is required")
        return field.default
    try:
        return _CONVERTERS[field.type.removesuffix(" | None")](raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _read(cp, section: str) -> dict:
    return {key: _value(cp, section, key) for key in _SCHEMA[section][2]}


def radial_run(config: ExperimentConfig) -> tuple:
    """The (state0, coeffs, params, snapshot_stride) run of an axisym config;
    an unset ``dt`` is resolved by ``default_dt``.  ValueError when it
    cannot march, records fewer than MIN_SNAPSHOTS snapshots, or would hold
    more than the record buffer ceiling when streamed, which is checked
    before the nodes exist."""
    a, coeffs, stride = config.axisym, config.coefficients, config.snapshot_stride
    grid = RadialGrid(a.n_cells)
    dt = default_dt(grid, coeffs, a.scheme, a.t_end) if a.dt is None else a.dt
    guard = a.clip_guard
    if guard is None and config.kind == "axisym_blowup":
        guard = BLOWUP_GUARD_FACTOR / grid.dr
    params = SolverParams(dt=dt, scheme=a.scheme, t_end=a.t_end, clip_guard=guard)
    params.check_stability(grid, coeffs)
    plan_record(
        0.0, a.t_end, dt, stride, a.n_cells + 1, MIN_SNAPSHOTS, stream_held(a.n_cells + 1)
    )
    phi0 = initial_profile(grid, a.preset, **a.preset_params())
    return make_state(grid, phi0), coeffs, params, stride


def poiseuille_run(config: ExperimentConfig) -> tuple:
    """The ``poiseuille.simulate`` arguments (state0, coeffs, dt, t_end, bc,
    snapshot_stride) of either kind: ``counterexample_setup``, or the pulse
    w0 = A x exp(-x^2), phi0 = 0 under homogeneous data, planned first."""
    p, c = config.poiseuille, config.coefficients
    if config.kind == "poiseuille_counterexample":
        return counterexample_setup(p.half_length, p.n_cells, p.t_end, p.dt)
    grid = IntervalGrid(p.half_length, p.n_cells)
    dt, stride = plan_run(grid, c, p.t_end, p.dt, config.snapshot_stride)
    with np.errstate(over="ignore"):  # x^2 = inf far out gives the pulse's limit, 0
        w0 = p.velocity_amplitude * (grid.x * np.exp(-(grid.x**2)))
    state0 = PoiseuilleState(grid, w=w0, phi=np.zeros(p.n_cells + 1), a=p.a)
    return state0, c, dt, p.t_end, homogeneous_bc(), stride


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate one experiment configuration."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    if not cp.has_section("experiment"):
        raise ConfigError("missing [experiment] section")
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _SCHEMA[section][2]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    kind = _value(cp, "experiment", "kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    used = _uses[kind]
    for section in cp.sections():
        if section != "experiment" and section not in used:
            raise ConfigError(f"section [{section}] not used by {kind}")

    # checked before a bad plots value would be reported
    if _value(cp, "experiment", "snapshot_stride") < 1:
        raise ConfigError("snapshot_stride must be >= 1")
    top = _read(cp, "experiment")
    for section, key in _NO_EFFECT.get(kind, ()):
        if _value(cp, section, key) != _SCHEMA[section][1].__dataclass_fields__[key].default:
            raise ConfigError(f"[{section}] {key} has no effect on {kind}: leave it unset")

    coeffs = None
    if "coefficients" in used:
        if not cp.has_section("coefficients"):
            raise ConfigError(f"{kind} requires a [coefficients] section")
        coeffs = LeslieCoefficients(**_read(cp, "coefficients"))
        res = validate_coeffs(coeffs)
        if not res.ok:
            raise ConfigError(f"coefficient relations violated: {res.violations}")

    axisym = None
    if "grid" in used:
        grid_keys = _read(cp, "grid")
        _value(cp, "time", "t_end")  # a bad t_end is reported before a bad dt
        a = AxisymSection(**grid_keys, **_read(cp, "time"), **_read(cp, "initial"))
        if a.preset not in PRESET_PARAMS:
            raise ConfigError(f"unknown preset {a.preset!r}")
        for key in PRESET_PARAMS[a.preset]:
            if getattr(a, key) is None:
                raise ConfigError(f"preset {a.preset!r} requires [initial] {key}")
        for key in ("beta0", "amplitude", "points"):
            if key not in PRESET_PARAMS[a.preset] and getattr(a, key) is not None:
                raise ConfigError(f"preset {a.preset!r} does not read [initial] {key}")
        try:
            _, _, params, _ = radial_run(ExperimentConfig(**top, coefficients=coeffs, axisym=a))
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        axisym = replace(a, dt=params.dt)

    barrier = None
    if "barrier" in used:
        barrier = BarrierSection(**_read(cp, "barrier"))
        try:
            supersolution(barrier.c, coeffs)
            if barrier.eta_beta0 is not None:
                eta_barrier(barrier.eta_beta0, coeffs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            check_local_radius(RadialGrid(axisym.n_cells), barrier.local_energy_radius)
        except ValueError as exc:
            raise ConfigError(f"[barrier] local_energy_radius: {exc}") from exc

    barrier_check = None
    if "barrier_check" in used:
        bc = barrier_check = BarrierCheckSection(**_read(cp, "barrier_check"))
        if min(bc.n_sets, bc.n_r, bc.n_t) < 1:
            raise ConfigError("barrier_check sample counts must be positive")
        if bc.seed < 0:
            raise ConfigError(f"[barrier_check] seed = {bc.seed}: must be non-negative")
        if 8 * bc.n_t * bc.n_r > MAX_RECORD_BYTES:
            raise ConfigError(
                f"[barrier_check] n_t x n_r = {bc.n_t} x {bc.n_r}: its (n_t, n_r) "
                f"residual arrays exceed the {MAX_RECORD_BYTES}-byte ceiling"
            )

    poiseuille = None
    if "poiseuille" in used:
        poiseuille = PoiseuilleSection(**_read(cp, "poiseuille"))
        try:
            poiseuille_run(ExperimentConfig(**top, coefficients=coeffs, poiseuille=poiseuille))
        except ValueError as exc:
            raise ConfigError(f"[poiseuille] {exc}") from exc

    hopf = None
    if "hopf" in used:
        hopf = HopfSection(**_read(cp, "hopf"))
        lo, hi = LAMBDA_RANGE
        if not all(lo <= l <= hi for l in hopf.lambdas):
            raise ConfigError(f"lambdas must lie in [{lo!r}, {hi!r}]")
        if any(b <= a for a, b in zip(hopf.lambdas, hopf.lambdas[1:])):
            raise ConfigError("lambdas must be strictly increasing")
        for key in ("mesh", "ball_mesh"):
            try:
                check_mesh(getattr(hopf, key))
            except ValueError as exc:
                raise ConfigError(f"[hopf] {key} = {getattr(hopf, key)}: {exc}") from exc

    return ExperimentConfig(
        **top,
        coefficients=coeffs,
        axisym=axisym,
        barrier=barrier,
        barrier_check=barrier_check,
        poiseuille=poiseuille,
        hopf=hopf,
    )


def load_config(path: Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        if v and isinstance(v[0], tuple):
            return ", ".join(f"{r!r}:{p!r}" for r, p in v)
        return ", ".join(repr(float(x)) for x in v)
    return str(v)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical normal form: every section the config fills, in schema
    order; defaults are written out, unset optional keys left out."""
    out = io.StringIO()
    for section, (attr, _, keys) in _SCHEMA.items():
        obj = config if attr is None else getattr(config, attr)
        if obj is None:
            continue
        out.write(f"[{section}]\n")
        for key in keys:
            value = getattr(obj, key)
            if value is not None:
                out.write(f"{key} = {_fmt_value(value)}\n")
        out.write("\n")
    return out.getvalue()
