"""Experiment configuration: a flat INI file, one experiment per file.

Sections group parameters per module; every key is typed and unknown keys
are rejected.  ``parse_config`` validates everything the owning modules
would reject later (grid sizes, step bounds, presets, barrier clocks), so a
config that parses will dispatch.  ``serialize_config`` emits a canonical
normal form: fixed section and key order, shortest round-trip floats;
serialising a parsed config is idempotent.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

from .axisym import RadialGrid, SolverParams, default_dt, initial_profile, step_count
from .barriers import eta_barrier, supersolution
from .coeffs import LeslieCoefficients, validate as validate_coeffs
from .errors import ConfigError
from .poiseuille import IntervalGrid

EXPERIMENT_KINDS = (
    "axisym_global",
    "axisym_blowup",
    "barrier_check",
    "poiseuille_counterexample",
    "poiseuille_generic",
    "hopf_decay",
)

PRESETS = ("linear", "scaled_linear", "bubble", "bubble_linear_max", "table")


@dataclass(frozen=True)
class AxisymSection:
    n_cells: int = 1024
    dt: float = 1e-4
    scheme: str = "semi_implicit"
    t_end: float = 1.0
    clip_guard: float | None = None
    preset: str = "linear"
    beta0: float | None = None
    amplitude: float | None = None
    points: tuple[tuple[float, float], ...] | None = None

    def preset_params(self) -> dict:
        out = {}
        if self.preset in ("bubble", "bubble_linear_max"):
            out["beta0"] = self.beta0
        if self.preset in ("scaled_linear", "bubble_linear_max"):
            out["amplitude"] = self.amplitude
        if self.preset == "table":
            out["points"] = list(self.points or ())
        return out


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


_uses = {
    "axisym_global": {"coefficients", "grid", "time", "initial", "barrier"},
    "axisym_blowup": {"coefficients", "grid", "time", "initial", "barrier"},
    "barrier_check": {"barrier_check"},
    "poiseuille_counterexample": {"poiseuille"},
    "poiseuille_generic": {"coefficients", "poiseuille"},
    "hopf_decay": {"hopf"},
}

_section_keys = {
    "experiment": ("kind", "out_dir", "snapshot_stride", "plots"),
    "coefficients": ("mu1", "mu2", "mu3", "mu4", "mu5", "mu6"),
    "grid": ("n_cells",),
    "time": ("dt", "scheme", "t_end", "clip_guard"),
    "initial": ("preset", "beta0", "amplitude", "points"),
    "barrier": ("c", "eta_beta0", "local_energy_radius"),
    "barrier_check": ("n_sets", "n_r", "n_t", "t_max", "seed"),
    "poiseuille": ("half_length", "n_cells", "dt", "t_end", "velocity_amplitude", "a"),
    "hopf": ("lambdas", "mesh", "ball_mesh"),
}


def _get(cp, section, key, conv, default=None, required=False):
    if not cp.has_option(section, key) or cp.get(section, key).strip() == "":
        if required:
            raise ConfigError(f"[{section}] {key} is required")
        return default
    raw = cp.get(section, key).strip()
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


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
        if section not in _section_keys:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _section_keys[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    kind = _get(cp, "experiment", "kind", str, required=True)
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    used = _uses[kind]
    for section in cp.sections():
        if section != "experiment" and section not in used:
            raise ConfigError(f"section [{section}] not used by {kind}")

    out_dir = _get(cp, "experiment", "out_dir", str, default="out")
    stride = _get(cp, "experiment", "snapshot_stride", int, default=10)
    if stride < 1:
        raise ConfigError("snapshot_stride must be >= 1")
    plots = _get(cp, "experiment", "plots", _as_bool, default=True)

    coeffs = None
    if "coefficients" in used:
        if not cp.has_section("coefficients"):
            raise ConfigError(f"{kind} requires a [coefficients] section")
        mus = [
            _get(cp, "coefficients", f"mu{i}", _as_float, required=True)
            for i in range(1, 7)
        ]
        coeffs = LeslieCoefficients(*mus)
        res = validate_coeffs(coeffs)
        if not res.ok:
            raise ConfigError(f"coefficient relations violated: {res.violations}")

    axisym = None
    if "grid" in used:
        n_cells = _get(cp, "grid", "n_cells", int, default=1024)
        scheme = _get(cp, "time", "scheme", str, default="semi_implicit")
        t_end = _get(cp, "time", "t_end", _as_float, default=1.0)
        if n_cells >= 16 and scheme in ("semi_implicit", "explicit") and t_end > 0.0:
            dt_default = default_dt(RadialGrid(n_cells), coeffs, scheme, t_end)
        else:
            dt_default = 1e-4  # grid/scheme/t_end validation below will reject
        axisym = AxisymSection(
            n_cells=n_cells,
            dt=_get(cp, "time", "dt", _as_float, default=dt_default),
            scheme=scheme,
            t_end=t_end,
            clip_guard=_get(cp, "time", "clip_guard", _as_float),
            preset=_get(cp, "initial", "preset", str, default="linear"),
            beta0=_get(cp, "initial", "beta0", _as_float),
            amplitude=_get(cp, "initial", "amplitude", _as_float),
            points=_get(cp, "initial", "points", _as_points),
        )
        if axisym.preset not in PRESETS:
            raise ConfigError(f"unknown preset {axisym.preset!r}")
        required = {
            "scaled_linear": ("amplitude",),
            "bubble": ("beta0",),
            "bubble_linear_max": ("beta0", "amplitude"),
            "table": ("points",),
        }.get(axisym.preset, ())
        for key in required:
            if getattr(axisym, key) is None:
                raise ConfigError(f"preset {axisym.preset!r} requires [initial] {key}")
        try:
            grid = RadialGrid(axisym.n_cells)
            initial_profile(grid, axisym.preset, **axisym.preset_params())
            params = SolverParams(
                dt=axisym.dt,
                scheme=axisym.scheme,  # type: ignore[arg-type]
                t_end=axisym.t_end,
                clip_guard=axisym.clip_guard,
            )
            params.check_stability(grid, coeffs)
            step_count(0.0, params.t_end, params.dt)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    barrier = None
    if "barrier" in used:
        barrier = BarrierSection(
            c=_get(cp, "barrier", "c", _as_float, default=0.05),
            eta_beta0=_get(cp, "barrier", "eta_beta0", _as_float),
            local_energy_radius=_get(
                cp, "barrier", "local_energy_radius", _as_float, default=0.05
            ),
        )
        try:
            supersolution(barrier.c, coeffs)
            if barrier.eta_beta0 is not None:
                eta_barrier(barrier.eta_beta0, coeffs)
            if axisym is not None:
                dr = 1.0 / axisym.n_cells
                if barrier.local_energy_radius < 2.0 * dr:
                    raise ValueError("local_energy_radius must be >= 2*dr")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    barrier_check = None
    if "barrier_check" in used:
        barrier_check = BarrierCheckSection(
            n_sets=_get(cp, "barrier_check", "n_sets", int, default=10),
            n_r=_get(cp, "barrier_check", "n_r", int, default=100),
            n_t=_get(cp, "barrier_check", "n_t", int, default=100),
            t_max=_get(cp, "barrier_check", "t_max", _as_float, default=5.0),
            seed=_get(cp, "barrier_check", "seed", int, default=20240611),
        )
        if min(barrier_check.n_sets, barrier_check.n_r, barrier_check.n_t) < 1:
            raise ConfigError("barrier_check sample counts must be positive")

    poiseuille = None
    if "poiseuille" in used:
        poiseuille = PoiseuilleSection(
            half_length=_get(cp, "poiseuille", "half_length", _as_float, default=5.0),
            n_cells=_get(cp, "poiseuille", "n_cells", int, default=500),
            dt=_get(cp, "poiseuille", "dt", _as_float),
            t_end=_get(cp, "poiseuille", "t_end", _as_float, default=1.0),
            velocity_amplitude=_get(
                cp, "poiseuille", "velocity_amplitude", _as_float, default=1.0
            ),
            a=_get(cp, "poiseuille", "a", _as_float, default=0.0),
        )
        try:
            IntervalGrid(poiseuille.half_length, poiseuille.n_cells)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if poiseuille.t_end <= 0:
            raise ConfigError("t_end must be positive")
        if poiseuille.dt is not None and poiseuille.dt <= 0:
            raise ConfigError("dt must be positive")

    hopf = None
    if "hopf" in used:
        hopf = HopfSection(
            lambdas=_get(cp, "hopf", "lambdas", _as_floats, default=(1.0, 2.0, 4.0, 8.0)),
            mesh=_get(cp, "hopf", "mesh", int, default=64),
            ball_mesh=_get(cp, "hopf", "ball_mesh", int, default=32),
        )
        if any(l <= 0 for l in hopf.lambdas):
            raise ConfigError("lambdas must be positive")
        if any(b <= a for a, b in zip(hopf.lambdas, hopf.lambdas[1:])):
            raise ConfigError("lambdas must be strictly increasing")
        if hopf.mesh < 16 or hopf.ball_mesh < 16:
            raise ConfigError("mesh must be at least 16")

    return ExperimentConfig(
        kind=kind,
        out_dir=out_dir,
        snapshot_stride=stride,
        plots=plots,
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
    except OSError as exc:
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
    """Canonical normal form; defaults are written out explicitly."""
    sections: list[tuple[str, list[tuple[str, object]]]] = []
    sections.append(
        (
            "experiment",
            [
                ("kind", config.kind),
                ("out_dir", config.out_dir),
                ("snapshot_stride", config.snapshot_stride),
                ("plots", config.plots),
            ],
        )
    )
    if config.coefficients is not None:
        c = config.coefficients
        sections.append(
            (
                "coefficients",
                [(f"mu{i}", mu) for i, mu in enumerate(c.as_tuple(), start=1)],
            )
        )
    if config.axisym is not None:
        a = config.axisym
        sections.append(("grid", [("n_cells", a.n_cells)]))
        time_items: list[tuple[str, object]] = [
            ("dt", a.dt),
            ("scheme", a.scheme),
            ("t_end", a.t_end),
        ]
        if a.clip_guard is not None:
            time_items.append(("clip_guard", a.clip_guard))
        sections.append(("time", time_items))
        init_items: list[tuple[str, object]] = [("preset", a.preset)]
        for key in ("beta0", "amplitude", "points"):
            val = getattr(a, key)
            if val is not None:
                init_items.append((key, val))
        sections.append(("initial", init_items))
    if config.barrier is not None:
        b = config.barrier
        items: list[tuple[str, object]] = [("c", b.c)]
        if b.eta_beta0 is not None:
            items.append(("eta_beta0", b.eta_beta0))
        items.append(("local_energy_radius", b.local_energy_radius))
        sections.append(("barrier", items))
    if config.barrier_check is not None:
        bc = config.barrier_check
        sections.append(
            (
                "barrier_check",
                [
                    ("n_sets", bc.n_sets),
                    ("n_r", bc.n_r),
                    ("n_t", bc.n_t),
                    ("t_max", bc.t_max),
                    ("seed", bc.seed),
                ],
            )
        )
    if config.poiseuille is not None:
        p = config.poiseuille
        items = [
            ("half_length", p.half_length),
            ("n_cells", p.n_cells),
        ]
        if p.dt is not None:
            items.append(("dt", p.dt))
        items += [
            ("t_end", p.t_end),
            ("velocity_amplitude", p.velocity_amplitude),
            ("a", p.a),
        ]
        sections.append(("poiseuille", items))
    if config.hopf is not None:
        h = config.hopf
        sections.append(
            (
                "hopf",
                [("lambdas", h.lambdas), ("mesh", h.mesh), ("ball_mesh", h.ball_mesh)],
            )
        )

    out = io.StringIO()
    for name, items in sections:
        out.write(f"[{name}]\n")
        for key, value in items:
            out.write(f"{key} = {_fmt_value(value)}\n")
        out.write("\n")
    return out.getvalue()
