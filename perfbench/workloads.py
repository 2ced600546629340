"""Seeded inputs of the three benchmark workloads.

Every pass of a workload runs the same operations with the same step
counts, snapshot counts and mesh sizes; only seeded values (angles, barrier
widths, amplitudes, dilation parameters, sampler seeds) change from pass to
pass.  Pass ``k`` of a run with seed ``s`` draws from ``Random(s, k)``, so a
seed reproduces the whole run, and no cache across calls can skip the work of
a later pass.

An operation is one config: the program turns it into one output directory,
and ``checks.py`` judges that directory against the inputs below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# The three stretching regimes of the global-existence criterion C3, as
# (mu1, ..., mu6); each has lambda1 = 1.
LAMBDA2_SETS = {
    0.0: (0.0, -0.5, 0.5, 1.0, 0.0, 0.0),
    0.5: (0.0, -0.25, 0.75, 1.0, 0.0, 0.5),
    -0.5: (0.0, -0.75, 0.25, 1.0, 0.0, -0.5),
}
SIMPLIFIED = (0.0, -1.0, 1.0, 3.0, 0.0, 0.0)

# radial_ensemble members: (name, lambda2, n_cells, dt, steps, stride, scheme).
# t_end = steps * dt, so every run ends on a whole step.  "ref128" is the
# member checked against the independent BDF reference in checks.py;
# "shipped" has the size of configs/axisym_global.ini.
RADIAL_MEMBERS = (
    ("shipped", 0.5, 1024, 1e-4, 20000, 200, "semi_implicit"),
    ("ref128", 0.5, 128, 1e-4, 5000, 100, "semi_implicit"),
    ("n256", -0.5, 256, 1e-4, 5000, 100, "semi_implicit"),
    ("n512", 0.0, 512, 1e-4, 5000, 100, "semi_implicit"),
    ("n1024", 0.0, 1024, 1e-4, 5000, 100, "semi_implicit"),
    ("rk4", -0.5, 128, 1e-5, 5000, 100, "explicit"),
)

BLOWUP_N = 512
BLOWUP_DT = 1e-4
BLOWUP_STEPS = 26000
BLOWUP_ANGLE = (1.05, 1.08)  # boundary angle, in units of pi

HOPF_LADDER = (1.0, 2.0, 4.0, 8.0)


@dataclass
class Op:
    """One config of a pass: its file stem, kind, the values it was built
    from, the output directory the program writes, and the INI sections
    after [experiment]."""

    name: str
    kind: str
    params: dict
    out: Path
    sections: dict

    def ini(self) -> str:
        lines = [
            "[experiment]",
            f"kind = {self.kind}",
            f"out_dir = {self.out}",
        ]
        for key in ("snapshot_stride", "plots"):
            if key in self.params:
                lines.append(f"{key} = {_fmt(self.params[key])}")
        for section, items in self.sections.items():
            lines.append("")
            lines.append(f"[{section}]")
            lines += [f"{k} = {_fmt(v)}" for k, v in items.items()]
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ", ".join(_fmt(x) for x in v)
    return str(v)


def _coeffs(mus) -> dict:
    return {f"mu{i}": float(m) for i, m in enumerate(mus, start=1)}


def pass_rng(seed: int, k: int) -> random.Random:
    return random.Random(f"{seed}:{k}")


def radial_ensemble(rng: random.Random, out: Path) -> list[Op]:
    ops = []
    for name, l2, n, dt, steps, stride, scheme in RADIAL_MEMBERS:
        c = rng.uniform(0.05, 0.1)
        # linear data below the supersolution's boundary value 2 arctan(1/c)
        # is ordered between the barriers at t = 0 (the barrier is concave)
        amplitude = rng.uniform(0.9, 0.99) * 2.0 * math.atan(1.0 / c)
        params = {
            "lambda2": l2,
            "mus": LAMBDA2_SETS[l2],
            "n": n,
            "dt": dt,
            "steps": steps,
            "t_end": steps * dt,
            "snapshot_stride": stride,
            "scheme": scheme,
            "amplitude": amplitude,
            "c": c,
            "reference": name == "ref128",
        }
        ops.append(
            Op(
                f"radial_{name}",
                "axisym_global",
                params,
                out / f"radial_{name}",
                {
                    "coefficients": _coeffs(params["mus"]),
                    "grid": {"n_cells": n},
                    "time": {"dt": dt, "scheme": scheme, "t_end": params["t_end"]},
                    "initial": {"preset": "scaled_linear", "amplitude": amplitude},
                    "barrier": {"c": c, "local_energy_radius": 0.05},
                },
            )
        )
    return ops


def blowup_dense(rng: random.Random, out: Path) -> list[Op]:
    angle = rng.uniform(*BLOWUP_ANGLE) * math.pi
    params = {
        "mus": LAMBDA2_SETS[0.0],
        "n": BLOWUP_N,
        "dt": BLOWUP_DT,
        "steps": BLOWUP_STEPS,
        "t_end": BLOWUP_STEPS * BLOWUP_DT,
        "snapshot_stride": 1,
        "plots": True,
        "amplitude": angle,
    }
    return [
        Op(
            "blowup_dense",
            "axisym_blowup",
            params,
            out / "blowup_dense",
            {
                "coefficients": _coeffs(params["mus"]),
                "grid": {"n_cells": BLOWUP_N},
                "time": {
                    "dt": BLOWUP_DT,
                    "scheme": "semi_implicit",
                    "t_end": params["t_end"],
                },
                "initial": {"preset": "scaled_linear", "amplitude": angle},
                "barrier": {"c": 0.05, "local_energy_radius": 0.05},
            },
        )
    ]


def poiseuille_hopf(rng: random.Random, out: Path) -> list[Op]:
    amp = rng.uniform(0.5, 1.5)
    sampler_seed = rng.randrange(1, 2**31)
    lam_a = rng.uniform(1.0, 2.0)
    lam_b = rng.uniform(2.5, 4.0)
    ops = [
        # the shipped counterexample config, unchanged
        Op(
            "poiseuille_counterexample",
            "poiseuille_counterexample",
            {"L": 5.0, "n": 500, "t_end": 1.0},
            out / "poiseuille_counterexample",
            {"poiseuille": {"half_length": 5.0, "n_cells": 500, "t_end": 1.0}},
        ),
        Op(
            "poiseuille_generic",
            "poiseuille_generic",
            {
                "mus": SIMPLIFIED,
                "L": 10.0,
                "n": 2048,
                "dt": 1e-5,
                "steps": 5000,
                "t_end": 5000 * 1e-5,
                "snapshot_stride": 50,
                "velocity_amplitude": amp,
            },
            out / "poiseuille_generic",
            {
                "coefficients": _coeffs(SIMPLIFIED),
                "poiseuille": {
                    "half_length": 10.0,
                    "n_cells": 2048,
                    "dt": 1e-5,
                    "t_end": 5000 * 1e-5,
                    "velocity_amplitude": amp,
                },
            },
        ),
        Op(
            "barrier_check",
            "barrier_check",
            {"n_sets": 10, "seed": sampler_seed},
            out / "barrier_check",
            {
                "barrier_check": {
                    "n_sets": 10,
                    "n_r": 100,
                    "n_t": 100,
                    "t_max": 5.0,
                    "seed": sampler_seed,
                }
            },
        ),
        Op(
            "hopf_ladder",
            "hopf_decay",
            {"lambdas": HOPF_LADDER, "mesh": 64, "ball_mesh": 32},
            out / "hopf_ladder",
            {"hopf": {"lambdas": HOPF_LADDER, "mesh": 64, "ball_mesh": 32}},
        ),
        Op(
            "hopf_pair",
            "hopf_decay",
            {"lambdas": (lam_a, lam_b), "mesh": 128, "ball_mesh": 32},
            out / "hopf_pair",
            {"hopf": {"lambdas": (lam_a, lam_b), "mesh": 128, "ball_mesh": 32}},
        ),
    ]
    return ops


WORKLOADS = {
    "radial_ensemble": radial_ensemble,
    "blowup_dense": blowup_dense,
    "poiseuille_hopf": poiseuille_hopf,
}
