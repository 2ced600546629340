"""Self-test of the output checks: each must reject a corrupted artifact.

    python3 perfbench/selftest.py [--seed N]

Runs one pass of every workload, requires every operation to pass its check,
then applies each corruption below to one artifact in turn (a perturbed CSV
value, a dropped row, a flipped report flag, a truncated plot), requires the
check of that operation to reject it, and restores the file.  Exits 1 if an
intact output fails or a corrupted one passes.  Takes about half a minute.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import run  # sets the thread variables before numpy loads
from checks import check


def _json(edit):
    def apply(text: str) -> str:
        data = json.loads(text)
        edit(data)
        return json.dumps(data)

    return apply


def _set(path: tuple, value):
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return _json(edit)


def _cell(row: int, column: str, factor: float = 1.0, shift: float = 0.0):
    def apply(text: str) -> str:
        header, *body = text.splitlines()
        cells = body[row].split(",")
        j = header.split(",").index(column)
        cells[j] = repr(float(cells[j]) * factor + shift)
        body[row] = ",".join(cells)
        return "\n".join([header, *body]) + "\n"

    return apply


def _column(column: str, factor: float):
    def apply(text: str) -> str:
        header, *body = text.splitlines()
        j = header.split(",").index(column)
        rows = [line.split(",") for line in body]
        for cells in rows:
            cells[j] = repr(float(cells[j]) * factor)
        return "\n".join([header, *(",".join(c) for c in rows)]) + "\n"

    return apply


def _drop_row(row: int):
    def apply(text: str) -> str:
        header, *body = text.splitlines()
        del body[row]
        return "\n".join([header, *body]) + "\n"

    return apply


def _truncate(text: str) -> str:
    return text[: len(text) // 2]


# (workload, operation, file, corruption, what it stands for)
CORRUPTIONS = (
    ("radial_ensemble", "radial_shipped", "report.json", _set(("ordering", "passed"), False), "ordering flag flipped"),
    ("radial_ensemble", "radial_shipped", "report.json", _set(("blowup", "detected"), True), "detection flag flipped"),
    ("radial_ensemble", "radial_n256", "report.json", _set(("t_final",), lambda t: t - 1e-4), "run stops a step early"),
    ("radial_ensemble", "radial_n512", "report.json", _set(("max_phi",), math.pi + 0.01), "phi above pi"),
    ("radial_ensemble", "radial_ref128", "series.csv", _cell(-1, "e_total", 1.01), "final energy +1%"),
    ("radial_ensemble", "radial_ref128", "series.csv", _cell(-1, "phi_r_origin", 1.01), "final origin slope +1%"),
    ("radial_ensemble", "radial_n1024", "series.csv", _cell(0, "e_sin", 1.01), "initial e_sin +1%"),
    ("radial_ensemble", "radial_rk4", "series.csv", _drop_row(-1), "last snapshot missing"),
    ("blowup_dense", "blowup_dense", "report.json", _set(("blowup", "detected"), False), "detection flag flipped"),
    ("blowup_dense", "blowup_dense", "report.json", _set(("blowup", "profile_fit_error"), 0.06), "bubble fit 0.06"),
    ("blowup_dense", "blowup_dense", "report.json", _set(("beta_law", "slope"), lambda s: s * 1.01), "beta-law slope +1%"),
    ("blowup_dense", "blowup_dense", "report.json", _set(("blowup", "t_detect"), lambda t: t + 1e-4), "t_detect one step late"),
    ("blowup_dense", "blowup_dense", "blowup_history.csv", _drop_row(5), "history row missing"),
    ("blowup_dense", "blowup_dense", "blowup_history.csv", _column("beta_hat", 1.01), "beta_hat +1%"),
    ("blowup_dense", "blowup_dense", "series.svg", _truncate, "plot truncated"),
    ("poiseuille_hopf", "poiseuille_counterexample", "report.json", _set(("maximum_principle_violated",), False), "violation flag flipped"),
    ("poiseuille_hopf", "poiseuille_counterexample", "series.csv", _cell(100, "max_abs_phi", shift=1e-6), "phi off t by 1e-6"),
    ("poiseuille_hopf", "poiseuille_generic", "series.csv", _cell(10, "energy", 1.01), "energy +1% mid-run"),
    ("poiseuille_hopf", "poiseuille_generic", "series.csv", _cell(0, "energy", 1.0 + 1e-6), "initial energy +1e-6"),
    ("poiseuille_hopf", "barrier_check", "report.json", _set(("signs_ok",), False), "signs flag flipped"),
    ("poiseuille_hopf", "barrier_check", "report.json", _set(("negative_control_fired",), False), "control flag flipped"),
    ("poiseuille_hopf", "barrier_check", "report.json", _set(("sets", 0, "super_residual_min"), -1e-3), "negative super residual"),
    ("poiseuille_hopf", "hopf_ladder", "decay.csv", _cell(0, "energy", 1.01), "E(1) +1%"),
    ("poiseuille_hopf", "hopf_pair", "decay.csv", _cell(1, "energy", 0.99), "E(lam_b) -1%"),
    ("poiseuille_hopf", "hopf_pair", "report.json", _set(("table", 0, "ball_energy_velocity"), lambda e: e * 1.01), "ball velocity energy +1%"),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    import nematiclab.cli as cli

    ok = True
    for workload in ("radial_ensemble", "blowup_dense", "poiseuille_hopf"):
        ops, argv = run.prepare(workload, args.seed, 0, run.WORK / "selftest" / workload)
        _, _, rc = run.timed_pass(cli, argv)
        by_name = {op.name: op for op in ops}
        for op in ops:
            problems = check(op)
            print(f"intact    {op.name}: {'ok' if not problems else problems}")
            ok = ok and rc == 0 and not problems
        for wl, name, file, corrupt, what in CORRUPTIONS:
            if wl != workload:
                continue
            op = by_name[name]
            path = op.out / file
            original = path.read_text(encoding="utf-8")
            path.write_text(corrupt(original), encoding="utf-8")
            try:
                problems = check(op)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"corrupted {name}/{file} ({what}): "
                  f"{'rejected: ' + problems[0] if problems else 'NOT REJECTED'}")
            ok = ok and bool(problems)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
