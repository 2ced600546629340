"""Command-line entry point.

    nematiclab simulate <config> [--out DIR] [--no-plots]
    nematiclab sweep <glob> [--no-plots]
    nematiclab validate <config>

Exit codes: 0 success, 2 configuration invalid, 3 runtime halt.
"""

from __future__ import annotations

import argparse
import glob
import sys
from pathlib import Path

from .config import load_config, serialize_config
from .errors import ConfigError, SolverHalt
from .experiments import run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nematiclab",
        description="Experiments on the axisymmetric nematic angle equation, "
        "its barrier families, the 1D Poiseuille system, and Hopf-map energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one experiment config")
    sim.add_argument("config", type=Path)
    sim.add_argument("--out", type=Path, default=None, help="override output directory")
    sim.add_argument("--no-plots", action="store_true")

    sweep = sub.add_parser("sweep", help="run every config matching a glob")
    sweep.add_argument("pattern")
    sweep.add_argument("--no-plots", action="store_true")

    val = sub.add_parser("validate", help="validate a config and echo its normal form")
    val.add_argument("config", type=Path)
    return parser


def _simulate(args) -> int:
    config = load_config(args.config)
    result = run(config, out_dir=args.out, plots=False if args.no_plots else None)
    for path in result.files:
        print(path)
    return EXIT_OK


def _sweep(args) -> int:
    paths = sorted(glob.glob(args.pattern))
    if not paths:
        raise ConfigError(f"no configs match {args.pattern!r}")
    configs = [(p, load_config(Path(p))) for p in paths]
    out_dirs = [c.out_dir for _, c in configs]
    if len(set(out_dirs)) != len(out_dirs):
        raise ConfigError("sweep configs must use distinct out_dir values")

    plots = None if not args.no_plots else False
    failures: list[str] = []
    for path, config in configs:
        try:
            warnings = run(config, plots=plots).report.get("warnings")
            status = f"ok ({len(warnings)} warnings)" if warnings else "ok"
        except SolverHalt as exc:  # keep sweeping, report at the end
            status = f"halt: {exc}"
            failures.append(path)
        print(f"{path}: {status}")
    return EXIT_RUNTIME if failures else EXIT_OK


def _validate(args) -> int:
    config = load_config(args.config)
    sys.stdout.write(serialize_config(config))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _simulate(args)
        if args.command == "sweep":
            return _sweep(args)
        return _validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverHalt as exc:
        print(f"runtime halt: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
