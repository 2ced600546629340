"""End-to-end and per-layer benchmark of nematiclab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload.  It measures ``setup_s`` in fresh
processes (``setup_probe.py``), then calls ``nematiclab.cli.main`` in-process
the way the command line does, once as an untimed warm-up pass and then pass
after pass until the timed passes add up to S seconds.  Every pass gets new
seeded configs (``workloads.py``) and every output directory is checked
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (``tracing.py``) with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, pass_rng

# One BLAS/OpenMP thread and a one-worker sweep pool, fixed before numpy
# loads: on a small shared machine more threads mostly measure contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NEMATICLAB_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5


def cli_argv(workload: str, config_dir: Path, ops) -> list[str]:
    if workload == "blowup_dense":
        return ["simulate", str(config_dir / f"{ops[0].name}.ini")]
    argv = ["sweep", str(config_dir / "*.ini")]
    return argv + ["--no-plots"] if workload == "radial_ensemble" else argv


def prepare(workload: str, seed: int, k: int, work: Path):
    """Write the configs of pass k into a fresh directory and clear the
    outputs of the previous pass, so no stale file can pass a check."""
    config_dir, out = work / "configs", work / "out"
    for d in (config_dir, out):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    ops = WORKLOADS[workload](pass_rng(seed, k), out)
    for op in ops:
        (config_dir / f"{op.name}.ini").write_text(op.ini(), encoding="utf-8")
    return ops, cli_argv(workload, config_dir, ops)


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    ops, _ = prepare(workload, seed, 0, work / "setup")
    paths = [str(work / "setup" / "configs" / f"{op.name}.ini") for op in ops]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *paths],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def timed_pass(cli, argv: list[str]) -> tuple[float, float, int | None]:
    """(wall s, process CPU s, exit code) of one ``cli.main`` call; an
    exception counts as no exit code and is printed to stderr."""
    gc.collect()
    sink = io.StringIO()
    rc = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except Exception:  # the pass's checks then fail on the missing output
        traceback.print_exc()
    return time.perf_counter() - t0, time.process_time() - c0, rc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nematiclab" / "cli.py").is_file():
        print(f"no nematiclab sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup = measure_setup(args.workload, args.seed, work)

    sys.path.insert(0, str(SRC))
    import nematiclab.cli as cli

    from checks import check
    from tracing import Tracer, per_layer_metrics, snapshot

    tracer = Tracer() if args.trace else None
    walls, cpus, traced_walls, layer_passes = [], [], [], []
    attempted = failed = 0
    exit_ok = True
    measured = 0.0
    k = 0
    while True:
        ops, cli_args = prepare(args.workload, args.seed, k, work)
        # the traced run alternates plain and traced passes, so the two
        # medians it compares see the same machine state
        traced = tracer is not None and k > 0 and k % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, cpu, rc = timed_pass(cli, cli_args)
        finally:
            if traced:
                tracer.remove()
        exit_ok = exit_ok and rc == 0
        for op in ops:
            problems = check(op)
            attempted += 1
            if problems:
                failed += 1
                print(f"pass {k} {op.name}: FAILED {problems}", file=sys.stderr)
        print(f"pass {k}: {wall:.3f} s wall, {cpu:.3f} s cpu, exit {rc}"
              f"{' (traced)' if traced else ''}", file=sys.stderr)
        if traced:
            traced_walls.append(wall)
            layer_passes.append(snapshot(tracer))
        elif k > 0:
            walls.append(wall)
            cpus.append(cpu)
        if k > 0:
            measured += wall
        k += 1
        if measured >= args.seconds and (tracer is None or k % 2 == 1):
            break

    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    else:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = per_layer_metrics(layer_passes, overhead)
    print(json.dumps({
        "correct": exit_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
