"""Per-layer spans and counters for the traced run.

The program is not edited: ``Tracer.install`` replaces, from outside, the
module attribute through which each caller looks a layer up (for example
``nematiclab.axisym.step``, which ``axisym.simulate`` calls by its global
name) with a wrapper, and ``remove`` puts the originals back.  A layer whose
attribute no longer exists is skipped and reads zero.

Times are self times: a span's duration minus the durations of the spans
it caused.  The sweep runs configs on a worker thread, so a span that opens
on a thread with no open span of its own takes the innermost open span of
the main thread as its parent.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
import tracemalloc
from collections import defaultdict

# (layer, module, attribute, mode).  "span" times the call; "count" only
# counts it, so its time stays in the calling span; "span+mem" also records
# the traced-allocation peak of the call.  Several attributes may feed one
# layer: energy and local_energy are one layer, and blowup.py holds its own
# reference to local_energy.
LAYERS = (
    ("cli.sweep", "nematiclab.cli", "_sweep", "span"),
    ("config.parse", "nematiclab.cli", "load_config", "span"),
    ("experiments.run", "nematiclab.cli", "run", "span"),
    ("axisym.simulate", "nematiclab.axisym", "simulate", "span"),
    ("axisym.step", "nematiclab.axisym", "step", "span"),
    ("axisym.solve_banded", "nematiclab.axisym", "solve_banded", "span"),
    ("axisym.energy", "nematiclab.axisym", "energy", "span"),
    ("axisym.energy", "nematiclab.axisym", "local_energy", "span"),
    ("axisym.energy", "nematiclab.blowup", "local_energy", "span"),
    ("blowup.detect", "nematiclab.blowup", "detect", "span"),
    ("barriers.check_ordering", "nematiclab.barriers", "check_ordering", "span"),
    ("reporting.write_csv", "nematiclab.experiments", "write_csv", "span"),
    ("svgplot.emit_plot", "nematiclab.experiments", "emit_plot", "span"),
    ("poiseuille.step", "nematiclab.poiseuille", "step_general", "span"),
    ("poiseuille.stability_bound", "nematiclab.poiseuille", "stability_bound", "count"),
    ("coeffs.g_coeff", "nematiclab.poiseuille", "g_coeff", "count"),
    ("poiseuille.energies", "nematiclab.poiseuille", "energies", "span"),
    ("hopf.dirichlet_energy_s3", "nematiclab.hopf", "dirichlet_energy_s3", "span+mem"),
    ("hopf.ball_energy_parts", "nematiclab.hopf", "ball_energy_parts", "span"),
)


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    """Collects, per layer, calls and self seconds while installed, since
    the last ``reset``."""

    def __init__(self):
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.snapshots = 0

    def _stack(self) -> list[_Frame]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn, mode: str):
        tracer = self

        if mode == "count":
            def counted(*args, **kwargs):
                tracer.calls[layer] += 1
                return fn(*args, **kwargs)

            return counted

        def spanned(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None
            )
            frame = _Frame()
            stack.append(frame)
            mem = mode == "span+mem" and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                if mem:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_bytes[layer] = max(tracer.peak_bytes[layer], peak)
                stack.pop()
                if parent is not None:
                    parent.child += dur
                tracer.calls[layer] += 1
                tracer.self_s[layer] += dur - frame.child
            if layer == "axisym.simulate":
                tracer.snapshots += len(result.times)
            return result

        return spanned

    def install(self) -> None:
        for layer, module_name, attr, mode in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, mode))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def per_layer_metrics(passes: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics from the per-pass snapshots taken by ``snapshot``.

    Seconds are medians over traced passes; per-call microseconds pool all
    traced passes; counts are per pass and repeat exactly for a seed."""
    n = len(passes)

    def total(key, layer):
        return sum(p[key].get(layer, 0) for p in passes)

    def per_call_us(layer):
        calls = total("calls", layer)
        return 1e6 * total("self_s", layer) / calls if calls else 0.0

    def median_s(*layers):
        return statistics.median([sum(p["self_s"].get(l, 0.0) for l in layers) for p in passes])

    def per_step(layer, step):
        steps = total("calls", step)
        return total("calls", layer) / steps if steps else 0.0

    m = {
        "axisym.step.us": (per_call_us("axisym.step"), "us/call"),
        "axisym.step.calls": (total("calls", "axisym.step") / n, "count"),
        "axisym.solve_banded.us": (per_call_us("axisym.solve_banded"), "us/call"),
        "axisym.simulate.self_s": (median_s("axisym.simulate"), "s"),
        "axisym.snapshots": (sum(p["snapshots"] for p in passes) / n, "count"),
        "axisym.energy.s": (median_s("axisym.energy"), "s"),
        "blowup.detect.s": (median_s("blowup.detect"), "s"),
        "barriers.check_ordering.s": (median_s("barriers.check_ordering"), "s"),
        "experiments.run.self_s": (median_s("experiments.run"), "s"),
        "reporting.write_csv.s": (median_s("reporting.write_csv"), "s"),
        "svgplot.emit_plot.s": (median_s("svgplot.emit_plot"), "s"),
        "poiseuille.step.us": (per_call_us("poiseuille.step"), "us/call"),
        "poiseuille.step.calls": (total("calls", "poiseuille.step") / n, "count"),
        "poiseuille.stability_bound.per_step": (
            per_step("poiseuille.stability_bound", "poiseuille.step"), "ratio"),
        "coeffs.g_coeff.per_step": (per_step("coeffs.g_coeff", "poiseuille.step"), "ratio"),
        "poiseuille.energies.s": (median_s("poiseuille.energies"), "s"),
        "hopf.dirichlet_energy_s3.s": (median_s("hopf.dirichlet_energy_s3"), "s"),
        "hopf.dirichlet_energy_s3.peak_mb": (
            max(p["peak_bytes"].get("hopf.dirichlet_energy_s3", 0) for p in passes) / 2**20,
            "MB"),
        "hopf.ball_energy_parts.s": (median_s("hopf.ball_energy_parts"), "s"),
        "config.parse.s": (median_s("config.parse"), "s"),
        "cli.sweep.self_s": (median_s("cli.sweep"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def snapshot(tracer: Tracer) -> dict:
    """The tracer's figures for one pass, as plain dicts."""
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "peak_bytes": dict(tracer.peak_bytes),
        "snapshots": tracer.snapshots,
    }
