"""The benchmark tracer wraps program attributes by name, and skips a name
that no longer resolves, so a renamed function would silently read zero in
the per-layer metrics.  Every name it wraps must resolve, and a Poiseuille
run must reach its step through the wrapped name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# stale in the tracer: the radial step calls LAPACK's dptsv directly,
# blowup.py no longer computes a local energy, and axisym.energy, which the
# tracer still wraps, now forms the local energy in its one walk of a trace.
# Each entry goes when the tracer stops naming it.
EXPECTED_MISSING = {
    ("nematiclab.axisym", "solve_banded"),
    ("nematiclab.axisym", "local_energy"),
    ("nematiclab.blowup", "local_energy"),
}


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_every_attribute_the_tracer_wraps_resolves():
    names = {(module, attr) for _, module, attr, _ in _layers()}
    missing = {n for n in names if not hasattr(importlib.import_module(n[0]), n[1])}
    assert missing == EXPECTED_MISSING


def test_simulate_calls_the_poiseuille_step_by_its_global_name(monkeypatch):
    # the tracer's poiseuille.step layer wraps poiseuille.step_general; if
    # simulate reached the step another way, poiseuille.step.us and .calls
    # would read 0
    from nematiclab import axisym, poiseuille

    calls = []
    step = poiseuille.step_general

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(poiseuille, "step_general", counted)
    state0, c, dt, t_end, bc, stride = poiseuille.counterexample_setup(5.0, 64, 0.05)
    trace = poiseuille.simulate(state0, c, dt, t_end, bc, stride)
    assert len(calls) == axisym.step_count(0.0, t_end, dt) > 1
    assert trace.times[-1] == t_end


TINY_RADIAL = """[experiment]
kind = {kind}
out_dir = out
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
t_end = 0.1

[initial]
preset = scaled_linear
amplitude = 3.3
"""


def test_streamed_radial_runs_call_the_traced_layers_by_their_global_names(
    tmp_path, monkeypatch
):
    # the tracer wraps axisym.simulate, axisym.energy, blowup.detect and
    # barriers.check_ordering; a run whose diagnostics took its blocks
    # another way would read 0 in those layers
    from nematiclab import axisym, barriers, blowup, experiments
    from nematiclab.config import parse_config

    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.setdefault(name, []).append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((axisym, "simulate"), (axisym, "energy"),
                         (blowup, "detect"), (barriers, "check_ordering")):
        count(module, name)
    for kind in ("axisym_blowup", "axisym_global"):
        calls.clear()
        config = parse_config(TINY_RADIAL.format(kind=kind))
        experiments.run(config, out_dir=tmp_path / kind, plots=False)
        (simulate,) = calls["simulate"]
        assert simulate["sink"] is not None  # streamed
        assert len(calls["energy"]) >= 1
        if kind == "axisym_blowup":
            assert len(calls["detect"]) == 1
        else:
            assert len(calls["check_ordering"]) >= 1
