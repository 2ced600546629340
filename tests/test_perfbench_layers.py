"""The benchmark tracer wraps program attributes by name, and skips a name
that no longer resolves, so a renamed function would silently read zero in
the per-layer metrics.  Every name it wraps must resolve, and a Poiseuille
run must reach its step through the wrapped name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# stale in the tracer: the radial step calls LAPACK's dgtsv directly, and
# blowup.py no longer computes a local energy.  Each entry goes when the
# tracer stops naming it.
EXPECTED_MISSING = {
    ("nematiclab.axisym", "solve_banded"),
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
