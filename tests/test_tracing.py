"""The benchmark's tracer still installs over the package as it stands.

``perfbench/tracing.py`` imports every ``sigeq`` module by name and looks up
the Monte Carlo internals it wraps by name, so a renamed or deleted module or
internal breaks ``--trace 1``.  The tracer is loaded from its file, as the
golden tests load their scripts, and one game per channel is solved under it.
"""

import importlib.util
from pathlib import Path

import sigeq
from sigeq import Concept
from conftest import fragile_team_spec

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_tracer_counts_one_solve_per_channel():
    original = sigeq.solve
    tracer = tracing.Tracer()
    with tracer.installed():
        assert sigeq.solve is not original
        tracer.active = True
        for channel in ("scalar", "vector", "avg"):
            sigeq.solve(fragile_team_spec(channel), Concept.NASH)
        tracer.active = False
    assert sigeq.solve is original
    assert tracer.calls["init.solve"] == 3
    assert tracer.calls["detection.derived_quantities"] == 3
