"""The benchmark's tracer still installs over the package as it stands.

``perfbench/tracing.py`` imports every ``sigeq`` module by name and looks up
the Monte Carlo internals it wraps by name, so a renamed or deleted module or
internal breaks ``--trace 1``.  The tracer is loaded from its file, as the
golden tests load their scripts, and one game per channel is solved under it.
The solve pipeline calls its formulas by their public names, so their spans
show under the tracer, once per solve that reaches them.
"""

import importlib.util
from pathlib import Path

import pytest

import sigeq
from sigeq import Concept, preset_biased_cost
from conftest import demo_spec, fragile_team_spec, fresh_python, team_point_spec

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


def test_tracer_wraps_each_spec_constructor_and_restores_it():
    # the tracer swaps the class attribute, which slotted records allow
    from sigeq import detection
    originals = {name: getattr(detection, name).__init__ for name in tracing.SPEC_TYPES}
    tracer = tracing.Tracer()
    with tracer.installed():
        for name, init in originals.items():
            assert getattr(detection, name).__init__ is not init
        tracer.active = True
        demo_spec()
        tracer.active = False
    assert {name: getattr(detection, name).__init__ for name in originals} == originals
    # the demo agents are built once, when conftest loads
    assert {name: tracer.calls[f"detection.{name}"] for name in originals} == {
        "AgentParams": 0, "NoiseModel": 1, "PeakPower": 1, "AveragePower": 0, "GameSpec": 1}


# (game, concept, spans expected once): the leader's chooser on
# leader-follower play; the error tails under every informative report but
# average-power Nash, which scores its pair by the rule; the receiver's best
# response wherever the pair is placed on a scalar channel (a vector pair
# lifts its rule)
FORMULA_SPANS = {
    "scalar-stackelberg": (demo_spec, Concept.STACKELBERG,
                           {"stackelberg.classify_transmitter_preference",
                            "equilibrium.informative_risks",
                            "detection.conditional_error_probs",
                            "detection.optimal_receiver_rule"}),
    "scalar-team": (team_point_spec, Concept.TEAM,
                    {"equilibrium.informative_risks", "detection.conditional_error_probs",
                     "detection.optimal_receiver_rule"}),
    "scalar-nash": (lambda: preset_biased_cost(0.9), Concept.NASH,
                    {"equilibrium.informative_risks", "detection.conditional_error_probs",
                     "detection.optimal_receiver_rule"}),
    "vector-team": (lambda: fragile_team_spec("vector"), Concept.TEAM,
                    {"equilibrium.informative_risks", "detection.conditional_error_probs"}),
    "avg-stackelberg": (lambda: fragile_team_spec("avg"), Concept.STACKELBERG,
                        {"stackelberg.classify_transmitter_preference",
                         "equilibrium.informative_risks",
                         "detection.conditional_error_probs",
                         "detection.optimal_receiver_rule"}),
    "avg-nash": (lambda: fragile_team_spec("avg"), Concept.NASH,
                 {"detection.optimal_receiver_rule", "avgpower.nash_avg_best_response"}),
}
FORMULAS = set().union(*(spans for _, _, spans in FORMULA_SPANS.values()))


@pytest.mark.parametrize("case", list(FORMULA_SPANS))
def test_tracer_sees_the_formulas_the_solve_calls(case):
    build, concept, spans = FORMULA_SPANS[case]
    spec = build()
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.active = True
        report = sigeq.solve(spec, concept)
        tracer.active = False
    assert report.informative
    assert {name: tracer.calls[name] for name in FORMULAS} == {
        name: int(name in spans) for name in FORMULAS}


# In a fresh interpreter the tracer is installed before scipy is loaded, and
# the Monte Carlo draw loads it under the tracer: every call of the inverse
# CDF goes through the tracer's wrapper, which is taken off on exit.
FRESH_MC = """
import importlib.util, sys

import numpy as np

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

from sigeq import AgentParams, NoiseModel, ReceiverRule, SignalDesign, mc_estimate, oracle

agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
original = oracle.ndtri
tracer = tracing.Tracer()
with tracer.installed():
    assert "scipy" not in sys.modules
    tracer.active = True
    mc_estimate(SignalDesign(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
                ReceiverRule.threshold(np.array([1.0, 0.0]), 0.0),
                NoiseModel.matrix(np.eye(2)), (agent, agent), 20_000, 0)
    tracer.active = False
assert "scipy.special" in sys.modules
assert oracle.ndtri is original
print(tracer.calls["oracle._chunk_normals"], tracer.calls["oracle.ndtri"])
"""


def test_tracer_sees_the_inverse_cdf_the_first_draw_loads():
    out = fresh_python(FRESH_MC, str(ROOT / "perfbench" / "tracing.py"))
    chunk_normals, ndtri = map(int, out.split())
    # one chunk per hypothesis, each through the wrapped inverse CDF
    assert chunk_normals == ndtri == 2
