"""Jointly optimal design when both agents share priors and costs."""

import numpy as np
import pytest

from sigeq import (
    AgentParams,
    Concept,
    Existence,
    GameSpec,
    MismatchedAgentsError,
    NoiseModel,
    PeakPower,
    RuleKind,
    derived_quantities,
    optimal_receiver_rule,
    require_identical_agents,
    risk_pair,
    rules_equal,
    solve,
)
from conftest import demo_spec, grid_search_transmitter, random_identical_spec

Q1 = 0.15865525393145707


def symmetric_spec(sigma=1.0, p0=1.0, p1=1.0):
    agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
    return GameSpec(agent, agent, NoiseModel.scalar(sigma), PeakPower(p0, p1))


def test_symmetric_example():
    rep = solve(symmetric_spec(), Concept.TEAM)
    assert rep.concept is Concept.TEAM
    assert rep.informative and rep.existence is Existence.EXISTS
    assert rep.d_star == 2.0 and rep.d_max == 2.0
    assert rep.signals.s0 == -1.0 and rep.signals.s1 == 1.0
    assert rep.risk_t == Q1 and rep.risk_r == Q1
    assert rep.rule.kind is RuleKind.THRESHOLD
    assert rep.rule.a == 2.0 and rep.rule.eta == 0.0


def test_unequal_budgets_example():
    rep = solve(symmetric_spec(sigma=0.5, p0=4.0, p1=1.0), Concept.TEAM)
    assert rep.d_star == 6.0
    assert rep.signals.s0 == -2.0 and rep.signals.s1 == 1.0


def test_degenerate_threshold_ratio_is_non_informative():
    # miss margin zero, false-alarm margin positive: always decide H0
    agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 1.0)))
    spec = GameSpec(agent, agent, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0))
    rep = solve(spec, Concept.TEAM)
    assert not rep.informative
    assert rep.existence is Existence.EXISTS
    assert rep.rule.kind is RuleKind.ALWAYS_H0
    assert rep.signals.s0 == 0.0 and rep.signals.s1 == 0.0
    # risk is then the fixed-decision cost
    assert rep.risk_t == pytest.approx(0.5 * 0.0 + 0.5 * 1.0, abs=1e-15)


def test_mismatched_agents_rejected():
    spec = demo_spec()
    with pytest.raises(MismatchedAgentsError):
        solve(spec, Concept.TEAM)
    with pytest.raises(MismatchedAgentsError):
        require_identical_agents(spec)


def test_orientation_follows_receiver_margin_sign():
    # both margins negative: the likelihood test flips, signals swap sides
    agent = AgentParams.from_prior0(0.5, ((1.0, 0.0), (0.0, 1.0)))
    spec = GameSpec(agent, agent, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0))
    assert derived_quantities(spec).zeta == -1
    rep = solve(spec, Concept.TEAM)
    assert rep.informative
    assert rep.signals.s0 == 1.0 and rep.signals.s1 == -1.0
    assert rep.risk_t == pytest.approx(Q1, abs=1e-15)


def test_report_is_self_consistent_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(200):
        spec = random_identical_spec(rng)
        rep = solve(spec, Concept.TEAM)
        assert rep.d_star == rep.d_max
        rule = optimal_receiver_rule(rep.signals, spec.noise, derived_quantities(spec))
        assert rules_equal(rep.rule, rule)
        risks = risk_pair(spec.transmitter, spec.receiver, rep.signals, rep.rule,
                          spec.noise)
        assert abs(risks[0] - rep.risk_t) <= 1e-12
        assert abs(risks[1] - rep.risk_r) <= 1e-12
        assert rep.risk_t == rep.risk_r


def test_full_distance_beats_grid_alternatives():
    # beyond d ~ 13 the tail terms drop below one ulp of the base risk and
    # grid points tie, so keep separations where the grid resolves the argmin
    rng = np.random.default_rng(13)
    done = 0
    while done < 500:
        spec = random_identical_spec(rng)
        if derived_quantities(spec).d_max > 13.0:
            continue
        d_best, risk_best = grid_search_transmitter(spec, grid_size=2001)
        rep = solve(spec, Concept.TEAM)
        assert d_best == rep.d_max
        assert risk_best >= rep.risk_t - 1e-9
        done += 1
