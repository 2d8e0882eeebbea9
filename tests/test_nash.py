"""Simultaneous-move equilibria, best-response dynamics, robustness scan."""

import math

import numpy as np
import pytest

from sigeq import (
    AgentParams,
    Concept,
    Existence,
    GameSpec,
    MismatchedAgentsError,
    NoiseModel,
    OutcomeKind,
    PeakPower,
    Perturbation,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    best_response_dynamics,
    best_response_transmitter,
    derived_quantities,
    optimal_receiver_rule,
    preset_biased_cost,
    preset_deception,
    preset_subjective_priors,
    receiver_case,
    risk_pair,
    robustness_scan,
    rule_error_probs,
    rules_equal,
    single_cost_perturbations,
    solve,
)
from conftest import (demo_spec, matched_rule, random_scalar_spec, signals_equal,
                      team_point_spec)

HONEST = ((0.0, 1.0), (1.0, 0.0))


def game(tx_costs, rx_costs=HONEST, prior0=0.5, sigma=1.0, p0=1.0, p1=1.0):
    tx = AgentParams.from_prior0(prior0, tx_costs)
    rx = AgentParams.from_prior0(prior0, rx_costs)
    return GameSpec(tx, rx, NoiseModel.scalar(sigma), PeakPower(p0, p1))


# ---------------------------------------------------------------------------
# single-agent best responses


def test_transmitter_best_response_sign_logic():
    tx = AgentParams.from_prior0(0.5, HONEST)
    up = best_response_transmitter(ReceiverRule.threshold(3.0, 0.7), tx,
                                   PeakPower(1.0, 4.0))
    assert up.s0 == -1.0 and up.s1 == 2.0
    down = best_response_transmitter(ReceiverRule.threshold(-0.2, 0.0), tx,
                                     PeakPower(1.0, 4.0))
    assert down.s0 == 1.0 and down.s1 == -2.0
    # deceptive margins invert both pushes
    liar = AgentParams.from_prior0(0.5, ((1.0, 0.0), (0.0, 1.0)))
    resp = best_response_transmitter(ReceiverRule.threshold(1.0, 0.0), liar,
                                     PeakPower(1.0, 1.0))
    assert resp.s0 == 1.0 and resp.s1 == -1.0


def test_transmitter_best_response_degenerate_rule():
    tx = AgentParams.from_prior0(0.5, HONEST)
    resp = best_response_transmitter(ReceiverRule.always_h0(), tx, PeakPower(1.0, 1.0))
    assert resp.s0 == 0.0 and resp.s1 == 0.0


def test_transmitter_best_response_zero_margin_signal_parks_at_zero():
    tx = AgentParams.from_prior0(0.5, ((0.5, 1.0), (0.5, 0.0)))  # fa = 0
    resp = best_response_transmitter(ReceiverRule.threshold(1.0, 0.0), tx,
                                     PeakPower(1.0, 1.0))
    assert resp.s0 == 0.0 and resp.s1 == 1.0


def test_transmitter_best_response_is_grid_optimal():
    # against a fixed rule, no feasible pair on a dense grid does better
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = random_scalar_spec(rng)
        rule = ReceiverRule.threshold(float(rng.uniform(-2.0, 2.0)) or 1.0,
                                      float(rng.uniform(-1.0, 1.0)))
        best = best_response_transmitter(rule, spec.transmitter, spec.power)
        base = risk_pair(spec.transmitter, spec.receiver, best, rule, spec.noise)[0]
        r0 = math.sqrt(spec.power.p0)
        r1 = math.sqrt(spec.power.p1)
        for s0 in np.linspace(-r0, r0, 21):
            for s1 in np.linspace(-r1, r1, 21):
                trial = SignalDesign(float(s0), float(s1))
                risk = risk_pair(spec.transmitter, spec.receiver, trial, rule,
                                 spec.noise)[0]
                assert base <= risk + 1e-12


def test_receiver_best_response_examples():
    rx = AgentParams.from_prior0(0.5, HONEST)
    rule = matched_rule(SignalDesign(-1.0, 1.0), rx, NoiseModel.scalar(1.0))
    assert rule.kind is RuleKind.THRESHOLD and rule.a == 2.0 and rule.eta == 0.0
    rx_e = AgentParams.from_prior0(0.5, ((0.0, 1.0), (math.e, 0.0)))
    rule = matched_rule(SignalDesign(1.0, -1.0), rx_e, NoiseModel.scalar(1.0))
    assert rule.a == -2.0 and rule.eta == 1.0
    # a receiver with no miss margin has no finite tau: it always decides H0
    degenerate = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 1.0)))
    rule = matched_rule(SignalDesign(-1.0, 1.0), degenerate, NoiseModel.scalar(1.0))
    assert rule.kind is RuleKind.ALWAYS_H0


def test_receiver_best_response_rejects_an_underflowing_threshold_ratio():
    # prior0 * (C10 - C00) underflows to 0: the margins share a strict sign,
    # so the receiver plays a threshold rule, but tau is 0 and none exists
    rx = AgentParams(1e-10, 1.0 - 1e-10, ((0.0, 1.0), (1e-320, 0.0)))
    spec = GameSpec(rx, rx, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0))
    assert receiver_case(rx) is RuleKind.THRESHOLD
    tau = derived_quantities(spec).tau
    assert tau.value == 0.0 and not tau.is_finite
    with pytest.raises(SpecError, match="^tau: the matched rule needs a finite"):
        optimal_receiver_rule(SignalDesign(-1.0, 1.0), spec.noise,
                              derived_quantities(spec))
    for concept in Concept:
        with pytest.raises(SpecError, match="^tau: finite threshold games have no degenerate"):
            solve(spec, concept)


def test_babbling_rule_carries_prior_margin():
    rep = solve(game(((1.0, 0.0), (0.0, 1.0))), Concept.NASH)  # both margins negative
    assert rep.rule.kind is RuleKind.INDIFFERENT  # tau = 1 at even priors
    assert rep.rule.a == 0.0 and rep.rule.eta == 0.0
    rep = solve(game(((1.0, 0.0), (0.0, 1.0)), prior0=0.25), Concept.NASH)
    # tau = (0.25 * 1) / (0.75 * 1) = 1/3 < 1: receiver leans toward H1
    assert rep.rule.kind is RuleKind.ALWAYS_H1
    assert abs(rep.rule.eta - (1.0 / 3.0 - 1.0)) <= 1e-15


# ---------------------------------------------------------------------------
# classification table


def test_aligned_margins_are_informative():
    rep = solve(game(HONEST), Concept.NASH)
    assert rep.case_label == "xi(+,+)"
    assert rep.informative and rep.existence is Existence.EXISTS
    assert rep.signals.s0 == -1.0 and rep.signals.s1 == 1.0
    assert rep.rule.a == 2.0 and rep.rule.eta == 0.0
    assert rep.d_star == 2.0


def test_opposed_margins_only_babble():
    rep = solve(game(((1.0, 0.0), (0.0, 1.0))), Concept.NASH)
    assert rep.case_label == "xi(-,-)"
    assert not rep.informative
    assert rep.existence is Existence.ONLY_DEGENERATE
    assert rep.signals.s0 == 0.0 and rep.signals.s1 == 0.0


def test_mixed_margins_depend_on_budget_ordering():
    mixed = ((0.5, 1.0), (0.0, 0.0))  # fa < 0, miss > 0
    rep = solve(game(mixed, p0=1.0, p1=4.0), Concept.NASH)
    assert rep.case_label == "xi(-,+) p0<p1"
    assert rep.informative
    assert rep.signals.s0 == 1.0 and rep.signals.s1 == 2.0
    assert rep.d_star == 1.0
    rep = solve(game(mixed, p0=4.0, p1=1.0), Concept.NASH)
    assert rep.case_label == "xi(-,+) p0>p1"
    assert not rep.informative and rep.existence is Existence.ONLY_DEGENERATE
    rep = solve(game(mixed), Concept.NASH)
    assert rep.case_label == "xi(-,+) p0=p1"
    assert not rep.informative and rep.existence is Existence.EXISTS


def test_zero_margin_babbles_but_exists():
    rep = solve(game(((0.5, 1.0), (0.5, 0.0))), Concept.NASH)
    assert rep.case_label == "xi(0,+)"
    assert not rep.informative and rep.existence is Existence.EXISTS


def test_non_finite_threshold_ratio_reports_degenerate_rule():
    rep = solve(game(HONEST, rx_costs=((0.0, 1.0), (1.0, 1.0))), Concept.NASH)
    assert not rep.informative
    assert rep.existence is Existence.EXISTS
    assert rep.rule.kind is RuleKind.ALWAYS_H0


def test_informative_reports_satisfy_mutual_best_response():
    rng = np.random.default_rng(17)
    found = 0
    while found < 200:
        spec = random_scalar_spec(rng)
        rep = solve(spec, Concept.NASH)
        if not rep.informative:
            continue
        tx_again = best_response_transmitter(rep.rule, spec.transmitter, spec.power)
        rx_again = optimal_receiver_rule(rep.signals, spec.noise, derived_quantities(spec))
        assert signals_equal(tx_again, rep.signals)
        assert rules_equal(rx_again, rep.rule)
        found += 1


def test_babbling_point_is_universal():
    # the coincident pair with the prior-only rule deters both deviations
    rng = np.random.default_rng(19)
    for _ in range(100):
        spec = random_scalar_spec(rng)
        dq = derived_quantities(spec)
        rule = optimal_receiver_rule(SignalDesign(0.0, 0.0), spec.noise, dq)
        assert rule.kind is not RuleKind.THRESHOLD
        # transmitter risk is flat in the signals under a fixed-decision rule
        risks = {risk_pair(spec.transmitter, spec.receiver,
                           SignalDesign(float(s0), float(s1)), rule,
                           spec.noise)[0]
                 for s0 in (-0.5, 0.0, 0.5) for s1 in (-0.5, 0.0, 0.5)}
        assert len(risks) == 1
        # and the rule is the receiver's best response to coincident signals
        p10, p01 = rule_error_probs(SignalDesign(0.0, 0.0), rule, spec.noise)
        for other in (ReceiverRule.always_h0(), ReceiverRule.always_h1()):
            q10, q01 = rule_error_probs(SignalDesign(0.0, 0.0), other, spec.noise)
            lhs = risk_pair(spec.transmitter, spec.receiver, SignalDesign(0.0, 0.0),
                            rule, spec.noise)[1]
            rhs = risk_pair(spec.transmitter, spec.receiver, SignalDesign(0.0, 0.0),
                            other, spec.noise)[1]
            assert lhs <= rhs + 1e-12


def test_sign_flipped_equilibrium_is_risk_equivalent():
    rep = solve(game(HONEST, p0=2.0, p1=0.5), Concept.NASH)
    twin_signals = SignalDesign(-rep.signals.s0, -rep.signals.s1)
    twin_rule = ReceiverRule.threshold(-rep.rule.a, rep.rule.eta)
    spec = game(HONEST, p0=2.0, p1=0.5)
    risks = risk_pair(spec.transmitter, spec.receiver, twin_signals, twin_rule,
                      spec.noise)
    assert abs(risks[0] - rep.risk_t) <= 1e-12
    assert abs(risks[1] - rep.risk_r) <= 1e-12


# ---------------------------------------------------------------------------
# best-response dynamics


def test_dynamics_converges_in_two_rounds_when_aligned():
    trace = best_response_dynamics(game(HONEST))
    assert trace.outcome is OutcomeKind.CONVERGED
    assert trace.step == 2 and len(trace.iterates) == 2
    signals, rule = trace.iterates[-1]
    rep = solve(game(HONEST), Concept.NASH)
    assert signals_equal(signals, rep.signals)
    assert rules_equal(rule, rep.rule)


def test_dynamics_detects_equilibrium_initialization_immediately():
    rep = solve(game(HONEST), Concept.NASH)
    trace = best_response_dynamics(game(HONEST), init_rule=rep.rule)
    assert trace.outcome is OutcomeKind.CONVERGED and trace.step == 1


def test_dynamics_opposite_start_reaches_the_mirror_twin():
    trace = best_response_dynamics(game(HONEST),
                                   init_rule=ReceiverRule.threshold(-1.0, 0.0))
    assert trace.outcome is OutcomeKind.CONVERGED
    signals, _ = trace.iterates[-1]
    assert signals.s0 == 1.0 and signals.s1 == -1.0


def test_dynamics_oscillates_when_opposed():
    trace = best_response_dynamics(demo_spec())
    assert trace.outcome is OutcomeKind.OSCILLATING
    assert trace.step is None and len(trace.iterates) == 3
    first, _ = trace.iterates[0]
    third, _ = trace.iterates[2]
    assert signals_equal(first, third)


def test_dynamics_argument_validation():
    with pytest.raises(SpecError):
        best_response_dynamics(game(HONEST), init_rule=ReceiverRule.always_h0())
    degenerate = game(HONEST, rx_costs=((0.0, 1.0), (1.0, 1.0)))
    with pytest.raises(SpecError):
        best_response_dynamics(degenerate)


def _edge_agent(rng):
    """An agent whose costs may tie (zero margins): drawn from {0, 0.5, 1}
    half the time, else continuously."""
    if rng.random() < 0.5:
        c = [float(x) for x in rng.choice([0.0, 0.5, 1.0], size=4)]
    else:
        c = [float(x) for x in rng.uniform(0.0, 2.0, size=4)]
    return AgentParams.from_prior0(float(rng.uniform(0.05, 0.95)),
                                   ((c[0], c[1]), (c[2], c[3])))


def _edge_spec(rng):
    """A finite-tau game with edge-case agents and, half the time, tied
    budgets."""
    while True:
        p0 = float(rng.uniform(0.25, 4.0))
        p1 = p0 if rng.random() < 0.5 else float(rng.uniform(0.25, 4.0))
        spec = GameSpec(_edge_agent(rng), _edge_agent(rng),
                        NoiseModel.scalar(float(rng.uniform(0.2, 2.0))),
                        PeakPower(p0, p1))
        if derived_quantities(spec).tau.is_finite:
            return spec


def test_dynamics_never_exhausts_on_random_games():
    # the three-round argument of best_response_dynamics: random games
    # started at eta = 0, then games with zero cost margins and tied budgets
    # started at a random eta
    rng = np.random.default_rng(23)
    specs = ([random_scalar_spec(rng) for _ in range(200)]
             + [_edge_spec(rng) for _ in range(200)])
    assert any(s.transmitter.false_alarm_margin == 0.0
               or s.transmitter.miss_margin == 0.0 for s in specs)
    outcomes = set()
    for k, spec in enumerate(specs):
        for a0 in (1.0, -1.0):
            eta0 = 0.0 if k < 200 else float(rng.normal())
            trace = best_response_dynamics(
                spec, init_rule=ReceiverRule.threshold(a0, eta0))
            outcomes.add(trace.outcome)
            assert len(trace.iterates) <= 3
            if trace.outcome is OutcomeKind.OSCILLATING:
                first, second, third = (s for s, _ in trace.iterates)
                assert signals_equal(third, first)
                assert signals_equal(second, SignalDesign(-first.s0, -first.s1))
    assert outcomes == {OutcomeKind.CONVERGED, OutcomeKind.OSCILLATING}


def test_dynamics_outcome_matches_classification():
    rng = np.random.default_rng(27)
    for _ in range(300):
        spec = random_scalar_spec(rng)
        rep = solve(spec, Concept.NASH)
        for a0 in (1.0, -1.0):
            trace = best_response_dynamics(
                spec, init_rule=ReceiverRule.threshold(a0, 0.0))
            if trace.outcome is OutcomeKind.CONVERGED:
                signals, _ = trace.iterates[-1]
                assert rep.informative == (not signals.coincident)
            else:
                assert not rep.informative


# ---------------------------------------------------------------------------
# robustness scan


def within_margins(pert: Perturbation, receiver: AgentParams) -> bool:
    """Cost offsets too small to flip either transmitter margin's sign away
    from the receiver's."""
    return (
        abs(pert.eps_c10 - pert.eps_c00) < abs(receiver.false_alarm_margin)
        and abs(pert.eps_c01 - pert.eps_c11) < abs(receiver.miss_margin)
    )


def nash_unmoved(scan, receiver: AgentParams) -> bool:
    """The Nash pair depends on the transmitter only through its margin
    signs, so every solved entry inside the margins repeats the base's
    (signals, rule, informative) triple."""
    return all(
        e.report.informative == scan.base.informative
        and signals_equal(e.report.signals, scan.base.signals)
        and rules_equal(e.report.rule, scan.base.rule)
        for e in scan.entries
        if e.report is not None and within_margins(e.perturbation, receiver)
    )


def test_nash_scan_requires_team_base_and_finite_tau():
    with pytest.raises(MismatchedAgentsError):
        robustness_scan(demo_spec(), Concept.NASH, single_cost_perturbations(1e-3))
    agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 1.0)))
    spec = GameSpec(agent, agent, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0))
    with pytest.raises(SpecError):
        robustness_scan(spec, Concept.NASH, single_cost_perturbations(1e-3))


def test_nash_scan_zero_perturbation_matches_base():
    spec = team_point_spec()
    scan = robustness_scan(spec, Concept.NASH, [Perturbation()])
    assert nash_unmoved(scan, spec.receiver)
    entry = scan.entries[0]
    assert entry.report.informative == scan.base.informative
    assert signals_equal(entry.report.signals, scan.base.signals)
    assert rules_equal(entry.report.rule, scan.base.rule)


def test_nash_scan_is_continuous_inside_margin_bounds():
    spec = team_point_spec()
    scan = robustness_scan(spec, Concept.NASH, single_cost_perturbations(1e-3))
    assert nash_unmoved(scan, spec.receiver)
    reports = [e.report for e in scan.entries if e.report is not None]
    assert reports
    for rep in reports:
        assert rep.informative == scan.base.informative
        assert signals_equal(rep.signals, scan.base.signals)
        assert rules_equal(rep.rule, scan.base.rule)


def test_nash_scan_ignores_prior_perturbations_entirely():
    # the equilibrium depends on the transmitter only through margin signs,
    # so even a large prior shift moves nothing
    spec = team_point_spec()
    scan = robustness_scan(spec, Concept.NASH,
                           [Perturbation(eps_prior0=0.1)])
    assert nash_unmoved(scan, spec.receiver)
    rep = scan.entries[0].report
    assert signals_equal(rep.signals, scan.base.signals)
    assert rules_equal(rep.rule, scan.base.rule)


def test_nash_scan_rejects_non_renormalizing_offsets_per_entry():
    # a second prior offset can no longer be written, and an offset that
    # leaves the priors invalid fails in its own entry while the next solves
    with pytest.raises(TypeError):
        Perturbation(eps_prior0=0.1, eps_prior1=-0.1)
    scan = robustness_scan(team_point_spec(), Concept.NASH,
                           [Perturbation(eps_prior0=2.0), Perturbation(eps_prior0=0.1)])
    bad, good = scan.entries
    assert bad.report is None and "prior" in bad.error
    assert good.error is None and good.report is not None


# ---------------------------------------------------------------------------
# presets under simultaneous play


def test_biased_cost_alignment_threshold_nash():
    for alpha in (0.6, 0.75, 0.9):
        assert solve(preset_biased_cost(alpha), Concept.NASH).informative
    for alpha in (0.1, 0.25, 0.4):
        rep = solve(preset_biased_cost(alpha), Concept.NASH)
        assert not rep.informative
        assert rep.existence is Existence.ONLY_DEGENERATE


def test_subjective_priors_always_informative_nash():
    for p_t in (0.2, 0.4, 0.6, 0.8):
        for p_r in (0.3, 0.45, 0.7):
            rep = solve(preset_subjective_priors(p_t, p_r), Concept.NASH)
            assert rep.informative and rep.case_label == "xi(+,+)"


def test_deception_preset_nash():
    rep = solve(preset_deception(), Concept.NASH)
    assert rep.case_label == "xi(-,-)"
    assert rep.existence is Existence.ONLY_DEGENERATE
