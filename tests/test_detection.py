"""Detection primitives: tail function, derived scalars, rules, risks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sigeq import (
    AgentParams,
    AveragePower,
    GameSpec,
    NoiseModel,
    PeakPower,
    ReceiverCase,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    TauKind,
    bayes_risk,
    check_power,
    conditional_error_probs,
    d_max_of,
    derived_quantities,
    optimal_receiver_rule,
    prior_only_rule,
    q_function,
    receiver_case,
    risk_pair,
    rule_error_probs,
    rules_equal,
    signals_equal,
)
from conftest import (DEMO_RX, DEMO_TX, demo_spec, random_agent, random_scalar_spec,
                      random_spd_matrix)

Q1 = 0.15865525393145707


# ---------------------------------------------------------------------------
# tail function


def test_q_reference_points():
    assert q_function(0.0) == 0.5
    assert q_function(1.0) == Q1
    assert q_function(-1.0) == pytest.approx(1.0 - Q1, abs=1e-15)


def test_q_matches_normal_survival_function():
    xs = np.linspace(-8.0, 8.0, 201)
    ours = np.array([q_function(float(x)) for x in xs])
    ref = norm.sf(xs)
    assert np.allclose(ours, ref, rtol=1e-13, atol=0.0)


@given(st.floats(-8.0, 8.0))
def test_q_symmetry(x):
    assert abs(q_function(x) + q_function(-x) - 1.0) <= 1e-12


# near x = -7 the tail is within one ulp of 1.0, so increments below
# phi(x) * gap ~ 1e-16 are not representable; keep the domain where they are
@given(st.floats(-5.0, 8.0), st.floats(1e-4, 4.0))
@settings(max_examples=200)
def test_q_strictly_decreasing(x, gap):
    assert q_function(x + gap) < q_function(x)


# ---------------------------------------------------------------------------
# parameter containers


def test_agent_params_validation():
    with pytest.raises(SpecError):
        AgentParams(0.0, 1.0, ((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(SpecError):
        AgentParams(0.6, 0.6, ((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(SpecError):
        AgentParams.from_prior0(0.5, ((0.0, -1.0), (1.0, 0.0)))
    with pytest.raises(SpecError):
        AgentParams.from_prior0(0.5, ((0.0, 1.0),))
    with pytest.raises(SpecError):
        AgentParams.from_prior0(0.5, ((0.0, math.nan), (1.0, 0.0)))


def test_agent_margins_use_decision_major_layout():
    agent = AgentParams.from_prior0(0.25, ((0.0, 0.4), (0.9, 0.0)))
    assert agent.c00 == 0.0 and agent.c01 == 0.4
    assert agent.c10 == 0.9 and agent.c11 == 0.0
    assert agent.false_alarm_margin == 0.9
    assert agent.miss_margin == 0.4


def test_noise_model_validation():
    with pytest.raises(SpecError):
        NoiseModel.scalar(0.0)
    with pytest.raises(SpecError):
        NoiseModel(sigma=1.0, covariance=np.eye(2))
    with pytest.raises(SpecError):
        NoiseModel(sigma=None, covariance=None)
    with pytest.raises(SpecError):
        NoiseModel.matrix(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not symmetric
    with pytest.raises(SpecError):
        NoiseModel.matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not positive definite
    with pytest.raises(SpecError):
        NoiseModel.matrix(np.eye(65))
    cov = NoiseModel.matrix(np.eye(3))
    assert cov.dimension == 3 and not cov.is_scalar
    with pytest.raises(ValueError):
        cov.covariance[0, 0] = 5.0
    assert NoiseModel.scalar(2.0).dimension == 1


def test_power_validation():
    with pytest.raises(SpecError):
        PeakPower(0.0, 1.0)
    with pytest.raises(SpecError):
        AveragePower(-1.0)
    with pytest.raises(SpecError):
        GameSpec(DEMO_TX, DEMO_RX, NoiseModel.matrix(np.eye(2)), PeakPower(1.0, 1.0),
                 dimension=3)


def _covariance_with(bad: float) -> NoiseModel:
    cov = np.eye(2)
    cov[0, 1] = cov[1, 0] = bad
    return NoiseModel.matrix(cov)


@pytest.mark.parametrize("field, build", [
    ("costs", lambda bad: AgentParams.from_prior0(0.5, ((0.0, bad), (1.0, 0.0)))),
    ("p_avg", lambda bad: AveragePower(bad)),
    ("p0", lambda bad: PeakPower(bad, 1.0)),
    ("p1", lambda bad: PeakPower(1.0, bad)),
    ("noise.sigma", lambda bad: NoiseModel.scalar(bad)),
    ("noise.covariance", _covariance_with),
    ("rule.eta", lambda bad: ReceiverRule.threshold(1.0, bad)),
    ("rule.a", lambda bad: ReceiverRule.threshold(bad, 0.0)),
    ("rule.a", lambda bad: ReceiverRule.threshold(np.array([1.0, bad]), 0.0)),
])
def test_non_finite_values_are_rejected_naming_the_field(field, build):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(SpecError, match=f"{field}.* must be finite"):
            build(bad)


def test_check_power_budgets():
    tx = DEMO_TX
    check_power(SignalDesign(-1.0, 1.0), PeakPower(1.0, 1.0), tx)
    with pytest.raises(SpecError):
        check_power(SignalDesign(-1.1, 1.0), PeakPower(1.0, 1.0), tx)
    # average budget weights the energies by the transmitter's priors
    check_power(SignalDesign(-2.0, 0.0), AveragePower(1.0), tx)  # 0.25 * 4 = 1
    with pytest.raises(SpecError):
        check_power(SignalDesign(-2.1, 0.0), AveragePower(1.0), tx)


# ---------------------------------------------------------------------------
# derived quantities


def test_threshold_ratio_tags():
    dq = derived_quantities(demo_spec())
    assert dq.tau.kind is TauKind.FINITE
    assert dq.tau.value == 0.7499999999999999
    assert dq.zeta == 1

    def tagged(costs):
        rx = AgentParams.from_prior0(0.5, costs)
        spec = GameSpec(rx, rx, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0))
        return derived_quantities(spec).tau

    assert tagged(((0.0, 1.0), (1.0, 1.0))).kind is TauKind.INFINITE  # miss = 0
    assert tagged(((1.0, 1.0), (1.0, 0.0))).kind is TauKind.NONPOSITIVE  # fa = 0
    assert tagged(((0.0, 0.5), (1.0, 1.0))).kind is TauKind.NONPOSITIVE  # opposite signs
    assert tagged(((1.0, 2.0), (1.0, 2.0))).kind is TauKind.INDIFFERENT
    with pytest.raises(SpecError):
        tagged(((1.0, 1.0), (1.0, 0.0))).finite_value()


def test_transmitter_tail_weights_match_hand_values():
    dq = derived_quantities(demo_spec())
    assert abs(dq.k0 - (-0.057735026918962574)) <= 1e-15
    assert abs(dq.k1 - (-0.12990381056766576)) <= 1e-15
    assert dq.d_max == 20.0


def test_d_max_formulas():
    agent = AgentParams.from_prior0(0.25, ((0.0, 1.0), (1.0, 0.0)))
    peak = GameSpec(agent, agent, NoiseModel.scalar(0.5), PeakPower(4.0, 1.0))
    assert d_max_of(peak) == 6.0
    avg = GameSpec(agent, agent, NoiseModel.scalar(0.1), AveragePower(1.0))
    assert abs(d_max_of(avg) - 23.09401076758503) <= 1e-12
    vec = GameSpec(agent, agent, NoiseModel.matrix(np.diag([0.01, 1.0])),
                   PeakPower(1.0, 1.0), dimension=2)
    assert abs(d_max_of(vec) - 20.0) <= 1e-12
    with pytest.raises(SpecError):
        d_max_of(GameSpec(agent, agent, NoiseModel.matrix(np.eye(2)),
                          AveragePower(1.0), dimension=2))


def test_noise_model_keeps_the_minimum_eigenvalue_of_its_check():
    # d_max reads the eigvalsh minimum that the positive-definiteness check
    # computed; the smallest eigenvalue from eigh may differ in its last bits
    rng = np.random.default_rng(11)
    agent = AgentParams.from_prior0(0.25, ((0.0, 1.0), (1.0, 0.0)))
    for n in (1, 2, 3, 8, 64):
        cov = random_spd_matrix(rng, n)
        lam = float(np.linalg.eigvalsh(cov)[0])
        noise = NoiseModel.matrix(cov)
        assert noise.min_eigenvalue == lam
        spec = GameSpec(agent, agent, noise, PeakPower(2.0, 0.5), dimension=n)
        assert d_max_of(spec) == (math.sqrt(2.0) + math.sqrt(0.5)) / math.sqrt(lam)
    assert NoiseModel.scalar(1.0).min_eigenvalue is None


def test_receiver_case_table():
    def case(fa, miss):
        # c10 - c00 = fa and c01 - c11 = miss with a base level keeping
        # every entry nonnegative
        costs = ((1.0, 1.0 + miss), (1.0 + fa, 1.0))
        return receiver_case(AgentParams.from_prior0(0.5, costs))

    assert case(1.0, 1.0) is ReceiverCase.LRT
    assert case(-1.0, -1.0) is ReceiverCase.LRT
    assert case(0.0, 0.0) is ReceiverCase.INDIFFERENT
    assert case(-1.0, 1.0) is ReceiverCase.ALWAYS_H1
    assert case(0.0, 1.0) is ReceiverCase.ALWAYS_H1
    assert case(-1.0, 0.0) is ReceiverCase.ALWAYS_H1
    assert case(1.0, -1.0) is ReceiverCase.ALWAYS_H0
    assert case(1.0, 0.0) is ReceiverCase.ALWAYS_H0
    assert case(0.0, -1.0) is ReceiverCase.ALWAYS_H0


# ---------------------------------------------------------------------------
# error probabilities and risks


def test_conditional_error_probs_frozen_points():
    tau = derived_quantities(demo_spec()).tau.value
    assert conditional_error_probs(0.47041885791917976, tau, 1) == (
        0.6466661009227408, 0.1985661419816801)
    assert conditional_error_probs(0.4704, tau, 1) == (
        0.6466787172222481, 0.19856193639631456)


def test_conditional_error_probs_symmetric_when_tau_is_one():
    for d in (0.3, 1.0, 2.5, 7.0):
        p10, p01 = conditional_error_probs(d, 1.0, 1)
        assert p10 == p01 == q_function(d / 2.0)


def test_conditional_error_probs_vanish_at_large_distance():
    p10, p01 = conditional_error_probs(100.0, 0.75, 1)
    assert p10 < 1e-100 and p01 < 1e-100


def test_conditional_error_probs_rejects_bad_arguments():
    with pytest.raises(SpecError):
        conditional_error_probs(0.0, 1.0, 1)
    with pytest.raises(SpecError):
        conditional_error_probs(1.0, 0.0, 1)
    with pytest.raises(SpecError):
        conditional_error_probs(1.0, math.inf, 1)
    with pytest.raises(SpecError):
        conditional_error_probs(1.0, 1.0, 2)


def test_bayes_risk_corner_identities():
    agent = AgentParams.from_prior0(0.3, ((0.1, 0.9), (0.8, 0.2)))
    p0, p1 = agent.prior0, agent.prior1
    assert bayes_risk(agent, 0.0, 0.0) == pytest.approx(p0 * 0.1 + p1 * 0.2, abs=1e-15)
    assert bayes_risk(agent, 1.0, 1.0) == pytest.approx(p0 * 0.8 + p1 * 0.9, abs=1e-15)
    assert bayes_risk(agent, 1.0, 0.0) == pytest.approx(p0 * 0.8 + p1 * 0.2, abs=1e-15)
    assert bayes_risk(agent, 0.0, 1.0) == pytest.approx(p0 * 0.1 + p1 * 0.9, abs=1e-15)


# ---------------------------------------------------------------------------
# rules


def test_prior_only_rule_margin():
    rule = prior_only_rule(0.75, 1)
    assert rule.kind is RuleKind.ALWAYS_H1
    assert rule.eta == -0.25
    rule = prior_only_rule(1.5, 1)
    assert rule.kind is RuleKind.ALWAYS_H0
    assert rule.eta == 0.5
    rule = prior_only_rule(1.0, 1)
    assert rule.kind is RuleKind.INDIFFERENT
    assert rule.eta == 0.0
    # zeta flips which side of tau = 1 decides H1
    assert prior_only_rule(0.75, -1).kind is RuleKind.ALWAYS_H0


def test_receiver_rule_validation():
    with pytest.raises(SpecError):
        ReceiverRule.threshold(0.0, 1.0)
    with pytest.raises(SpecError):
        ReceiverRule(RuleKind.ALWAYS_H0, a=1.0)
    rule = ReceiverRule.threshold(np.array([3.0, 4.0]), 10.0)
    norm_rule = rule.normalized()
    assert np.allclose(norm_rule.a, [0.6, 0.8]) and norm_rule.eta == 2.0


def test_optimal_rule_antipodal_symmetric():
    rx = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
    rule = optimal_receiver_rule(SignalDesign(-1.0, 1.0), rx, NoiseModel.scalar(1.0))
    assert rule.kind is RuleKind.THRESHOLD
    assert rule.a == 2.0 and rule.eta == 0.0


def test_optimal_rule_coincident_signals_uses_prior_margin():
    rule = optimal_receiver_rule(SignalDesign(0.3, 0.3), DEMO_RX, NoiseModel.scalar(0.1))
    assert rule.kind is RuleKind.ALWAYS_H1
    assert abs(rule.eta - (-0.25)) <= 1e-15


def test_optimal_rule_vector_whitens_by_covariance():
    rx = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
    rule = optimal_receiver_rule(
        SignalDesign(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
        rx, NoiseModel.matrix(np.diag([1.0, 4.0])))
    assert rule.kind is RuleKind.THRESHOLD
    assert np.array_equal(rule.a, np.array([2.0, 0.0]))
    assert rule.eta == 0.0


def test_rule_error_probs_degenerate_kinds():
    signals = SignalDesign(-1.0, 1.0)
    noise = NoiseModel.scalar(1.0)
    assert rule_error_probs(signals, ReceiverRule.always_h1(), noise) == (1.0, 0.0)
    assert rule_error_probs(signals, ReceiverRule.always_h0(), noise) == (0.0, 1.0)
    # indifferent receivers are scored as deciding H0
    assert rule_error_probs(signals, ReceiverRule.indifferent(), noise) == (0.0, 1.0)


def test_rule_error_probs_match_conditional_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        spec = random_scalar_spec(rng)
        dq = derived_quantities(spec)
        s1 = float(rng.uniform(-1.0, 1.0))
        s0 = s1 - float(rng.uniform(0.1, 2.0))
        signals = SignalDesign(s0, s1)
        rule = optimal_receiver_rule(signals, spec.receiver, spec.noise)
        d = (s1 - s0) / spec.noise.sigma
        want = conditional_error_probs(d, dq.tau.value, dq.zeta)
        got = rule_error_probs(signals, rule, spec.noise)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_optimal_rule_minimizes_posterior_cost_pointwise():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 1000:
        rx = random_agent(rng)
        if receiver_case(rx) is not ReceiverCase.LRT:
            continue
        sigma = float(rng.uniform(0.3, 2.0))
        s0 = float(rng.uniform(-2.0, 2.0))
        s1 = s0 + float(rng.uniform(0.1, 3.0))
        rule = optimal_receiver_rule(SignalDesign(s0, s1), rx, NoiseModel.scalar(sigma))
        y = float(rng.uniform(-4.0, 4.0))
        if abs(rule.a * y - rule.eta) < 1e-9:
            continue
        rule_decides_h1 = rule.a * y > rule.eta
        f0 = math.exp(-0.5 * ((y - s0) / sigma) ** 2)
        f1 = math.exp(-0.5 * ((y - s1) / sigma) ** 2)
        gain = rx.prior1 * f1 * rx.miss_margin - rx.prior0 * f0 * rx.false_alarm_margin
        assert rule_decides_h1 == (gain > 0.0)
        checked += 1


def test_sign_flipped_design_is_risk_equivalent():
    rng = np.random.default_rng(5)
    for _ in range(50):
        spec = random_scalar_spec(rng)
        s0 = float(rng.uniform(-1.0, 1.0))
        s1 = float(rng.uniform(-1.0, 1.0))
        signals = SignalDesign(s0, s1)
        rule = optimal_receiver_rule(signals, spec.receiver, spec.noise)
        if rule.kind is not RuleKind.THRESHOLD:
            continue
        flipped = SignalDesign(-s0, -s1)
        flipped_rule = ReceiverRule.threshold(-rule.a, rule.eta)
        base = risk_pair(spec.transmitter, spec.receiver, signals, rule, spec.noise)
        twin = risk_pair(spec.transmitter, spec.receiver, flipped, flipped_rule,
                         spec.noise)
        assert abs(base[0] - twin[0]) <= 1e-12
        assert abs(base[1] - twin[1]) <= 1e-12


def test_equality_helpers_tolerance():
    assert signals_equal(SignalDesign(1.0, 2.0), SignalDesign(1.0, 2.0))
    assert not signals_equal(SignalDesign(1.0, 2.0), SignalDesign(1.0, 2.0 + 1e-9))
    assert signals_equal(SignalDesign(1.0, 2.0), SignalDesign(1.0, 2.0 + 1e-9), 1e-8)
    a = ReceiverRule.threshold(1.0, 0.5)
    assert rules_equal(a, ReceiverRule.threshold(1.0, 0.5))
    assert not rules_equal(a, ReceiverRule.always_h0())
    assert not signals_equal(SignalDesign(np.zeros(2), np.zeros(2)),
                             SignalDesign(0.0, 0.0))
