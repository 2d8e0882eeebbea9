"""Detection primitives: tail function, derived scalars, rules, risks."""

import dataclasses
import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sigeq import (
    AgentParams,
    AveragePower,
    Concept,
    GameSpec,
    NoiseModel,
    PeakPower,
    Perturbation,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    bayes_risk,
    check_power,
    conditional_error_probs,
    d_max_of,
    derived_quantities,
    informative_risks,
    mc_estimate,
    optimal_receiver_rule,
    prior_only_rule,
    q_function,
    receiver_case,
    risk_pair,
    rule_error_probs,
    rules_equal,
    solve,
)
from sigeq.cli import spec_from_config
from conftest import (DEMO_RX, DEMO_TX, cell_spec, demo_spec, extreme_games, matched_rule,
                      random_agent, random_scalar_spec, random_spd_matrix, rules_close,
                      signals_equal, unit_rule)

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


def test_agent_stores_costs_and_margins_outside_repr_and_equality():
    agent = AgentParams.from_prior0(0.25, ((0.5, 0.4), (0.9, 0.125)))
    # perfbench and the golden scripts key specs by this string
    assert repr(agent) == ("AgentParams(prior0=0.25, prior1=0.75, "
                           "costs=((0.5, 0.4), (0.9, 0.125)))")
    assert agent.false_alarm_margin == 0.9 - 0.5 == agent.c10 - agent.c00
    assert agent.miss_margin == 0.4 - 0.125 == agent.c01 - agent.c11
    stored = {f.name for f in dataclasses.fields(AgentParams) if not f.init}
    assert stored == {"c00", "c01", "c10", "c11", "false_alarm_margin", "miss_margin"}
    twin = AgentParams(0.25, 0.75, ((0.5, 0.4), (0.9, 0.125)))
    for name in stored:
        object.__setattr__(twin, name, -1.0)
    assert twin == agent and hash(twin) == hash(agent)
    with pytest.raises(dataclasses.FrozenInstanceError):
        agent.miss_margin = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        agent.c00 = 1.0
    moved = dataclasses.replace(agent, costs=((0.0, 2.0), (1.0, 0.5)))
    assert (moved.c00, moved.c01, moved.c10, moved.c11) == (0.0, 2.0, 1.0, 0.5)
    assert (moved.false_alarm_margin, moved.miss_margin) == (1.0, 1.5)
    moved = Perturbation(eps_c00=0.25, eps_c11=-0.125).applied_to(agent)
    assert (moved.c00, moved.c11) == (0.75, 0.0)
    assert moved.false_alarm_margin == 0.9 - 0.75
    assert moved.miss_margin == 0.4


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


@pytest.mark.parametrize("dimension", [1, 2])
def test_game_spec_rejects_an_average_budget_on_a_vector_channel(dimension):
    with pytest.raises(SpecError) as info:
        GameSpec(DEMO_TX, DEMO_RX, NoiseModel.matrix(np.eye(dimension)),
                 AveragePower(1.0), dimension=dimension)
    assert str(info.value) == (
        "power: the average-power budget is defined for scalar channels only")


def _covariance_with(bad) -> NoiseModel:
    return NoiseModel.matrix([[1.0, bad], [bad, 1.0]])


@pytest.mark.parametrize("field, build", [
    ("costs", lambda bad: AgentParams.from_prior0(0.5, ((0.0, bad), (1.0, 0.0)))),
    ("p_avg", lambda bad: AveragePower(bad)),
    ("p0", lambda bad: PeakPower(bad, 1.0)),
    ("p1", lambda bad: PeakPower(1.0, bad)),
    ("noise.sigma", lambda bad: NoiseModel.scalar(bad)),
    ("noise.covariance", _covariance_with),
    ("rule.eta", lambda bad: ReceiverRule.threshold(1.0, bad)),
    ("rule.a", lambda bad: ReceiverRule.threshold(bad, 0.0)),
    ("rule.a", lambda bad: ReceiverRule.threshold([1.0, bad], 0.0)),
])
def test_non_finite_values_are_rejected_naming_the_field(field, build):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(SpecError, match=f"{field}.* must be finite"):
            build(bad)
    # what does not convert to a float is refused by its field's name, once;
    # None inside a list converts to nan, which is not finite, and a sigma of
    # None is no sigma at all
    for bad in ("x", None, [1.0, [2.0]]):
        with pytest.raises(SpecError) as info:
            build(bad)
        message = str(info.value)
        if bad is None and field == "noise.sigma":
            assert message == "noise: provide exactly one of sigma or covariance"
            continue
        # the name before the first colon is the field, or ends with it
        named = message.split(": ")[0]
        assert named.endswith(field) and message.count(field) == 1, message


@pytest.mark.parametrize("build, message", [
    (lambda: AgentParams(0.5, 0.5, 5.0),
     "costs: expected a 2x2 matrix indexed [decision][truth]"),
    (lambda: AgentParams(0.5, 0.5, [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]),
     "costs: expected a 2x2 matrix indexed [decision][truth]"),
    (lambda: AgentParams("x", 0.5, ((0.0, 1.0), (1.0, 0.0))), "prior0: must be a real number"),
    (lambda: AgentParams(0.5, None, ((0.0, 1.0), (1.0, 0.0))), "prior1: must be a real number"),
    (lambda: AgentParams.from_prior0([0.5], ((0.0, 1.0), (1.0, 0.0))),
     "prior0: must be a real number"),
    (lambda: NoiseModel.matrix(5.0), "noise.covariance: must be a square matrix"),
    (lambda: GameSpec(DEMO_TX, DEMO_RX, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0), "x"),
     "dimension: must be a real number"),
    (lambda: GameSpec(DEMO_TX, DEMO_RX, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0), 1.5),
     "dimension: must be a positive integer"),
    (lambda: GameSpec(DEMO_TX, DEMO_RX, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0), 0),
     "dimension: must be a positive integer"),
    (lambda: PeakPower(1.0, 0.0), "power.p1: must be strictly positive"),
    (lambda: AveragePower(-1.0), "power.p_avg: must be strictly positive"),
    (lambda: SignalDesign(0.0, None),
     "signals.s1: must be a real number or a regular array of them"),
    (lambda: SignalDesign([0.0, [1.0]], [1.0, 0.0]),
     "signals.s0: must be a real number or a regular array of them"),
])
def test_spec_types_name_their_bad_field(build, message):
    with pytest.raises(SpecError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("parts, message", [
    ({"transmitter": None}, "transmitter: must be an AgentParams"),
    ({"receiver": PeakPower(1.0, 1.0)}, "receiver: must be an AgentParams"),
    ({"noise": 1.0}, "noise: must be a NoiseModel"),
    ({"power": None}, "power: must be a PeakPower or an AveragePower"),
    ({"power": 1.0}, "power: must be a PeakPower or an AveragePower"),
], ids=["transmitter-none", "receiver-budget", "noise-float", "power-none", "power-float"])
def test_game_spec_checks_the_type_of_each_part(parts, message):
    # a None agent or budget used to pass and break the solve with an
    # AttributeError; a float noise broke the dimension check
    kwargs = {"transmitter": DEMO_TX, "receiver": DEMO_RX,
              "noise": NoiseModel.scalar(1.0), "power": PeakPower(1.0, 1.0)} | parts
    with pytest.raises(SpecError) as info:
        GameSpec(**kwargs)
    assert str(info.value) == message


def test_spec_types_convert_their_inputs():
    agent = AgentParams(np.float64(0.25), 0.75, [[0, np.int64(1)], (2, 0)])
    assert agent == AgentParams(0.25, 0.75, ((0.0, 1.0), (2.0, 0.0)))
    assert type(agent.prior0) is float and type(agent.costs[0][1]) is float
    spec = GameSpec(agent, agent, NoiseModel.matrix([[2.0]]), PeakPower(1, 1), np.int64(1))
    assert type(spec.dimension) is int and spec.dimension == 1
    assert not spec.noise.covariance.flags.writeable
    pair = SignalDesign(np.float64(-1.0), [1, 2])
    assert type(pair.s0) is float and pair.s1.dtype == float
    assert not pair.s1.flags.writeable


_SCALAR = NoiseModel.scalar(1.0)
_PLANE = NoiseModel.matrix(np.eye(2))
_FITS = [
    (_SCALAR, SignalDesign([-1.0, 0.0], [1.0, 0.0]), ReceiverRule.threshold(1.0, 0.0),
     "signals: a scalar channel takes scalar signals"),
    (_SCALAR, SignalDesign(-1.0, 1.0), ReceiverRule.threshold([1.0, 0.0], 0.0),
     "rule.a: a scalar channel takes a scalar direction"),
    (_PLANE, SignalDesign(-1.0, 1.0), ReceiverRule.threshold([1.0, 0.0], 0.0),
     "signals: the channel takes vectors of length 2"),
    (_PLANE, SignalDesign([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
     ReceiverRule.threshold([1.0, 0.0], 0.0), "signals: the channel takes vectors of length 2"),
    (_PLANE, SignalDesign([-1.0, 0.0], [1.0, 0.0]), ReceiverRule.threshold([1.0, 0.0, 0.0], 0.0),
     "rule.a: the channel takes a direction of length 2"),
    (_PLANE, SignalDesign([-1.0, 0.0], [1.0, 0.0]), ReceiverRule.threshold(1.0, 0.0),
     "rule.a: the channel takes a direction of length 2"),
    (_PLANE, SignalDesign(0.0, 0.0), ReceiverRule.always_h1(),
     "signals: the channel takes vectors of length 2"),
]


@pytest.mark.parametrize("evaluate", ["risk_pair", "rule_error_probs", "mc_estimate"])
@pytest.mark.parametrize("noise, signals, rule, message", _FITS)
def test_signals_and_rules_that_do_not_fit_the_channel_are_rejected(
        evaluate, noise, signals, rule, message):
    calls = {
        "risk_pair": lambda: risk_pair(DEMO_TX, DEMO_RX, signals, rule, noise),
        "rule_error_probs": lambda: rule_error_probs(signals, rule, noise),
        "mc_estimate": lambda: mc_estimate(signals, rule, noise, (DEMO_TX, DEMO_RX),
                                           10_000, 0),
    }
    with pytest.raises(SpecError) as info:
        calls[evaluate]()
    assert str(info.value) == message


def test_check_power_budgets():
    tx = DEMO_TX
    check_power(SignalDesign(-1.0, 1.0), PeakPower(1.0, 1.0), tx)
    with pytest.raises(SpecError):
        check_power(SignalDesign(-1.1, 1.0), PeakPower(1.0, 1.0), tx)
    # average budget weights the energies by the transmitter's priors
    check_power(SignalDesign(-2.0, 0.0), AveragePower(1.0), tx)  # 0.25 * 4 = 1
    with pytest.raises(SpecError):
        check_power(SignalDesign(-2.1, 0.0), AveragePower(1.0), tx)


def test_check_power_tolerance_scales_with_the_budget():
    # 1e-12 relative to a budget above 1, 1e-12 absolute below it
    tx = DEMO_TX  # prior0 0.25
    for budget in (1e-6, 1.0, 4201.9, 1e30):
        slack = 1e-12 * max(1.0, budget)
        for over, ok in ((0.5 * slack, True), (4.0 * slack, False)):
            peak = math.sqrt(budget + over)
            for power, signals in ((PeakPower(budget, budget), SignalDesign(-peak, peak)),
                                   (AveragePower(budget), SignalDesign(-2.0 * peak, 0.0))):
                energy = (signals.s0 ** 2 if isinstance(power, PeakPower)
                          else 0.25 * signals.s0 ** 2)
                if ok:
                    assert energy <= budget + slack
                    check_power(signals, power, tx)
                else:
                    assert energy > budget + slack
                    with pytest.raises(SpecError, match="budget exceeded"):
                        check_power(signals, power, tx)


# ---------------------------------------------------------------------------
# derived quantities


def test_threshold_ratio_values():
    dq = derived_quantities(demo_spec())
    assert dq.tau.is_finite
    assert dq.tau.value == 0.7499999999999999
    assert dq.zeta == 1

    def tau_of(costs):
        rx = AgentParams.from_prior0(0.5, costs)
        spec = GameSpec(rx, rx, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0))
        return derived_quantities(spec).tau

    # a vanishing denominator leaves no value: miss = 0, alone or with fa = 0
    for costs in (((0.0, 1.0), (1.0, 1.0)), ((1.0, 2.0), (1.0, 2.0))):
        tau = tau_of(costs)
        assert tau.value is None and not tau.is_finite
    # a ratio <= 0 keeps its value but is no threshold
    assert tau_of(((1.0, 1.0), (1.0, 0.0))).value == 0.0  # fa = 0
    assert tau_of(((0.0, 0.5), (1.0, 1.0))).value == -2.0  # opposite signs
    assert not tau_of(((0.0, 0.5), (1.0, 1.0))).is_finite


def test_derived_record_carries_what_the_pipeline_reads():
    dq = derived_quantities(demo_spec())
    assert dq.log_tau == math.log(dq.tau.value)
    assert dq.case is RuleKind.THRESHOLD
    # demo transmitter: fa = -0.2, miss = -0.2, zeta = +1
    assert dq.xi_signs == (-1, -1)
    rx = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 1.0)))  # miss = 0
    tx = AgentParams.from_prior0(0.5, ((0.0, 1.0), (2.0, 0.0)))
    dq = derived_quantities(GameSpec(tx, rx, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0)))
    assert dq.tau.value is None and math.isnan(dq.log_tau)
    assert dq.case is RuleKind.ALWAYS_H0 and dq.xi_signs == (0, 0)


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
    # the positive-definiteness check runs eigh once; the model keeps its
    # first pair, sign-fixed, and d_max reads that same eigenvalue
    rng = np.random.default_rng(11)
    agent = AgentParams.from_prior0(0.25, ((0.0, 1.0), (1.0, 0.0)))
    for n in (1, 2, 3, 8, 64):
        cov = random_spd_matrix(rng, n)
        values, vectors = np.linalg.eigh(cov)
        column = vectors[:, 0]
        lead = column[np.flatnonzero(np.abs(column) > 1e-12)[0]]
        noise = NoiseModel.matrix(cov)
        assert noise.min_eigenvalue == float(values[0])
        assert np.array_equal(noise.min_eigenvector,
                              -column if lead < 0.0 else column)
        with pytest.raises(ValueError):
            noise.min_eigenvector[0] = 9.0
        spec = GameSpec(agent, agent, noise, PeakPower(2.0, 0.5), dimension=n)
        lam = noise.min_eigenvalue
        assert d_max_of(spec) == (math.sqrt(2.0) + math.sqrt(0.5)) / math.sqrt(lam)
    scalar = NoiseModel.scalar(1.0)
    assert scalar.min_eigenvalue is None and scalar.min_eigenvector is None


def test_receiver_case_table():
    # the case is the kind of the rule the receiver plays against a
    # separated pair
    pair, noise = SignalDesign(-1.0, 1.0), NoiseModel.scalar(1.0)

    def case(fa, miss):
        # c10 - c00 = fa and c01 - c11 = miss with a base level keeping
        # every entry nonnegative
        costs = ((1.0, 1.0 + miss), (1.0 + fa, 1.0))
        rx = AgentParams.from_prior0(0.5, costs)
        kind = receiver_case(rx)
        assert matched_rule(pair, rx, noise).kind is kind
        return kind

    assert case(1.0, 1.0) is RuleKind.THRESHOLD
    assert case(-1.0, -1.0) is RuleKind.THRESHOLD
    assert case(0.0, 0.0) is RuleKind.INDIFFERENT
    assert case(-1.0, 1.0) is RuleKind.ALWAYS_H1
    assert case(0.0, 1.0) is RuleKind.ALWAYS_H1
    assert case(-1.0, 0.0) is RuleKind.ALWAYS_H1
    assert case(1.0, -1.0) is RuleKind.ALWAYS_H0
    assert case(1.0, 0.0) is RuleKind.ALWAYS_H0
    assert case(0.0, -1.0) is RuleKind.ALWAYS_H0


# ---------------------------------------------------------------------------
# error probabilities and risks


def test_conditional_error_probs_frozen_points():
    log_tau = derived_quantities(demo_spec()).log_tau
    assert conditional_error_probs(0.47041885791917976, log_tau, 1) == (
        0.6466661009227408, 0.1985661419816801)
    assert conditional_error_probs(0.4704, log_tau, 1) == (
        0.6466787172222481, 0.19856193639631456)


def test_conditional_error_probs_symmetric_when_tau_is_one():
    for d in (0.3, 1.0, 2.5, 7.0):
        p10, p01 = conditional_error_probs(d, 0.0, 1)
        assert p10 == p01 == q_function(d / 2.0)


def test_conditional_error_probs_vanish_at_large_distance():
    p10, p01 = conditional_error_probs(100.0, math.log(0.75), 1)
    assert p10 < 1e-100 and p01 < 1e-100


def test_conditional_error_probs_rejects_bad_arguments():
    with pytest.raises(SpecError, match="^d: "):
        conditional_error_probs(0.0, 0.0, 1)
    # ln tau is NaN for a tau <= 0 and infinite for a tau of 0 or inf
    for log_tau in (math.nan, -math.inf, math.inf):
        with pytest.raises(SpecError, match="^tau: must be finite and strictly positive$"):
            conditional_error_probs(1.0, log_tau, 1)
    with pytest.raises(SpecError, match="^zeta: "):
        conditional_error_probs(1.0, 0.0, 2)


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
    rule = ReceiverRule.threshold([3.0, 4.0], 10.0)
    assert np.array_equal(rule.a, [3.0, 4.0]) and rule.eta == 10.0
    assert not rule.a.flags.writeable
    # the constructor converts a list itself, as threshold does
    built = ReceiverRule(RuleKind.THRESHOLD, [1.0, 2.0], 0.0)
    assert rules_equal(built, ReceiverRule.threshold([1.0, 2.0], 0.0))
    assert not built.a.flags.writeable
    for bad, message in ((("x", 0.0), "rule.a: must be a real number or a regular array of them"),
                         ((1.0, "x"), "rule.eta: must be a real number")):
        with pytest.raises(SpecError) as exc:
            ReceiverRule.threshold(*bad)
        assert str(exc.value) == message
    with pytest.raises(SpecError) as exc:
        SignalDesign("a", 1.0)
    assert str(exc.value) == "signals.s0: must be a real number or a regular array of them"


def test_rule_validity_reads_its_entries():
    # a rule is valid when its entries are finite, a is not all zero and eta
    # is finite; it forms no norm, so extreme magnitudes neither warn nor fail
    accepted = [[1e-200, 0.0], [5e-324, 0.0], [1e200, 0.0], [1.5e308, 1.5e308],
                np.ldexp([3.0, 4.0], -600), np.ldexp([3.0, 4.0], 600)]
    rejected = [
        ([0.0, 0.0], 1.0, "rule: a threshold rule needs a nonzero direction"),
        ([math.inf, 1.0], 1.0, "rule.a: must be finite"),
        ([math.nan, 1.0], 1.0, "rule.a: must be finite"),
        (0.0, 1.0, "rule: a threshold rule needs a nonzero direction"),
        ([1.0, 0.0], math.inf, "rule.eta: must be finite"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entries in accepted:
            rule = ReceiverRule.threshold(entries, 1.0)
            assert np.array_equal(rule.a, entries) and rule.eta == 1.0
        for a, eta, message in rejected:
            with pytest.raises(SpecError) as exc:
                ReceiverRule.threshold(a, eta)
            assert str(exc.value) == message


def test_unit_rule_scales_extreme_directions_exactly():
    # the tests' stand-in for a rule's norm divides the largest entry out
    # first; a power-of-two scaling of the 3-4-5 rule keeps its bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moderate = unit_rule(ReceiverRule.threshold([3.0, 4.0], 10.0))
        assert np.array_equal(moderate[0], [0.6, 0.8]) and moderate[1] == 2.0
        for k in (-600, -540, 540, 600):
            a, eta = unit_rule(ReceiverRule.threshold(np.ldexp([3.0, 4.0], k),
                                                      math.ldexp(10.0, k)))
            assert np.array_equal(a, moderate[0]) and eta == moderate[1]
        a, eta = unit_rule(ReceiverRule.threshold([1e-200, 0.0], 1.0))
        assert np.array_equal(a, [1.0, 0.0]) and eta == 1e200
        for s, eta in ((1.0, 1.0), (-1.0, 3e307)):
            # finite entries whose norm is past the largest double
            a, unit_eta = unit_rule(ReceiverRule.threshold([1.5e308, s * 1.5e308], eta))
            assert a == pytest.approx([math.sqrt(0.5), s * math.sqrt(0.5)], rel=1e-15)
            assert unit_eta == pytest.approx(eta / 1.5e308 / math.sqrt(2.0), rel=1e-12)


def test_rules_close_holds_for_bit_equal_rules():
    # a lifted rule of the extreme draw: eta / max|a| overflows to inf, so the
    # scaled gap of the rule to itself is nan
    extreme = ReceiverRule.threshold([6.0759088e-316, 0.0], 0.48447597694017125)
    assert rules_close(extreme, extreme, 1e-12)
    assert not rules_close(extreme, ReceiverRule.threshold([6.0759088e-316, 0.0], 0.5), 1e-12)


def test_optimal_rule_antipodal_symmetric():
    rx = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
    rule = matched_rule(SignalDesign(-1.0, 1.0), rx, NoiseModel.scalar(1.0))
    assert rule.kind is RuleKind.THRESHOLD
    assert rule.a == 2.0 and rule.eta == 0.0


def test_optimal_rule_coincident_signals_uses_prior_margin():
    rule = matched_rule(SignalDesign(0.3, 0.3), DEMO_RX, NoiseModel.scalar(0.1))
    assert rule.kind is RuleKind.ALWAYS_H1
    assert abs(rule.eta - (-0.25)) <= 1e-15


def test_optimal_rule_vector_whitens_by_covariance():
    rx = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
    rule = matched_rule(
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
        rule = optimal_receiver_rule(signals, spec.noise, dq)
        d = (s1 - s0) / spec.noise.sigma
        want = conditional_error_probs(d, dq.log_tau, dq.zeta)
        got = rule_error_probs(signals, rule, spec.noise)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_rule_error_probs_take_the_limit_of_an_underflowed_spread():
    # |a| sigma and a' C a both underflow to 0: each error probability is a
    # step at its mean, 1/2 on it
    # (the means a s0 and a s1 are -m and m)
    scalar = NoiseModel.scalar(1e-300), 1e-300, SignalDesign(-1.0, 1.0), 1e-300
    vector = (NoiseModel.matrix(np.diag([1e-300, 1.0])), np.array([1e-160, 0.0]),
              SignalDesign(np.array([-1.0, 5.0]), np.array([1.0, -5.0])), 1e-160)
    for noise, a, signals, m in (scalar, vector):
        for eta, want in ((0.0, (0.0, 0.0)), (-m, (0.5, 0.0)), (m, (0.0, 0.5)),
                          (-2.0 * m, (1.0, 0.0)), (2.0 * m, (0.0, 1.0))):
            rule = ReceiverRule.threshold(a, eta)
            assert rule_error_probs(signals, rule, noise) == want, (a, eta)


def test_underflowed_spread_solves_under_every_concept():
    # the matched rule's |a| sigma underflows to 0 on this accepted game
    agent = AgentParams(0.3050099564181459, 0.6949900435818541,
                        ((1.4202443787659971e+250, 0.0),
                         (280.6498943805211, 7.148881349545917e+151)))
    spec = GameSpec(agent, agent, NoiseModel.scalar(2.2541618282531695e-248),
                    AveragePower(9.38330664801751e-236))
    for concept in Concept:
        rep = solve(spec, concept)
        assert math.isfinite(rep.risk_t) and math.isfinite(rep.risk_r)
        assert (rep.risk_t, rep.risk_r) == risk_pair(agent, agent, rep.signals,
                                                     rep.rule, spec.noise)


def test_optimal_rule_minimizes_posterior_cost_pointwise():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 1000:
        rx = random_agent(rng)
        if receiver_case(rx) is not RuleKind.THRESHOLD:
            continue
        sigma = float(rng.uniform(0.3, 2.0))
        s0 = float(rng.uniform(-2.0, 2.0))
        s1 = s0 + float(rng.uniform(0.1, 3.0))
        rule = matched_rule(SignalDesign(s0, s1), rx, NoiseModel.scalar(sigma))
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
        rule = optimal_receiver_rule(signals, spec.noise, derived_quantities(spec))
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


# ---------------------------------------------------------------------------
# the solve path reads ln tau, zeta and the xi signs from the derived record
# and calls the public formulas on it: a report's rule is the receiver's best
# response to its pair, and its risks are those of ``informative_risks``.  The
# vector rule is the one exception: the solve lifts it from the scalar levels
# along the rounded eigenvector, where ``optimal_receiver_rule`` solves
# Sigma w = s1 - s0 by LU, so on these well-conditioned covariances the two
# agree to rounding (1e-12 relative)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _concepts(spec: GameSpec) -> list[Concept]:
    both = [Concept.STACKELBERG, Concept.NASH]
    return [Concept.TEAM] + both if spec.transmitter == spec.receiver else both


@pytest.mark.parametrize("channel", ["scalar", "vector", "avg"])
def test_solve_path_equals_the_public_primitives(channel):
    rng = np.random.default_rng({"scalar": 31, "vector": 32, "avg": 33}[channel])
    informative = 0
    for k in range(192):
        identical, finite_tau = bool(k % 2), bool(k // 2 % 2)
        spec = cell_spec(rng, channel, 1 + k // 4 % 16, identical, finite_tau,
                         discrete=k < 64)
        tx, rx, noise = spec.transmitter, spec.receiver, spec.noise
        dq = derived_quantities(spec)
        for concept in _concepts(spec):
            rep = solve(spec, concept)
            rule = optimal_receiver_rule(rep.signals, noise, dq)
            if channel == "vector":
                assert rules_close(rep.rule, rule, 1e-12)
            else:
                assert rule.kind is rep.rule.kind
                assert _bits(rule.a) == _bits(rep.rule.a)
                assert _bits(rule.eta) == _bits(rep.rule.eta)
            if rep.informative and not (channel == "avg" and concept is Concept.NASH):
                want = informative_risks(tx, rx, rep.d_star, dq.log_tau, dq.zeta)
                informative += 1
            else:
                # the zero pair, and average-power Nash, are scored by the rule
                want = risk_pair(tx, rx, rep.signals, rep.rule, noise)
            assert _bits((rep.risk_t, rep.risk_r)) == _bits(want)
    assert informative >= 100


def _outcome(run, spec: GameSpec, concept: Concept) -> tuple:
    """A solve's report to the bit, or the type and message of what it raised."""

    def timed_out(signum, frame):
        raise TimeoutError("the solve did not return within 2 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(2)
    try:
        rep = run(spec, concept)
    except TimeoutError:
        raise
    except Exception as exc:  # compared, not judged: both sides must agree
        return type(exc).__name__, str(exc)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return (rep.concept, rep.case_label, rep.informative, rep.existence,
            rep.rule.kind, *map(_bits, (rep.d_star, rep.d_max, rep.risk_t, rep.risk_r,
                                        rep.rule.a, rep.rule.eta, rep.signals.s0,
                                        rep.signals.s1)))


# numpy warns where squares of 1e300-sized levels overflow, both sides alike,
# and where a lifted vector direction c v overflows: c = inf times a zero
# entry of v is invalid.  Either way the rule is refused as not finite
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_solve_path_equals_the_public_primitives_at_extreme_magnitudes():
    outcomes = {"solved": 0, "raised": 0, "rejected": 0}
    lifted = 0
    for doc in extreme_games(34, 7000):
        try:
            spec = spec_from_config(doc)
        except SpecError:
            outcomes["rejected"] += 1
            continue
        for concept in _concepts(spec):
            got = _outcome(solve, spec, concept)
            # a solve either reports or refuses the game with a SpecError
            assert len(got) > 2 or got[0] == "SpecError", (spec, concept, got)
            outcomes["raised" if len(got) == 2 else "solved"] += 1
            if len(got) == 2 or spec.noise.is_scalar or not got[2]:
                continue
            # an informative vector report: its lifted rule against the LU
            # rule, wherever that one completes
            rep = solve(spec, concept)
            try:
                want = optimal_receiver_rule(rep.signals, spec.noise,
                                             derived_quantities(spec))
            except SpecError:
                continue
            assert rules_close(rep.rule, want, 1e-12), (spec, concept)
            lifted += 1
    # the draw reaches solves, solve-time errors and rejected specs alike
    assert min(outcomes.values()) >= 100, outcomes
    assert lifted >= 100
