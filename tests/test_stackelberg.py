"""Leader-follower solver: six-case classification, endpoint rule, the
robustness scan."""

import math

import numpy as np
import pytest

from sigeq import (
    AgentParams,
    AveragePower,
    Concept,
    EndpointChoice,
    Existence,
    GameSpec,
    MismatchedAgentsError,
    NoiseModel,
    PeakPower,
    Perturbation,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    classify_transmitter_preference,
    derived_quantities,
    endpoint_rule,
    optimal_receiver_rule,
    preset_biased_cost,
    preset_deception,
    preset_subjective_priors,
    prior_only_rule,
    risk_pair,
    robustness_scan,
    rules_equal,
    separation_levels,
    signals_equal,
    single_cost_perturbations,
    solve,
    solve_stackelberg,
    solve_team,
)
from conftest import demo_spec, fragile_team_spec, team_point_spec

D_STAR_DEMO = 0.47041885791917976


def spec_with_weights(k0, k1, tau, d_max):
    """Build a concrete game whose derived (k0, k1, tau, zeta=+1) match."""
    rx = AgentParams.from_prior0(0.5, ((0.0, 1.0), (tau, 0.0)))
    fa = 2.0 * k0 * math.sqrt(tau)
    miss = 2.0 * k1 / math.sqrt(tau)
    b0 = max(0.0, -fa)
    b1 = max(0.0, -miss)
    tx = AgentParams.from_prior0(0.5, ((b0, b1 + miss), (b0 + fa, b1)))
    p = (d_max / 2.0) ** 2
    return GameSpec(tx, rx, NoiseModel.scalar(1.0), PeakPower(p, p))


def endpoint_risks(spec):
    """Transmitter risk at d = 0 (prior-only rule) and at d = d_max."""
    dq = derived_quantities(spec)
    idle = SignalDesign(0.0, 0.0)
    rule0 = prior_only_rule(dq.tau.finite_value(), dq.zeta)
    at_zero = risk_pair(spec.transmitter, spec.receiver, idle, rule0, spec.noise)[0]
    s0, s1 = separation_levels(dq.zeta, spec.power.p0, spec.power.p1, dq.d_max,
                               spec.noise.sigma)
    full = SignalDesign(s0, s1)
    rule1 = optimal_receiver_rule(full, spec.receiver, spec.noise)
    at_max = risk_pair(spec.transmitter, spec.receiver, full, rule1, spec.noise)[0]
    return at_zero, at_max


# ---------------------------------------------------------------------------
# headline example


def test_interior_optimum_example():
    rep = solve_stackelberg(demo_spec())
    assert rep.case_label == "case-3"
    assert rep.informative and rep.existence is Existence.EXISTS
    assert rep.d_star == D_STAR_DEMO
    assert rep.d_max == 20.0
    assert rep.risk_t == 0.5378817736566109
    assert rep.risk_r == 0.20506971530212073
    assert rep.signals.s0 == -1.0
    assert rep.signals.s1 == -0.9529581142080821
    assert rep.rule.kind is RuleKind.THRESHOLD
    assert rep.rule.a == 0.047041885791917926
    assert rep.rule.eta == -0.04881223700700579


def test_interior_optimum_is_stationary():
    dq = derived_quantities(demo_spec())
    d = solve_stackelberg(demo_spec()).d_star
    log_tau = math.log(dq.tau.finite_value())
    bracket = dq.k0 * (-log_tau / d ** 2 + 0.5) + dq.k1 * (log_tau / d ** 2 + 0.5)
    assert abs(bracket) <= 1e-9


def test_rule_is_follower_best_response():
    rep = solve_stackelberg(demo_spec())
    want = optimal_receiver_rule(rep.signals, demo_spec().receiver,
                                 demo_spec().noise)
    assert rules_equal(rep.rule, want)


def test_identical_params_recover_team_behavior():
    spec = team_point_spec(sigma=0.1)
    rep = solve_stackelberg(spec)
    assert rep.case_label == "case-6"
    assert rep.informative and rep.d_star == rep.d_max
    team = solve_team(spec)
    assert rep.risk_t == team.risk_t
    assert rep.signals.s0 == team.signals.s0
    assert rep.signals.s1 == team.signals.s1


# ---------------------------------------------------------------------------
# classification cells


def test_classification_cells():
    # bend < 0, slope >= 0: full separation
    assert classify_transmitter_preference(0.3, 0.1, 0.5, 4.0).case_label == "case-1"
    assert classify_transmitter_preference(0.3, 0.1, 0.5, 4.0).d_star == 4.0
    # bend < 0, slope < 0, budget below the stationary point
    pref = classify_transmitter_preference(0.1, -0.3, 0.5, 0.5)
    assert pref.case_label == "case-2" and pref.d_star == 0.5
    # interior stationary point
    pref = classify_transmitter_preference(0.1, -0.3, 0.5, 10.0)
    want = math.sqrt(abs(2.0 * math.log(0.5) * 0.4 / (-0.2)))
    assert pref.case_label == "case-3" and abs(pref.d_star - want) <= 1e-15
    # bend >= 0, slope < 0: babbling
    pref = classify_transmitter_preference(-0.3, 0.1, 0.5, 4.0)
    assert pref.case_label == "case-4" and pref.d_star == 0.0
    # bend >= 0, slope >= 0, budget below the crossover
    pref = classify_transmitter_preference(0.3, 0.05, 2.0, 0.2)
    assert pref.case_label == "case-5" and pref.d_star == 0.0
    # bend >= 0, slope >= 0, endpoint comparison decides
    pref = classify_transmitter_preference(0.3, 0.05, 2.0, 6.0)
    assert pref.case_label == "case-6"
    # both tail weights zero: risk constant in d
    pref = classify_transmitter_preference(0.0, 0.0, 2.0, 6.0)
    assert pref.case_label == "flat" and pref.d_star == 0.0


def test_case3_matches_its_own_formula():
    dq = derived_quantities(demo_spec())
    log_tau = math.log(dq.tau.finite_value())
    want = math.sqrt(abs(2.0 * log_tau * (dq.k0 - dq.k1) / (dq.k0 + dq.k1)))
    assert solve_stackelberg(demo_spec()).d_star == want


def test_classification_agrees_with_grid_on_random_specs():
    from sigeq.oracle import grid_search_transmitter
    rng = np.random.default_rng(29)
    from conftest import random_scalar_spec
    for _ in range(100):
        spec = random_scalar_spec(rng)
        rep = solve_stackelberg(spec)
        _, risk_best = grid_search_transmitter(spec, Concept.STACKELBERG, 2001)
        assert rep.risk_t <= risk_best + 1e-9


# ---------------------------------------------------------------------------
# endpoint comparison


def test_endpoint_rule_tau_one_prefers_separation():
    assert endpoint_rule(0.2, 0.2, 1.0, 3.0) is EndpointChoice.MAX_SEPARATION


def test_endpoint_rule_vanishing_first_term():
    assert endpoint_rule(0.3, 0.0, 2.0, 3.0) is EndpointChoice.BABBLING


def test_endpoint_rule_preconditions():
    with pytest.raises(SpecError):
        endpoint_rule(0.2, 0.3, 2.0, 4.0)  # bend < 0: shape is not covered
    with pytest.raises(SpecError):
        endpoint_rule(-0.4, 0.1, 0.5, 4.0)  # slope < 0
    with pytest.raises(SpecError):
        endpoint_rule(0.0, 0.0, 2.0, 4.0)
    with pytest.raises(SpecError):
        endpoint_rule(0.2, 0.1, 0.0, 4.0)
    with pytest.raises(SpecError):
        endpoint_rule(0.2, 0.1, 2.0, 0.0)


def test_endpoint_rule_example_draw_against_brute_force():
    k0, k1, tau, d_max = 0.3, 0.2, 2.0, 4.0
    spec = spec_with_weights(k0, k1, tau, d_max)
    dq = derived_quantities(spec)
    assert abs(dq.k0 - k0) <= 1e-15 and abs(dq.k1 - k1) <= 1e-15
    at_zero, at_max = endpoint_risks(spec)
    choice = endpoint_rule(k0, k1, tau, d_max)
    assert (choice is EndpointChoice.MAX_SEPARATION) == (at_max <= at_zero)


def test_endpoint_rule_sign_matches_brute_force_on_random_draws():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 10_000:
        k0 = float(rng.uniform(-1.0, 1.0))
        k1 = float(rng.uniform(-1.0, 1.0))
        tau = float(math.exp(rng.uniform(-2.0, 2.0)))
        d_max = float(rng.uniform(0.2, 6.0))
        log_tau = math.log(tau)
        if log_tau * (k0 - k1) < 0.0 or k0 + k1 < 0.0 or (k0 == 0.0 and k1 == 0.0):
            continue
        spec = spec_with_weights(k0, k1, tau, d_max)
        at_zero, at_max = endpoint_risks(spec)
        if abs(at_max - at_zero) <= 1e-13:
            # the risk route cannot resolve the sign this close to the tie
            continue
        want = (EndpointChoice.MAX_SEPARATION if at_max < at_zero
                else EndpointChoice.BABBLING)
        assert endpoint_rule(k0, k1, tau, d_max) is want
        checked += 1


# ---------------------------------------------------------------------------
# perturbation scan


def test_perturbation_container():
    pert = Perturbation(0.01, -0.01, 0.0, 0.0, 1e-3, 0.0)
    assert pert.renormalizes
    assert not Perturbation(eps_prior0=0.01).renormalizes
    agent = AgentParams.from_prior0(0.25, ((0.0, 0.4), (0.9, 0.0)))
    moved = pert.applied_to(agent)
    assert moved.prior0 == 0.26 and abs(moved.prior1 - 0.74) <= 1e-15
    assert moved.c10 == pytest.approx(0.901, abs=1e-15)
    grid = single_cost_perturbations(1e-3)
    assert len(grid) == 8
    assert {p.eps_c00 for p in grid} == {0.0, 1e-3, -1e-3}


def test_scan_requires_team_base():
    with pytest.raises(MismatchedAgentsError):
        robustness_scan(demo_spec(), Concept.STACKELBERG,
                        single_cost_perturbations(1e-3))
    agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 1.0)))  # tau infinite
    spec = GameSpec(agent, agent, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0))
    with pytest.raises(SpecError):
        robustness_scan(spec, Concept.STACKELBERG, single_cost_perturbations(1e-3))


def test_scan_rejects_team_play_and_unknown_concepts():
    spec = team_point_spec()
    with pytest.raises(SpecError, match="concept"):
        robustness_scan(spec, Concept.TEAM, [Perturbation()])
    with pytest.raises(ValueError):
        robustness_scan(spec, "bargaining", [Perturbation()])


def test_scan_rejects_an_average_budget_on_a_vector_channel():
    agent = team_point_spec().receiver
    spec = GameSpec(agent, agent, NoiseModel.matrix(np.eye(2)), AveragePower(1.0),
                    dimension=2)
    with pytest.raises(SpecError, match="power"):
        robustness_scan(spec, Concept.NASH, [Perturbation()])


@pytest.mark.parametrize("concept", ["stackelberg", "nash"])
@pytest.mark.parametrize("channel", ["scalar", "vector", "avg"])
def test_scan_base_and_zero_entry_are_the_solve(concept, channel):
    spec = fragile_team_spec(channel)
    scan = robustness_scan(spec, concept, [Perturbation()])
    ref = solve(spec, Concept(concept))
    for rep in (scan.base, scan.entries[0].report):
        assert rep.case_label == ref.case_label
        assert rep.d_star == ref.d_star
        assert (rep.risk_t, rep.risk_r) == (ref.risk_t, ref.risk_r)
        assert signals_equal(rep.signals, ref.signals)
        assert rules_equal(rep.rule, ref.rule)


def test_zero_perturbation_reproduces_team_point():
    spec = team_point_spec(sigma=0.1)
    scan = robustness_scan(spec, Concept.STACKELBERG, [Perturbation()])
    entry = scan.entries[0]
    assert entry.report is not None
    assert entry.report.d_star == scan.base.d_star == scan.base.d_max


def test_cost_perturbation_flips_classification_branch():
    # at the shared point k0 = k1; a false-alarm cost offset tips the bend sign
    spec = team_point_spec(sigma=0.1)
    scan = robustness_scan(spec, Concept.STACKELBERG,
                           [Perturbation(eps_c10=1e-3), Perturbation(eps_c10=-1e-3)])
    up, down = (e.report for e in scan.entries)
    assert up.case_label in {"case-1", "case-2", "case-3"}
    assert down.case_label in {"case-4", "case-5", "case-6"}


def test_scan_finds_informativeness_flip_at_small_budget():
    spec = fragile_team_spec()
    scan = robustness_scan(spec, Concept.STACKELBERG,
                           single_cost_perturbations(1e-3))
    assert scan.base.informative
    flipped = [e for e in scan.entries
               if e.report is not None and not e.report.informative]
    assert flipped
    invalid = [e for e in scan.entries if e.report is None]
    assert invalid and all(e.error for e in invalid)


def test_non_renormalizing_prior_offsets_are_rejected_per_entry():
    spec = team_point_spec(sigma=0.1)
    scan = robustness_scan(spec, Concept.STACKELBERG, [Perturbation(eps_prior0=1e-3)])
    assert scan.entries[0].report is None
    assert "renormalize" in scan.entries[0].error


# ---------------------------------------------------------------------------
# presets


def test_biased_cost_preset_construction():
    spec = preset_biased_cost(0.75)
    assert spec.transmitter.costs == ((0.25, 0.75), (0.75, 0.25))
    assert spec.receiver.costs == ((0.0, 1.0), (1.0, 0.0))
    dq = derived_quantities(spec)
    assert dq.tau.value == 1.0
    assert abs(dq.k0 - 0.25) <= 1e-15 and abs(dq.k1 - 0.25) <= 1e-15
    with pytest.raises(SpecError):
        preset_biased_cost(1.5)
    with pytest.raises(SpecError):
        preset_biased_cost(0.75, prior0=0.0)


def test_biased_cost_boundary_alpha():
    dq = derived_quantities(preset_biased_cost(0.5))
    assert dq.k0 == 0.0 and dq.k1 == 0.0
    rep = solve_stackelberg(preset_biased_cost(0.5))
    assert rep.case_label == "flat" and not rep.informative


def test_biased_cost_alignment_threshold():
    for alpha in (0.6, 0.75, 0.9):
        assert solve_stackelberg(preset_biased_cost(alpha)).informative
    for alpha in (0.1, 0.25, 0.4):
        rep = solve_stackelberg(preset_biased_cost(alpha))
        assert not rep.informative and rep.case_label == "case-4"


def test_subjective_priors_preset_full_separation():
    # transmitter at least as confident in H0 as the receiver, tau < 1
    for p_t, p_r in ((0.6, 0.4), (0.45, 0.3), (0.4, 0.4)):
        spec = preset_subjective_priors(p_t, p_r)
        assert derived_quantities(spec).tau.finite_value() < 1.0
        rep = solve_stackelberg(spec)
        assert rep.informative and rep.d_star == rep.d_max


def test_deception_preset_prefers_babbling():
    rep = solve_stackelberg(preset_deception())
    assert rep.case_label == "case-4"
    assert not rep.informative
