"""Leader-follower solver: six-case classification, endpoint comparison, the
robustness scan."""

import math

import numpy as np
import pytest

from sigeq import (
    AgentParams,
    AveragePower,
    Concept,
    DerivedQuantities,
    Existence,
    GameSpec,
    MismatchedAgentsError,
    NoiseModel,
    PeakPower,
    Perturbation,
    RuleKind,
    SignalDesign,
    SpecError,
    Tau,
    check_power,
    classify_transmitter_preference,
    conditional_error_probs,
    derived_quantities,
    optimal_receiver_rule,
    preset_biased_cost,
    preset_deception,
    preset_subjective_priors,
    prior_only_rule,
    risk_pair,
    robustness_scan,
    rules_equal,
    single_cost_perturbations,
    solve,
)
from conftest import (demo_spec, fragile_team_spec, grid_search_transmitter, random_agent,
                      random_scalar_spec, signals_equal, team_point_spec)

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


def record(k0, k1, tau, d_max):
    """A derived record with the given (k0, k1, tau, d_max) and zeta = +1;
    ln tau as ``derived_quantities`` takes it, NaN for a tau <= 0."""
    log_tau = math.log(tau) if tau > 0.0 else math.nan
    return DerivedQuantities(Tau(tau), 1, k0, k1, d_max, log_tau, RuleKind.THRESHOLD,
                             (1, 1))


def endpoint_risks(spec):
    """Transmitter risk at d = 0 (prior-only rule) and at d = d_max, for the
    equal budgets of ``spec_with_weights``."""
    dq = derived_quantities(spec)
    idle = SignalDesign(0.0, 0.0)
    rule0 = prior_only_rule(dq.tau.value, dq.zeta)
    at_zero = risk_pair(spec.transmitter, spec.receiver, idle, rule0, spec.noise)[0]
    # the solve's levels at d_max: with equal budgets the first one is not shifted
    u0 = -math.sqrt(spec.power.p0)
    full = SignalDesign(dq.zeta * u0, dq.zeta * (u0 + dq.d_max * spec.noise.sigma))
    rule1 = optimal_receiver_rule(full, spec.noise, dq)
    at_max = risk_pair(spec.transmitter, spec.receiver, full, rule1, spec.noise)[0]
    return at_zero, at_max


# ---------------------------------------------------------------------------
# headline example


def test_interior_optimum_example():
    rep = solve(demo_spec(), Concept.STACKELBERG)
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
    d = solve(demo_spec(), Concept.STACKELBERG).d_star
    log_tau = math.log(dq.tau.value)
    bracket = dq.k0 * (-log_tau / d ** 2 + 0.5) + dq.k1 * (log_tau / d ** 2 + 0.5)
    assert abs(bracket) <= 1e-9


def test_rule_is_follower_best_response():
    rep = solve(demo_spec(), Concept.STACKELBERG)
    want = optimal_receiver_rule(rep.signals, demo_spec().noise,
                                 derived_quantities(demo_spec()))
    assert rules_equal(rep.rule, want)


def test_identical_params_recover_team_behavior():
    spec = team_point_spec(sigma=0.1)
    rep = solve(spec, Concept.STACKELBERG)
    assert rep.case_label == "case-6"
    assert rep.informative and rep.d_star == rep.d_max
    team = solve(spec, Concept.TEAM)
    assert rep.risk_t == team.risk_t
    assert rep.signals.s0 == team.signals.s0
    assert rep.signals.s1 == team.signals.s1


# ---------------------------------------------------------------------------
# classification cells


def test_classification_cells():
    # bend < 0, slope >= 0: full separation
    assert classify_transmitter_preference(record(0.3, 0.1, 0.5, 4.0)) == ("case-1", 4.0)
    # bend < 0, slope < 0, budget below the stationary point
    assert classify_transmitter_preference(record(0.1, -0.3, 0.5, 0.5)) == ("case-2", 0.5)
    # interior stationary point
    label, d_star = classify_transmitter_preference(record(0.1, -0.3, 0.5, 10.0))
    want = math.sqrt(abs(2.0 * math.log(0.5) * 0.4 / (-0.2)))
    assert label == "case-3" and abs(d_star - want) <= 1e-15
    # bend >= 0, slope < 0: babbling
    assert classify_transmitter_preference(record(-0.3, 0.1, 0.5, 4.0)) == ("case-4", 0.0)
    # bend >= 0, slope >= 0, budget below the crossover
    assert classify_transmitter_preference(record(0.3, 0.05, 2.0, 0.2)) == ("case-5", 0.0)
    # bend >= 0, slope >= 0, endpoint comparison decides
    label, _ = classify_transmitter_preference(record(0.3, 0.05, 2.0, 6.0))
    assert label == "case-6"
    # both tail weights zero: risk constant in d
    assert classify_transmitter_preference(record(0.0, 0.0, 2.0, 6.0)) == ("flat", 0.0)


def test_case3_matches_its_own_formula():
    dq = derived_quantities(demo_spec())
    log_tau = math.log(dq.tau.value)
    want = math.sqrt(abs(2.0 * log_tau * (dq.k0 - dq.k1) / (dq.k0 + dq.k1)))
    assert solve(demo_spec(), Concept.STACKELBERG).d_star == want


def test_classification_agrees_with_grid_on_random_specs():
    rng = np.random.default_rng(29)
    for _ in range(100):
        spec = random_scalar_spec(rng)
        rep = solve(spec, Concept.STACKELBERG)
        _, risk_best = grid_search_transmitter(spec, 2001)
        assert rep.risk_t <= risk_best + 1e-9


# ---------------------------------------------------------------------------
# endpoint comparison (case-6)


def test_endpoint_rule_tau_one_prefers_separation():
    assert classify_transmitter_preference(record(0.2, 0.2, 1.0, 3.0)) == ("case-6", 3.0)


def test_endpoint_rule_vanishing_first_term():
    assert classify_transmitter_preference(record(0.3, 0.0, 2.0, 3.0)) == ("case-6", 0.0)


def test_endpoint_rule_preconditions():
    # the comparison needs d_max > 0: here bend = 0 leads to it at d_max = 0
    with pytest.raises(SpecError, match="^d_max: must be strictly positive$"):
        classify_transmitter_preference(record(0.2, 0.2, 1.0, 0.0))
    # and a finite ln tau: a tau that overflowed to inf, with no miss margin
    # (k0 = 0, k1 = 0 * inf = NaN), fails every sign test and reaches it
    overflowed = DerivedQuantities(Tau(math.inf), 1, 0.0, math.nan, 4.0, math.inf,
                                   RuleKind.THRESHOLD, (1, 0))
    with pytest.raises(SpecError, match="^tau: must be finite and strictly positive$"):
        classify_transmitter_preference(overflowed)


@pytest.mark.parametrize("tau", [0.0, -2.0, math.inf, math.nan])
def test_tau_outside_the_open_half_line_is_rejected(tau):
    # the formulas that read ln tau refuse the values a tau outside (0, inf)
    # leaves there with the same error: the error tails always, the endpoint
    # comparison once the NaN sign tests route to it
    match = "^tau: must be finite and strictly positive$"
    with pytest.raises(SpecError, match=match):
        classify_transmitter_preference(record(0.2, 0.2, tau, 3.0))
    with pytest.raises(SpecError, match=match):
        conditional_error_probs(1.0, record(0.2, 0.2, tau, 3.0).log_tau, 1)


def test_endpoint_rule_example_draw_against_brute_force():
    k0, k1, tau, d_max = 0.3, 0.2, 2.0, 4.0
    spec = spec_with_weights(k0, k1, tau, d_max)
    dq = derived_quantities(spec)
    assert abs(dq.k0 - k0) <= 1e-15 and abs(dq.k1 - k1) <= 1e-15
    at_zero, at_max = endpoint_risks(spec)
    label, d_star = classify_transmitter_preference(record(k0, k1, tau, d_max))
    assert label == "case-6" and (d_star == d_max) == (at_max <= at_zero)


def test_endpoint_rule_sign_matches_brute_force_on_random_draws():
    # increasing-then-decreasing risks: case-5 where the budget ends on the
    # rise, else the endpoint comparison; d_max wins exactly where its risk
    # is the lower one
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
        label, d_star = classify_transmitter_preference(record(k0, k1, tau, d_max))
        assert label in ("case-5", "case-6")
        assert (d_star == d_max) == (at_max < at_zero)
        checked += 1


# ---------------------------------------------------------------------------
# perturbation scan


def test_perturbation_container():
    pert = Perturbation(0.01, 0.0, 0.0, 1e-3, 0.0)
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
    # the game is rejected when it is built, so no scan is handed it
    agent = team_point_spec().receiver
    with pytest.raises(SpecError, match="power"):
        robustness_scan(GameSpec(agent, agent, NoiseModel.matrix(np.eye(2)),
                                 AveragePower(1.0), dimension=2),
                        Concept.NASH, [Perturbation()])


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
    # a second prior offset can no longer be written, and an offset that
    # leaves the priors invalid fails in its own entry while the next solves
    with pytest.raises(TypeError):
        Perturbation(eps_prior0=1e-3, eps_prior1=0.0)
    spec = team_point_spec(sigma=0.1)
    scan = robustness_scan(spec, Concept.STACKELBERG,
                           [Perturbation(eps_prior0=2.0), Perturbation(eps_prior0=1e-3)])
    bad, good = scan.entries
    assert bad.report is None and "prior" in bad.error
    assert good.error is None and good.report is not None


def test_one_prior_offset_moves_both_priors():
    # eps_prior0 = e moves prior1 by -e, bit for bit as the pair (e, -e) of
    # offsets added to the two priors did, and the moved game solves
    for channel in ("scalar", "vector", "avg"):
        spec = fragile_team_spec(channel)
        base = spec.receiver
        for eps in (1e-3, -1e-3, 0.1, -0.2):
            pair = AgentParams(base.prior0 + eps, base.prior1 + -eps, base.costs)
            moved = Perturbation(eps_prior0=eps).applied_to(base)
            assert (moved.prior0, moved.prior1) == (pair.prior0, pair.prior1)
            for concept in (Concept.STACKELBERG, Concept.NASH):
                rep = robustness_scan(spec, concept, [Perturbation(eps_prior0=eps)]
                                      ).entries[0].report
                ref = solve(GameSpec(pair, base, spec.noise, spec.power,
                                     spec.dimension), concept)
                assert (rep.case_label, rep.d_star) == (ref.case_label, ref.d_star)
                assert (rep.risk_t, rep.risk_r) == (ref.risk_t, ref.risk_r)
                assert signals_equal(rep.signals, ref.signals)
                assert rules_equal(rep.rule, ref.rule)


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
    rep = solve(preset_biased_cost(0.5), Concept.STACKELBERG)
    assert rep.case_label == "flat" and not rep.informative


def test_biased_cost_alignment_threshold():
    for alpha in (0.6, 0.75, 0.9):
        assert solve(preset_biased_cost(alpha), Concept.STACKELBERG).informative
    for alpha in (0.1, 0.25, 0.4):
        rep = solve(preset_biased_cost(alpha), Concept.STACKELBERG)
        assert not rep.informative and rep.case_label == "case-4"


def test_subjective_priors_preset_full_separation():
    # transmitter at least as confident in H0 as the receiver, tau < 1
    for p_t, p_r in ((0.6, 0.4), (0.45, 0.3), (0.4, 0.4)):
        spec = preset_subjective_priors(p_t, p_r)
        assert 0.0 < derived_quantities(spec).tau.value < 1.0
        rep = solve(spec, Concept.STACKELBERG)
        assert rep.informative and rep.d_star == rep.d_max


def test_deception_preset_prefers_babbling():
    rep = solve(preset_deception(), Concept.STACKELBERG)
    assert rep.case_label == "case-4"
    assert not rep.informative
    # it is the biased-cost game at alpha = 0
    for prior0, sigma, p0, p1 in ((0.5, 1.0, 1.0, 1.0), (0.2, 0.3, 2.0, 0.5),
                                  (0.9, 4.0, 0.25, 3.0)):
        lhs = preset_deception(prior0, sigma, p0, p1)
        rhs = preset_biased_cost(0.0, prior0, sigma, p0, p1)
        assert (lhs.transmitter, lhs.receiver, lhs.noise.sigma, lhs.power) == \
            (rhs.transmitter, rhs.receiver, rhs.noise.sigma, rhs.power)
        assert lhs.transmitter.costs == ((1.0, 0.0), (0.0, 1.0))
    for prior0 in (0.0, 1.0, 1.5):
        with pytest.raises(SpecError, match=r"^prior0: must lie strictly inside \(0, 1\)$"):
            preset_deception(prior0)


# ---------------------------------------------------------------------------
# peak levels at extreme budget ratios


def test_case3_levels_at_a_huge_budget_ratio_stay_within_the_small_budget():
    # one game of the wide draw below: p0 / p1 = 5.8e15, so the first budget
    # root is 1.3e2 times the gap while the second is 1e-2.  The levels were
    # once the first root shifted by root0 - root1 - gap, which rounds, and
    # the second level came out at -0.010043142387046622, past sqrt(p1).
    tx = AgentParams(0.29561096004840337, 0.7043890399515966,
                     ((0.9380653586528731, 0.6464457916749782),
                      (1.0179915420394348, 1.7599496977851004)))
    rx = AgentParams(0.5310957274864044, 0.46890427251359557,
                     ((0.4304461264824473, 1.9043006526055557),
                      (0.7725936553094739, 1.2597191925216735)))
    sigma = 1.2174924492040897
    spec = GameSpec(tx, rx, NoiseModel.scalar(sigma),
                    PeakPower(584725133994.453, 0.0001008647076829391))
    report = solve(spec, Concept.STACKELBERG)
    assert report.case_label == "case-3"
    check_power(report.signals, spec.power, tx)
    # the second level sits at its budget root, the first the gap below it
    s0, s1 = report.signals.s0, report.signals.s1
    assert s1 == -math.sqrt(spec.power.p1)
    assert s1 - s0 == pytest.approx(report.d_star * sigma, rel=1e-15)


def test_case3_levels_stay_within_both_budgets_over_wide_magnitudes():
    # budgets and noise over many decades: p0 = 10^U(-3, 12),
    # p1 = 10^U(-12, 3), sigma = 10^U(-1, 3); the shifted levels once broke
    # p1 in about 5% of the case-3 reports of such a draw
    rng = np.random.default_rng(3)
    case3 = 0
    for _ in range(20_000):
        tx, rx = random_agent(rng), random_agent(rng)
        p0, p1, sigma = (float(10.0 ** rng.uniform(lo, hi))
                         for lo, hi in ((-3, 12), (-12, 3), (-1, 3)))
        spec = GameSpec(tx, rx, NoiseModel.scalar(sigma), PeakPower(p0, p1))
        report = solve(spec, Concept.STACKELBERG)
        if report.case_label == "case-3":
            case3 += 1
            check_power(report.signals, spec.power, tx)
    assert case3 > 500
