"""End-to-end acceptance gate.

Each test covers one shipping criterion, prints a single PASS/FAIL line with
the measured evidence, and then asserts.  Run with ``pytest -s`` to see the
lines; tolerances are pinned inline and are not to be loosened.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sigeq import (
    AgentParams,
    Concept,
    Existence,
    GameSpec,
    NoiseModel,
    OutcomeKind,
    PeakPower,
    ReceiverRule,
    RuleKind,
    best_response_dynamics,
    best_response_transmitter,
    conditional_error_probs,
    d_max_of,
    derived_quantities,
    mc_estimate,
    optimal_receiver_rule,
    preset_biased_cost,
    preset_subjective_priors,
    robustness_scan,
    rule_error_probs,
    rules_equal,
    single_cost_perturbations,
    solve,
)
from conftest import (
    demo_spec,
    fragile_team_spec,
    grid_search_transmitter,
    random_avg_spec,
    random_identical_spec,
    random_scalar_spec,
    signals_equal,
)
from test_nash import nash_unmoved, within_margins
from test_vector import embed_1d

REPO = Path(__file__).resolve().parents[1]


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. reference example: interior commitment optimum


def test_criterion_01_reference_interior_optimum():
    spec = demo_spec()
    rep = solve(spec, Concept.STACKELBERG)  # warm-up
    t0 = time.perf_counter()
    rep = solve(spec, Concept.STACKELBERG)
    elapsed = time.perf_counter() - t0
    ok = (abs(rep.d_star - 0.4704) <= 5e-4
          and abs(rep.risk_t - 0.5379) <= 5e-4
          and rep.d_max == 20.0
          and elapsed < 0.010)
    report_line(1, ok,
                f"d*={rep.d_star:.6f} (0.4704±5e-4) risk_t={rep.risk_t:.6f} "
                f"(0.5379±5e-4) d_max={rep.d_max} solve={elapsed * 1e3:.3f}ms")


# ---------------------------------------------------------------------------
# 2. commitment solver never loses to a dense distance grid


def test_criterion_02_solver_beats_grid_search():
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(1000):
        spec = random_scalar_spec(rng)
        rep = solve(spec, Concept.STACKELBERG)
        _, risk_best = grid_search_transmitter(spec, grid_size=2001)
        if rep.risk_t > risk_best + 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report_line(2, ok, f"1000 specs, {violations} grid wins beyond 1e-9, "
                       f"{elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# 3. aligned agents: risk strictly falls with distance, optimum saturates


def test_criterion_03_team_risk_strictly_decreasing():
    # Strictness is certified through the derivative: with the matched
    # threshold the two tail terms satisfy pi1*miss*phi(v) = pi0*fa*phi(u),
    # so dr/dd = -pi0*|fa|*phi(lntau/d + d/2).  Its logarithm is finite at
    # every grid point, which proves the true risk drops there even where the
    # float image of r(d) has saturated flat.
    rng = np.random.default_rng(31)
    saturation_fails = 0
    derivative_fails = 0
    float_fails = 0
    eps = np.finfo(float).eps
    for _ in range(500):
        spec = random_identical_spec(rng)
        rep = solve(spec, Concept.TEAM)
        if rep.d_star != rep.d_max:
            saturation_fails += 1
        dq = derived_quantities(spec)
        tx = spec.transmitter
        grid = np.linspace(rep.d_max / 1000.0, rep.d_max, 1000)
        u = np.log(dq.tau.value) / grid + grid / 2.0
        log_slope = (math.log(tx.prior0 * abs(tx.false_alarm_margin))
                     - 0.5 * u * u - 0.5 * math.log(2.0 * math.pi))
        if not np.all(np.isfinite(log_slope)):
            derivative_fails += 1
        probs = [conditional_error_probs(float(d), dq.log_tau, dq.zeta)
                 for d in grid]
        excess = np.array([tx.prior0 * tx.false_alarm_margin * p10
                           + tx.prior1 * tx.miss_margin * p01
                           for p10, p01 in probs])
        # float images of neighboring points may tie or cross by rounding
        # noise once the true gap drops under one ulp; anything larger than
        # a few ulps would be a real violation
        slack = 4.0 * eps * np.maximum(np.abs(excess[:-1]), np.abs(excess[1:]))
        if not (np.all(np.diff(excess) <= slack) and excess[0] > excess[-1]):
            float_fails += 1
    ok = saturation_fails == 0 and derivative_fails == 0 and float_fails == 0
    report_line(3, ok, f"500 specs x 1000-point grid: {saturation_fails} "
                       f"d*!=d_max, {derivative_fails} non-finite slopes, "
                       f"{float_fails} float-order breaks")


def test_criterion_03_derivative_identity_spot_check():
    # the closed-form slope used above, against a central difference where
    # floats still resolve the curve
    agent = AgentParams.from_prior0(0.3, ((0.1, 1.4), (0.9, 0.2)))
    spec = GameSpec(agent, agent, NoiseModel.scalar(1.0), PeakPower(4.0, 4.0))
    dq = derived_quantities(spec)
    h = 1e-6

    def excess(d):
        p10, p01 = conditional_error_probs(d, dq.log_tau, dq.zeta)
        return (agent.prior0 * agent.false_alarm_margin * p10
                + agent.prior1 * agent.miss_margin * p01)

    for d in (0.8, 1.5, 2.5, 3.5):
        numeric = (excess(d + h) - excess(d - h)) / (2.0 * h)
        u = math.log(dq.tau.value) / d + d / 2.0
        analytic = -(agent.prior0 * abs(agent.false_alarm_margin)
                     * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))
        assert abs(numeric - analytic) <= 1e-6 * abs(analytic)


# ---------------------------------------------------------------------------
# 4. simultaneous play: classification equals dynamics, fixed points exact


def test_criterion_04_nash_classification_matches_dynamics():
    rng = np.random.default_rng(37)
    mismatches = 0
    identity_fails = 0
    informative_seen = 0
    for _ in range(2000):
        spec = random_scalar_spec(rng)
        rep = solve(spec, Concept.NASH)
        for a0 in (1.0, -1.0):
            trace = best_response_dynamics(
                spec, init_rule=ReceiverRule.threshold(a0, 0.0))
            if trace.outcome is OutcomeKind.CONVERGED:
                signals, _ = trace.iterates[-1]
                agree = rep.informative == (not signals.coincident)
            else:
                agree = not rep.informative
            if not agree:
                mismatches += 1
        if rep.informative:
            informative_seen += 1
            sig_back = best_response_transmitter(rep.rule, spec.transmitter,
                                                 spec.power)
            rule_back = optimal_receiver_rule(rep.signals, spec.noise,
                                              derived_quantities(spec))
            if not (signals_equal(sig_back, rep.signals)
                    and rules_equal(rule_back, rep.rule)):
                identity_fails += 1
    ok = mismatches == 0 and identity_fails == 0 and informative_seen > 0
    report_line(4, ok, f"2000 specs x 2 starts: {mismatches} outcome "
                       f"mismatches; {identity_fails}/{informative_seen} "
                       f"informative points break the mutual-best-response "
                       f"identity")


# ---------------------------------------------------------------------------
# 5. commitment is fragile where simultaneous play is not


def test_criterion_05_robustness_dichotomy():
    spec = fragile_team_spec()
    assert derived_quantities(spec).tau.value != 1.0
    grid = single_cost_perturbations(1e-3)
    # offsets that push a cost below zero are reported per entry, not solved
    s_scan = robustness_scan(spec, Concept.STACKELBERG, grid)
    s_valid = [e for e in s_scan.entries if e.report is not None]
    s_flips = sum(1 for e in s_valid
                  if e.report.informative != s_scan.base.informative)
    n_scan = robustness_scan(spec, Concept.NASH, grid)
    n_valid = [e for e in n_scan.entries if e.report is not None]
    n_changes = 0
    for e in n_valid:
        if not (e.report.informative == n_scan.base.informative
                and signals_equal(e.report.signals, n_scan.base.signals)
                and rules_equal(e.report.rule, n_scan.base.rule)):
            n_changes += 1
    ok = s_flips >= 1 and len(n_valid) == len(s_valid) > 0 and n_changes == 0
    report_line(5, ok, f"±1e-3 cost grid: {s_flips} commitment flips (need "
                       f">=1), {n_changes} simultaneous-play changes (need 0)")


# The smallest offset on the 1e-1 .. 1e-9 ladder at which commitment flips;
# below it no entry moves at all.
_FLIP_FLOOR = {"scalar": 1e-3, "vector": 1e-3, "avg": 1e-2}


@pytest.mark.parametrize("channel", ["scalar", "vector", "avg"])
def test_robustness_dichotomy_on_every_channel(channel):
    spec = fragile_team_spec(channel)
    for k in range(1, 10):
        eps = 10.0 ** -k
        grid = single_cost_perturbations(eps)
        s_scan = robustness_scan(spec, Concept.STACKELBERG, grid)
        base = s_scan.base
        assert base.informative and base.d_star == base.d_max
        s_solved = [e.report for e in s_scan.entries if e.report is not None]
        assert len(s_solved) == 6  # c00 and c11 cannot go below 0
        flips = 0
        for rep in s_solved:
            # a flip jumps the full d_max, never by O(eps)
            flipped = rep.informative != base.informative
            flips += flipped
            assert abs(rep.d_star - base.d_star) == (base.d_max if flipped else 0.0)
        assert (flips > 0) == (eps >= _FLIP_FLOOR[channel]), (channel, eps)

        n_scan = robustness_scan(spec, Concept.NASH, grid)
        n_base = n_scan.base
        assert n_base.informative
        n_solved = [e for e in n_scan.entries if e.report is not None]
        assert len(n_solved) == 6
        if channel != "avg":
            # peak budgets: the pair depends on the margin signs alone
            assert all(within_margins(e.perturbation, spec.receiver)
                       for e in n_solved)
            assert nash_unmoved(n_scan, spec.receiver)
            assert all(e.report.d_star == n_base.d_star for e in n_solved)
            continue
        # average budget: the split x : y = |fa| : tau |miss| moves with the
        # costs, by about 1.1 eps in the signals and 0.045 eps^2 in d*
        for e in n_solved:
            rep = e.report
            assert rep.informative
            shift = max(abs(rep.signals.s0 - n_base.signals.s0),
                        abs(rep.signals.s1 - n_base.signals.s1))
            assert shift <= 2.0 * eps
            assert abs(rep.d_star - n_base.d_star) <= eps


# ---------------------------------------------------------------------------
# 6. simulation agrees with the closed forms


def test_criterion_06_monte_carlo_consistency():
    rng = np.random.default_rng(41)
    t0 = time.perf_counter()
    outside = 0
    for i in range(50):
        spec = random_scalar_spec(rng)
        rep = solve(spec, Concept.STACKELBERG)
        p10, p01 = rule_error_probs(rep.signals, rep.rule, spec.noise)
        est = mc_estimate(rep.signals, rep.rule, spec.noise,
                          (spec.transmitter, spec.receiver), 1_000_000,
                          seed=1000 + i)
        # an all-zeros/all-ones tally estimates its own stderr as 0; score
        # against the stderr the analytic probability implies instead
        m = est.n_samples // 2
        se10 = max(est.p10_stderr, math.sqrt(p10 * (1.0 - p10) / m))
        se01 = max(est.p01_stderr, math.sqrt(p01 * (1.0 - p01) / m))
        if not (abs(est.p10_hat - p10) <= 4.0 * se10
                and abs(est.p01_hat - p01) <= 4.0 * se01):
            outside += 1
    demo = demo_spec()
    rep = solve(demo, Concept.STACKELBERG)
    est = mc_estimate(rep.signals, rep.rule, demo.noise,
                      (demo.transmitter, demo.receiver), 1_000_000, seed=2026)
    demo_ok = abs(est.risk_t_hat - 0.5379) <= 4.0 * est.risk_t_stderr
    elapsed = time.perf_counter() - t0
    ok = outside == 0 and demo_ok and elapsed < 60.0
    report_line(6, ok, f"50 specs at n=1e6: {outside} beyond 4 stderr; "
                       f"reference risk_t gap "
                       f"{abs(est.risk_t_hat - 0.5379):.2e} <= "
                       f"{4.0 * est.risk_t_stderr:.2e}; {elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# 7. mean-power separation formula is the true maximum, budget tight


def test_criterion_07_max_separation_closed_form():
    # the team pair of an average-power game spends the whole budget on the
    # largest separation it allows
    rng = np.random.default_rng(43)
    loose = 0
    beaten = 0
    for _ in range(100):
        spec = random_avg_spec(rng, identical=True)
        b0, b1 = spec.transmitter.prior0, spec.transmitter.prior1
        p = spec.power.p_avg
        design = solve(spec, Concept.TEAM).signals
        s0, s1 = design.s0, design.s1
        if abs(b0 * s0 * s0 + b1 * s1 * s1 - p) > 1e-12:
            loose += 1
        radius = np.sqrt(rng.uniform(0.0, 1.0, 1_000_000))
        angle = rng.uniform(0.0, 2.0 * math.pi, 1_000_000)
        cand0 = math.sqrt(p / b0) * radius * np.cos(angle)
        cand1 = math.sqrt(p / b1) * radius * np.sin(angle)
        best_random = float(np.max(np.abs(cand1 - cand0)))
        if abs(s1 - s0) < best_random - 1e-9:
            beaten += 1
    ok = loose == 0 and beaten == 0
    report_line(7, ok, f"100 triples x 1e6 feasible pairs: {beaten} random "
                       f"wins beyond 1e-9, {loose} budgets off by >1e-12")


# ---------------------------------------------------------------------------
# 8. one-dimensional channels: array and scalar paths tell one story


def test_criterion_08_vector_scalar_coherence():
    rng = np.random.default_rng(53)
    concepts = ((Concept.TEAM, True), (Concept.STACKELBERG, False),
                (Concept.NASH, False))
    mismatches = 0
    for _ in range(200):
        identical = bool(rng.integers(0, 2))
        spec = random_scalar_spec(rng)
        if identical:
            spec = GameSpec(spec.transmitter, spec.transmitter, spec.noise,
                            spec.power)
        vec_spec = embed_1d(spec)
        for concept, needs_identical in concepts:
            if needs_identical and not identical:
                continue
            a = solve(spec, concept)
            b = solve(vec_spec, concept)
            same = (a.case_label == b.case_label
                    and a.informative == b.informative
                    and a.existence == b.existence
                    and a.d_star == b.d_star
                    and a.d_max == b.d_max
                    and a.risk_t == b.risk_t
                    and a.risk_r == b.risk_r
                    and float(b.signals.s0[0]) == a.signals.s0
                    and float(b.signals.s1[0]) == a.signals.s1
                    and a.rule.kind is b.rule.kind)
            if same and a.rule.kind is RuleKind.THRESHOLD:
                na, nb = a.rule.normalized(), b.rule.normalized()
                same = (abs(na.a - float(np.asarray(nb.a)[0])) <= 1e-12
                        and abs(na.eta - nb.eta) <= 1e-12)
            elif same:
                same = a.rule.eta == b.rule.eta
            if not same:
                mismatches += 1
    diag_fails = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        diag = rng.uniform(0.05, 4.0, size=n)
        agent = AgentParams.from_prior0(float(rng.uniform(0.1, 0.9)),
                                        ((0.0, 1.0), (1.0, 0.0)))
        power = PeakPower(float(rng.uniform(0.25, 4.0)),
                          float(rng.uniform(0.25, 4.0)))
        vec = GameSpec(agent, agent, NoiseModel.matrix(np.diag(diag)), power,
                       dimension=n)
        scalar = GameSpec(agent, agent,
                          NoiseModel.scalar(math.sqrt(float(np.min(diag)))),
                          power)
        if abs(d_max_of(vec) - d_max_of(scalar)) > 1e-12:
            diag_fails += 1
    ok = mismatches == 0 and diag_fails == 0
    report_line(8, ok, f"200 embedded specs: {mismatches} report mismatches; "
                       f"200 diagonal covariances: {diag_fails} d_max gaps "
                       f">1e-12")


# ---------------------------------------------------------------------------
# 9. preset families behave as advertised


def test_criterion_09_preset_behavior():
    bad = []
    for alpha in (0.6, 0.75, 0.9):
        spec = preset_biased_cost(alpha)
        for concept in (Concept.STACKELBERG, Concept.NASH):
            rep = solve(spec, concept)
            if not (rep.informative and rep.existence is Existence.EXISTS):
                bad.append(f"{concept.value}@{alpha}")
    for alpha in (0.1, 0.25, 0.4):
        spec = preset_biased_cost(alpha)
        for concept in (Concept.STACKELBERG, Concept.NASH):
            if solve(spec, concept).informative:
                bad.append(f"{concept.value}@{alpha}")
    pairs = 0
    for pt in (0.1, 0.25, 0.5, 0.75, 0.9):
        for pr in (0.1, 0.25, 0.5, 0.75, 0.9):
            spec = preset_subjective_priors(pt, pr)
            assert derived_quantities(spec).tau.is_finite
            rep = solve(spec, Concept.NASH)
            pairs += 1
            if not (rep.informative and rep.existence is Existence.EXISTS
                    and rep.case_label == "xi(+,+)"):
                bad.append(f"priors({pt},{pr})")
    ok = not bad
    report_line(9, ok, "cost-bias alignment split at 1/2 and "
                       f"{pairs} prior pairs informative"
                       + ("" if ok else f"; failures: {bad}"))


# ---------------------------------------------------------------------------
# 10. simulation checker output is reproducible to the byte


def test_criterion_10_verify_is_deterministic():
    argv = [sys.executable, "-m", "sigeq.cli", "verify",
            "--config", str(REPO / "configs" / "demo.json"),
            "--concept", "stackelberg", "--samples", "1000000", "--seed", "0"]
    outputs = []
    for _ in range(3):
        proc = subprocess.run(argv, capture_output=True, cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) > 0
    report_line(10, ok, "3 runs: stdout "
                        f"{'identical' if ok else 'DIFFERS'} "
                        f"({len(outputs[0])} bytes)")
