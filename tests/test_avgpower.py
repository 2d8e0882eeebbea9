"""Average-power budget: closed-form separation maximizer and the solvers on
the budget curve, with exhaustive-grid cross-checks of the numeric pieces."""

import math
import signal

import mpmath
import numpy as np
import pytest
from scipy.special import erfc

from sigeq import (
    AgentParams,
    AveragePower,
    Concept,
    Existence,
    GameSpec,
    MismatchedAgentsError,
    NoiseModel,
    PeakPower,
    ReceiverRule,
    SignalDesign,
    SpecError,
    d_max_of,
    derived_quantities,
    nash_avg_best_response,
    optimal_receiver_rule,
    q_function,
    risk_pair,
    solve,
)
from sigeq import avgpower
from conftest import DEMO_RX, DEMO_TX, random_agent, random_avg_spec, signals_equal

Q1 = 0.15865525393145707


def _q(z):
    return 0.5 * erfc(np.asarray(z) / math.sqrt(2.0))


def threshold_risks(agent: AgentParams, s0, s1, a: float, eta: float,
                    sigma: float):
    """Risk of declaring via sign(a y - eta), vectorized over signal arrays."""
    spread = abs(a) * sigma
    p10 = _q((eta - a * np.asarray(s0)) / spread)
    p01 = 1.0 - _q((eta - a * np.asarray(s1)) / spread)
    return (agent.prior0 * agent.c00 + agent.prior1 * agent.c11
            + agent.prior0 * agent.false_alarm_margin * p10
            + agent.prior1 * agent.miss_margin * p01)


def tx_best_deviation(tx: AgentParams, rule: ReceiverRule, sigma: float,
                      p_avg: float, n: int = 4097) -> float:
    """Smallest transmitter risk over the budget curve, all orientations."""
    xs = np.linspace(0.0, math.sqrt(p_avg / tx.prior0), n)
    ys = np.sqrt(np.maximum(p_avg - tx.prior0 * xs * xs, 0.0) / tx.prior1)
    best = math.inf
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            risks = threshold_risks(tx, sx * xs, sy * ys, rule.a, rule.eta, sigma)
            best = min(best, float(np.min(risks)))
    return best


def rx_best_deviation(rx: AgentParams, signals: SignalDesign, a: float,
                      sigma: float, n: int = 4097) -> float:
    """Smallest receiver risk over threshold offsets and the constant rules."""
    span = 8.0 * abs(a) * sigma + abs(a) * (abs(signals.s0) + abs(signals.s1))
    etas = np.linspace(-span, span, n)
    spread = abs(a) * sigma
    p10 = _q((etas - a * signals.s0) / spread)
    p01 = 1.0 - _q((etas - a * signals.s1) / spread)
    risks = (rx.prior0 * rx.c00 + rx.prior1 * rx.c11
             + rx.prior0 * rx.false_alarm_margin * p10
             + rx.prior1 * rx.miss_margin * p01)
    base = rx.prior0 * rx.c00 + rx.prior1 * rx.c11
    always_h0 = base + rx.prior1 * rx.miss_margin
    always_h1 = base + rx.prior0 * rx.false_alarm_margin
    return min(float(np.min(risks)), always_h0, always_h1)


HONEST = ((0.0, 1.0), (1.0, 0.0))


def sym_spec(sigma: float = 1.0, p_avg: float = 1.0) -> GameSpec:
    agent = AgentParams.from_prior0(0.5, HONEST)
    return GameSpec(agent, agent, NoiseModel.scalar(sigma), AveragePower(p_avg))


# ---------------------------------------------------------------------------
# closed-form separation maximizer: the team pair, which spends the whole
# budget on the largest separation


def team_pair(prior0: float, p_avg: float) -> SignalDesign:
    """The team pair of honest identical agents (zeta = +1) with priors
    (prior0, 1 - prior0) under the average budget ``p_avg``."""
    agent = AgentParams.from_prior0(prior0, HONEST)
    spec = GameSpec(agent, agent, NoiseModel.scalar(1.0), AveragePower(p_avg))
    return solve(spec, Concept.TEAM).signals


def test_max_separation_symmetric_weights():
    pair = team_pair(0.5, 1.0)
    assert (pair.s0, pair.s1) == (-1.0, 1.0)
    assert (pair.s1 - pair.s0) ** 2 == 4.0


def test_max_separation_skewed_weights():
    pair = team_pair(0.25, 1.0)
    assert abs(pair.s0 + math.sqrt(3.0)) <= 1e-15
    assert abs(pair.s1 - 1.0 / math.sqrt(3.0)) <= 1e-15
    assert abs((pair.s1 - pair.s0) ** 2 - 16.0 / 3.0) <= 1e-12
    assert abs(0.25 * pair.s0 ** 2 + 0.75 * pair.s1 ** 2 - 1.0) <= 1e-12


def test_max_separation_antipodal_for_equal_weights():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pair = team_pair(0.5, float(rng.uniform(0.1, 9.0)))
        assert pair.s1 == -pair.s0


def test_max_separation_budget_tight():
    rng = np.random.default_rng(5)
    for _ in range(200):
        b0 = float(rng.uniform(0.05, 0.95))
        p = float(rng.uniform(0.1, 9.0))
        pair = team_pair(b0, p)
        assert abs(b0 * pair.s0 ** 2 + (1.0 - b0) * pair.s1 ** 2 - p) <= 1e-12 * p


def test_max_separation_beats_sampled_feasible_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        b0 = float(rng.uniform(0.05, 0.95))
        b1 = 1.0 - b0
        p = float(rng.uniform(0.1, 9.0))
        pair = team_pair(b0, p)
        closed = (pair.s1 - pair.s0) ** 2
        theta = rng.uniform(0.0, 2.0 * math.pi, size=20_000)
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=theta.size))
        s0 = radius * np.cos(theta) * math.sqrt(p / b0)
        s1 = radius * np.sin(theta) * math.sqrt(p / b1)
        assert closed >= float(np.max((s1 - s0) ** 2)) - 1e-9


def test_extreme_pair_separation_matches_budget_distance():
    rng = np.random.default_rng(13)
    for _ in range(200):
        spec = random_avg_spec(rng, identical=True)
        rep = solve(spec, Concept.TEAM)
        d = abs(rep.signals.s1 - rep.signals.s0) / spec.noise.sigma
        assert rep.d_star == rep.d_max == d_max_of(spec)
        assert abs(d - d_max_of(spec)) <= 1e-12 * max(1.0, d_max_of(spec))


# ---------------------------------------------------------------------------
# team and leader-follower solves


def test_team_symmetric_point():
    rep = solve(sym_spec(), Concept.TEAM)
    assert rep.d_star == 2.0 and rep.d_max == 2.0
    assert (rep.signals.s0, rep.signals.s1) == (-1.0, 1.0)
    assert rep.risk_t == Q1 and rep.risk_r == Q1
    assert (rep.rule.a, rep.rule.eta) == (2.0, 0.0)
    # equals the peak-power game with both budgets at 1
    agent = AgentParams.from_prior0(0.5, HONEST)
    peak = solve(GameSpec(agent, agent, NoiseModel.scalar(1.0),
                          PeakPower(1.0, 1.0)), Concept.TEAM)
    assert rep.risk_t == peak.risk_t and rep.d_star == peak.d_star


def test_team_skewed_prior_budget_distance():
    agent = AgentParams.from_prior0(0.25, ((0.0, 0.4), (0.9, 0.0)))
    spec = GameSpec(agent, agent, NoiseModel.scalar(0.1), AveragePower(1.0))
    rep = solve(spec, Concept.TEAM)
    assert rep.d_max == 23.09401076758503
    assert rep.d_star == rep.d_max


def test_team_degenerate_threshold_ratio():
    agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 1.0)))
    rep = solve(GameSpec(agent, agent, NoiseModel.scalar(1.0),
                         AveragePower(1.0)), Concept.TEAM)
    assert not rep.informative
    assert rep.signals.s0 == 0.0 and rep.signals.s1 == 0.0


def test_full_budget_pair_survives_an_overflowing_d_max():
    # sigma = 1e-320 overflows d_max to inf; team and leader-follower play
    # both choose the full budget and report the extreme pair itself
    agent = AgentParams.from_prior0(0.5, HONEST)
    spec = GameSpec(agent, agent, NoiseModel.scalar(1e-320), AveragePower(1.0))
    for concept in (Concept.TEAM, Concept.STACKELBERG):
        rep = solve(spec, concept)
        assert rep.informative and rep.d_star == rep.d_max == math.inf
        assert rep.signals.s0 == -1.0 and rep.signals.s1 == 1.0


def test_full_budget_pair_passes_its_own_budget_check():
    # the extreme pair spends 4201.877... to the last few ulps, which an
    # absolute 1e-12 tolerance rejected as an exceeded budget
    agent = AgentParams.from_prior0(0.9397660492149488, HONEST)
    spec = GameSpec(agent, agent, NoiseModel.scalar(1.0),
                    AveragePower(4201.877233464787))
    for concept in (Concept.TEAM, Concept.STACKELBERG):
        rep = solve(spec, concept)
        assert rep.informative and rep.d_star == rep.d_max


def test_avg_solver_validation():
    honest = AgentParams.from_prior0(0.5, HONEST)
    other = AgentParams.from_prior0(0.3, ((0.0, 0.5), (1.5, 0.0)))
    # a vector channel cannot carry the budget: the game is not built
    with pytest.raises(SpecError, match="^power: the average-power budget"):
        GameSpec(honest, honest, NoiseModel.matrix(np.eye(2)), AveragePower(1.0),
                 dimension=2)
    with pytest.raises(MismatchedAgentsError):
        solve(GameSpec(honest, other, NoiseModel.scalar(1.0), AveragePower(1.0)),
              Concept.TEAM)


def test_stackelberg_interior_point():
    spec = GameSpec(DEMO_TX, DEMO_RX, NoiseModel.scalar(0.1), AveragePower(1.0))
    rep = solve(spec, Concept.STACKELBERG)
    assert rep.case_label == "case-3"
    assert rep.d_star == 0.47041885791917976
    assert rep.d_max == 23.09401076758503
    assert rep.risk_t == 0.5378817736566109
    assert rep.risk_r == 0.20506971530212073
    assert abs(rep.signals.s0 + 0.03528141434393848) <= 1e-15
    assert abs(rep.signals.s1 - 0.011760471447979494) <= 1e-15
    # interior pair spends exactly the (d*/d_max)^2 fraction of the budget
    spent = 0.25 * rep.signals.s0 ** 2 + 0.75 * rep.signals.s1 ** 2
    assert abs(spent - (rep.d_star / rep.d_max) ** 2) <= 1e-15


def test_stackelberg_identical_agents_take_full_separation():
    rng = np.random.default_rng(17)
    for _ in range(50):
        spec = random_avg_spec(rng, identical=True)
        rep = solve(spec, Concept.STACKELBERG)
        team = solve(spec, Concept.TEAM)
        assert rep.d_star == rep.d_max
        assert rep.case_label in ("case-1", "case-6")
        assert rep.risk_t == team.risk_t
        assert rep.signals.s0 == team.signals.s0
        assert rep.signals.s1 == team.signals.s1


# ---------------------------------------------------------------------------
# transmitter best response on the budget curve


def test_best_response_symmetric_splits_evenly():
    agent = AgentParams.from_prior0(0.5, HONEST)
    noise = NoiseModel.scalar(1.0)
    rule = ReceiverRule.threshold(1.0, 0.0)
    signals, x_star = nash_avg_best_response(rule, agent, 1.0, noise)
    assert abs(x_star - 1.0) <= 1e-6
    assert abs(signals.s0 + 1.0) <= 1e-6 and abs(signals.s1 - 1.0) <= 1e-6
    risk, _ = risk_pair(agent, agent, signals, rule, noise)
    assert abs(risk - Q1) <= 1e-12
    # the even split strictly beats parking x at sqrt(P/2)
    x_alt = math.sqrt(0.5)
    alt = SignalDesign(-x_alt, math.sqrt(2.0 - x_alt ** 2))
    risk_alt, _ = risk_pair(agent, agent, alt, rule, noise)
    assert risk_alt > risk + 1e-2


def test_best_response_orientation_follows_rule_sign():
    agent = AgentParams.from_prior0(0.5, HONEST)
    signals, x_star = nash_avg_best_response(ReceiverRule.threshold(-2.0, 0.0),
                                             agent, 1.0, NoiseModel.scalar(1.0))
    assert signals.s0 == -(-x_star)  # flipped rule flips both signals
    assert signals.s0 > 0.0 > signals.s1


def test_best_response_margin_special_cases():
    noise = NoiseModel.scalar(1.0)
    rule = ReceiverRule.threshold(1.0, 0.0)
    flat = AgentParams.from_prior0(0.5, ((1.0, 0.5), (1.0, 0.5)))
    signals, x_star = nash_avg_best_response(rule, flat, 1.0, noise)
    assert (signals.s0, signals.s1, x_star) == (0.0, 0.0, 0.0)
    no_fa = AgentParams.from_prior0(0.5, ((1.0, 2.0), (1.0, 0.5)))
    signals, x_star = nash_avg_best_response(rule, no_fa, 1.0, noise)
    assert (signals.s0, x_star) == (0.0, 0.0)
    assert abs(signals.s1 - math.sqrt(2.0)) <= 1e-15
    no_miss = AgentParams.from_prior0(0.5, ((1.0, 0.5), (2.0, 0.5)))
    signals, x_star = nash_avg_best_response(rule, no_miss, 1.0, noise)
    assert signals.s1 == 0.0
    assert abs(x_star - math.sqrt(2.0)) <= 1e-15
    assert signals.s0 == -x_star


def test_best_response_validation():
    agent = AgentParams.from_prior0(0.5, HONEST)
    with pytest.raises(SpecError):
        nash_avg_best_response(ReceiverRule.always_h0(), agent, 1.0,
                               NoiseModel.scalar(1.0))
    with pytest.raises(SpecError):
        nash_avg_best_response(ReceiverRule.threshold(1.0, 0.0), agent, 0.0,
                               NoiseModel.scalar(1.0))
    with pytest.raises(SpecError):
        nash_avg_best_response(ReceiverRule.threshold(1.0, 0.0), agent, 1.0,
                               NoiseModel.matrix(np.eye(1)))


def test_best_response_matches_exhaustive_grid():
    rng = np.random.default_rng(19)
    for _ in range(100):
        tx = random_agent(rng)
        if tx.false_alarm_margin == 0.0 or tx.miss_margin == 0.0:
            continue
        sigma = float(rng.uniform(0.3, 2.0))
        p_avg = float(rng.uniform(0.25, 4.0))
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
        eta = float(rng.uniform(-1.0, 1.0))
        rule = ReceiverRule.threshold(a, eta)
        signals, _ = nash_avg_best_response(rule, tx, p_avg, NoiseModel.scalar(sigma))
        got = float(threshold_risks(tx, signals.s0, signals.s1, a, eta, sigma))
        xs = np.linspace(0.0, math.sqrt(p_avg / tx.prior0), 1_000_001)
        ys = np.sqrt(np.maximum(p_avg - tx.prior0 * xs * xs, 0.0) / tx.prior1)
        sa = 1.0 if a > 0 else -1.0
        s0 = (-sa * math.copysign(1.0, tx.false_alarm_margin)) * xs
        s1 = (sa * math.copysign(1.0, tx.miss_margin)) * ys
        dense = float(np.min(threshold_risks(tx, s0, s1, a, eta, sigma)))
        assert abs(got - dense) <= 1e-6


# ---------------------------------------------------------------------------
# grid oracle: the search the enumeration replaced, a 4097-point erfc grid on
# the budget curve sharpened by a golden section


GRID_POINTS = 4097
GOLDEN_TOL = 1e-10
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def curve_level(x: float, p_avg: float, pi0: float, pi1: float) -> float:
    """|s1| on the binding budget for the split x = |s0|."""
    return math.sqrt(max(p_avg - pi0 * x * x, 0.0) / pi1)


def golden_min(f, lo: float, hi: float):
    """Golden-section minimum on [lo, hi]; ties resolve to the smaller x.

    It stops at a width of 1e-10, so it never ends once the ulp of x passes
    that: keep budgets ordinary."""
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi < best_f:
        best_x, best_f = hi, f_hi
    c = hi - INVPHI * (hi - lo)
    d = lo + INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > GOLDEN_TOL:
        for x, fx in ((c, fc), (d, fd)):
            if fx < best_f or (fx == best_f and x < best_x):
                best_x, best_f = x, fx
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INVPHI * (hi - lo)
            fd = f(d)
    return best_x, best_f


def _curve_risks_reference(xs: np.ndarray, rule: ReceiverRule, tx: AgentParams,
                           p_avg: float, sigma: float) -> np.ndarray:
    """Risk on the budget curve at the splits ``xs``, vectorized with scipy's
    ``erfc``: the grid oracle's own formula, independent of the package's
    detection primitives."""
    pi0, pi1 = tx.prior0, tx.prior1
    fa, miss = tx.false_alarm_margin, tx.miss_margin
    sa = 1 if rule.a > 0 else -1
    ys = np.sqrt(np.maximum(p_avg - pi0 * xs * xs, 0.0) / pi1)
    s0 = (-sa * int(math.copysign(1.0, fa))) * xs
    s1 = (sa * int(math.copysign(1.0, miss))) * ys
    spread = abs(rule.a) * sigma
    p10 = 0.5 * erfc((rule.eta - rule.a * s0) / spread / math.sqrt(2.0))
    p01 = 0.5 * erfc(-(rule.eta - rule.a * s1) / spread / math.sqrt(2.0))
    return pi0 * tx.c00 + pi1 * tx.c11 + pi0 * fa * p10 + pi1 * miss * p01


def grid_best_response(rule: ReceiverRule, tx: AgentParams, p_avg: float,
                       noise: NoiseModel):
    """The grid search's transmitter response, for transmitters with both
    margins nonzero: the best grid point, sharpened by a golden section over
    its two neighbouring cells, the refined point never worse than it.  Every
    point is scored by ``_curve_risks_reference``."""
    pi0, pi1 = tx.prior0, tx.prior1
    sa = 1.0 if rule.a > 0 else -1.0
    xs = np.linspace(0.0, math.sqrt(p_avg / pi0), GRID_POINTS)
    risks = _curve_risks_reference(xs, rule, tx, p_avg, noise.sigma)
    i = int(np.argmin(risks))
    grid_x, grid_f = float(xs[i]), float(risks[i])

    def f(x: float) -> float:
        return float(_curve_risks_reference(np.array([x]), rule, tx, p_avg,
                                            noise.sigma)[0])

    x_star, f_star = golden_min(f, float(xs[max(i - 1, 0)]),
                                float(xs[min(i + 1, GRID_POINTS - 1)]))
    if grid_f < f_star or (grid_f == f_star and grid_x < x_star):
        x_star = grid_x
    y_star = curve_level(x_star, p_avg, pi0, pi1)
    s0 = -sa * math.copysign(1.0, tx.false_alarm_margin) * x_star
    s1 = sa * math.copysign(1.0, tx.miss_margin) * y_star
    return SignalDesign(s0, s1), x_star


def test_both_responders_reach_the_dense_grid_minimum():
    # the enumeration and the grid oracle both reach the minimum of the
    # reference formula over a million-point grid of the budget curve
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 20:
        tx = random_agent(rng)
        if tx.false_alarm_margin == 0.0 or tx.miss_margin == 0.0:
            continue
        sigma = float(rng.uniform(0.2, 2.0))
        p_avg = float(rng.uniform(0.25, 4.0))
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 5.0))
        rule = ReceiverRule.threshold(a, float(rng.uniform(-3.0, 3.0)))
        dense = np.linspace(0.0, math.sqrt(p_avg / tx.prior0), 1_000_001)
        best = float(np.min(_curve_risks_reference(dense, rule, tx, p_avg, sigma)))
        for respond in (nash_avg_best_response, grid_best_response):
            signals, _ = respond(rule, tx, p_avg, NoiseModel.scalar(sigma))
            got = float(threshold_risks(tx, signals.s0, signals.s1, a,
                                        rule.eta, sigma))
            assert abs(got - best) <= 1e-6
        checked += 1


def _g_reference(rule: ReceiverRule, tx: AgentParams, p_avg: float,
                 sigma: float):
    """The first-order condition g = [ln(|miss| x) - u1^2/2]
    - [ln(|fa| y) - u0^2/2] on the budget curve against a fixed rule, with
    u0, u1 written out from the risk's formulas, in mpmath, as a function of
    f = ln tan t at x = sqrt(P/pi0) sin t, y = sqrt(P/pi1) cos t."""
    m = mpmath.mpf
    pi0, pi1, p = m(tx.prior0), m(tx.prior1), m(p_avg)
    fa = m(tx.c10) - m(tx.c00)
    miss = m(tx.c01) - m(tx.c11)
    a, eta, s = m(rule.a), m(rule.eta), m(sigma)
    sa = mpmath.sign(a)

    def g(f):
        t = mpmath.atan(mpmath.exp(f))
        x = mpmath.sqrt(p / pi0) * mpmath.sin(t)
        y = mpmath.sqrt(p / pi1) * mpmath.cos(t)
        s0, s1 = -sa * mpmath.sign(fa) * x, sa * mpmath.sign(miss) * y
        u0 = (eta - a * s0) / (abs(a) * s)
        u1 = -(eta - a * s1) / (abs(a) * s)
        return ((mpmath.log(abs(miss) * x) - u1 * u1 / 2)
                - (mpmath.log(abs(fa) * y) - u0 * u0 / 2))

    return g


def test_enumerated_roots_match_a_50_digit_reference():
    # every root the enumeration reports is a root of the x-form of g, to
    # 50 digits; and every sign change of g from - to + on a dense float grid
    # of the curve has an enumerated root inside its grid cell
    rng = np.random.default_rng(43)
    checked = several = 0
    while checked < 60:
        tx = random_agent(rng)
        if tx.false_alarm_margin == 0.0 or tx.miss_margin == 0.0:
            continue
        sigma = float(rng.uniform(0.2, 2.0))
        p_avg = float(rng.uniform(0.25, 4.0))
        rule = ReceiverRule.threshold(float(rng.choice([-1.0, 1.0])
                                            * rng.uniform(0.05, 5.0)),
                                      float(rng.uniform(-3.0, 3.0)))
        roots = avgpower._rising_roots(
            *avgpower._arc_coefficients(rule, tx, p_avg, sigma))
        assert roots == sorted(roots)
        with mpmath.workdps(50):
            g = _g_reference(rule, tx, p_avg, sigma)
            for f in roots:
                step = 1e-9 * max(1.0, abs(f))
                lo, hi = mpmath.mpf(f) - step, mpmath.mpf(f) + step
                assert g(lo) < 0 < g(hi)
                ref = mpmath.findroot(g, (lo, hi), solver="anderson")
                assert abs(float(ref) - f) <= 1e-12 * max(1.0, abs(f))
        x_top = math.sqrt(p_avg / tx.prior0)
        xs = [x_top * avgpower._arc_point(f)[0] for f in roots]
        grid = np.linspace(0.0, x_top, 20_001)[1:-1]
        ys = np.sqrt((p_avg - tx.prior0 * grid * grid) / tx.prior1)
        fa, miss = tx.false_alarm_margin, tx.miss_margin
        spread = abs(rule.a) * sigma
        u0 = (rule.eta + abs(rule.a) * math.copysign(1.0, fa) * grid) / spread
        u1 = -(rule.eta - abs(rule.a) * math.copysign(1.0, miss) * ys) / spread
        gs = np.log(abs(miss) * grid) - u1 * u1 / 2 - np.log(abs(fa) * ys) + u0 * u0 / 2
        for i in np.nonzero((gs[:-1] < 0.0) & (gs[1:] > 0.0))[0]:
            assert any(grid[i] <= x <= grid[i + 1] for x in xs)
        several += len(roots) > 1
        checked += 1
    # the sample includes risks with more than one local minimum
    assert several >= 1


def test_certification_matches_the_grid_oracle(monkeypatch):
    # the first 300 games of seeds 1-3: every report, certified or not, is
    # the one the grid oracle's response certifies
    games = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        games += [random_avg_spec(rng) for _ in range(300)]
    reports = [solve(spec, Concept.NASH) for spec in games]
    monkeypatch.setattr(avgpower, "nash_avg_best_response", grid_best_response)
    informative = 0
    for spec, rep in zip(games, reports):
        oracle = solve(spec, Concept.NASH)
        assert rep.informative == oracle.informative
        assert rep.existence is oracle.existence
        assert rep.case_label == oracle.case_label
        assert (repr(rep.d_star), repr(rep.risk_t), repr(rep.risk_r)) == \
            (repr(oracle.d_star), repr(oracle.risk_t), repr(oracle.risk_r))
        informative += rep.informative
    # both outcomes occur among the oriented roots
    assert 0 < informative < len(games)


@pytest.mark.parametrize("scale", [1e-6, 1e6, 1e12])
def test_nash_outcome_is_invariant_to_the_transmitters_cost_unit(scale):
    # scaling the transmitter's costs rescales its risk and changes no
    # equilibrium: the certification tolerance scales with them
    rng = np.random.default_rng(3)
    for _ in range(600):
        spec = random_avg_spec(rng)
        tx = spec.transmitter
        scaled = AgentParams(tx.prior0, tx.prior1,
                             tuple(tuple(scale * c for c in row) for row in tx.costs))
        rep = solve(spec, Concept.NASH)
        moved = solve(GameSpec(scaled, spec.receiver, spec.noise, spec.power),
                      Concept.NASH)
        assert (moved.case_label, moved.existence, moved.informative) == \
            (rep.case_label, rep.existence, rep.informative), spec
        assert moved.d_star == pytest.approx(rep.d_star, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("tx, rx, sigma, p_avg", [
    # costs of 1e-111: the split's risk 2.2e-111 against the best response's
    # 0 is the whole risk, yet below an absolute 1e-12
    (AgentParams(0.561584250002581, 0.43841574999741895,
                 ((0.0, 0.0), (0.34779047620594006, 5.118628345881961e-111))),
     AgentParams(7.683743614927887e-225, 1.0,
                 ((0.0, 1.3237796590957411), (1.3927542139273308e+237,
                                              3.0997664020108347e-233))),
     3.721306847918185e-05, 6.01748806258656e+137),
    # a miss margin of 1.9e148 whose error tail vanishes: the gap of 0.13 is
    # far below 1e-12 (pi0 |fa| + pi1 |miss|) = 1.7e136, yet real
    (AgentParams(0.11679509553033982, 0.8832049044696602,
                 ((1.1025846470507799, 1.8934017799485145e+148),
                  (0.0, 1.276458932585283))),
     AgentParams(0.35420556398062336, 0.6457944360193766,
                 ((0.0, 2.8432997003161574e+69), (0.7141798643792725, 0.0))),
     2.5811127139147914e+78, 2.3065788856972855e+261),
])
def test_certification_tolerance_follows_the_size_of_the_risk_terms(tx, rx, sigma,
                                                                    p_avg):
    rep = solve(GameSpec(tx, rx, NoiseModel.scalar(sigma), AveragePower(p_avg)),
                Concept.NASH)
    assert rep.existence is Existence.ONLY_DEGENERATE


def test_a_zero_false_alarm_margin_splits_where_the_miss_weight_underflows():
    # fa = 0 and tau |miss| underflows to 0: both split weights vanish, and
    # the exact split x = 0 is taken
    tx = AgentParams(0.7432796437233467, 0.25672035627665335,
                     ((0, 0), (0, 3.5558393659987464e-166)))
    rx = AgentParams(0.18160494250725776, 0.8183950574927422,
                     ((0, 1.4103862414334636), (3.2807869601171646e-186, 0)))
    spec = GameSpec(tx, rx, NoiseModel.scalar(1.129357342649006e+50),
                    AveragePower(6.36777139939165e-189))
    rep = solve(spec, Concept.NASH)
    assert math.isfinite(rep.risk_t) and math.isfinite(rep.risk_r)
    assert (rep.risk_t, rep.risk_r) == risk_pair(tx, rx, rep.signals, rep.rule,
                                                 spec.noise)
    assert avgpower._stationary_split(0.0, 0.0, 4.0, 0.75, 0.25) == (0.0, 4.0)


def test_huge_budgets_solve_in_finite_time():
    # the grid oracle's golden section never ends here: its 1e-10 stopping
    # width is below the ulp of x once p_avg is about 1e13 pi0
    tx = AgentParams(0.3868194501306237, 0.6131805498693763,
                     ((0.09085271350425783, 1.3210001348557896),
                      (1.862927709482709, 0.20719116808100124)))
    rx = AgentParams(0.6170811798068087, 0.38291882019319134,
                     ((0.29816309065742475, 1.4835133601386608),
                      (1.444329616284235, 0.21871542456880455)))
    noise = NoiseModel.scalar(1.0)
    rule = ReceiverRule.threshold(1.3, 0.2)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(10)
    try:
        rep = solve(GameSpec(tx, rx, noise, AveragePower(1e15)), Concept.NASH)
        assert math.isfinite(rep.risk_t) and math.isfinite(rep.risk_r)
        for p_avg in (1e13, 1e15, 1e20):
            signals, x_star = nash_avg_best_response(rule, tx, p_avg, noise)
            assert all(map(math.isfinite, (signals.s0, signals.s1, x_star)))
            assert 0.0 <= x_star <= math.sqrt(p_avg / tx.prior0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _timed_out(signum, frame):
    raise TimeoutError("the solve did not return within 10 s")


def test_budget_curve_overflow_is_rejected_naming_the_field():
    # sqrt(p_avg / prior0) / sigma squares past the float range
    tx = AgentParams.from_prior0(1e-200, HONEST)
    with pytest.raises(SpecError, match="^p_avg: "):
        nash_avg_best_response(ReceiverRule.threshold(1.0, 0.0), tx, 1e100,
                               NoiseModel.scalar(1e-10))


# ---------------------------------------------------------------------------
# equilibrium search


def test_nash_symmetric_informative():
    rep = solve(sym_spec(), Concept.NASH)
    assert rep.case_label == "xi(+,+)"
    assert rep.existence is Existence.EXISTS and rep.informative
    assert rep.d_star == 2.0 and rep.d_max == 2.0
    assert rep.risk_t == Q1 and rep.risk_r == Q1
    assert abs(rep.signals.s0 + 1.0) <= 1e-6
    assert abs(rep.signals.s1 - 1.0) <= 1e-6
    assert rep.rule.a == 2.0 and abs(rep.rule.eta) <= 1e-8


def test_nash_deceptive_only_degenerate():
    deceptive = AgentParams.from_prior0(0.5, ((1.0, 0.0), (0.0, 1.0)))
    honest = AgentParams.from_prior0(0.5, HONEST)
    rep = solve(GameSpec(deceptive, honest, NoiseModel.scalar(1.0),
                         AveragePower(1.0)), Concept.NASH)
    assert rep.case_label == "xi(-,-)"
    assert rep.existence is Existence.ONLY_DEGENERATE
    assert not rep.informative and rep.d_star == 0.0


def test_nash_mixed_signs_above_budget_root():
    tx = AgentParams.from_prior0(
        0.12015749664140829,
        ((0.06070058876822326, 0.2457842044100187),
         (1.9342964707947354, 1.3155214600770289)))
    rx = AgentParams.from_prior0(
        0.3977482180521632,
        ((0.8564404927789626, 1.0474802158209606),
         (1.7456184171295488, 0.6884213339920524)))
    spec = GameSpec(tx, rx, NoiseModel.scalar(1.303494669892515),
                    AveragePower(2.813816400023289))
    rep = solve(spec, Concept.NASH)
    assert rep.case_label == "xi(+,-) x*>=rootP"
    assert rep.existence is Existence.EXISTS and rep.informative
    assert abs(abs(rep.signals.s0) - 1.7807230936409303) <= 1e-6
    assert abs(rep.d_star - 0.0904353902845) <= 1e-6
    assert abs(rep.signals.s0) >= math.sqrt(spec.power.p_avg)


def test_nash_mixed_signs_below_budget_root():
    tx = AgentParams.from_prior0(
        0.3661451673690599,
        ((0.4058235044270324, 0.10140811054454102),
         (0.4258163899506784, 1.8309287942478165)))
    rx = AgentParams.from_prior0(
        0.4186204477434965,
        ((1.6803376343167793, 0.22481148298515796),
         (1.2075580506337307, 0.9583929897792496)))
    spec = GameSpec(tx, rx, NoiseModel.scalar(1.3109642798300736),
                    AveragePower(2.7222812747839873))
    rep = solve(spec, Concept.NASH)
    assert rep.case_label == "xi(-,+) x*<rootP"
    assert rep.existence is Existence.EXISTS and rep.informative
    assert abs(abs(rep.signals.s0) - 0.05161453176224548) <= 1e-6
    assert abs(rep.d_star - 1.541159200960174) <= 1e-6
    assert abs(rep.signals.s0) < math.sqrt(spec.power.p_avg)


def test_nash_slow_convergence_is_not_a_cycle():
    # near-flat response curves stall the iteration at the x* resolution
    # floor; the stall must classify as a fixed point, not a 2-cycle
    tx = AgentParams.from_prior0(
        0.7902473879349878,
        ((0.25827588294864956, 1.5337183134763106),
         (1.7652414398038365, 0.39456513966349305)))
    rx = AgentParams.from_prior0(
        0.7377015302769038,
        ((1.1472823589970462, 1.2774999320442058),
         (1.2186685149851997, 0.19249135525608696)))
    spec = GameSpec(tx, rx, NoiseModel.scalar(1.4240254837254136),
                    AveragePower(2.619830217548195))
    rep = solve(spec, Concept.NASH)
    assert rep.case_label == "xi(+,+)"
    assert rep.existence is Existence.EXISTS and rep.informative
    assert abs(abs(rep.signals.s0) - 1.8160603297485485) <= 1e-6


def test_nash_degenerate_threshold_ratio():
    agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 1.0)))
    rep = solve(GameSpec(agent, agent, NoiseModel.scalar(1.0),
                         AveragePower(1.0)), Concept.NASH)
    assert rep.case_label == "degenerate"
    assert not rep.informative


def test_nash_report_shape_on_random_games():
    rng = np.random.default_rng(23)
    for _ in range(300):
        spec = random_avg_spec(rng, finite_tau=False)
        rep = solve(spec, Concept.NASH)
        if rep.informative:
            assert rep.existence is Existence.EXISTS
            assert rep.d_star > 0.0
            assert not rep.signals.coincident
            assert rep.risk_t <= 1.0 + spec.transmitter.c00 + spec.transmitter.c11 \
                + spec.transmitter.false_alarm_margin + abs(spec.transmitter.miss_margin)
        else:
            assert rep.d_star == 0.0
            assert rep.signals.s0 == rep.signals.s1 == 0.0
        budget = (spec.transmitter.prior0 * rep.signals.s0 ** 2
                  + spec.transmitter.prior1 * rep.signals.s1 ** 2)
        assert budget <= spec.power.p_avg + 1e-12


def test_nash_fixed_points_resist_unilateral_deviations():
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 25:
        spec = random_avg_spec(rng)
        rep = solve(spec, Concept.NASH)
        if not rep.informative:
            continue
        risk_t, risk_r = risk_pair(spec.transmitter, spec.receiver, rep.signals,
                                   rep.rule, spec.noise)
        best_t = tx_best_deviation(spec.transmitter, rep.rule,
                                   spec.noise.sigma, spec.power.p_avg)
        assert risk_t <= best_t + 1e-9
        best_r = rx_best_deviation(spec.receiver, rep.signals, rep.rule.a,
                                   spec.noise.sigma)
        assert risk_r <= best_r + 1e-9
        checked += 1


def _best_response_rounds(spec: GameSpec, rounds: int = 64):
    """Best-response rounds from the rule threshold(1, 0): the transmitter's
    numeric response, then the receiver's matched rule, until two consecutive
    pairs agree within 1e-9 or the rounds run out.  Returns every
    (signals, x*) the transmitter played."""
    rule = ReceiverRule.threshold(1.0, 0.0)
    played = []
    for _ in range(rounds):
        signals, x_star = nash_avg_best_response(rule, spec.transmitter,
                                                 spec.power.p_avg, spec.noise)
        played.append((signals, x_star))
        if len(played) >= 2 and signals_equal(signals, played[-2][0], tol=1e-9):
            break
        rule = optimal_receiver_rule(signals, spec.noise, derived_quantities(spec))
    return played


def _first_order_root(spec: GameSpec, digits: int = 50) -> float:
    """Root in x = |s0| of the transmitter's first-order condition on the
    budget curve against the rule matched to the pair at x,
        g(x) = [ln(|miss| x) - u1^2/2] - [ln(|fa| y) - u0^2/2],
    with the pair s0 = -sign(fa) x, s1 = sign(miss) y and the matched rule
    written out from its formulas, solved with mpmath at ``digits`` digits."""
    tx, rx = spec.transmitter, spec.receiver
    with mpmath.workdps(digits):
        f = mpmath.mpf
        pi0, pi1, p_avg = f(tx.prior0), f(tx.prior1), f(spec.power.p_avg)
        sigma = f(spec.noise.sigma)
        fa, miss = f(tx.c10) - f(tx.c00), f(tx.c01) - f(tx.c11)
        rx_fa, rx_miss = f(rx.c10) - f(rx.c00), f(rx.c01) - f(rx.c11)
        log_tau = mpmath.log(f(rx.prior0) * rx_fa / (f(rx.prior1) * rx_miss))
        zeta = mpmath.sign(rx_miss)

        def g(x):
            y = mpmath.sqrt((p_avg - pi0 * x * x) / pi1)
            s0, s1 = -mpmath.sign(fa) * x, mpmath.sign(miss) * y
            a = zeta * (s1 - s0)
            eta = zeta * (sigma * sigma * log_tau + (s1 * s1 - s0 * s0) / 2)
            e = eta / (a * sigma)
            u0 = e + mpmath.sign(fa) * x / sigma
            u1 = -e + mpmath.sign(miss) * y / sigma
            return ((mpmath.log(abs(miss) * x) - u1 * u1 / 2)
                    - (mpmath.log(abs(fa) * y) - u0 * u0 / 2))

        x_top = mpmath.sqrt(p_avg / pi0)
        root = mpmath.findroot(g, (x_top * f("1e-6"), x_top * (1 - f("1e-12"))),
                               solver="anderson")
        return float(root)


def test_nash_period_four_game_solves_to_its_equilibrium():
    # game 77 of the avg_nash benchmark traffic, seed 1: best-response rounds
    # from threshold(1, 0) repeat their pair every four rounds and never settle
    tx = AgentParams.from_prior0(
        0.9294704928393711,
        ((1.5118470556108408, 0.39294901483090605),
         (1.6022512424382789, 0.42708565755794714)))
    rx = AgentParams.from_prior0(
        0.6375407517578637,
        ((0.3283451476965684, 1.8764782179184825),
         (0.7454534377824049, 0.026102462102516988)))
    spec = GameSpec(tx, rx, NoiseModel.scalar(0.5173269535862473),
                    AveragePower(1.7888797350832817))
    rounds = _best_response_rounds(spec)
    assert len(rounds) == 64
    assert signals_equal(rounds[-1][0], rounds[-5][0], tol=1e-8)
    assert not signals_equal(rounds[-1][0], rounds[-3][0], tol=1e-3)
    rep = solve(spec, Concept.NASH)
    assert rep.case_label == "xi(+,-) x*>=rootP"
    assert rep.existence is Existence.EXISTS and rep.informative
    assert abs(rep.d_star - 2.27825504229915) <= 1e-9
    risk_t, risk_r = risk_pair(tx, rx, rep.signals, rep.rule, spec.noise)
    assert risk_t <= tx_best_deviation(tx, rep.rule, spec.noise.sigma,
                                       spec.power.p_avg, n=100_001) + 1e-9
    assert risk_r <= rx_best_deviation(rx, rep.signals, rep.rule.a,
                                       spec.noise.sigma, n=100_001) + 1e-9
    assert abs(abs(rep.signals.s0) - _first_order_root(spec)) <= 1e-9


def test_nash_reports_every_strict_fixed_point_of_best_response_rounds():
    # a strict fixed point of the rounds is an equilibrium the solver must
    # report: same informativeness, same transmitter risk.  The rounds stop
    # once two pairs agree within 1e-9, and the risk at the matched rule
    # moves first-order with x: 1e-6 is what they resolve
    rng = np.random.default_rng(41)
    fixed = 0
    for _ in range(100):
        spec = random_avg_spec(rng)
        rounds = _best_response_rounds(spec)
        (before, _), (signals, x_star) = rounds[-2], rounds[-1]
        x_top = math.sqrt(spec.power.p_avg / spec.transmitter.prior0)
        if not (signals_equal(signals, before, tol=1e-9) and 0.0 < x_star < x_top):
            continue
        rule = optimal_receiver_rule(signals, spec.noise, derived_quantities(spec))
        risk_t, _ = risk_pair(spec.transmitter, spec.receiver, signals, rule,
                              spec.noise)
        rep = solve(spec, Concept.NASH)
        assert rep.informative
        assert abs(rep.risk_t - risk_t) <= 1e-6
        fixed += 1
    assert fixed >= 10
