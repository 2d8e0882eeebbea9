"""Average-power variants: one expected-energy budget replaces the two peaks.

The constraint pi0 S0^2 + pi1 S1^2 <= P couples the two signal magnitudes, so
the transmitter trades energy between hypotheses instead of saturating each.
Separation is still what matters: its constrained maximum has a closed form,
reached when the budget binds, and it reproduces the peak-power analysis with
d_max = sqrt(((pi0 + pi1)/(pi0 pi1)) P) / sigma.  The transmitter's Nash best
response has no closed form, so it is found numerically on the budget curve.
"""

import math
from typing import Callable

import numpy as np
from scipy.special import erfc

from .detection import (
    AgentParams,
    AveragePower,
    GameSpec,
    NoiseModel,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    _sign,
    check_power,
    derived_quantities,
    optimal_receiver_rule,
    risk_pair,
    signals_equal,
)
from .equilibrium import (
    Concept,
    EquilibriumReport,
    Existence,
    babbling_report,
    degenerate_receiver_report,
    informative_risks,
)
from .nash import _plain_label, _xi_signs
from .stackelberg import classify_transmitter_preference
from .team import require_identical_agents

__all__ = [
    "max_separation_signals",
    "solve_team_avg",
    "solve_stackelberg_avg",
    "nash_avg_best_response",
    "solve_nash_avg",
]

_GRID_POINTS = 4097
_GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT2 = math.sqrt(2.0)
# fixed-point tolerance is looser than the golden-section step because the
# refined x* is quantized at ~1e-10 and consecutive iterates inherit it
_FIXED_POINT_TOL = 1e-8
# x* rattle within this many grid cells is optimizer noise, not travel; the
# noise in the signals can exceed _FIXED_POINT_TOL because dy/dx = -b0 x/(b1 y)
# amplifies it without bound as y -> 0
_STALL_CELLS = 16.0
_MAX_ROUNDS = 64


def max_separation_signals(beta0: float, beta1: float, budget: float) -> SignalDesign:
    """Signal pair maximizing (s1 - s0)^2 subject to b0 s0^2 + b1 s1^2 <= P.

    The optimum makes the constraint tight and splits energy inversely to the
    weights: s0 = -sqrt(b1 P / (b0 (b0 + b1))), s1 = +sqrt(b0 P / (b1 (b0 + b1))).
    """
    if not (beta0 > 0.0 and beta1 > 0.0 and budget > 0.0):
        raise SpecError("weights and budget must be strictly positive")
    total = beta0 + beta1
    s0 = -math.sqrt(beta1 * budget / (beta0 * total))
    s1 = math.sqrt(beta0 * budget / (beta1 * total))
    return SignalDesign(s0, s1)


def _require_scalar_avg(spec: GameSpec) -> None:
    if not spec.noise.is_scalar:
        raise SpecError("noise: the average-power budget is defined for scalar channels only")
    if not isinstance(spec.power, AveragePower):
        raise SpecError("power: expected an average-power budget")


def _scaled_extreme_pair(spec: GameSpec, zeta: int, scale: float) -> SignalDesign:
    base = max_separation_signals(spec.transmitter.prior0,
                                  spec.transmitter.prior1,
                                  spec.power.p_avg)
    signals = SignalDesign(zeta * scale * base.s0, zeta * scale * base.s1)
    check_power(signals, spec.power, spec.transmitter)
    return signals


def solve_team_avg(spec: GameSpec) -> EquilibriumReport:
    """Jointly optimal design under an average-power budget."""
    require_identical_agents(spec)
    _require_scalar_avg(spec)
    dq = derived_quantities(spec)
    if not dq.tau.is_finite:
        return degenerate_receiver_report(Concept.TEAM, spec, dq)
    tau = dq.tau.finite_value()
    signals = _scaled_extreme_pair(spec, dq.zeta, 1.0)
    rule = optimal_receiver_rule(signals, spec.receiver, spec.noise)
    risk_t, risk_r = informative_risks(spec.transmitter, spec.receiver,
                                       dq.d_max, tau, dq.zeta)
    return EquilibriumReport(
        concept=Concept.TEAM,
        case_label="informative",
        informative=True,
        d_star=dq.d_max,
        d_max=dq.d_max,
        signals=signals,
        rule=rule,
        risk_t=risk_t,
        risk_r=risk_r,
        existence=Existence.EXISTS,
    )


def solve_stackelberg_avg(spec: GameSpec) -> EquilibriumReport:
    """Leader-follower solution under an average-power budget.

    Interior optima are realized by shrinking the extreme pair toward the
    origin; the budget stays feasible and the separation scales linearly.
    """
    _require_scalar_avg(spec)
    dq = derived_quantities(spec)
    if not dq.tau.is_finite:
        return degenerate_receiver_report(Concept.STACKELBERG, spec, dq)
    tau = dq.tau.finite_value()
    pref = classify_transmitter_preference(dq.k0, dq.k1, tau, dq.d_max)
    if pref.d_star == 0.0:
        return babbling_report(Concept.STACKELBERG, spec, dq, pref.case_label,
                               Existence.EXISTS)
    signals = _scaled_extreme_pair(spec, dq.zeta, pref.d_star / dq.d_max)
    rule = optimal_receiver_rule(signals, spec.receiver, spec.noise)
    risk_t, risk_r = informative_risks(spec.transmitter, spec.receiver,
                                       pref.d_star, tau, dq.zeta)
    return EquilibriumReport(
        concept=Concept.STACKELBERG,
        case_label=pref.case_label,
        informative=True,
        d_star=pref.d_star,
        d_max=dq.d_max,
        signals=signals,
        rule=rule,
        risk_t=risk_t,
        risk_r=risk_r,
        existence=Existence.EXISTS,
    )


_curve_cache: tuple = ()  # (key, xs, ys) of the last budget curve built


def _budget_curve(p_avg: float, pi0: float, pi1: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid of splits x = |s0| on [0, sqrt(P/pi0)] and the matching |s1|.

    The curve does not depend on the rule, and a Nash search asks for the
    same one every round, so the last curve is kept; one entry is enough.
    The entry is a pure function of its key and is swapped as one tuple, so
    callers sharing it, on any thread, see the same arrays they would build.
    """
    global _curve_cache
    key = (p_avg, pi0, pi1)
    cached = _curve_cache
    if cached and cached[0] == key:
        return cached[1], cached[2]
    xs = np.linspace(0.0, math.sqrt(p_avg / pi0), _GRID_POINTS)
    ys = np.sqrt(np.maximum(p_avg - pi0 * xs * xs, 0.0) / pi1)
    xs.setflags(write=False)
    ys.setflags(write=False)
    _curve_cache = (key, xs, ys)
    return xs, ys


def _curve_level(x: float, p_avg: float, pi0: float, pi1: float) -> float:
    """|s1| on the binding budget for the split x = |s0|."""
    return math.sqrt(max(p_avg - pi0 * x * x, 0.0) / pi1)


def _split_risk(rule: ReceiverRule, tx: AgentParams,
                sigma: float) -> Callable:
    """Transmitter risk at the curve point (x, y) = (|s0|, |s1|).

    The returned function works elementwise on arrays (the grid) and on
    floats (the refinement) with the same operations in the same order, so
    both give the same bits at the same point.  That holds because scipy's
    ``erfc`` is used on floats too; ``math.erfc`` rounds differently.
    """
    fa, miss = tx.false_alarm_margin, tx.miss_margin
    a, eta = rule.a, rule.eta
    sa = _sign(a)
    sign0 = -sa * _sign(fa)
    sign1 = sa * _sign(miss)
    spread = abs(a) * sigma
    base = tx.prior0 * tx.c00 + tx.prior1 * tx.c11
    w10 = tx.prior0 * fa
    w01 = tx.prior1 * miss

    def risk(x, y):
        p10 = 0.5 * erfc((eta - a * (sign0 * x)) / spread / _SQRT2)
        p01 = 0.5 * erfc(-(eta - a * (sign1 * y)) / spread / _SQRT2)
        return base + w10 * p10 + w01 * p01

    return risk


def _golden_min(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum on [lo, hi]; ties resolve to the smaller x."""
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi < best_f:
        best_x, best_f = hi, f_hi
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > _GOLDEN_TOL:
        for x, fx in ((c, fc), (d, fd)):
            if fx < best_f or (fx == best_f and x < best_x):
                best_x, best_f = x, fx
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return best_x, best_f


def nash_avg_best_response(rule: ReceiverRule, tx: AgentParams, p_avg: float,
                           noise: NoiseModel) -> tuple[SignalDesign, float]:
    """Transmitter best response to a threshold rule under an average budget.

    Returns the signal pair and the energy split x* = |s0|.  Since the risk
    along the budget curve need not be convex in x, the minimum is located on
    a dense grid of splits, built once per budget and reused while the rule
    changes, then sharpened by a golden-section search on a scalar objective
    that repeats the grid's formula; the refined point is never allowed to be
    worse than the best grid point, ties going to smaller x.
    """
    if rule.kind is not RuleKind.THRESHOLD:
        raise SpecError("rule: a threshold rule is required")
    if not noise.is_scalar:
        raise SpecError("noise: scalar channel required")
    if not p_avg > 0.0:
        raise SpecError("p_avg: must be strictly positive")
    fa, miss = tx.false_alarm_margin, tx.miss_margin
    sa = _sign(rule.a)
    if fa == 0.0 and miss == 0.0:
        return SignalDesign(0.0, 0.0), 0.0
    if fa == 0.0:
        # s0 carries no risk; the whole budget goes to s1
        s1 = sa * _sign(miss) * math.sqrt(p_avg / tx.prior1)
        return SignalDesign(0.0, s1), 0.0
    if miss == 0.0:
        x_star = math.sqrt(p_avg / tx.prior0)
        return SignalDesign(-sa * _sign(fa) * x_star, 0.0), x_star
    pi0, pi1 = tx.prior0, tx.prior1
    xs, ys = _budget_curve(p_avg, pi0, pi1)
    risk = _split_risk(rule, tx, noise.sigma)
    risks = risk(xs, ys)
    i = int(np.argmin(risks))
    grid_x, grid_f = float(xs[i]), float(risks[i])

    def f(x: float) -> float:
        return float(risk(x, _curve_level(x, p_avg, pi0, pi1)))

    x_star, f_star = _golden_min(f, float(xs[max(i - 1, 0)]),
                                 float(xs[min(i + 1, _GRID_POINTS - 1)]))
    if grid_f < f_star or (grid_f == f_star and grid_x < x_star):
        x_star = grid_x
    y_star = _curve_level(x_star, p_avg, pi0, pi1)
    s0 = -sa * _sign(fa) * x_star
    s1 = sa * _sign(miss) * y_star
    return SignalDesign(s0, s1), x_star


def solve_nash_avg(spec: GameSpec, max_rounds: int = _MAX_ROUNDS) -> EquilibriumReport:
    """Equilibrium search under an average-power budget.

    Alternates the numeric transmitter response with the matched rule until
    the signal pair repeats.  A fixed point with distinct signals is an
    informative equilibrium; a coincident fixed point is the prior-only
    outcome, which exists in every game here.  A 2-cycle or an exhausted
    iteration budget means no informative equilibrium was found, and the
    coincident outcome is reported as the only one.
    """
    _require_scalar_avg(spec)
    dq = derived_quantities(spec)
    if not dq.tau.is_finite:
        return degenerate_receiver_report(Concept.NASH, spec, dq)
    tau = dq.tau.finite_value()
    sx0, sx1 = _xi_signs(spec.transmitter, dq.zeta)
    base_label = _plain_label(sx0, sx1)
    mixed = sx0 * sx1 < 0
    root_budget = math.sqrt(spec.power.p_avg)

    rule = ReceiverRule.threshold(1.0, 0.0)
    history: list[SignalDesign] = []
    x_history: list[float] = []
    x_cell = (math.sqrt(spec.power.p_avg / spec.transmitter.prior0)
              / (_GRID_POINTS - 1))
    x_star = 0.0
    outcome = "exhausted"
    for _ in range(max_rounds):
        if rule.kind is RuleKind.THRESHOLD:
            signals, x_star = nash_avg_best_response(rule, spec.transmitter,
                                                     spec.power.p_avg, spec.noise)
        else:
            signals, x_star = SignalDesign(0.0, 0.0), 0.0
        # tau is finite (checked above), so the matched rule is the receiver's
        # best response
        rule = optimal_receiver_rule(signals, spec.receiver, spec.noise)
        history.append(signals)
        x_history.append(x_star)
        if len(history) >= 2 and signals_equal(history[-1], history[-2],
                                               tol=_FIXED_POINT_TOL):
            outcome = "fixed-point"
            break
        if (len(history) >= 3
                and signals_equal(history[-1], history[-3], tol=_FIXED_POINT_TOL)):
            # a repeat two rounds apart is a real cycle only if the pair
            # orientation flipped or x* traveled beyond its resolution;
            # otherwise the iteration is rattling around a fixed point
            same_side = (_sign(history[-1].s1 - history[-1].s0)
                         == _sign(history[-2].s1 - history[-2].s0))
            stalled = (same_side
                       and abs(x_history[-1] - x_history[-2]) <= _STALL_CELLS * x_cell)
            outcome = "fixed-point" if stalled else "cycle"
            break

    if outcome != "fixed-point":
        label = base_label if outcome == "cycle" else "exhausted"
        return babbling_report(Concept.NASH, spec, dq, label,
                               Existence.ONLY_DEGENERATE)
    if signals.coincident:
        return babbling_report(Concept.NASH, spec, dq, base_label,
                               Existence.EXISTS)
    label = base_label
    if mixed:
        label += " x*<rootP" if x_star < root_budget else " x*>=rootP"
    risk_t, risk_r = risk_pair(spec.transmitter, spec.receiver, signals, rule,
                               spec.noise)
    d_star = abs(signals.s1 - signals.s0) / spec.noise.sigma
    return EquilibriumReport(
        concept=Concept.NASH,
        case_label=label,
        informative=True,
        d_star=d_star,
        d_max=dq.d_max,
        signals=signals,
        rule=rule,
        risk_t=risk_t,
        risk_r=risk_r,
        existence=Existence.EXISTS,
    )
