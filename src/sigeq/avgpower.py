"""Average-power variants: one expected-energy budget replaces the two peaks.

The constraint pi0 S0^2 + pi1 S1^2 <= P couples the two signal magnitudes, so
the transmitter trades energy between hypotheses instead of saturating each.
Separation is still what matters: its constrained maximum has a closed form,
reached when the budget binds, and it reproduces the peak-power analysis with
d_max = sqrt(((pi0 + pi1)/(pi0 pi1)) P) / sigma.  The transmitter's best
response to a fixed rule has no closed form and is found numerically on the
budget curve.  The Nash equilibrium does not need it: against the rule matched
to the pair itself, the transmitter's first-order condition on the budget
curve has one root in closed form, and the numeric best response only
certifies that this root is a global one.
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
# the stationary split certifies when its risk is within this of the numeric
# best response's.  In one flat minimum the two differ by rounding (up to
# 1.2e-13 seen); a better split elsewhere is a real gap (4.5e-10 the least)
_CERTIFY_TOL = 1e-12


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

    The curve does not depend on the rule, and callers that respond to
    several rules on one budget ask for the same one, so the last curve is
    kept; one entry is enough.
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


def _stationary_split(w0: float, w1: float, p_avg: float, pi0: float,
                     pi1: float) -> tuple[float, float]:
    """The point (x, y) = (|s0|, |s1|) of the binding budget with x : y = w0 : w1.

    The weights are scaled to a largest of 1 first, so their squares cannot
    overflow.
    """
    scale = max(w0, w1)
    w0, w1 = w0 / scale, w1 / scale
    k = math.sqrt(p_avg / (pi0 * w0 * w0 + pi1 * w1 * w1))
    return w0 * k, w1 * k


def solve_nash_avg(spec: GameSpec) -> EquilibriumReport:
    """Equilibrium classification under an average-power budget.

    At an informative equilibrium the pair sits on the budget curve at some
    split x = |s0|, y = |s1|, oriented as s0 = -sign(fa) x, s1 = sign(miss) y
    (or mirrored, which changes no risk), and the receiver plays the rule
    matched to it.  Along the curve, the slope of the transmitter's risk
    against a fixed rule has the sign of the log-space first-order condition
        g(x) = [ln(|miss| x) - u1^2/2] - [ln(|fa| y) - u0^2/2],
    where u0, u1 are the normalized distances of the two signals from the
    decision boundary.  The matched rule puts that boundary where the
    likelihood ratio equals tau, so u0^2/2 - u1^2/2 = ln tau for every x and
    g(x) = ln(|miss| tau x / (|fa| y)): strictly increasing, with the single
    root x : y = |fa| : tau |miss|.  That root is an equilibrium if and only
    if its matched rule keeps the orientation (direction a > 0) and it is a
    global best response to that rule, which ``nash_avg_best_response``
    certifies by risk.  So the informative equilibrium is unique up to the
    mirror pair; when the root fails either test, the coincident prior-only
    outcome is the only equilibrium.  A transmitter with a zero margin falls
    under the same formula: the free signal carries no risk and stays at 0.
    """
    _require_scalar_avg(spec)
    dq = derived_quantities(spec)
    if not dq.tau.is_finite:
        return degenerate_receiver_report(Concept.NASH, spec, dq)
    tau = dq.tau.finite_value()
    tx = spec.transmitter
    fa, miss = tx.false_alarm_margin, tx.miss_margin
    sx0, sx1 = _xi_signs(tx, dq.zeta)
    label = _plain_label(sx0, sx1)
    if fa == 0.0 and miss == 0.0:
        # an indifferent transmitter settles on coincident signals
        return babbling_report(Concept.NASH, spec, dq, label, Existence.EXISTS)
    x, y = _stationary_split(abs(fa), tau * abs(miss), spec.power.p_avg,
                             tx.prior0, tx.prior1)
    # the matched rule's direction is zeta (s1 - s0) = sx0 x + sx1 y; against
    # a < 0 the mirror pair does strictly better, so the root cannot certify
    # and the numeric response is not needed
    if sx0 * x + sx1 * y <= 0.0:
        return babbling_report(Concept.NASH, spec, dq, label,
                               Existence.ONLY_DEGENERATE)
    signals = SignalDesign(-_sign(fa) * x, _sign(miss) * y)
    rule = optimal_receiver_rule(signals, spec.receiver, spec.noise)
    risk_t, risk_r = risk_pair(tx, spec.receiver, signals, rule, spec.noise)
    best, _ = nash_avg_best_response(rule, tx, spec.power.p_avg, spec.noise)
    best_t, _ = risk_pair(tx, spec.receiver, best, rule, spec.noise)
    if risk_t > best_t + _CERTIFY_TOL:
        return babbling_report(Concept.NASH, spec, dq, label,
                               Existence.ONLY_DEGENERATE)
    if sx0 * sx1 < 0:
        label += " x*<rootP" if x < math.sqrt(spec.power.p_avg) else " x*>=rootP"
    return EquilibriumReport(
        concept=Concept.NASH,
        case_label=label,
        informative=True,
        d_star=abs(signals.s1 - signals.s0) / spec.noise.sigma,
        d_max=dq.d_max,
        signals=signals,
        rule=rule,
        risk_t=risk_t,
        risk_r=risk_r,
        existence=Existence.EXISTS,
    )
