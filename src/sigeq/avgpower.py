"""Average-power variants: one expected-energy budget replaces the two peaks.

The constraint pi0 S0^2 + pi1 S1^2 <= P couples the two signal magnitudes, so
the transmitter trades energy between hypotheses instead of saturating each.
Separation is still what matters: its constrained maximum has a closed form,
reached when the budget binds, and it reproduces the peak-power analysis with
d_max = sqrt(((pi0 + pi1)/(pi0 pi1)) P) / sigma.

The transmitter's best response to a fixed rule lies on the binding budget,
the arc x = sqrt(P/pi0) sin t, y = sqrt(P/pi1) cos t for t in [0, pi/2]
(x = |s0|, y = |s1|).  Its first-order condition has no closed form, but its
roots can be enumerated exactly: interval bounds split the arc into pieces
that each hold at most one root, and each sign change is refined to rounding.
The Nash equilibrium needs no search: against the rule matched to the pair
itself, the first-order condition has one root in closed form, and the best
response only certifies that this root is a global one.
"""

import math
from typing import Callable

from .detection import (
    AgentParams,
    DerivedQuantities,
    GameSpec,
    NoiseModel,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    _matched_rule,
    _sign,
    bayes_risk,
    check_power,
    rule_error_probs,
)
from .equilibrium import (
    Concept,
    EquilibriumReport,
    Existence,
    _Choice,
    _informative_report,
    babbling_report,
)
from .nash import _xi_label

__all__ = ["max_separation_signals", "nash_avg_best_response"]

_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0
# pieces of the arc narrower than this (radians) are not split further
_FLOOR = 1e-12
# rounding allowance, relative to the magnitude of the terms summed: a sum of
# a few correctly rounded terms is off by a few ulp, so 16 ulp covers it
_ROUND = 16.0 * math.ulp(1.0)
# the stationary split certifies when its risk exceeds the best response's by
# at most this share of the larger ``_risk_size`` of the two pairs: a size
# that scales with the costs, so the verdict does not depend on their unit.
# In one flat minimum the two differ by rounding (up to 1.2e-13 seen with
# costs of order 1); a better split elsewhere is a real gap (4.5e-10 the least)
_CERTIFY_REL = 1e-12


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


def _place_avg(spec: GameSpec, dq: DerivedQuantities,
               choice: _Choice) -> tuple[SignalDesign, ReceiverRule, float]:
    """The extreme pair, shrunk toward the origin to separation d*.

    The budget stays feasible and the separation scales linearly.
    """
    # at the full budget, even an overflowed d_max = inf, the extreme pair itself
    scale = choice.d_star / dq.d_max if choice.d_star < dq.d_max else 1.0
    base = max_separation_signals(spec.transmitter.prior0,
                                  spec.transmitter.prior1,
                                  spec.power.p_avg)
    signals = SignalDesign(dq.zeta * scale * base.s0, dq.zeta * scale * base.s1)
    check_power(signals, spec.power, spec.transmitter)
    return (signals, _matched_rule(signals, spec.noise, dq.tau.value, dq.log_tau,
                                   dq.zeta), choice.d_star)


def _arc_point(f: float) -> tuple[float, float]:
    """(sin t, cos t) at ln tan t = f, without overflow."""
    if f >= 0.0:
        r = math.exp(-f)
        s = 1.0 / math.sqrt(1.0 + r * r)
        return s, s * r
    r = math.exp(f)
    c = 1.0 / math.sqrt(1.0 + r * r)
    return c * r, c


def _arc_coefficients(rule: ReceiverRule, tx: AgentParams, p_avg: float,
                      sigma: float) -> tuple[float, float, float, float]:
    """(c, e, q0, q1) of the first-order condition on the budget arc.

    On x = sqrt(P/pi0) sin t, y = sqrt(P/pi1) cos t the normalized distances
    of the two signals from the boundary are u0 = e + q0 sin t and
    u1 = -e + q1 cos t, and the slope of the risk has the sign of
        g(t) = c + ln tan t + (u0^2 - u1^2)/2.
    Raises ``SpecError`` when the squares can overflow.
    """
    pi0, pi1 = tx.prior0, tx.prior1
    fa, miss = tx.false_alarm_margin, tx.miss_margin
    x_top, y_top = math.sqrt(p_avg / pi0), math.sqrt(p_avg / pi1)
    reach = max(x_top, y_top) / sigma
    if not math.isfinite(2.0 * reach * reach):
        raise SpecError("p_avg: sqrt(p_avg / prior) / sigma overflows when squared")
    spread = abs(rule.a) * sigma
    # when |a| sigma underflows to 0, e itself may still be a float
    e = rule.eta / spread if spread != 0.0 else rule.eta / abs(rule.a) / sigma
    span = abs(e) + reach
    if not math.isfinite(2.0 * span * span):
        raise SpecError("rule: eta / (|a| sigma) overflows when squared")
    c = (math.log(abs(miss)) - math.log(abs(fa))
         + 0.5 * (math.log(pi1) - math.log(pi0)))
    return c, e, _sign(fa) * x_top / sigma, _sign(miss) * y_top / sigma


def _settled_breaks(c: float, e: float, q0: float,
                    q1: float) -> list[tuple[float, float]]:
    """(ln tan t, g(t)) at the inner ends t, ascending, of pieces of
    [0, pi/2] that each hold at most one root of g: pieces on which g keeps
    one sign or is strictly monotone.

    Expanded, with K = q0^2 + q1^2, S = sin 2t and C = cos 2t,
        g   = c + (q0^2 - q1^2)/4 + [ln tan t - K C/4] + w,
        g'  = [2/S + K S/2] + w',
        g'' = C (K - 4/S^2) - w,
    where w = e (q0 sin t + q1 cos t) is one sinusoid.  On a piece each
    bracketed term has an exact range: the first rises, the second is convex
    in S with its least value 2 sqrt(K) at S = 2/sqrt(K), and w and w' peak
    inside a piece only where the other changes sign.  A piece is settled
    when these ranges (Moore, *Interval Analysis*, 1966), or their mean-value
    forms about the midpoint, keep g or g' off 0; g' has the sign of
    h = g' sin t cos t.  Otherwise it is halved, down to 1e-12 rad.  Each
    bound is widened by 16 ulp of its terms' magnitude, which covers the
    rounding of its float evaluation.
    """
    k = q0 * q0 + q1 * q1
    amp = abs(e) * math.sqrt(k)  # the sinusoid's amplitude
    bowl_least = 2.0 * math.sqrt(k)
    base = c + 0.25 * (q0 * q0 - q1 * q1)
    slack = _ROUND * (abs(c) + 0.5 * k + amp)

    def point(t: float, s: float, co: float) -> tuple:
        # t, ln tan t - K C/4, w, w', S, C and ln tan t at t
        c2 = (co - s) * (co + s)
        f = math.log(s) - math.log(co) if s > 0.0 else -math.inf
        return (t, f - 0.25 * k * c2, e * (q0 * s + q1 * co), e * (q0 * co - q1 * s),
                2.0 * s * co, c2, f)

    ends = []
    stack = [(point(0.0, 0.0, 1.0), point(_HALF_PI, 1.0, math.cos(_HALF_PI)))]
    while stack:
        lo, hi = stack.pop()
        t_lo, rise_lo, w_lo, dw_lo, s2_lo, c2_lo, _ = lo
        t_hi, rise_hi, w_hi, dw_hi, s2_hi, c2_hi, _ = hi
        half = 0.5 * (t_hi - t_lo)
        # ranges of w and w' on the piece
        w_min, w_max = (w_lo, w_hi) if w_lo < w_hi else (w_hi, w_lo)
        if dw_lo > 0.0 > dw_hi:
            w_max = amp
        elif dw_lo < 0.0 < dw_hi:
            w_min = -amp
        dw_min, dw_max = (dw_lo, dw_hi) if dw_lo < dw_hi else (dw_hi, dw_lo)
        if w_lo < 0.0 < w_hi:
            dw_max = amp
        elif w_lo > 0.0 > w_hi:
            dw_min = -amp
        if (base + rise_lo + w_min - slack - _ROUND * abs(rise_lo) > 0.0
                or base + rise_hi + w_max + slack + _ROUND * abs(rise_hi) < 0.0):
            ends.append(hi)
            continue
        # range of S and of the convex 2/S + K S/2 on the piece
        s2_min = s2_lo if s2_lo < s2_hi else s2_hi
        s2_max = 1.0 if t_lo <= _QUARTER_PI <= t_hi else s2_lo + s2_hi - s2_min
        bowl_a = 2.0 / s2_min + 0.5 * k * s2_min if s2_min > 0.0 else math.inf
        bowl_b = 2.0 / s2_max + 0.5 * k * s2_max
        bowl_min, bowl_max = (bowl_a, bowl_b) if bowl_a < bowl_b else (bowl_b, bowl_a)
        if s2_min * s2_min * k <= 4.0 <= s2_max * s2_max * k:
            bowl_min = bowl_least
        slope_min = bowl_min + dw_min - _ROUND * (bowl_min + amp)
        slope_max = bowl_max + dw_max + _ROUND * (bowl_max + amp)
        if slope_min > 0.0 or slope_max < 0.0 or half + half <= _FLOOR:
            ends.append(hi)
            continue
        t_mid = t_lo + half
        mid = point(t_mid, math.sin(t_mid), math.cos(t_mid))
        rise_mid, s2_mid = mid[1], mid[4]
        g_mid = base + rise_mid + mid[2]
        slope_mid = 2.0 / s2_mid + 0.5 * k * s2_mid + mid[3]
        # |g''| on the piece: C falls, K - 4/S^2 rises with S; at t = 0 the
        # bound is infinite
        bend = math.inf
        if s2_min > 0.0:
            m_lo, m_hi = k - 4.0 / (s2_min * s2_min), k - 4.0 / (s2_max * s2_max)
            bend = max(abs(c2_lo * m_lo), abs(c2_lo * m_hi), abs(c2_hi * m_lo),
                       abs(c2_hi * m_hi)) + max(-w_min, w_max)
            bend += _ROUND * bend
        # mean-value forms about the midpoint
        if abs(slope_mid) - _ROUND * (bowl_max + amp) > bend * half:
            ends.append(hi)
            continue
        if (abs(g_mid) - slack - _ROUND * abs(rise_mid)
                > (abs(slope_mid) + bend * half) * half):
            ends.append(hi)
            continue
        stack.append((mid, hi))
        stack.append((lo, mid))
    return [(f, base + rise + w) for _, rise, w, _, _, _, f in ends[:-1]]


def _rising_roots(c: float, e: float, q0: float, q1: float) -> list[float]:
    """ln tan t, ascending, of every root at which g turns from - to +.

    These are the local minima of the risk inside the arc.  g is -inf at
    t = 0 and +inf at t = pi/2, so across the settled pieces a sign change
    from - to + at their ends brackets each such root, and each is refined
    in f = ln tan t, where g = c + f + (u0^2 - u1^2)/2 is f plus a bounded
    term.
    """

    def g(f: float) -> tuple[float, float]:
        # g and the size of its rounding error
        s, co = _arc_point(f)
        u0, u1 = e + q0 * s, q1 * co - e
        v0, v1 = 0.5 * u0 * u0, 0.5 * u1 * u1
        return c + f + (v0 - v1), _ROUND * (abs(c) + abs(f) + v0 + v1)

    roots = []
    f_lo, g_lo = -math.inf, -math.inf
    for f, g_f in _settled_breaks(c, e, q0, q1):
        if g_lo <= 0.0 < g_f:
            roots.append(_illinois(g, f_lo, f, g_lo, g_f, c))
        f_lo, g_lo = f, g_f
    if g_lo <= 0.0:
        roots.append(_illinois(g, f_lo, math.inf, g_lo, math.inf, c))
    return roots


def _illinois(g: Callable[[float], tuple[float, float]], lo: float, hi: float,
              g_lo: float, g_hi: float, c: float) -> float:
    """Root of g in [lo, hi], where g_lo <= 0 < g_hi, by the Illinois method.

    While an end is infinite, the step from the finite end is Newton's with
    slope 1, the slope of g in f far out, doubled after each step that does
    not cross the root.  The search stops once |g| is within its own rounding
    error or the bracket holds no float.
    """
    if g_lo == 0.0:
        return lo
    side = 0
    stretch = 1.0
    while True:
        if g_lo == -math.inf and g_hi == math.inf:
            t = -c
        elif g_lo == -math.inf:
            t = hi - stretch * g_hi
            stretch *= 2.0
        elif g_hi == math.inf:
            t = lo - stretch * g_lo
            stretch *= 2.0
        else:
            t = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                return lo if -g_lo <= g_hi else hi
        g_t, err = g(t)
        if abs(g_t) <= err:
            return t
        if g_t < 0.0:
            lo, g_lo = t, g_t
            if side < 0:
                g_hi *= 0.5
            side = -1
        else:
            hi, g_hi = t, g_t
            if side > 0:
                g_lo *= 0.5
            side = 1


def nash_avg_best_response(rule: ReceiverRule, tx: AgentParams, p_avg: float,
                           noise: NoiseModel) -> tuple[SignalDesign, float]:
    """Transmitter best response to a threshold rule under an average budget.

    Returns the signal pair and the energy split x* = |s0|.  The response
    spends the whole budget, oriented as s0 = -sign(a) sign(fa) x and
    s1 = sign(a) sign(miss) y, at a point x = sqrt(P/pi0) sin t,
    y = sqrt(P/pi1) cos t of the budget arc.  Along the arc the risk's slope
    has the sign of
        g(t) = ln(|miss| sqrt(P/pi0)) - ln(|fa| sqrt(P/pi1)) + ln tan t
               + (u0^2 - u1^2)/2,
    with u0 = e + q0 sin t and u1 = -e + q1 cos t the normalized distances
    of the two signals from the rule's boundary.  So the minimum is at an
    end of the arc or at a root where g turns from - to +.  The search for
    those roots is complete: interval bounds split the arc into pieces that
    each hold at most one root (``_settled_breaks``), so a sign change at
    piece ends brackets exactly one root, which is refined to rounding.
    Only pieces narrower than 1e-12 rad may stop unproven; the signs at
    their ends then stand for them.  The candidates are compared by their
    risk from the detection primitives (``rule_error_probs``, then
    ``bayes_risk``), ties going to the smaller x.  No tolerance depends on
    the budget.
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
    x_top, y_top = math.sqrt(p_avg / tx.prior0), math.sqrt(p_avg / tx.prior1)
    roots = _rising_roots(*_arc_coefficients(rule, tx, p_avg, noise.sigma))
    # the two ends and every local minimum between them, in rising x
    points = [(0.0, y_top)]
    points += [(x_top * s, y_top * c) for s, c in map(_arc_point, roots)]
    points.append((x_top, 0.0))
    sign0, sign1 = -sa * _sign(fa), sa * _sign(miss)
    pairs = [SignalDesign(sign0 * x, sign1 * y) for x, y in points]
    best, best_f = 0, math.inf
    for i, signals in enumerate(pairs):
        f = bayes_risk(tx, *rule_error_probs(signals, rule, noise))
        if f < best_f:
            best, best_f = i, f
    return pairs[best], points[best][0]


def _stationary_split(w0: float, w1: float, p_avg: float, pi0: float,
                     pi1: float) -> tuple[float, float]:
    """The point (x, y) = (|s0|, |s1|) of the binding budget with x : y = w0 : w1.

    The weights are scaled to a largest of 1 first, so their squares cannot
    overflow.  Both vanish only where w0 = |fa| = 0 and w1 = tau |miss|
    underflowed; w1 is positive in exact arithmetic, so the split is x = 0.
    """
    scale = max(w0, w1)
    if scale == 0.0:
        return 0.0, math.sqrt(p_avg / pi1)
    w0, w1 = w0 / scale, w1 / scale
    k = math.sqrt(p_avg / (pi0 * w0 * w0 + pi1 * w1 * w1))
    return w0 * k, w1 * k


def _risk_size(agent: AgentParams, p10: float, p01: float) -> float:
    """Sum of the magnitudes of the terms ``bayes_risk`` adds, which bounds its
    rounding.  It exceeds the risk where a margin is negative, and falls far
    below pi0 |fa| + pi1 |miss| where an error tail is small."""
    return (agent.prior0 * agent.c00 + agent.prior1 * agent.c11
            + agent.prior0 * abs(agent.false_alarm_margin) * p10
            + agent.prior1 * abs(agent.miss_margin) * p01)


def _nash_avg_report(spec: GameSpec, dq: DerivedQuantities) -> EquilibriumReport:
    """Nash equilibrium under an average-power budget, once the solve
    pipeline has derived a finite tau.

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
    tau = dq.tau.value
    tx = spec.transmitter
    fa, miss = tx.false_alarm_margin, tx.miss_margin
    sx0, sx1 = dq.xi_signs
    label = _xi_label(sx0, sx1)
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
    signals = SignalDesign(-dq.zeta * sx0 * x, dq.zeta * sx1 * y)
    rule = _matched_rule(signals, spec.noise, tau, dq.log_tau, dq.zeta)
    probs = rule_error_probs(signals, rule, spec.noise)
    risk_t, risk_r = bayes_risk(tx, *probs), bayes_risk(spec.receiver, *probs)
    best, _ = nash_avg_best_response(rule, tx, spec.power.p_avg, spec.noise)
    best_probs = rule_error_probs(best, rule, spec.noise)
    size = max(_risk_size(tx, *probs), _risk_size(tx, *best_probs))
    if risk_t > bayes_risk(tx, *best_probs) + _CERTIFY_REL * size:
        return babbling_report(Concept.NASH, spec, dq, label,
                               Existence.ONLY_DEGENERATE)
    if sx0 * sx1 < 0:
        label += " x*<rootP" if x < math.sqrt(spec.power.p_avg) else " x*>=rootP"
    return _informative_report(Concept.NASH, dq, label, signals, rule,
                               abs(signals.s1 - signals.s0) / spec.noise.sigma,
                               (risk_t, risk_r))
