"""Simultaneous-move solution: neither agent can gain by deviating alone.

Against a threshold rule the transmitter's risk is linear in each signal, so
its best response pushes both signals to full power with signs set by its own
cost margins and the rule direction.  Whether those signs are mutually
consistent with the receiver's matched rule depends only on the signs of the
cost-mismatch ratios xi0/xi1 and, when they disagree, on which power budget
is larger: sign(xi1) sqrt(P1) + sign(xi0) sqrt(P0) > 0 is required for an
informative fixed point.  The coincident-signal outcome (prior-only rule,
direction 0) is an equilibrium in every game with a finite tau, and is the
only one when the consistency condition fails (``Existence``).

That sign analysis (``_nash_choice``), on the xi signs of the derived
record, is the Nash chooser of the solve pipeline in ``equilibrium`` on both
peak-power channels; the average-power game shares those signs and the
``xi(., .)`` label.  Best-response dynamics pair the transmitter's response
with the receiver's, ``detection.optimal_receiver_rule``.  The module
imports only ``detection``; it returns values, and ``equilibrium`` builds
the reports.
"""

import math
from enum import Enum

from .detection import (
    AgentParams,
    DerivedQuantities,
    GameSpec,
    PeakPower,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    _check_fits,
    _record,
    _sign,
    derived_quantities,
    optimal_receiver_rule,
    rules_equal,
)

__all__ = [
    "Existence",
    "best_response_transmitter",
    "OutcomeKind",
    "DynamicsTrace",
    "best_response_dynamics",
]

_CYCLE_TOL = 1e-12
_SIGN_MARKS = {1: "+", 0: "0", -1: "-"}


class Existence(Enum):
    """Whether the reported outcome is an equilibrium that exists, or the
    coincident outcome standing in for an informative one that does not."""

    EXISTS = "exists"
    ONLY_DEGENERATE = "only-degenerate"


def best_response_transmitter(rule: ReceiverRule, transmitter: AgentParams,
                              power: PeakPower) -> SignalDesign:
    """Risk-minimizing signal pair against a fixed scalar rule.

    A degenerate rule makes every pair equivalent; the zero pair is returned.
    A vanishing cost margin leaves that signal free; zero is the canonical
    choice.
    """
    if rule.kind is not RuleKind.THRESHOLD:
        return SignalDesign(0.0, 0.0)
    sa = _sign(rule.a)
    s0 = -sa * _sign(transmitter.false_alarm_margin) * math.sqrt(power.p0)
    s1 = sa * _sign(transmitter.miss_margin) * math.sqrt(power.p1)
    return SignalDesign(s0, s1)


def _xi_label(sx0: int, sx1: int) -> str:
    return f"xi({_SIGN_MARKS[sx0]},{_SIGN_MARKS[sx1]})"


def _nash_choice(dq: DerivedQuantities, power: PeakPower
                 ) -> tuple[str, Existence, tuple[float, float] | None]:
    """Nash outcome of a peak-power game with a finite tau, by the xi signs:
    (label, existence, levels).  ``levels`` are the full-power (u0, u1) in
    units of the channel's canonical axis, or None for the coincident pair."""
    sx0, sx1 = dq.xi_signs
    label = _xi_label(sx0, sx1)
    if sx0 == 0 or sx1 == 0:
        # an indifferent transmitter settles on coincident signals
        return label, Existence.EXISTS, None
    if sx0 < 0 and sx1 < 0:
        return label, Existence.ONLY_DEGENERATE, None
    p0, p1 = power.p0, power.p1
    root0 = math.sqrt(p0)
    root1 = math.sqrt(p1)
    if sx0 != sx1:
        label += " p0<p1" if p0 < p1 else (" p0>p1" if p0 > p1 else " p0=p1")
        consistency = sx1 * root1 + sx0 * root0
        if consistency == 0.0:
            # mutual best responses force coincident signals
            return label, Existence.EXISTS, None
        if consistency < 0.0:
            return label, Existence.ONLY_DEGENERATE, None
    return label, Existence.EXISTS, (-dq.zeta * sx0 * root0, dq.zeta * sx1 * root1)


# ---------------------------------------------------------------------------
# best-response dynamics


class OutcomeKind(Enum):
    CONVERGED = "converged"
    OSCILLATING = "oscillating"


@_record(eq=False)
class DynamicsTrace:
    """Alternating best-response iterates and how they terminated.

    Each iterate is the (signal pair, matched rule) produced by one
    transmitter-then-receiver round.  CONVERGED records the first round whose
    matched rule reproduces the rule the transmitter just responded to, i.e.
    the round that exhibits a mutual best-response pair; OSCILLATING is a
    period-2 cycle.  There are at most three rounds; see
    ``best_response_dynamics``.
    """

    iterates: tuple[tuple[SignalDesign, ReceiverRule], ...]
    outcome: OutcomeKind
    step: int | None = None


def best_response_dynamics(spec: GameSpec,
                           init_rule: ReceiverRule | None = None) -> DynamicsTrace:
    """Alternate best responses from an initial threshold rule.

    The run ends by round 3.  Give a rule the direction sign s = sign(a), and
    s = 0 to the fixed rule the receiver plays against coincident signals.
    The transmitter's response T depends on the rule only through s, with
    T(-s) = -T(s) and T(0) the zero pair.  The matched rule of a pair has the
    sign of zeta (s1 - s0), so mirroring the pair flips it.  Hence the sign
    after a round is g(s) for an odd map g.  Starting from sign s:

    * g(s) = s: round 2 repeats round 1's signals, so also its rule
      (converged);
    * g(s) = 0: round 1's signals coincide and its rule is the prior-only
      rule, which round 2's zero pair reproduces (converged);
    * g(s) = -s: round 2 plays the mirrored pair, whose sign is g(-s) = s, so
      round 3 repeats round 1's signals (a period-2 oscillation).
    """
    if not spec.noise.is_scalar or not isinstance(spec.power, PeakPower):
        raise SpecError("dynamics: defined for scalar peak-power games")
    dq = derived_quantities(spec)
    if not dq.tau.is_finite:
        raise SpecError("tau: dynamics require a finite threshold ratio")
    if init_rule is None:
        init_rule = ReceiverRule.threshold(1.0, 0.0)
    if init_rule.kind is not RuleKind.THRESHOLD:
        raise SpecError("init_rule: dynamics start from a threshold rule")
    # the zero pair fits the scalar channel, so this checks the rule's direction
    _check_fits(SignalDesign(0.0, 0.0), init_rule, spec.noise)
    prev_rule = init_rule
    iterates: list[tuple[SignalDesign, ReceiverRule]] = []
    for step in (1, 2, 3):
        signals = best_response_transmitter(prev_rule, spec.transmitter,
                                            spec.power)
        rule = optimal_receiver_rule(signals, spec.noise, dq)
        iterates.append((signals, rule))
        # rule == prev_rule makes (signals, prev_rule) a mutual best-response
        # pair, so the trajectory is constant from here on
        if rules_equal(rule, prev_rule, _CYCLE_TOL):
            return DynamicsTrace(tuple(iterates), OutcomeKind.CONVERGED, step=step)
        prev_rule = rule
    # round 3 repeated round 1's signals, by the argument above
    return DynamicsTrace(tuple(iterates), OutcomeKind.OSCILLATING)
