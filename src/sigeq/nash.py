"""Simultaneous-move solution: neither agent can gain by deviating alone.

Against a threshold rule the transmitter's risk is linear in each signal, so
its best response pushes both signals to full power with signs set by its own
cost margins and the rule direction.  Whether those signs are mutually
consistent with the receiver's matched rule depends only on the signs of the
cost-mismatch ratios xi0/xi1 and, when they disagree, on which power budget
is larger: sign(xi1) sqrt(P1) + sign(xi0) sqrt(P0) > 0 is required for an
informative fixed point.  The coincident-signal outcome (prior-only rule,
direction 0) is an equilibrium in every game with a finite tau, and is the
only one when the consistency condition fails.

That sign analysis (``_nash_choice``) is the Nash chooser of the solve
pipeline in ``equilibrium`` on both peak-power channels; the average-power
game shares its xi signs and ``xi(., .)`` label.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .detection import (
    AgentParams,
    GameSpec,
    NoiseModel,
    PeakPower,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    _sign,
    _threshold_ratio,
    derived_quantities,
    optimal_receiver_rule,
    rules_equal,
    signals_equal,
)
from .equilibrium import (
    Concept,
    EquilibriumReport,
    Existence,
    _Choice,
    _require_scalar_peak,
    _solve,
)
from .stackelberg import Perturbation, ScanEntry, _scan_entries
from .team import require_identical_agents

__all__ = [
    "best_response_transmitter",
    "best_response_receiver",
    "solve_nash",
    "OutcomeKind",
    "DynamicsTrace",
    "best_response_dynamics",
    "NashScan",
    "robustness_scan_nash",
]

_CYCLE_TOL = 1e-12
_SIGN_MARKS = {1: "+", 0: "0", -1: "-"}


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


def best_response_receiver(signals: SignalDesign, receiver: AgentParams,
                           noise: NoiseModel) -> ReceiverRule:
    """Optimal rule against a known pair; requires a finite threshold ratio."""
    if not _threshold_ratio(receiver).is_finite:
        raise SpecError("tau: receiver best response needs a finite threshold ratio")
    return optimal_receiver_rule(signals, receiver, noise)


def _xi_signs(transmitter: AgentParams, zeta: int) -> tuple[int, int]:
    # sign of each cost-mismatch ratio, as a sign product (never a division)
    return (
        _sign(transmitter.false_alarm_margin) * zeta,
        _sign(transmitter.miss_margin) * zeta,
    )


def _xi_label(sx0: int, sx1: int) -> str:
    return f"xi({_SIGN_MARKS[sx0]},{_SIGN_MARKS[sx1]})"


def _nash_choice(transmitter: AgentParams, power: PeakPower, zeta: int) -> _Choice:
    """Nash outcome of a peak-power game with a finite tau, by the xi signs."""
    sx0, sx1 = _xi_signs(transmitter, zeta)
    label = _xi_label(sx0, sx1)
    if sx0 == 0 or sx1 == 0:
        # an indifferent transmitter settles on coincident signals
        return _Choice(label, Existence.EXISTS)
    if sx0 < 0 and sx1 < 0:
        return _Choice(label, Existence.ONLY_DEGENERATE)
    p0, p1 = power.p0, power.p1
    root0 = math.sqrt(p0)
    root1 = math.sqrt(p1)
    if sx0 != sx1:
        label += " p0<p1" if p0 < p1 else (" p0>p1" if p0 > p1 else " p0=p1")
        consistency = sx1 * root1 + sx0 * root0
        if consistency == 0.0:
            # mutual best responses force coincident signals
            return _Choice(label, Existence.EXISTS)
        if consistency < 0.0:
            return _Choice(label, Existence.ONLY_DEGENERATE)
    return _Choice(label, Existence.EXISTS,
                   levels=(-zeta * sx0 * root0, zeta * sx1 * root1))


def solve_nash(spec: GameSpec) -> EquilibriumReport:
    """Equilibrium classification of a scalar peak-power game."""
    _require_scalar_peak(spec, "solve_nash")
    return _solve(spec, Concept.NASH)


# ---------------------------------------------------------------------------
# best-response dynamics


class OutcomeKind(Enum):
    CONVERGED = "converged"
    OSCILLATING = "oscillating"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True, eq=False)
class DynamicsTrace:
    """Alternating best-response iterates and how they terminated.

    Each iterate is the (signal pair, matched rule) produced by one
    transmitter-then-receiver round.  CONVERGED records the first round whose
    matched rule reproduces the rule the transmitter just responded to, i.e.
    the round that exhibits a mutual best-response pair; OSCILLATING records
    the cycle period (only period 2 can occur: candidate signal pairs form a
    sign family).
    """

    iterates: tuple[tuple[SignalDesign, ReceiverRule], ...]
    outcome: OutcomeKind
    step: int | None = None
    period: int | None = None


def best_response_dynamics(spec: GameSpec, init_rule: ReceiverRule | None = None,
                           max_rounds: int = 32) -> DynamicsTrace:
    """Alternate best responses from an initial threshold rule."""
    if not spec.noise.is_scalar or not isinstance(spec.power, PeakPower):
        raise SpecError("dynamics: defined for scalar peak-power games")
    if not derived_quantities(spec).tau.is_finite:
        raise SpecError("tau: dynamics require a finite threshold ratio")
    if init_rule is None:
        init_rule = ReceiverRule.threshold(1.0, 0.0)
    if init_rule.kind is not RuleKind.THRESHOLD:
        raise SpecError("init_rule: dynamics start from a threshold rule")
    if max_rounds < 4:
        raise SpecError("max_rounds: need at least 4 rounds to detect a cycle")
    prev_rule = init_rule
    iterates: list[tuple[SignalDesign, ReceiverRule]] = []
    history: list[SignalDesign] = []
    outcome = OutcomeKind.EXHAUSTED
    step = None
    period = None
    for k in range(1, max_rounds + 1):
        signals = best_response_transmitter(prev_rule, spec.transmitter,
                                            spec.power)
        rule = best_response_receiver(signals, spec.receiver, spec.noise)
        iterates.append((signals, rule))
        # rule == prev_rule makes (signals, prev_rule) a mutual best-response
        # pair, so the trajectory is constant from here on
        if rules_equal(rule, prev_rule, _CYCLE_TOL):
            outcome = OutcomeKind.CONVERGED
            step = k
            break
        if len(history) >= 2 and signals_equal(signals, history[-2], _CYCLE_TOL):
            outcome = OutcomeKind.OSCILLATING
            period = 2
            break
        history.append(signals)
        prev_rule = rule
    return DynamicsTrace(tuple(iterates), outcome, step, period)


# ---------------------------------------------------------------------------
# robustness scan


@dataclass(frozen=True, eq=False)
class NashScan:
    base: EquilibriumReport
    entries: tuple[ScanEntry, ...]
    continuous: bool


def _within_continuity_bounds(pert: Perturbation, receiver: AgentParams) -> bool:
    return (
        abs(pert.eps_c10 - pert.eps_c00) < abs(receiver.false_alarm_margin)
        and abs(pert.eps_c01 - pert.eps_c11) < abs(receiver.miss_margin)
    )


def robustness_scan_nash(spec: GameSpec,
                         perturbations: Iterable[Perturbation]) -> NashScan:
    """Solve with the transmitter offset from the receiver's parameters.

    Equilibrium signals and rule depend on the transmitter only through its
    cost-margin signs, so any perturbation whose cost offsets stay inside the
    receiver's margins must leave the reported (signals, rule, informative)
    triple unchanged; ``continuous`` records whether that held.
    """
    require_identical_agents(spec)
    if not derived_quantities(spec).tau.is_finite:
        raise SpecError("tau: robustness scans require a finite threshold ratio")
    base = solve_nash(spec)
    entries = _scan_entries(spec, perturbations, solve_nash)
    continuous = True
    for entry in entries:
        if entry.report is None:
            continue
        if not _within_continuity_bounds(entry.perturbation, spec.receiver):
            continue
        same = (
            entry.report.informative == base.informative
            and signals_equal(entry.report.signals, base.signals)
            and rules_equal(entry.report.rule, base.rule)
        )
        if not same:
            continuous = False
    return NashScan(base, entries, continuous)
