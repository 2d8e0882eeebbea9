"""The solve pipeline every concept and channel share, and its report type.

``sigeq.solve`` is its one entry.  The receiver always plays the matched
threshold rule, so each concept comes down to a choice of the normalized
distance d.  Every solve derives the game's scalars once, into one
``DerivedQuantities`` record (tau and ln tau, zeta, k0, k1, the receiver case,
the xi signs and d_max); every later step reads them from it, through the
public formulas that take the record or ln tau.  If tau is not finite, the
solve reports the degenerate rule.  Else the concept's chooser picks a case
label, an existence tag and d* (team: d_max; leader-follower:
``stackelberg.classify_transmitter_preference``) or, for Nash, the
full-power levels of its sign analysis (``nash._nash_choice``).  The
coincident pair gets the prior-only report.  Any other pair is placed on the
channel: on a scalar peak channel at its levels, with
``detection.optimal_receiver_rule``; on a vector channel lifted along the
least-noise axis (``vector``); under an average budget on the binding budget
(``avgpower``).  Its risks come from ``informative_risks``.  Nash under an
average-power budget has its own budget split and certification after the
first step (``avgpower._nash_avg``).

Imports run one way: ``detection`` at the bottom, the choosers and realizers
above it, which return values, and this module, the one that builds reports,
above them.  Drivers such as the robustness scan (``team``) sit above this.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .avgpower import _nash_avg, _place_avg
from .detection import (
    AgentParams,
    AveragePower,
    DerivedQuantities,
    GameSpec,
    PeakPower,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    _FIXED_RULES,
    _fixed_error_probs,
    bayes_risk,
    conditional_error_probs,
    derived_quantities,
    optimal_receiver_rule,
    prior_only_rule,
)
from .nash import Existence, _nash_choice
from .stackelberg import classify_transmitter_preference
from .vector import _lift_vector_peak

__all__ = [
    "Concept",
    "Existence",
    "EquilibriumReport",
    "informative_risks",
]


class Concept(Enum):
    TEAM = "team"
    STACKELBERG = "stackelberg"
    NASH = "nash"


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Outcome of one solve.

    ``d_star`` is the normalized signal distance at equilibrium (0 when
    non-informative), ``d_max`` the largest distance the power budget allows.
    ``risk_t`` and ``risk_r`` are reproducible from ``(signals, rule)`` via
    the detection primitives within 1e-12.
    """

    concept: Concept
    case_label: str
    informative: bool
    d_star: float
    d_max: float
    signals: SignalDesign
    rule: ReceiverRule
    risk_t: float
    risk_r: float
    existence: Existence


def informative_risks(transmitter: AgentParams, receiver: AgentParams,
                      d: float, log_tau: float, zeta: int) -> tuple[float, float]:
    """Risk pair at normalized distance d under the matched threshold rule."""
    p10, p01 = conditional_error_probs(d, log_tau, zeta)
    return bayes_risk(transmitter, p10, p01), bayes_risk(receiver, p10, p01)


def degenerate_receiver_report(concept: Concept, spec: GameSpec,
                               dq: DerivedQuantities) -> EquilibriumReport:
    """Report for games whose receiver ignores the observation outright.

    Applies whenever tau is not finite: the rule is fixed by the cost-margin
    case, every signal pair is equivalent, and the zero pair is reported.
    """
    if dq.case is RuleKind.THRESHOLD:
        raise SpecError("tau: finite threshold games have no degenerate receiver")
    return _zero_pair_report(concept, spec, dq, "degenerate", Existence.EXISTS,
                             _FIXED_RULES[dq.case])


def babbling_report(concept: Concept, spec: GameSpec, dq: DerivedQuantities,
                    case_label: str, existence: Existence) -> EquilibriumReport:
    """Report for the coincident-signal outcome under a finite tau.

    The receiver plays the prior-only rule with eta = zeta * (tau - 1); the
    zero signal pair is the canonical representative.
    """
    rule = prior_only_rule(dq.tau.finite_value(), dq.zeta)
    return _zero_pair_report(concept, spec, dq, case_label, existence, rule)


# one immutable zero pair per channel dimension (0: scalar), shared by reports
_ZERO_PAIRS: dict[int, SignalDesign] = {}


def _zero_pair_report(concept: Concept, spec: GameSpec, dq: DerivedQuantities,
                      case_label: str, existence: Existence,
                      rule: ReceiverRule) -> EquilibriumReport:
    """Report of the zero pair under a rule that ignores the observation."""
    key = 0 if spec.noise.is_scalar else spec.dimension
    signals = _ZERO_PAIRS.get(key)
    if signals is None:
        zero = np.zeros(key) if key else 0.0
        signals = _ZERO_PAIRS[key] = SignalDesign(zero, zero)
    p10, p01 = _fixed_error_probs(rule)
    return EquilibriumReport(
        concept=concept,
        case_label=case_label,
        informative=False,
        d_star=0.0,
        d_max=dq.d_max,
        signals=signals,
        rule=rule,
        risk_t=bayes_risk(spec.transmitter, p10, p01),
        risk_r=bayes_risk(spec.receiver, p10, p01),
        existence=existence,
    )


# ---------------------------------------------------------------------------
# the pipeline


def _peak_levels(power: PeakPower, zeta: int, d_star: float | None,
                 levels: tuple[float, float] | None,
                 sigma_eff: float) -> tuple[tuple[float, float], float]:
    """Signal levels on an axis with noise scale ``sigma_eff``, and their d*.

    Nash's ``levels`` are kept as they are.  Otherwise the canonical levels
    at separation ``d_star`` are oriented so the matched rule direction is
    positive.  One level sits at its budget root and the other the gap from
    it: the first, unless that pushes the second past its own budget.  No
    level is then a difference of near-equal roots, which could round past it.
    """
    if levels is not None:
        u0, u1 = levels
        return levels, abs(u1 - u0) / sigma_eff
    root0 = math.sqrt(power.p0)
    root1 = math.sqrt(power.p1)
    gap = d_star * sigma_eff
    if gap < root0 - root1:
        u0, u1 = -root1 - gap, -root1
    else:
        u0, u1 = -root0, -root0 + gap
    return (zeta * u0, zeta * u1), d_star


def _solve(spec: GameSpec, concept: Concept) -> EquilibriumReport:
    """Solve ``spec`` under ``concept``; for team play the caller has checked
    that the agents are identical."""
    dq = derived_quantities(spec)
    if not dq.tau.is_finite:
        return degenerate_receiver_report(concept, spec, dq)
    average = isinstance(spec.power, AveragePower)
    if average and concept is Concept.NASH:
        label, existence, placed = _nash_avg(spec, dq)
        if placed is None:
            return babbling_report(concept, spec, dq, label, existence)
        return _informative_report(concept, dq, label, *placed)
    existence, d_star, levels = Existence.EXISTS, None, None
    if concept is Concept.TEAM:
        label, d_star = "informative", dq.d_max
    elif concept is Concept.STACKELBERG:
        label, d_star = classify_transmitter_preference(dq)
        if d_star == 0.0:
            d_star = None
    else:
        label, existence, levels = _nash_choice(dq, spec.power)
    if d_star is None and levels is None:
        return babbling_report(concept, spec, dq, label, existence)
    noise = spec.noise
    if average:
        signals, rule = _place_avg(spec, dq, d_star)
    elif noise.is_scalar:
        (u0, u1), d_star = _peak_levels(spec.power, dq.zeta, d_star, levels, noise.sigma)
        signals = SignalDesign(u0, u1)
        rule = optimal_receiver_rule(signals, noise, dq)
    else:
        (u0, u1), d_star = _peak_levels(spec.power, dq.zeta, d_star, levels,
                                        math.sqrt(noise.min_eigenvalue))
        signals, rule = _lift_vector_peak(noise, dq, u0, u1)
    risks = informative_risks(spec.transmitter, spec.receiver, d_star, dq.log_tau,
                              dq.zeta)
    return _informative_report(concept, dq, label, signals, rule, d_star, risks)


def _informative_report(concept: Concept, dq: DerivedQuantities, case_label: str,
                        signals: SignalDesign, rule: ReceiverRule, d_star: float,
                        risks: tuple[float, float]) -> EquilibriumReport:
    """Report of an informative pair, which is always an equilibrium."""
    risk_t, risk_r = risks
    return EquilibriumReport(
        concept=concept,
        case_label=case_label,
        informative=True,
        d_star=d_star,
        d_max=dq.d_max,
        signals=signals,
        rule=rule,
        risk_t=risk_t,
        risk_r=risk_r,
        existence=Existence.EXISTS,
    )
