"""The solve pipeline every concept and channel share, and its report type.

``sigeq.solve`` is its one entry.  The receiver always plays the matched
threshold rule, so each concept comes down to a choice of the normalized
distance d.  Every solve derives the game's scalars once, into one
``DerivedQuantities`` record (tau and ln tau, zeta, k0, k1, the receiver case,
the xi signs and d_max); every later step reads them from it.  If tau is not
finite, the solve reports the degenerate rule.  Else the concept's chooser
picks a case label, an existence tag and d* (team: d_max; leader-follower:
``classify_transmitter_preference``) or, for Nash, the full-power levels of
its sign analysis.  The coincident pair gets the prior-only report; any other
pair is placed by the channel's realizer (scalar peak, vector peak or average
power), and its rule matched and report filled.  Nash under an average-power
budget has its own budget split and certification after the first step (see
``avgpower._nash_avg_report``).
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

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
    _matched_error_probs,
    _matched_rule,
    bayes_risk,
    conditional_error_probs,
    derived_quantities,
    prior_only_rule,
)

__all__ = [
    "Concept",
    "Existence",
    "EquilibriumReport",
    "informative_risks",
    "separation_levels",
]


class Concept(Enum):
    TEAM = "team"
    STACKELBERG = "stackelberg"
    NASH = "nash"


class Existence(Enum):
    EXISTS = "exists"
    ONLY_DEGENERATE = "only-degenerate"


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
                      d: float, tau: float, zeta: int) -> tuple[float, float]:
    """Risk pair at normalized distance d under the matched threshold rule."""
    p10, p01 = conditional_error_probs(d, tau, zeta)
    return bayes_risk(transmitter, p10, p01), bayes_risk(receiver, p10, p01)


def separation_levels(zeta: int, p0: float, p1: float, d_star: float,
                      sigma_eff: float) -> tuple[float, float]:
    """Canonical scalar signal levels at normalized separation ``d_star``.

    Levels are oriented so the matched rule direction is positive.  The
    first level starts at its full budget and is shifted only when the other
    budget would otherwise be exceeded.
    """
    root0 = math.sqrt(p0)
    root1 = math.sqrt(p1)
    gap = d_star * sigma_eff
    shift = max(0.0, root0 - root1 - gap)
    u0 = -root0 + shift
    return zeta * u0, zeta * (u0 + gap)


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


class _Choice(NamedTuple):
    """A chooser's answer.  With neither ``d_star`` nor ``levels`` set it is
    the coincident pair; ``levels`` are the (u0, u1) Nash settles on, in
    units of the channel's canonical axis."""

    label: str
    existence: Existence
    d_star: float | None = None
    levels: tuple[float, float] | None = None


def _peak_levels(power: PeakPower, zeta: int, choice: _Choice,
                 sigma_eff: float) -> tuple[tuple[float, float], float]:
    """Signal levels on an axis with noise scale ``sigma_eff``, and their d*."""
    if choice.levels is None:
        return separation_levels(zeta, power.p0, power.p1, choice.d_star,
                                 sigma_eff), choice.d_star
    u0, u1 = choice.levels
    return choice.levels, abs(u1 - u0) / sigma_eff


def _place_scalar_peak(spec: GameSpec, dq: DerivedQuantities,
                       choice: _Choice) -> tuple[SignalDesign, float]:
    (u0, u1), d_star = _peak_levels(spec.power, dq.zeta, choice, spec.noise.sigma)
    return SignalDesign(u0, u1), d_star


def _solve(spec: GameSpec, concept: Concept) -> EquilibriumReport:
    """Solve ``spec`` under ``concept``; for team play the caller has checked
    that the agents are identical."""
    dq = derived_quantities(spec)
    if not dq.tau.is_finite:
        return degenerate_receiver_report(concept, spec, dq)
    if isinstance(spec.power, AveragePower):
        if concept is Concept.NASH:
            return _nash_avg_report(spec, dq)
        place = _place_avg
    elif spec.noise.is_scalar:
        place = _place_scalar_peak
    else:
        place = _place_vector_peak
    if concept is Concept.TEAM:
        choice = _Choice("informative", Existence.EXISTS, dq.d_max)
    elif concept is Concept.STACKELBERG:
        label, d_star = _preference(dq.k0, dq.k1, dq.tau.value, dq.log_tau, dq.d_max)
        choice = _Choice(label, Existence.EXISTS, d_star if d_star != 0.0 else None)
    else:
        choice = _nash_choice(dq, spec.power)
    if choice.d_star is None and choice.levels is None:
        return babbling_report(concept, spec, dq, choice.label, choice.existence)
    signals, d_star = place(spec, dq, choice)
    rule = _matched_rule(signals, spec.noise, dq.tau.value, dq.log_tau, dq.zeta)
    p10, p01 = _matched_error_probs(d_star, dq.log_tau, dq.zeta)
    risks = bayes_risk(spec.transmitter, p10, p01), bayes_risk(spec.receiver, p10, p01)
    return _informative_report(concept, dq, choice.label, signals, rule, d_star, risks)


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


# The choosers and realizers live with their concepts and channels, whose
# modules import this one for the report type and the pipeline; so they are
# bound here, once everything above is defined.
from .stackelberg import _preference  # noqa: E402
from .nash import _nash_choice  # noqa: E402
from .vector import _place_vector_peak  # noqa: E402
from .avgpower import _nash_avg_report, _place_avg  # noqa: E402
