"""Leader-follower solution: the transmitter commits, the receiver best-responds.

Because the follower plays the matched threshold rule, the leader's risk is a
function of the normalized signal distance d alone.  Its derivative changes
sign with ``slope = k0 + k1`` (behavior as d grows) and
``bend = ln(tau) * (k0 - k1)`` (behavior near d = 0): the risk is decreasing
at d exactly when slope * d^2 - 2 * bend > 0.  That yields six cases over the
sign grid:

* bend < 0, slope >= 0: risk strictly decreasing, optimum at d_max (case-1);
* bend < 0, slope < 0: decreasing then increasing, optimum at
  min(d_max, sqrt(|2 bend / slope|)) (case-2 at the budget, case-3 interior);
* bend >= 0, slope < 0: risk strictly increasing, optimum at 0 (case-4);
* bend >= 0, slope >= 0: increasing then decreasing, optimum at an endpoint:
  d = 0 when the budget ends inside the increasing stretch (case-5), else the
  closed-form endpoint comparison decides (case-6).

Boundary conventions: bend = 0 and slope = 0 route to the >= branches, and a
transmitter with both cost margins zero (risk constant in d) reports the
non-informative outcome ("flat").

``classify_transmitter_preference``, given ln tau from the derived record
(``_preference``), is the leader-follower chooser of the solve pipeline in
``equilibrium``, on every channel.

``robustness_scan`` probes the paper's fragility claim around a team point:
it offsets the transmitter's priors and costs and re-solves through the same
pipeline under leader-follower or simultaneous play, on any channel.  Near
such a point commitment can jump between informative and babbling, by the
full d_max, while the peak-power Nash pair does not move at all.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

from .detection import (
    AgentParams,
    GameSpec,
    NoiseModel,
    PeakPower,
    SpecError,
    derived_quantities,
    q_function,
)
from .equilibrium import Concept, EquilibriumReport, _solve
from .team import require_identical_agents

__all__ = [
    "EndpointChoice",
    "endpoint_rule",
    "classify_transmitter_preference",
    "Perturbation",
    "ScanEntry",
    "RobustnessScan",
    "robustness_scan",
    "single_cost_perturbations",
    "preset_subjective_priors",
    "preset_biased_cost",
    "preset_deception",
]


class EndpointChoice(Enum):
    MAX_SEPARATION = "informative-at-dmax"
    BABBLING = "non-informative"


def endpoint_rule(k0: float, k1: float, tau: float, d_max: float) -> EndpointChoice:
    """Endpoint comparison for the increasing-then-decreasing risk shape.

    Evaluates the sign of

        (k1 / (k0 tau))^sign(ln tau) * Q(|ln tau|/d_max - d_max/2)
            - Q(|ln tau|/d_max + d_max/2)

    which is positive exactly when full separation beats babbling.  An exact
    zero means both endpoints tie; the informative choice is returned because
    it maximizes the information available to the receiver at no cost to the
    transmitter.
    """
    log_tau = math.log(tau) if tau > 0.0 else math.nan
    informative = _endpoint_informative(k0, k1, tau, log_tau, d_max)
    return EndpointChoice.MAX_SEPARATION if informative else EndpointChoice.BABBLING


def _endpoint_informative(k0: float, k1: float, tau: float, log_tau: float,
                          d_max: float) -> bool:
    """``endpoint_rule`` given ln tau (NaN for a tau <= 0): True for the
    informative end."""
    if not math.isfinite(log_tau):
        raise SpecError("tau: must be finite and strictly positive")
    if not d_max > 0.0:
        raise SpecError("d_max: must be strictly positive")
    if log_tau * (k0 - k1) < 0.0 or k0 + k1 < 0.0:
        raise SpecError("endpoint comparison applies only to the increasing-then-decreasing shape")
    if k0 == 0.0 and k1 == 0.0:
        raise SpecError("endpoint comparison undefined when both transmitter margins vanish")
    if log_tau > 0.0:
        coeff = k1 / (k0 * tau)
    elif log_tau < 0.0:
        coeff = (k0 * tau) / k1
    else:
        coeff = 1.0
    expr = coeff * q_function(abs(log_tau) / d_max - d_max / 2.0) - q_function(
        abs(log_tau) / d_max + d_max / 2.0
    )
    return expr >= 0.0


@dataclass(frozen=True)
class TransmitterPreference:
    case_label: str
    d_star: float


def classify_transmitter_preference(k0: float, k1: float, tau: float,
                                    d_max: float) -> TransmitterPreference:
    """Optimal normalized distance for the leader, by the sign grid above.

    Requires a finite positive tau."""
    if not 0.0 < tau < math.inf:
        raise SpecError("tau: must be finite and strictly positive")
    return TransmitterPreference(*_preference(k0, k1, tau, math.log(tau), d_max))


def _preference(k0: float, k1: float, tau: float, log_tau: float,
                d_max: float) -> tuple[str, float]:
    """(case label, d*) of ``classify_transmitter_preference`` given ln tau;
    the leader-follower chooser of the solve pipeline."""
    bend = log_tau * (k0 - k1)
    slope = k0 + k1
    if bend < 0.0:
        if slope >= 0.0:
            return "case-1", d_max
        ratio = abs(2.0 * bend / slope)
        if d_max * d_max < ratio:
            return "case-2", d_max
        return "case-3", math.sqrt(ratio)
    if slope < 0.0:
        return "case-4", 0.0
    if k0 == 0.0 and k1 == 0.0:
        # risk constant in d; minimal separation is the canonical report
        return "flat", 0.0
    numer = abs(2.0 * bend)
    ratio = 0.0 if numer == 0.0 else (math.inf if slope == 0.0 else numer / slope)
    if d_max * d_max < ratio:
        return "case-5", 0.0
    if _endpoint_informative(k0, k1, tau, log_tau, d_max):
        return "case-6", d_max
    return "case-6", 0.0


# ---------------------------------------------------------------------------
# robustness scan around a shared-parameter base point, for both game
# concepts on every channel


@dataclass(frozen=True)
class Perturbation:
    """Additive offsets applied to the receiver's parameters to build a
    perturbed transmitter: priors must renormalize (eps_prior0 = -eps_prior1).
    """

    eps_prior0: float = 0.0
    eps_prior1: float = 0.0
    eps_c00: float = 0.0
    eps_c01: float = 0.0
    eps_c10: float = 0.0
    eps_c11: float = 0.0

    @property
    def renormalizes(self) -> bool:
        return self.eps_prior0 == -self.eps_prior1

    def applied_to(self, base: AgentParams) -> AgentParams:
        return AgentParams(
            base.prior0 + self.eps_prior0,
            base.prior1 + self.eps_prior1,
            (
                (base.c00 + self.eps_c00, base.c01 + self.eps_c01),
                (base.c10 + self.eps_c10, base.c11 + self.eps_c11),
            ),
        )


def single_cost_perturbations(magnitude: float) -> tuple[Perturbation, ...]:
    """One +/-magnitude offset per cost coordinate (8 entries, priors fixed)."""
    out = []
    for field in ("eps_c00", "eps_c01", "eps_c10", "eps_c11"):
        for sign in (1.0, -1.0):
            out.append(Perturbation(**{field: sign * magnitude}))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ScanEntry:
    perturbation: Perturbation
    report: EquilibriumReport | None
    error: str | None = None


@dataclass(frozen=True, eq=False)
class RobustnessScan:
    """The base solve and one entry per perturbation, in the given order.

    How far an entry moved (in d*, risk_t or risk_r) or whether it flipped
    informativeness is one comparison against ``base``.
    """

    base: EquilibriumReport
    entries: tuple[ScanEntry, ...]


def robustness_scan(spec: GameSpec, concept: Concept | str,
                    perturbations: Iterable[Perturbation]) -> RobustnessScan:
    """Solve ``spec`` under ``concept`` with the transmitter offset from the
    shared base point, on any channel.

    The base spec must have identical agents and a finite tau.  Team play is
    rejected: a perturbed transmitter no longer shares the receiver's
    objective.  An offset that does not renormalize the priors, or that
    yields an invalid agent or an unsolvable game, is reported in its entry's
    ``error`` instead of a report.
    """
    concept = Concept(concept)
    if concept is Concept.TEAM:
        raise SpecError("concept: a perturbed transmitter leaves the team setup;"
                        " scan stackelberg or nash")
    require_identical_agents(spec)
    if not derived_quantities(spec).tau.is_finite:
        raise SpecError("tau: robustness scans require a finite threshold ratio")
    entries = []
    for pert in perturbations:
        try:
            if not pert.renormalizes:
                raise SpecError("priors must renormalize: eps_prior0 = -eps_prior1")
            moved = replace(spec, transmitter=pert.applied_to(spec.receiver))
            entries.append(ScanEntry(pert, _solve(moved, concept)))
        except SpecError as exc:
            entries.append(ScanEntry(pert, None, str(exc)))
    return RobustnessScan(_solve(spec, concept), tuple(entries))


# ---------------------------------------------------------------------------
# presets


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise SpecError(f"{name}: must lie strictly inside (0, 1)")
    return value


def preset_subjective_priors(prior0_t: float, prior0_r: float,
                             costs: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 1.0), (1.0, 0.0)),
                             sigma: float = 1.0, p0: float = 1.0, p1: float = 1.0) -> GameSpec:
    """Agents share costs but disagree on the prior of H0."""
    prior0_t = _check_unit_interval("prior0_t", prior0_t)
    prior0_r = _check_unit_interval("prior0_r", prior0_r)
    return GameSpec(
        transmitter=AgentParams.from_prior0(prior0_t, costs),
        receiver=AgentParams.from_prior0(prior0_r, costs),
        noise=NoiseModel.scalar(sigma),
        power=PeakPower(p0, p1),
    )


def preset_biased_cost(alpha: float, prior0: float = 0.5, sigma: float = 1.0,
                       p0: float = 1.0, p1: float = 1.0) -> GameSpec:
    """Shared priors; transmitter cost bias alpha against the honest receiver.

    The receiver pays the uniform error cost; the transmitter pays alpha on
    errors and 1 - alpha on correct decisions, so alpha > 1/2 aligns the
    agents and alpha < 1/2 opposes them.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise SpecError("alpha: must lie in [0, 1]")
    prior0 = _check_unit_interval("prior0", prior0)
    tx_costs = ((1.0 - alpha, alpha), (alpha, 1.0 - alpha))
    rx_costs = ((0.0, 1.0), (1.0, 0.0))
    return GameSpec(
        transmitter=AgentParams.from_prior0(prior0, tx_costs),
        receiver=AgentParams.from_prior0(prior0, rx_costs),
        noise=NoiseModel.scalar(sigma),
        power=PeakPower(p0, p1),
    )


def preset_deception(prior0: float = 0.5, sigma: float = 1.0,
                     p0: float = 1.0, p1: float = 1.0) -> GameSpec:
    """Transmitter rewarded for induced errors, receiver honest.

    The transmitter's margins are both negative (it prefers the receiver to
    decide wrongly under either hypothesis) while the receiver pays the
    uniform error cost.
    """
    return preset_biased_cost(0.0, prior0, sigma, p0, p1)
