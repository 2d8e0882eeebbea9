"""Jointly optimal design when transmitter and receiver share priors and costs,
and the robustness scan around such a team point.

With identical parameters and a finite threshold ratio the shared risk is
strictly decreasing in the normalized signal distance, so the team chooser of
the solve pipeline in ``equilibrium`` always takes d* = d_max: the full power
budget.  Otherwise the receiver ignores the channel and every signal pair is
equivalent.  ``sigeq.solve`` checks that the agents are identical before it
solves a team game.

``robustness_scan`` probes the paper's fragility claim around a team point:
it offsets the transmitter's priors and costs and re-solves through the same
pipeline under leader-follower or simultaneous play, on any channel.  Near
such a point commitment can jump between informative and babbling, by the
full d_max, while the peak-power Nash pair does not move at all.  The scan
drives the pipeline, so this module sits above ``equilibrium``.
"""

from dataclasses import replace
from typing import Iterable

from .detection import (
    AgentParams,
    GameSpec,
    MismatchedAgentsError,
    SpecError,
    _record,
    derived_quantities,
)
from .equilibrium import Concept, EquilibriumReport, _solve

__all__ = [
    "require_identical_agents",
    "Perturbation",
    "ScanEntry",
    "RobustnessScan",
    "robustness_scan",
    "single_cost_perturbations",
]


def require_identical_agents(spec: GameSpec) -> None:
    if spec.transmitter != spec.receiver:
        raise MismatchedAgentsError(
            "team analysis requires transmitter and receiver to share priors and costs"
        )


@_record
class Perturbation:
    """Additive offsets applied to the receiver's parameters to build a
    perturbed transmitter.  One prior offset moves prior0 by +eps_prior0 and
    prior1 by -eps_prior0, so the priors still sum to one.
    """

    eps_prior0: float = 0.0
    eps_c00: float = 0.0
    eps_c01: float = 0.0
    eps_c10: float = 0.0
    eps_c11: float = 0.0

    def applied_to(self, base: AgentParams) -> AgentParams:
        return AgentParams(
            base.prior0 + self.eps_prior0,
            base.prior1 - self.eps_prior0,
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


@_record(eq=False)
class ScanEntry:
    perturbation: Perturbation
    report: EquilibriumReport | None
    error: str | None = None


@_record(eq=False)
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
    objective.  An offset that yields an invalid agent or an unsolvable game
    is reported in its entry's ``error`` instead of a report.
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
            moved = replace(spec, transmitter=pert.applied_to(spec.receiver))
            entries.append(ScanEntry(pert, _solve(moved, concept)))
        except SpecError as exc:
            entries.append(ScanEntry(pert, None, str(exc)))
    return RobustnessScan(_solve(spec, concept), tuple(entries))
