"""Jointly optimal design when transmitter and receiver share priors and costs.

With identical parameters and a finite threshold ratio the shared risk is
strictly decreasing in the normalized signal distance, so the team chooser of
the solve pipeline in ``equilibrium`` always takes d* = d_max: the full power
budget.  Otherwise the receiver ignores the channel and every signal pair is
equivalent.  Each team entry point checks that the agents are identical
before anything else.
"""

from .detection import GameSpec, MismatchedAgentsError
from .equilibrium import Concept, EquilibriumReport, _require_scalar_peak, _solve

__all__ = ["require_identical_agents", "solve_team"]


def require_identical_agents(spec: GameSpec) -> None:
    if spec.transmitter != spec.receiver:
        raise MismatchedAgentsError(
            "team analysis requires transmitter and receiver to share priors and costs"
        )


def solve_team(spec: GameSpec) -> EquilibriumReport:
    """Team-optimal signal pair and rule for a scalar peak-power game."""
    require_identical_agents(spec)
    _require_scalar_peak(spec, "solve_team")
    return _solve(spec, Concept.TEAM)
