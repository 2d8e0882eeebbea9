"""Jointly optimal design when transmitter and receiver share priors and costs.

With identical parameters and a finite threshold ratio the shared risk is
strictly decreasing in the normalized signal distance, so the team chooser of
the solve pipeline in ``equilibrium`` always takes d* = d_max: the full power
budget.  Otherwise the receiver ignores the channel and every signal pair is
equivalent.  ``sigeq.solve`` checks that the agents are identical before it
solves a team game.
"""

from .detection import GameSpec, MismatchedAgentsError

__all__ = ["require_identical_agents"]


def require_identical_agents(spec: GameSpec) -> None:
    if spec.transmitter != spec.receiver:
        raise MismatchedAgentsError(
            "team analysis requires transmitter and receiver to share priors and costs"
        )
