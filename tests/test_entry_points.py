"""``sigeq.solve`` is the one solve entry, for every concept on every channel.

It plays scalar peak power, vector peak power and scalar average power games
alike.  Team play first checks that the agents are identical.  A vector game
under an average-power budget never reaches it: ``GameSpec`` rejects the game
when it is built.
"""

import numpy as np
import pytest

from sigeq import (
    AgentParams,
    AveragePower,
    Concept,
    GameSpec,
    MismatchedAgentsError,
    NoiseModel,
    PeakPower,
    SpecError,
    solve,
)

HONEST = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
OTHER = AgentParams.from_prior0(0.3, ((0.0, 0.5), (1.5, 0.0)))
CHANNELS = ("scalar", "vector", "avg")
VECTOR_AVG = "power: the average-power budget is defined for scalar channels only"


def game(channel: str, transmitter: AgentParams = HONEST) -> GameSpec:
    scalar = channel in ("scalar", "avg")
    noise = NoiseModel.scalar(1.0) if scalar else NoiseModel.matrix(np.eye(2))
    power = AveragePower(1.0) if channel.endswith("avg") else PeakPower(1.0, 1.0)
    return GameSpec(transmitter, HONEST, noise, power, noise.dimension)


@pytest.mark.parametrize("channel", CHANNELS)
def test_team_play_checks_the_agents_on_every_channel(channel):
    with pytest.raises(MismatchedAgentsError):
        solve(game(channel, OTHER), Concept.TEAM)


@pytest.mark.parametrize("transmitter", [HONEST, OTHER], ids=["identical", "mismatched"])
@pytest.mark.parametrize("concept", list(Concept), ids=lambda c: c.value)
def test_solve_rejects_a_vector_average_power_game(concept, transmitter):
    with pytest.raises(SpecError) as info:
        solve(game("vector_avg", transmitter), concept)
    assert type(info.value) is SpecError
    assert str(info.value) == VECTOR_AVG
    # the game is rejected when it is built, before solve is reached
    assert info.traceback[-1].name == "__post_init__"
