"""Channel guards of the nine ``solve_*`` entry points and of ``sigeq.solve``.

Every entry point solves one channel: scalar peak power, vector peak power or
scalar average power.  Handed any other game, including a vector game under
an average-power budget, it raises ``SpecError`` with the recorded message.
The team entry points check that the agents are identical before anything
else.
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
    solve_nash,
    solve_nash_avg,
    solve_nash_vec,
    solve_stackelberg,
    solve_stackelberg_avg,
    solve_stackelberg_vec,
    solve_team,
    solve_team_avg,
    solve_team_vec,
)

HONEST = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
OTHER = AgentParams.from_prior0(0.3, ((0.0, 0.5), (1.5, 0.0)))
ENTRIES = {
    "scalar": (solve_team, solve_stackelberg, solve_nash),
    "vector": (solve_team_vec, solve_stackelberg_vec, solve_nash_vec),
    "avg": (solve_team_avg, solve_stackelberg_avg, solve_nash_avg),
}
CHANNELS = (*ENTRIES, "vector_avg")
# (entry channel, game channel) -> message; {} is the entry's name
MESSAGES = {
    ("scalar", "vector"): "noise: vector games are solved by {}_vec",
    ("scalar", "avg"): "power: average-power games are solved by {}_avg",
    ("scalar", "vector_avg"): "noise: vector games are solved by {}_vec",
    ("vector", "scalar"): "noise: scalar games are solved by the scalar solvers",
    ("vector", "avg"): "noise: scalar games are solved by the scalar solvers",
    ("vector", "vector_avg"): "power: vector games support peak power only",
    ("avg", "scalar"): "power: expected an average-power budget",
    ("avg", "vector"): "noise: the average-power budget is defined for scalar channels only",
    ("avg", "vector_avg"):
        "noise: the average-power budget is defined for scalar channels only",
}
# the 18 wrong-channel calls among the three channels, plus the vector
# average-power game handed to each of the nine entry points
WRONG_CHANNEL = [(own, entry, channel) for own, entries in ENTRIES.items()
                 for entry in entries for channel in CHANNELS if channel != own]


def game(channel: str, transmitter: AgentParams = HONEST) -> GameSpec:
    scalar = channel in ("scalar", "avg")
    noise = NoiseModel.scalar(1.0) if scalar else NoiseModel.matrix(np.eye(2))
    power = AveragePower(1.0) if channel.endswith("avg") else PeakPower(1.0, 1.0)
    return GameSpec(transmitter, HONEST, noise, power, noise.dimension)


@pytest.mark.parametrize("own, entry, channel", WRONG_CHANNEL,
                         ids=[f"{e.__name__}-{c}" for _, e, c in WRONG_CHANNEL])
def test_entry_rejects_a_game_on_another_channel(own, entry, channel):
    with pytest.raises(SpecError) as info:
        entry(game(channel))
    assert type(info.value) is SpecError
    assert str(info.value) == MESSAGES[own, channel].format(entry.__name__)


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("entry", [entries[0] for entries in ENTRIES.values()],
                         ids=lambda e: e.__name__)
def test_team_entries_check_the_agents_before_the_channel(entry, channel):
    with pytest.raises(MismatchedAgentsError):
        entry(game(channel, OTHER))


@pytest.mark.parametrize("transmitter", [HONEST, OTHER], ids=["identical", "mismatched"])
@pytest.mark.parametrize("concept", list(Concept), ids=lambda c: c.value)
def test_solve_rejects_a_vector_average_power_game(concept, transmitter):
    with pytest.raises(SpecError) as info:
        solve(game("vector_avg", transmitter), concept)
    assert str(info.value) == (
        "power: the average-power budget is defined for scalar channels only")
