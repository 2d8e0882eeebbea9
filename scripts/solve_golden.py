#!/usr/bin/env python3
"""Write the golden record of the solvers.

The record holds three kinds of entries, all text:

* ``sigeq solve`` on every shipped config under every concept (5 x 3): the
  command line, everything it prints (stdout and stderr) and its exit code;
* ``sigeq sweep`` over the nine sweeps of the benchmark's ``sweep_cli``
  workload, at fixed ranges, ``--param d`` included;
* random games, one JSON line each: the game and its outcome under every
  concept, every float stored as its ``repr``.  They cover every channel
  (scalar peak power; vector peak power in dimensions 1, 2, 3, 4 and 8;
  scalar average power) x identical/mismatched agents x finite/degenerate
  tau x continuous/discrete draws.  Discrete draws take costs from
  {0, 0.5, 1}, priors from {0.25, 0.5, 0.75} and power budgets from
  {0.5, 1, 2}: continuous draws never zero a cost margin, tie the budgets
  or give tau = 1, so they never reach the ``flat`` or ``xi(0,.)`` labels or
  a mixed-sign Nash game with zero consistency (``p0=p1``).  A last game
  pins a receiver whose threshold ratio underflows to zero.

``tests/test_solve_golden.py`` replays every entry and requires byte
equality, for the games both through ``sigeq.solve`` and through the
matching ``solve_*`` entry point.

The record should only be regenerated on purpose, by a change that is meant
to alter what a solver reports.

Usage: python3 scripts/solve_golden.py [-o tests/data/solve_golden.txt]
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sigeq  # noqa: E402
from sigeq import (  # noqa: E402
    AgentParams,
    AveragePower,
    Concept,
    EquilibriumReport,
    GameSpec,
    NoiseModel,
    PeakPower,
    SpecError,
    cli,
    derived_quantities,
)

DEFAULT_OUT = ROOT / "tests" / "data" / "solve_golden.txt"
SEED = 20190611
CONFIGS = ("avg_symmetric", "biased", "demo", "team_point", "vector")
CONCEPTS = tuple(c.value for c in Concept)
SWEEP_STEPS = 33
# (config, param, min, max, concepts): the nine sweeps of perfbench's
# sweep_cli workload, at fixed ranges
SWEEPS = (
    ("biased", "alpha", "0.05", "0.95", ("stackelberg", "nash")),
    ("demo", "noise.sigma", "0.05", "5", ("stackelberg", "nash")),
    ("vector", "transmitter.prior0", "0.05", "0.95", ("stackelberg", "nash")),
    ("team_point", "eps10", "-0.35", "0.35", ("stackelberg", "nash")),
    ("demo", "d", "0", "20", ("stackelberg",)),
)
CHANNELS = ("scalar", "vector", "avg")
VECTOR_DIMS = (1, 2, 3, 4, 8)
# games per cell; mismatched finite-tau games with discrete draws reach the
# most labels, the rarest (a mixed-sign Nash game with p0 = p1) in ~3% of them
GAMES_PER_CELL = 10
GAMES_PER_RICH_CELL = 80
DISCRETE_COSTS = (0.0, 0.5, 1.0)
DISCRETE_PRIORS = (0.25, 0.5, 0.75)
DISCRETE_POWERS = (0.5, 1.0, 2.0)
# every solve_* entry point, by channel and concept
ENTRIES = {
    ("scalar", Concept.TEAM): sigeq.solve_team,
    ("scalar", Concept.STACKELBERG): sigeq.solve_stackelberg,
    ("scalar", Concept.NASH): sigeq.solve_nash,
    ("vector", Concept.TEAM): sigeq.solve_team_vec,
    ("vector", Concept.STACKELBERG): sigeq.solve_stackelberg_vec,
    ("vector", Concept.NASH): sigeq.solve_nash_vec,
    ("avg", Concept.TEAM): sigeq.solve_team_avg,
    ("avg", Concept.STACKELBERG): sigeq.solve_stackelberg_avg,
    ("avg", Concept.NASH): sigeq.solve_nash_avg,
}


# ---------------------------------------------------------------------------
# command-line entries


def cli_runs() -> list[tuple[str, ...]]:
    """Every recorded command line, in file order."""
    out = [("solve", "--config", f"configs/{cfg}.json", "--concept", concept)
           for cfg in CONFIGS for concept in CONCEPTS]
    for cfg, param, lo, hi, concepts in SWEEPS:
        for concept in concepts:
            out.append(("sweep", "--config", f"configs/{cfg}.json",
                        "--concept", concept, "--param", param,
                        "--min", lo, "--max", hi, "--steps", str(SWEEP_STEPS)))
    return out


def render_cli(argv: tuple[str, ...]) -> str:
    """One entry: the command line, the printed lines and the exit code."""
    resolved = [str(ROOT / a) if a.startswith("configs/") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(resolved)
    return f"$ sigeq {' '.join(argv)}\n{buf.getvalue()}exit {rc}\n"


# ---------------------------------------------------------------------------
# game entries


def _floats(x):
    if isinstance(x, np.ndarray):
        return [_floats(v) for v in x]
    return repr(float(x))


def _agent_record(agent: AgentParams) -> dict:
    return {"prior0": _floats(agent.prior0), "prior1": _floats(agent.prior1),
            "costs": [[_floats(c) for c in row] for row in agent.costs]}


def spec_record(spec: GameSpec) -> dict:
    noise = spec.noise
    power = spec.power
    return {
        "transmitter": _agent_record(spec.transmitter),
        "receiver": _agent_record(spec.receiver),
        "noise": ({"sigma": _floats(noise.sigma)} if noise.is_scalar
                  else {"covariance": _floats(noise.covariance)}),
        "power": ({"p_avg": _floats(power.p_avg)} if isinstance(power, AveragePower)
                  else {"p0": _floats(power.p0), "p1": _floats(power.p1)}),
        "dimension": spec.dimension,
    }


def _agent_from(rec: dict) -> AgentParams:
    costs = tuple(tuple(float(c) for c in row) for row in rec["costs"])
    return AgentParams(float(rec["prior0"]), float(rec["prior1"]), costs)


def _to_floats(x):
    if isinstance(x, list):
        return [_to_floats(v) for v in x]
    return float(x)


def spec_from(rec: dict) -> GameSpec:
    noise = rec["noise"]
    power = rec["power"]
    return GameSpec(
        _agent_from(rec["transmitter"]), _agent_from(rec["receiver"]),
        (NoiseModel.scalar(float(noise["sigma"])) if "sigma" in noise
         else NoiseModel.matrix(np.array(_to_floats(noise["covariance"])))),
        (AveragePower(float(power["p_avg"])) if "p_avg" in power
         else PeakPower(float(power["p0"]), float(power["p1"]))),
        rec["dimension"],
    )


def channel_of(spec: GameSpec) -> str:
    if isinstance(spec.power, AveragePower):
        return "avg"
    return "scalar" if spec.noise.is_scalar else "vector"


def report_record(rep: EquilibriumReport) -> dict:
    return {"concept": rep.concept.value,
            "case_label": rep.case_label,
            "informative": rep.informative,
            "existence": rep.existence.value,
            "d_star": _floats(rep.d_star),
            "d_max": _floats(rep.d_max),
            "signals": [_floats(rep.signals.s0), _floats(rep.signals.s1)],
            "rule": [rep.rule.kind.value, _floats(rep.rule.a), _floats(rep.rule.eta)],
            "risk_t": _floats(rep.risk_t),
            "risk_r": _floats(rep.risk_r)}


def outcome_record(solve, spec: GameSpec, concept: Concept) -> dict:
    """The report of one solve, or the error it raised."""
    try:
        return report_record(solve(spec, concept))
    except SpecError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def solve_by_entry(spec: GameSpec, concept: Concept) -> EquilibriumReport:
    """Solve through the ``solve_*`` entry point of the spec's channel."""
    return ENTRIES[channel_of(spec), concept](spec)


def render_game(cell: dict, spec: GameSpec, solve=sigeq.solve) -> str:
    """One game as one JSON line: its cell, the spec and its outcome under
    every concept."""
    record = dict(cell, spec=spec_record(spec))
    for concept in Concept:
        record[concept.value] = outcome_record(solve, spec, concept)
    return json.dumps(record) + "\n"


def _agent(rng, discrete: bool) -> AgentParams:
    if discrete:
        prior0 = float(rng.choice(DISCRETE_PRIORS))
        c = rng.choice(DISCRETE_COSTS, size=4)
    else:
        prior0 = float(rng.uniform(0.05, 0.95))
        c = rng.uniform(0.0, 2.0, size=4)
    return AgentParams.from_prior0(
        prior0, ((float(c[0]), float(c[1])), (float(c[2]), float(c[3]))))


def _budget(rng, discrete: bool) -> float:
    if discrete:
        return float(rng.choice(DISCRETE_POWERS))
    return float(rng.uniform(0.25, 4.0))


def _spd(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    m = a @ a.T + n * np.eye(n)
    return 0.5 * (m + m.T)


def _draw(rng, channel: str, dim: int, identical: bool, finite_tau: bool,
          discrete: bool) -> GameSpec:
    while True:
        tx = _agent(rng, discrete)
        rx = tx if identical else _agent(rng, discrete)
        if channel == "vector":
            noise = NoiseModel.matrix(_spd(rng, dim))
        else:
            noise = NoiseModel.scalar(float(rng.uniform(0.2, 2.0)))
        if channel == "avg":
            power = AveragePower(_budget(rng, discrete))
        else:
            power = PeakPower(_budget(rng, discrete), _budget(rng, discrete))
        spec = GameSpec(tx, rx, noise, power, noise.dimension)
        if derived_quantities(spec).tau.is_finite == finite_tau:
            return spec


def _underflow_game() -> GameSpec:
    # a valid LRT receiver whose threshold ratio underflows to 0
    rx = AgentParams(1e-10, 1.0 - 1e-10, ((0.0, 1.0), (1e-320, 0.0)))
    return GameSpec(rx, rx, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0))


def games() -> list[tuple[dict, GameSpec]]:
    """Every recorded game with its cell, in file order."""
    rng = np.random.default_rng(SEED)
    out = []
    for channel in CHANNELS:
        for identical in (True, False):
            for finite_tau in (True, False):
                for discrete in (False, True):
                    rich = discrete and finite_tau and not identical
                    for i in range(GAMES_PER_RICH_CELL if rich else GAMES_PER_CELL):
                        dim = VECTOR_DIMS[i % len(VECTOR_DIMS)] if channel == "vector" else 1
                        spec = _draw(rng, channel, dim, identical, finite_tau, discrete)
                        cell = {"channel": channel,
                                "agents": "identical" if identical else "mismatched",
                                "tau": "finite" if finite_tau else "degenerate",
                                "draws": "discrete" if discrete else "continuous"}
                        out.append((cell, spec))
    out.append(({"channel": "scalar", "agents": "identical", "tau": "underflow",
                 "draws": "fixed"}, _underflow_game()))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    runs = [render_cli(argv) for argv in cli_runs()]
    lines = [render_game(cell, spec) for cell, spec in games()]
    args.out.write_text("".join(runs) + "".join(lines))
    print(f"wrote {len(runs)} command runs and {len(lines)} games to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
