#!/usr/bin/env python3
"""Write the golden record of the average-power Nash search.

Draws 40 mismatched finite-tau average-power games with the test suite's
``random_avg_spec`` (fixed seed), solves each under Nash with ``solve``, and
computes the transmitter best response to one random threshold rule per game
with ``nash_avg_best_response``.  Every input and output float is stored as
its ``repr`` string, so the file pins the results bit for bit;
``tests/test_avgpower_golden.py`` re-solves the recorded games and requires
exact equality.

The record should only be regenerated on purpose, by a change that is meant
to alter the numbers of the search.

Usage: python3 scripts/avg_nash_golden.py [-o tests/data/avg_nash_golden.json]
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from sigeq import (  # noqa: E402
    AgentParams,
    AveragePower,
    Concept,
    EquilibriumReport,
    GameSpec,
    NoiseModel,
    ReceiverRule,
    SignalDesign,
    nash_avg_best_response,
    solve,
)
from conftest import random_avg_spec  # noqa: E402

SEED = 20190611
GAMES = 40
DEFAULT_OUT = ROOT / "tests" / "data" / "avg_nash_golden.json"


def _agent_record(agent: AgentParams) -> dict:
    return {"prior0": repr(agent.prior0),
            "costs": [[repr(c) for c in row] for row in agent.costs]}


def _agent_from(rec: dict) -> AgentParams:
    costs = tuple(tuple(float(c) for c in row) for row in rec["costs"])
    return AgentParams.from_prior0(float(rec["prior0"]), costs)


def spec_record(spec: GameSpec) -> dict:
    return {"transmitter": _agent_record(spec.transmitter),
            "receiver": _agent_record(spec.receiver),
            "sigma": repr(spec.noise.sigma),
            "p_avg": repr(spec.power.p_avg)}


def spec_from(rec: dict) -> GameSpec:
    return GameSpec(_agent_from(rec["transmitter"]), _agent_from(rec["receiver"]),
                    NoiseModel.scalar(float(rec["sigma"])),
                    AveragePower(float(rec["p_avg"])))


def _signals_record(signals: SignalDesign) -> list[str]:
    return [repr(signals.s0), repr(signals.s1)]


def _rule_record(rule: ReceiverRule) -> list[str]:
    return [rule.kind.value, repr(rule.a), repr(rule.eta)]


def report_record(rep: EquilibriumReport) -> dict:
    return {"concept": rep.concept.value,
            "case_label": rep.case_label,
            "informative": rep.informative,
            "d_star": repr(rep.d_star),
            "d_max": repr(rep.d_max),
            "signals": _signals_record(rep.signals),
            "rule": _rule_record(rep.rule),
            "risk_t": repr(rep.risk_t),
            "risk_r": repr(rep.risk_r),
            "existence": rep.existence.value}


def rule_from(rec: list[str]) -> ReceiverRule:
    return ReceiverRule.threshold(float(rec[1]), float(rec[2]))


def best_response_record(rule: ReceiverRule, spec: GameSpec) -> dict:
    signals, x_star = nash_avg_best_response(rule, spec.transmitter,
                                             spec.power.p_avg, spec.noise)
    return {"signals": _signals_record(signals), "x_star": repr(x_star)}


def build_records() -> list[dict]:
    rng = np.random.default_rng(SEED)
    records = []
    for _ in range(GAMES):
        spec = random_avg_spec(rng)
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
        rule = ReceiverRule.threshold(a, float(rng.uniform(-1.0, 1.0)))
        records.append({"spec": spec_record(spec),
                        "report": report_record(solve(spec, Concept.NASH)),
                        "probe_rule": _rule_record(rule),
                        "best_response": best_response_record(rule, spec)})
    return records


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    games = build_records()
    # one game per line keeps the file readable and its diffs local
    lines = ",\n".join(json.dumps(game) for game in games)
    args.out.write_text(f'{{"seed": {SEED}, "games": [\n{lines}\n]}}\n')
    print(f"wrote {len(games)} games to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
