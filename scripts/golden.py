#!/usr/bin/env python3
"""Write the golden records of the solvers and of ``sigeq verify``.

``tests/data/solve_golden.txt`` holds, as text:

* ``sigeq solve`` on every shipped config under every concept, and
  ``sigeq sweep`` over the nine sweeps of the benchmark's ``sweep_cli``
  workload at fixed ranges: each run as its command line, everything it
  prints (stdout and stderr) and its exit code;
* random games, one JSON line each: the cell, the game and its outcome under
  every concept, every float stored as its ``repr``.  They are the cell draw
  (``cell_games`` in ``tests/conftest.py``, whose docstrings describe it):
  10 games in each of the 24 cells, 80 in each mismatched finite-tau cell of
  discrete draws.  Then a receiver whose threshold ratio underflows to zero,
  and 40 mismatched finite-tau average-power games (``"draws": "probe"``)
  that also hold a random threshold rule and the transmitter's best response
  to it, which nothing else pins.

``tests/data/verify_golden.txt`` holds ``sigeq verify`` runs at 1e6 samples
on every valid config x concept pair under three seeds, then again with an
``--eta-offset`` that brings every threshold boundary within reach of the
sampler, so the tallies of ``team_point`` and ``vector`` are non-trivial.

``tests/test_solve_golden.py`` and ``tests/test_verify_golden.py`` replay
them byte for byte; where a game differs, ``leaf_diffs`` names each changed
field with its distance in ulps, as ``scripts/differential.py`` does for an
outcome that changed since a parent revision.  Regenerate them only by a
change meant to alter what a solver or the Monte Carlo estimator reports;
``git diff`` then shows what moved.

Usage: python3 scripts/golden.py
"""

import argparse
import contextlib
import io
import json
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

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
    ReceiverRule,
    SpecError,
    cli,
    nash_avg_best_response,
)
from conftest import cell_games, random_avg_spec  # noqa: E402

SOLVE_GOLDEN = ROOT / "tests" / "data" / "solve_golden.txt"
VERIFY_GOLDEN = ROOT / "tests" / "data" / "verify_golden.txt"
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
VERIFY_SEEDS = (0, 101, 20190611)
VERIFY_PAIRS = (
    ("demo", "stackelberg"), ("demo", "nash"),
    ("biased", "stackelberg"), ("biased", "nash"),
    ("avg_symmetric", "team"), ("avg_symmetric", "stackelberg"),
    ("avg_symmetric", "nash"),
    ("team_point", "team"), ("team_point", "stackelberg"),
    ("team_point", "nash"),
    ("vector", "team"), ("vector", "stackelberg"), ("vector", "nash"),
)
# Shift of eta per config, in units of a . y.  demo's Nash rule is degenerate
# and takes no offset.  team_point's boundary sits ~29 sigma below both
# signals and vector's ~10 sigma between them; these offsets move them to
# ~3.6 sigma (team_point) and ~2.4 sigma from s0 (vector).
ETA_OFFSETS = {"demo": "0.002", "biased": "1.0", "avg_symmetric": "1.0",
               "team_point": "1500", "vector": "-150"}
DEGENERATE = {("demo", "nash")}
# games per cell; mismatched finite-tau games with discrete draws reach the
# most labels, the rarest (a mixed-sign Nash game with p0 = p1) in ~3% of them
GAMES_PER_CELL = 10
GAMES_PER_RICH_CELL = 80
PROBE_GAMES = 40


# ---------------------------------------------------------------------------
# command entries


def solve_runs() -> list[tuple[str, ...]]:
    """Every command line of the solve record, in file order."""
    out = [("solve", "--config", f"configs/{cfg}.json", "--concept", concept)
           for cfg in CONFIGS for concept in CONCEPTS]
    for cfg, param, lo, hi, concepts in SWEEPS:
        for concept in concepts:
            out.append(("sweep", "--config", f"configs/{cfg}.json",
                        "--concept", concept, "--param", param,
                        "--min", lo, "--max", hi, "--steps", str(SWEEP_STEPS)))
    return out


def verify_runs() -> list[tuple[str, ...]]:
    """Every command line of the verify record, in file order."""
    out = []
    for seed in VERIFY_SEEDS:
        for cfg, concept in VERIFY_PAIRS:
            out.append(("verify", "--config", f"configs/{cfg}.json",
                        "--concept", concept, "--seed", str(seed)))
    for seed in VERIFY_SEEDS:
        for cfg, concept in VERIFY_PAIRS:
            if (cfg, concept) not in DEGENERATE:
                out.append(("verify", "--config", f"configs/{cfg}.json",
                            "--concept", concept, "--seed", str(seed),
                            "--eta-offset", ETA_OFFSETS[cfg]))
    return out


def render_cli(argv: tuple[str, ...]) -> str:
    """One entry: the command line, the printed lines and the exit code."""
    resolved = [str(ROOT / a) if a.startswith("configs/") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(resolved)
    return f"$ sigeq {' '.join(argv)}\n{buf.getvalue()}exit {rc}\n"


def read_record(path: Path) -> tuple[list[str], list[str]]:
    """A record's command entries, each starting with its "$ sigeq ..." line,
    and its game lines: single JSON lines after the command entries."""
    text = path.read_text()
    games = [line for line in text.splitlines(keepends=True) if line.startswith("{")]
    runs = ["$ " + r for r in text[:len(text) - len("".join(games))].split("$ ")[1:]]
    return runs, games


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
    """A game in the form ``cli.spec_from_config`` reads back."""
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


def rule_record(rule: ReceiverRule) -> list:
    return [rule.kind.value, _floats(rule.a), _floats(rule.eta)]


def report_record(rep: EquilibriumReport) -> dict:
    return {"concept": rep.concept.value,
            "case_label": rep.case_label,
            "informative": rep.informative,
            "existence": rep.existence.value,
            "d_star": _floats(rep.d_star),
            "d_max": _floats(rep.d_max),
            "signals": [_floats(rep.signals.s0), _floats(rep.signals.s1)],
            "rule": rule_record(rep.rule),
            "risk_t": _floats(rep.risk_t),
            "risk_r": _floats(rep.risk_r)}


def _ordinal(x: float) -> int:
    """Position of a float in the ordered sequence of doubles (+0 and -0 at 0),
    so that two floats are ``abs(_ordinal(a) - _ordinal(b))`` ulps apart."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _as_float(leaf) -> float | None:
    try:
        return float(leaf) if isinstance(leaf, str) else None
    except ValueError:
        return None


def leaf_diffs(old, new, path: str = "") -> list[str]:
    """One line per leaf where two records differ: its path, the old and the
    new value, and the ulps between them when both are floats.  A subtree
    whose shape changed (a report that became an error, say) is one leaf."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [line for key in old
                for line in leaf_diffs(old[key], new[key], f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (o, n) in enumerate(zip(old, new))
                for line in leaf_diffs(o, n, f"{path}[{i}]")]
    if old == new:
        return []
    a, b = _as_float(old), _as_float(new)
    ulps = (f" ({abs(_ordinal(a) - _ordinal(b))} ulp)"
            if a is not None and b is not None else "")
    return [f"{path.lstrip('.')}: {old} -> {new}{ulps}"]


def outcome_record(spec: GameSpec, concept: Concept) -> dict:
    """The report of one solve, or the error it raised."""
    try:
        return report_record(sigeq.solve(spec, concept))
    except SpecError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def render_game(cell: dict, spec: GameSpec, probe: ReceiverRule | None = None) -> str:
    """One game as one JSON line: its cell, the spec, its outcome under every
    concept and, given a probe rule, the transmitter's best response to it."""
    record = dict(cell, spec=spec_record(spec))
    for concept in Concept:
        record[concept.value] = outcome_record(spec, concept)
    if probe is not None:
        signals, x_star = nash_avg_best_response(probe, spec.transmitter,
                                                 spec.power.p_avg, spec.noise)
        record["probe_rule"] = rule_record(probe)
        record["best_response"] = {"signals": [_floats(signals.s0), _floats(signals.s1)],
                                   "x_star": _floats(x_star)}
    return json.dumps(record) + "\n"


def _underflow_game() -> GameSpec:
    # a valid LRT receiver whose threshold ratio underflows to 0
    rx = AgentParams(1e-10, 1.0 - 1e-10, ((0.0, 1.0), (1e-320, 0.0)))
    return GameSpec(rx, rx, NoiseModel.scalar(1.0), PeakPower(1.0, 1.0))


def games() -> list[tuple[dict, GameSpec, ReceiverRule | None]]:
    """Every recorded game with its cell and probe rule, in file order."""
    out = [(cell, spec, None) for cell, spec in cell_games(
        np.random.default_rng(SEED), GAMES_PER_CELL, GAMES_PER_RICH_CELL)]
    out.append(({"channel": "scalar", "agents": "identical", "tau": "underflow",
                 "draws": "fixed"}, _underflow_game(), None))
    probe_rng = np.random.default_rng(SEED)
    for _ in range(PROBE_GAMES):
        spec = random_avg_spec(probe_rng)
        a = float(probe_rng.choice([-1.0, 1.0]) * probe_rng.uniform(0.2, 3.0))
        probe = ReceiverRule.threshold(a, float(probe_rng.uniform(-1.0, 1.0)))
        out.append(({"channel": "avg", "agents": "mismatched", "tau": "finite",
                     "draws": "probe"}, spec, probe))
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    runs = [render_cli(argv) for argv in solve_runs()]
    lines = [render_game(*game) for game in games()]
    SOLVE_GOLDEN.write_text("".join(runs + lines))
    checks = [render_cli(argv) for argv in verify_runs()]
    VERIFY_GOLDEN.write_text("".join(checks))
    print(f"wrote {len(runs)} command runs and {len(lines)} games to {SOLVE_GOLDEN},"
          f" {len(checks)} runs to {VERIFY_GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
