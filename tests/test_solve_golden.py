"""Golden record of the solvers: every recorded ``sigeq`` run must print the
recorded lines and exit with the recorded code, and every recorded game must
re-solve to the recorded line, byte for byte, through ``sigeq.solve`` (and
``nash_avg_best_response`` for its probe rule).

The record is written by ``scripts/golden.py``; this test reuses its run
list, game draws, renderers and record reader, and reads each recorded game
back with the CLI's ``spec_from_config``, so the format is defined once.  A
game that no longer matches fails with every differing leaf field listed, old
value, new value and, for floats, their distance in ulps.
"""

import json
import struct

import pytest

from sigeq import ReceiverRule, cli
from conftest import load_script

golden = load_script("golden")
RUNS = golden.solve_runs()
ENTRIES, GAMES = golden.read_record(golden.SOLVE_GOLDEN)
CELL_KEYS = ("channel", "agents", "tau", "draws")

_PLAIN_XI = [f"xi({a},{b})" for a in "+-0" for b in "+-0"]
_MIXED_XI = ("xi(+,-)", "xi(-,+)")
STACKELBERG_LABELS = {"degenerate", "flat", *(f"case-{k}" for k in range(1, 7))}
PEAK_NASH_LABELS = ({"degenerate"} | set(_PLAIN_XI) - set(_MIXED_XI)
                    | {f"{xi} {cmp}" for xi in _MIXED_XI
                       for cmp in ("p0<p1", "p0=p1", "p0>p1")})
# an informative mixed-sign average-power pair puts the larger level on the
# side whose sign is +, so x* < sqrt(P) only for xi(-,+)
AVG_NASH_LABELS = ({"degenerate"} | set(_PLAIN_XI)
                   | {"xi(+,-) x*>=rootP", "xi(-,+) x*<rootP"})
EXPECTED_LABELS = {
    **{(ch, "team"): {"degenerate", "informative"} for ch in golden.CHANNELS},
    **{(ch, "stackelberg"): STACKELBERG_LABELS for ch in golden.CHANNELS},
    ("scalar", "nash"): PEAK_NASH_LABELS,
    ("vector", "nash"): PEAK_NASH_LABELS,
    ("avg", "nash"): AVG_NASH_LABELS,
}


def test_record_holds_every_run_in_order():
    assert "".join(ENTRIES + GAMES) == golden.SOLVE_GOLDEN.read_text()
    assert [r.splitlines()[0] for r in ENTRIES] == [
        f"$ sigeq {' '.join(argv)}" for argv in RUNS]


@pytest.mark.parametrize("index", range(len(RUNS)))
def test_command_matches_golden_bytes(index):
    assert golden.render_cli(RUNS[index]) == ENTRIES[index]


def test_games_are_redrawn_in_file_order():
    records = [json.loads(line) for line in GAMES]
    drawn = golden.games()
    assert [(cell, golden.spec_record(spec),
             None if probe is None else golden.rule_record(probe))
            for cell, spec, probe in drawn] == [
        ({key: r[key] for key in CELL_KEYS}, r["spec"], r.get("probe_rule"))
        for r in records]


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


def test_leaf_diffs_name_each_changed_field_with_its_ulps():
    old = {"d_star": "1.0", "rule": ["threshold", ["-0.0", "0.5"], "2.0"],
           "nash": {"case_label": "flat"}}
    new = {"d_star": "1.0", "rule": ["threshold", ["0.0", "0.5000000000000002"],
                                     "1.9999999999999996"],
           "nash": {"error": "SpecError: x"}}
    assert leaf_diffs(old, new) == [
        "rule[1][0]: -0.0 -> 0.0 (0 ulp)",
        "rule[1][1]: 0.5 -> 0.5000000000000002 (2 ulp)",
        "rule[2]: 2.0 -> 1.9999999999999996 (2 ulp)",
        "nash: {'case_label': 'flat'} -> {'error': 'SpecError: x'}",
    ]


@pytest.mark.parametrize("index", range(len(GAMES)))
def test_game_matches_golden_bytes(index):
    line = GAMES[index]
    record = json.loads(line)
    # the recorded spec round-trips through the CLI's config reader
    spec = cli.spec_from_config(record["spec"])
    assert golden.spec_record(spec) == record["spec"]
    cell = {key: record[key] for key in CELL_KEYS}
    probe = record.get("probe_rule")
    if probe is not None:
        probe = ReceiverRule.threshold(float(probe[1]), float(probe[2]))
    got = golden.render_game(cell, spec, probe)
    assert got == line, "\n".join(
        ["the game no longer matches its record:",
         *leaf_diffs(record, json.loads(got))])


def test_record_covers_every_cell_and_case_label():
    cells = set()
    labels = {key: set() for key in EXPECTED_LABELS}
    case6 = set()
    for line in GAMES:
        record = json.loads(line)
        cells.add(tuple(record[key] for key in CELL_KEYS))
        for concept in ("team", "stackelberg", "nash"):
            outcome = record[concept]
            if "error" in outcome:
                continue
            labels[record["channel"], concept].add(outcome["case_label"])
            if outcome["case_label"] == "case-6":
                case6.add(outcome["informative"])
    assert cells >= {(ch, agents, tau, draws) for ch in golden.CHANNELS
                     for agents in ("identical", "mismatched")
                     for tau in ("finite", "degenerate")
                     for draws in ("continuous", "discrete")}
    assert labels == EXPECTED_LABELS
    # case-6 ends at either endpoint
    assert case6 == {True, False}
