"""Golden record of the solvers: every recorded ``sigeq solve`` and
``sigeq sweep`` run must print the recorded lines and exit with the recorded
code, and every recorded game must re-solve to the recorded line, byte for
byte, through ``sigeq.solve``.

The record is written by ``scripts/solve_golden.py``; this test reuses its
run list, parsers and renderers so the format is defined once.  A game that
no longer matches fails with every differing leaf field listed, old value,
new value and, for floats, their distance in ulps.
"""

import importlib.util
import json
import struct
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "solve_golden.txt"


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "solve_golden", ROOT / "scripts" / "solve_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_script()
RUNS = golden.cli_runs()
TEXT = GOLDEN.read_text()
LINES = TEXT.splitlines(keepends=True)
# game entries are single JSON lines; the command runs come before them and
# each starts with its "$ sigeq ..." command line
GAMES = [line for line in LINES if line.startswith("{")]
RECORDS = ["$ " + r for r in TEXT[:len(TEXT) - len("".join(GAMES))].split("$ ")[1:]]
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
    assert "".join(RECORDS) + "".join(GAMES) == TEXT
    assert [r.splitlines()[0] for r in RECORDS] == [
        f"$ sigeq {' '.join(argv)}" for argv in RUNS]


@pytest.mark.parametrize("index", range(len(RUNS)))
def test_command_matches_golden_bytes(index):
    assert golden.render_cli(RUNS[index]) == RECORDS[index]


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
    spec = golden.spec_from(record["spec"])
    assert golden.spec_record(spec) == record["spec"]
    cell = {key: record[key] for key in CELL_KEYS}
    got = golden.render_game(cell, spec)
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
