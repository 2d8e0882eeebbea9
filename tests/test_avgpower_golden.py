"""Golden record of the average-power Nash search: the recorded games must
re-solve to the recorded reports and best responses bit for bit.

The record is written by ``scripts/avg_nash_golden.py``; this test reuses its
spec parser and record builders so the format is defined once.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from sigeq import Concept, solve

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "avg_nash_golden.json"


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "avg_nash_golden", ROOT / "scripts" / "avg_nash_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_script()
GAMES = json.loads(GOLDEN.read_text())["games"]


@pytest.mark.parametrize("index", range(len(GAMES)))
def test_nash_avg_matches_golden_bitwise(index):
    game = GAMES[index]
    spec = golden.spec_from(game["spec"])
    assert golden.spec_record(spec) == game["spec"]
    assert golden.report_record(solve(spec, Concept.NASH)) == game["report"]
    rule = golden.rule_from(game["probe_rule"])
    assert golden.best_response_record(rule, spec) == game["best_response"]
