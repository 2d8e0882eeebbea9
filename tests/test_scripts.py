"""The shipped scripts run on every shipped config with the right exit code.

Each script is loaded from its file, as the golden tests load theirs, and
its ``main`` runs in process with ``sys.argv`` set to the command line.
"""

import hashlib
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

from conftest import extreme_games, load_script

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
# the agents of these configs share priors and costs
TEAM_POINTS = {"avg_symmetric.json", "team_point.json", "vector.json"}


risk_curve = load_script("risk_curve")
robustness_demo = load_script("robustness_demo")
differential = load_script("differential")


def _run(monkeypatch, script, argv):
    monkeypatch.setattr(sys, "argv", [script.__file__, *map(str, argv)])
    return script.main()


def test_every_config_is_covered():
    assert {c.name for c in CONFIGS} >= TEAM_POINTS | {"demo.json", "biased.json"}


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_risk_curve_writes_its_rows(monkeypatch, capsys, config):
    assert _run(monkeypatch, risk_curve, [config, "--steps", 3]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "param,value,d_star,risk_t,risk_r,case"
    assert len(lines) == 4
    assert all(line.startswith("d,") and line.endswith(",fixed") for line in lines[1:])


@pytest.mark.parametrize("case", ["missing-config", "unwritable-output", "zero-steps"])
def test_risk_curve_exits_two_with_one_error_line(monkeypatch, capsys, tmp_path, case):
    demo = ROOT / "configs" / "demo.json"
    argv = {"missing-config": [tmp_path / "game.json"],
            "unwritable-output": [demo, "-o", tmp_path / "missing" / "curve.csv"],
            "zero-steps": [demo, "--steps", 0]}[case]
    assert _run(monkeypatch, risk_curve, argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_robustness_demo_scans_team_points_only(monkeypatch, capsys, config):
    code = _run(monkeypatch, robustness_demo, [config])
    out, err = capsys.readouterr()
    if config.name in TEAM_POINTS:
        assert code == 0 and err == ""
        assert "leader-follower at the base point" in out
        assert "simultaneous play at the base point" in out
        assert out.count("informativeness flips: ") == 2
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_robustness_demo_reports_the_fragile_flip(monkeypatch, capsys):
    assert _run(monkeypatch, robustness_demo, [ROOT / "configs" / "team_point.json"]) == 0
    leader, simultaneous = capsys.readouterr().out.split("\n\n")
    assert "informativeness flips: 2; largest |d_star change|: 0.0667" in leader
    assert "informativeness flips: 0; largest |d_star change|: 0 " in simultaneous


def test_differential_of_the_tree_against_itself_is_bit_equal(monkeypatch, capsys):
    # this tree's package stands in for the parent's archive, so no git
    # call: every outcome of the fixed draw is bit-equal or the same error,
    # and the second package is unloaded
    monkeypatch.setattr(differential, "extract_revision",
                        lambda rev, into: shutil.copytree(ROOT / "src", into / "src"))
    assert _run(monkeypatch, differential, ["--parent", "HEAD"]) == 0
    out = capsys.readouterr().out
    counts = re.fullmatch(r"(\d+) outcomes: (\d+) bit-equal, (\d+) same error, 0 changed\n",
                          out)
    assert counts, out
    total, equal, errors = map(int, counts.groups())
    assert total == equal + errors and equal > 0 and errors > 0
    assert not any(name.startswith(differential.PARENT) for name in sys.modules)


def test_the_extreme_draw_is_pinned():
    # the differential's fixed extreme draw, every document to the byte, so
    # its one definition in conftest cannot drift unnoticed
    assert (differential.EXTREME_SEED, differential.EXTREME_DRAWS) == (0, 3000)
    digest = hashlib.sha256(json.dumps(extreme_games(0, 3000)).encode()).hexdigest()
    assert digest == "1496bcff9c15ee8d2acc3625d81367903b71193168068e7cea3064642e5b370d"
