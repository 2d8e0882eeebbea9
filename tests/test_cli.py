"""Command-line interface: output formats, exit codes, determinism.

Most tests drive ``main(argv)`` in process and capture stdout; a handful go
through a real subprocess because they pin byte-level reproducibility of the
``verify`` command across runs and thread counts.
"""

import io
import contextlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sigeq import (AgentParams, AveragePower, Concept, GameSpec, NoiseModel, PeakPower,
                   q_function, solve)
from sigeq.cli import _fmt, load_spec, main
from conftest import DEMO_RX, DEMO_TX, demo_spec

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_report(text):
    pairs = [line.split(": ", 1) for line in text.strip().splitlines()]
    return {k: v for k, v in pairs}


def parse_csv(text, ncols=None):
    # equilibrium labels such as "xi(-,-)" carry commas, so the trailing
    # column must absorb whatever is left after the numeric fields
    lines = text.strip().splitlines()
    maxsplit = -1 if ncols is None else ncols - 1
    return lines[0], [line.split(",", maxsplit) for line in lines[1:]]


# ---------------------------------------------------------------------------
# solve


def test_solve_prints_the_library_report():
    code, out, _ = run_cli(["solve", "--config", CONFIGS / "demo.json",
                            "--concept", "stackelberg"])
    assert code == 0
    report = parse_report(out)
    assert list(report) == ["concept", "case", "informative", "existence",
                            "d_star", "d_max", "s0", "s1", "rule", "rule_a",
                            "rule_eta", "risk_t", "risk_r"]
    expect = solve(demo_spec(), Concept.STACKELBERG)
    assert report["concept"] == "stackelberg"
    assert report["case"] == "case-3"
    assert report["informative"] == "yes"
    assert report["existence"] == "exists"
    # the CLI is a thin shell: every number is the solver's, reformatted
    assert report["d_star"] == _fmt(expect.d_star)
    assert report["d_max"] == _fmt(expect.d_max)
    assert report["s0"] == _fmt(expect.signals.s0)
    assert report["s1"] == _fmt(expect.signals.s1)
    assert report["rule"] == expect.rule.kind.value
    assert report["rule_a"] == _fmt(expect.rule.a)
    assert report["rule_eta"] == _fmt(expect.rule.eta)
    assert report["risk_t"] == _fmt(expect.risk_t)
    assert report["risk_r"] == _fmt(expect.risk_r)


def test_solve_team_saturates_the_envelope():
    code, out, _ = run_cli(["solve", "--config", CONFIGS / "team_point.json",
                            "--concept", "team"])
    assert code == 0
    report = parse_report(out)
    assert report["informative"] == "yes"
    assert report["d_star"] == report["d_max"]
    assert float(report["risk_t"]) == float(report["risk_r"]) == 0.1


def test_solve_symmetric_average_power_nash():
    code, out, _ = run_cli(["solve", "--config", CONFIGS / "avg_symmetric.json",
                            "--concept", "nash"])
    assert code == 0
    report = parse_report(out)
    assert report["case"] == "xi(+,+)"
    assert report["d_star"] == "2"
    assert report["risk_t"] == _fmt(q_function(1.0))
    assert report["risk_r"] == _fmt(q_function(1.0))


def test_solve_vector_channel_config():
    code, out, _ = run_cli(["solve", "--config", CONFIGS / "vector.json",
                            "--concept", "stackelberg"])
    assert code == 0
    report = parse_report(out)
    # identical agents ride the least-noise axis out to the power envelope
    assert report["case"] == "case-6"
    assert report["d_star"] == report["d_max"] == "20"


def test_solve_csv_file_matches_stdout_and_is_stable(tmp_path):
    path = tmp_path / "row.csv"
    code, out, _ = run_cli(["solve", "--config", CONFIGS / "demo.json",
                            "--concept", "stackelberg", "--csv", path])
    assert code == 0
    header, rows = parse_csv(path.read_text())
    assert header == ("concept,case,informative,existence,d_star,d_max,"
                      "s0,s1,rule_kind,rule_a,rule_eta,risk_t,risk_r")
    assert len(rows) == 1
    report = parse_report(out)
    assert rows[0][0] == "stackelberg"
    assert rows[0][4] == report["d_star"]
    assert rows[0][11] == report["risk_t"]
    first = path.read_bytes()
    run_cli(["solve", "--config", CONFIGS / "demo.json",
             "--concept", "stackelberg", "--csv", path])
    assert path.read_bytes() == first


# ---------------------------------------------------------------------------
# sweep


def test_sweep_fixed_distance_rows():
    code, out, _ = run_cli(["sweep", "--config", CONFIGS / "demo.json",
                            "--concept", "stackelberg", "--param", "d",
                            "--min", 0.3, "--max", 0.7, "--steps", 5])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == "param,value,d_star,risk_t,risk_r,case"
    assert len(rows) == 5
    assert all(r[0] == "d" and r[5] == "fixed" for r in rows)
    assert all(r[1] == r[2] for r in rows)  # pinned distance is the distance
    risks = [float(r[3]) for r in rows]
    # the solver's optimum (d* = 0.4704) sits between the sampled points, so
    # the middle sample d = 0.5 wins and no sample beats the solved risk
    assert risks.index(min(risks)) == 2
    best = solve(demo_spec(), Concept.STACKELBERG).risk_t
    assert all(r >= best - 1e-12 for r in risks)


def test_sweep_rejects_distances_outside_the_envelope():
    code, _, err = run_cli(["sweep", "--config", CONFIGS / "demo.json",
                            "--concept", "stackelberg", "--param", "d",
                            "--min", -1, "--max", 0.5, "--steps", 3])
    assert code == 2
    assert "error:" in err and "d_max" in err


@pytest.mark.parametrize("lo,hi", [(30, 0), (0, 30)])
def test_sweep_checks_both_ends_of_a_distance_range(lo, hi):
    # demo.json has d_max = 20; a descending range is checked like an
    # ascending one
    code, out, err = run_cli(["sweep", "--config", CONFIGS / "demo.json",
                              "--concept", "stackelberg", "--param", "d",
                              "--min", lo, "--max", hi, "--steps", 4])
    assert code == 2 and out == ""
    assert "error: param d: range must lie within [0, d_max]" in err


@pytest.mark.parametrize("lo,hi", [(0, "nan"), ("nan", 1), (0, "inf")])
def test_sweep_rejects_a_non_finite_distance_range(lo, hi):
    code, out, err = run_cli(["sweep", "--config", CONFIGS / "demo.json",
                              "--concept", "stackelberg", "--param", "d",
                              "--min", lo, "--max", hi, "--steps", 3])
    assert code == 2 and out == ""
    assert "error: param d: range must be finite" in err


def test_sweep_cost_perturbation_flips_informativeness():
    # at sigma = 30 the saturated optimum is brittle: a one-cost nudge of
    # magnitude 0.005 moves it between case-1/6 (informative) and case-5 (not)
    code, out, _ = run_cli(["sweep", "--config", CONFIGS / "team_point.json",
                            "--concept", "stackelberg", "--param", "eps10",
                            "--min", -0.01, "--max", 0.01, "--steps", 5])
    assert code == 0
    _, rows = parse_csv(out)
    stars = [float(r[2]) for r in rows]
    assert stars[0] == stars[1] == 0.0
    assert min(stars[2:]) > 0.0
    assert [r[5] for r in rows] == ["case-5", "case-5", "case-6",
                                    "case-1", "case-1"]


def test_sweep_cost_bias_flips_nash_informativeness():
    code, out, _ = run_cli(["sweep", "--config", CONFIGS / "biased.json",
                            "--concept", "nash", "--param", "alpha",
                            "--min", 0.1, "--max", 0.9, "--steps", 5])
    assert code == 0
    _, rows = parse_csv(out, ncols=6)
    assert [r[5] for r in rows] == ["xi(-,-)", "xi(-,-)", "xi(0,0)",
                                    "xi(+,+)", "xi(+,+)"]
    stars = [float(r[2]) for r in rows]
    assert stars[:3] == [0.0, 0.0, 0.0]
    assert stars[3] == stars[4] == 2.0


def test_sweep_output_is_deterministic(tmp_path):
    argv = ["sweep", "--config", CONFIGS / "biased.json", "--concept", "nash",
            "--param", "alpha", "--min", 0.1, "--max", 0.9, "--steps", 9]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(argv + ["--csv", path])
    assert code == 0 and out == ""
    assert path.read_text() == first


_AVG_AGENT = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
# (config, concept, param, the game a value stands for, built directly, or
# the error that the sweep exits 2 with)
_REBINDINGS = [
    ("demo", "stackelberg", "power.p0",
     lambda v: replace(demo_spec(), power=PeakPower(v, 1.0))),
    ("demo", "nash", "power.p1", lambda v: replace(demo_spec(), power=PeakPower(1.0, v))),
    ("avg_symmetric", "stackelberg", "power.p_avg", lambda v: GameSpec(
        _AVG_AGENT, _AVG_AGENT, NoiseModel.scalar(1.0), AveragePower(v))),
    ("demo", "stackelberg", "transmitter.c10", lambda v: replace(
        demo_spec(), transmitter=AgentParams.from_prior0(0.25, ((0.6, 0.4), (v, 0.6))))),
    ("demo", "nash", "receiver.c01", lambda v: replace(
        demo_spec(), receiver=AgentParams.from_prior0(0.25, ((0.0, v), (0.9, 0.0))))),
    ("demo", "nash", "transmitter.prior0", lambda v: replace(
        demo_spec(), transmitter=AgentParams.from_prior0(v, DEMO_TX.costs))),
    ("demo", "stackelberg", "receiver.prior0", lambda v: replace(
        demo_spec(), receiver=AgentParams.from_prior0(v, DEMO_RX.costs))),
    ("avg_symmetric", "nash", "power.p0", "param power.p0: peak-power config required"),
    ("demo", "nash", "power.p_avg", "param power.p_avg: average-power config required"),
    ("vector", "nash", "noise.sigma", "param noise.sigma: scalar-noise config required"),
    ("demo", "nash", "noise.covariance", "param noise.covariance: unknown field"),
    ("demo", "nash", "power.p2", "param power.p2: unknown field"),
    ("demo", "nash", "receiver.c22", "param receiver.c22: unknown field"),
    ("demo", "nash", "sigma", "param sigma: unknown parameter name"),
    ("demo", "nash", "channel.sigma", "param channel.sigma: unknown parameter name"),
    ("demo", "nash", "alpha", "param alpha: config must use the biased_cost preset"),
]


@pytest.mark.parametrize("config,concept,param,expect", _REBINDINGS,
                         ids=[f"{cfg}-{param}" for cfg, _, param, _ in _REBINDINGS])
def test_sweep_rebinds_each_field_or_names_its_error(config, concept, param, expect):
    code, out, err = run_cli(["sweep", "--config", CONFIGS / f"{config}.json",
                              "--concept", concept, "--param", param,
                              "--min", 0.2, "--max", 0.8, "--steps", 4])
    if isinstance(expect, str):
        assert (code, out, err) == (2, "", f"error: {expect}\n")
        return
    assert code == 0 and err == ""
    header, *rows = out.splitlines()
    assert header == "param,value,d_star,risk_t,risk_r,case"
    values = [float(row.split(",")[1]) for row in rows]
    assert values == pytest.approx([0.2, 0.4, 0.6, 0.8], rel=1e-15)
    for row, v in zip(rows, values):
        rep = solve(expect(v), Concept(concept))
        assert row == ",".join([param, _fmt(v), _fmt(rep.d_star), _fmt(rep.risk_t),
                                _fmt(rep.risk_r), rep.case_label])


# (config, param, first value, the config's fields holding that value, message)
_BAD_REBINDINGS = [
    ("demo", "transmitter.c10", -1,
     {"transmitter": {"prior0": 0.25, "costs": [[0.6, 0.4], [-1, 0.6]]}},
     "transmitter: costs: entries must be nonnegative"),
    ("demo", "receiver.prior0", 1.5,
     {"receiver": {"prior0": 1.5, "costs": [[0.0, 0.4], [0.9, 0.0]]}},
     "receiver: prior0: priors must be strictly positive"),
    ("demo", "eps10", -5,
     {"transmitter": {"prior0": 0.25, "costs": [[0.6, 0.4], [-4.6, 0.6]]}},
     "transmitter: costs: entries must be nonnegative"),
    ("biased", "alpha", -1, {"alpha": -1}, "preset biased_cost: alpha: must lie in [0, 1]"),
]


@pytest.mark.parametrize("config, param, lo, fields, message", _BAD_REBINDINGS,
                         ids=[param for _, param, *_ in _BAD_REBINDINGS])
def test_sweep_names_the_agent_of_a_bad_rebound_value(tmp_path, config, param, lo, fields,
                                                      message):
    code, out, err = run_cli(["sweep", "--config", CONFIGS / f"{config}.json",
                              "--concept", "nash", "--param", param, "--min", lo,
                              "--max", 1, "--steps", 3])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    # the same value read from a config gives the same message
    doc = json.loads((CONFIGS / f"{config}.json").read_text())
    doc.update(fields)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["solve", "--config", path, "--concept", "nash"]) == (
        2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# dynamics


def test_dynamics_aligned_costs_converge():
    code, out, _ = run_cli(["dynamics", "--config", CONFIGS / "biased.json"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,s0,s1,rule_kind,rule_a,rule_eta"
    assert lines[1] == "1,-1,1,threshold,2,0"
    assert lines[2] == "2,-1,1,threshold,2,0"
    assert lines[-1] == "converged step=2"


def test_dynamics_misaligned_costs_oscillate():
    code, out, _ = run_cli(["dynamics", "--config", CONFIGS / "demo.json"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "oscillating period=2"
    signals = [line.split(",")[1] for line in lines[1:-1]]
    assert signals == ["1", "-1", "1"]  # the transmitter keeps flipping sides


def test_dynamics_rejects_a_zero_starting_direction():
    code, _, err = run_cli(["dynamics", "--config", CONFIGS / "demo.json",
                            "--init-a", 0])
    # the rule names its own bad direction
    assert (code, err) == (2, "error: rule: a threshold rule needs a nonzero direction\n")


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_the_solved_equilibrium():
    code, out, _ = run_cli(["verify", "--config", CONFIGS / "demo.json",
                            "--concept", "stackelberg",
                            "--samples", 200_000, "--seed", 5])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    names = [line.split(" ", 1)[0] for line in lines[:4]]
    assert names == ["p10", "p01", "risk_t", "risk_r"]
    assert all(line.endswith(" ok") for line in lines[:4])
    assert lines[-1] == "verify: pass n=200000 seed=5"


def test_verify_flags_a_corrupted_rule():
    code, out, _ = run_cli(["verify", "--config", CONFIGS / "demo.json",
                            "--concept", "stackelberg",
                            "--samples", 200_000, "--seed", 5,
                            "--eta-offset", 0.5])
    assert code == 1
    lines = out.strip().splitlines()
    assert all(line.endswith(" FAIL") for line in lines[:4])
    assert lines[-1] == "verify: FAIL n=200000 seed=5"


def test_verify_degenerate_rule_is_exact(tmp_path):
    # a receiver with zero miss cost never declares H1; simulation of that
    # rule is a constant, so the check passes with zero-width error bars
    cfg = {
        "transmitter": {"prior0": 0.25, "costs": [[0.0, 1.0], [1.0, 1.0]]},
        "receiver": {"prior0": 0.25, "costs": [[0.0, 1.0], [1.0, 1.0]]},
        "noise": {"sigma": 1.0},
        "power": {"p0": 1.0, "p1": 1.0},
    }
    path = tmp_path / "alwaysh0.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["verify", "--config", path, "--concept", "team",
                            "--samples", 10_000, "--seed", 3])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p10 analytic=0 empirical=0 stderr=0 ok"
    assert lines[1] == "p01 analytic=1 empirical=1 stderr=0 ok"
    assert lines[2] == "risk_t analytic=0.75 empirical=0.75 stderr=0 ok"


def test_verify_rejects_a_negative_seed():
    code, out, err = run_cli(["verify", "--config", CONFIGS / "demo.json",
                              "--concept", "stackelberg", "--seed", -1])
    assert code == 2 and out == ""
    assert err.strip() == "error: seed: must be a non-negative integer"


def test_verify_rejects_an_odd_sample_count():
    code, out, err = run_cli(["verify", "--config", CONFIGS / "demo.json",
                              "--concept", "stackelberg", "--samples", 10_001])
    assert code == 2 and out == ""
    assert err.strip() == ("error: n: must be even, half the samples go to "
                           "each hypothesis")


@pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
def test_verify_rejects_a_non_finite_eta_offset(offset):
    code, out, err = run_cli(["verify", "--config", CONFIGS / "demo.json",
                              "--concept", "stackelberg", f"--eta-offset={offset}"])
    assert code == 2 and out == ""
    assert err.strip() == "error: rule.eta: must be finite"


def test_verify_output_is_byte_identical_across_runs_and_threads():
    argv = [sys.executable, "-m", "sigeq.cli", "verify",
            "--config", str(CONFIGS / "demo.json"), "--concept", "stackelberg",
            "--samples", "200000", "--seed", "11"]
    outputs = []
    for _ in range(3):
        proc = subprocess.run(argv, capture_output=True, cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# config handling


def test_all_shipped_configs_load():
    names = sorted(p.name for p in CONFIGS.glob("*.json"))
    assert names == ["avg_symmetric.json", "biased.json", "demo.json",
                     "team_point.json", "vector.json"]
    for name in names:
        spec = load_spec(CONFIGS / name)
        assert isinstance(spec, GameSpec)


_AGENT = {"prior0": 0.5, "costs": [[0, 1], [1, 0]]}
_GAME = {"transmitter": _AGENT, "receiver": _AGENT, "noise": {"sigma": 1.0},
         "power": {"p0": 1.0, "p1": 1.0}}


# each message names its field once: the spec type names it, and the reader
# adds only the agent or the preset it sits in
_MALFORMED = [
    ("{broken", "config: invalid JSON: Expecting property name enclosed in double"
                " quotes: line 1 column 2 (char 1)"),
    ("[1, 2]", "config: expected a JSON object"),
    ({"preset": "mystery"}, "preset: unknown preset 'mystery'"),
    ({"transmitter": _AGENT}, "config: missing field 'receiver'"),
    ({**_GAME, "receiver": {"prior0": 0.5}}, "receiver: missing field 'costs'"),
    ({**_GAME, "noise": {"sigma": 1.0, "covariance": [[1.0]]}},
     "noise: provide exactly one of 'sigma' or 'covariance'"),
    ({**_GAME, "power": {"watts": 2.0}}, "power: provide 'p0' and 'p1', or 'p_avg'"),
    ({"preset": ["x"]}, "preset: unknown preset ['x']"),
    ({"preset": "subjective_priors", "prior0_t": 0.3, "prior0_r": 0.6, "costs": 5},
     "preset subjective_priors: costs: expected a 2x2 matrix indexed [decision][truth]"),
    ({"preset": "deception", "sigma": "x"}, "preset deception: noise.sigma: must be a real number"),
    ({**_GAME, "transmitter": {"prior0": "x", "costs": [[0, 1], [1, 0]]}},
     "transmitter: prior0: must be a real number"),
    ({**_GAME, "receiver": {"prior0": 0.5, "costs": [[0, 1], [1]]}},
     "receiver: costs: expected a 2x2 matrix indexed [decision][truth]"),
    ({**_GAME, "noise": {"sigma": 0.0}}, "noise.sigma: must be strictly positive"),
    ({**_GAME, "power": {"p0": 0.0, "p1": 1.0}}, "power.p0: must be strictly positive"),
    ({**_GAME, "power": {"p0": 1.0, "p1": "x"}}, "power.p1: must be a real number"),
    ({**_GAME, "dimension": "x"}, "dimension: must be a real number"),
    ({**_GAME, "dimension": 0.5}, "dimension: must be a positive integer"),
    ({**_GAME, "dimension": 2}, "dimension: must match the noise model dimension"),
]
_MALFORMED_MESSAGES = {doc if isinstance(doc, str) else json.dumps(doc): message
                       for doc, message in _MALFORMED}


@pytest.mark.parametrize("doc", [doc for doc, _ in _MALFORMED])
def test_malformed_configs_exit_two(tmp_path, doc):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(["solve", "--config", path, "--concept", "team"])
    assert (code, out, err) == (2, "", f"error: {_MALFORMED_MESSAGES[text]}\n")


def test_vector_average_power_config_exits_two_naming_power(tmp_path):
    path = tmp_path / "vector_avg.json"
    agent = {"prior0": 0.5, "costs": [[0, 1], [1, 0]]}
    path.write_text(json.dumps({"transmitter": agent, "receiver": agent,
                                "noise": {"covariance": [[1.0, 0.0], [0.0, 1.0]]},
                                "power": {"p_avg": 1.0}}))
    code, out, err = run_cli(["solve", "--config", path, "--concept", "nash"])
    assert code == 2 and out == ""
    # the config is rejected as it loads, before any solve
    assert err == ("error: power: the average-power budget is defined"
                   " for scalar channels only\n")


def test_missing_config_file_exits_two(tmp_path):
    code, _, err = run_cli(["solve", "--config", tmp_path / "absent.json",
                            "--concept", "team"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["solve", "--concept", "stackelberg"],
    ["sweep", "--concept", "nash", "--param", "noise.sigma",
     "--min", 0.5, "--max", 1, "--steps", 3],
    ["dynamics"],
], ids=["solve", "sweep", "dynamics"])
def test_unwritable_csv_exits_two_naming_it(tmp_path, argv):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli([*argv, "--config", CONFIGS / "demo.json", "--csv", path])
    assert code == 2 and out == ""
    assert err.startswith("error: csv: ") and str(path) in err
    assert err.count("\n") == 1


def test_usage_errors_exit_two():
    code, _, err = run_cli(["solve", "--config", CONFIGS / "demo.json"])
    assert code == 2
    assert "--concept" in err


_RUN_IN_ONE_PROCESS = """
import contextlib, io, json, os, sys
from sigeq.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    csv = None
    if "--csv" in argv:
        path = argv[argv.index("--csv") + 1]
        with open(path) as fh:
            csv = fh.read()
        os.remove(path)
    results.append([code, out.getvalue(), err.getvalue(), csv])
print(json.dumps(results))
"""


def _run_in_one_process(calls):
    proc = subprocess.run([sys.executable, "-c", _RUN_IN_ONE_PROCESS, json.dumps(calls)],
                          capture_output=True, text=True, cwd=REPO, check=True)
    return json.loads(proc.stdout)


def test_calls_sharing_the_parser_match_calls_in_a_fresh_process(tmp_path):
    # the parser is built once per process; no call may see what an earlier
    # one parsed, whether that set an option, chose a subcommand or failed
    demo = str(CONFIGS / "demo.json")
    verify = ["verify", "--config", demo, "--concept", "stackelberg",
              "--samples", "20000", "--seed", "3"]
    sweep = ["sweep", "--config", demo, "--concept", "nash",
             "--param", "noise.sigma", "--min", "0.1", "--max", "1.0", "--steps", "4"]
    calls = [verify + ["--eta-offset", "0.5"], verify,
             ["sweep", "--config", demo, "--concept", "nash"],
             sweep + ["--csv", str(tmp_path / "sweep.csv")], sweep]
    shared = _run_in_one_process(calls)
    assert [result[0] for result in shared] == [1, 0, 2, 0, 0]
    assert shared[3][3] == shared[4][1] != ""
    for call, result in zip(calls, shared):
        assert result == _run_in_one_process([call])[0], call


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sigeq.cli", "solve",
         "--config", str(CONFIGS / "demo.json"), "--concept", "stackelberg"],
        capture_output=True, cwd=REPO)
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"concept: stackelberg\n")
