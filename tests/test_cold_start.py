"""Only the Monte Carlo oracle loads scipy.

The solvers are closed forms over ``math.erfc``, and ``sigeq.oracle`` loads
``scipy.special`` when a draw first needs it, so importing the package and
every ``solve``, ``sweep`` and ``dynamics`` run without it.  The test suite
has long since loaded scipy, so the check runs in a fresh interpreter.
"""

import contextlib
import io
import json
from pathlib import Path

from sigeq import cli
from conftest import fresh_python

ROOT = Path(__file__).resolve().parent.parent


def _config(name: str) -> str:
    return str(ROOT / "configs" / f"{name}.json")


SOLVE_CONFIGS = ("team_point", "vector", "avg_symmetric")  # one per channel
CLI_RUNS = (
    [("solve", "--config", _config(cfg), "--concept", concept)
     for cfg, concept in (("demo", "stackelberg"), ("demo", "nash"),
                          ("biased", "stackelberg"), ("biased", "nash"))]
    + [("solve", "--config", _config(cfg), "--concept", concept)
       for cfg in SOLVE_CONFIGS for concept in ("team", "stackelberg", "nash")]
    + [("sweep", "--config", _config(cfg), "--concept", concept, "--param", param,
        "--min", lo, "--max", hi, "--steps", "3")
       for cfg, concept, param, lo, hi in (
           ("demo", "stackelberg", "d", "0", "0.5"),
           ("biased", "nash", "alpha", "0.1", "0.9"),
           ("team_point", "team", "noise.sigma", "0.5", "2"),
           ("vector", "stackelberg", "d", "0", "0.5"),
           ("avg_symmetric", "nash", "power.p_avg", "0.5", "2"))]
    + [("dynamics", "--config", _config(cfg)) for cfg in ("demo", "biased", "team_point")]
)
# a scalar boundary, and a vector one moved within the sampler's reach, so
# that both ndtr and ndtri are called
VERIFY_RUNS = (
    ("verify", "--config", _config("demo"), "--concept", "stackelberg",
     "--samples", "20000", "--seed", "3"),
    ("verify", "--config", _config("vector"), "--concept", "team",
     "--samples", "20000", "--seed", "3", "--eta-offset", "-150"),
)

FRESH = """
import contextlib, io, json, sys

import sigeq
assert "scipy" not in sys.modules, "import sigeq"
from sigeq import Concept, cli
assert "scipy" not in sys.modules, "import sigeq.cli"

configs, cli_runs, verify_runs = json.loads(sys.argv[1])
for path in configs:
    spec = cli.load_spec(path)
    for concept in Concept:
        sigeq.solve(spec, concept)
assert "scipy" not in sys.modules, "sigeq.solve"
for argv in cli_runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
out = []
for argv in verify_runs:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out.append([cli.main(argv), buf.getvalue()])
assert "scipy.special" in sys.modules, "verify"
print(json.dumps(out))
"""


def test_only_the_monte_carlo_draw_loads_scipy():
    configs = [_config(cfg) for cfg in SOLVE_CONFIGS]
    out = fresh_python(FRESH, json.dumps([configs, CLI_RUNS, VERIFY_RUNS]))
    expected = []
    for argv in VERIFY_RUNS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            expected.append([cli.main(list(argv)), buf.getvalue()])
    assert json.loads(out) == expected
