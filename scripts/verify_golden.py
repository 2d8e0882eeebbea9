#!/usr/bin/env python3
"""Write the golden record of ``sigeq verify``.

Runs ``sigeq verify`` in-process at the default 1e6 samples on every valid
config x concept pair under three seeds, then once more per seed on every
pair that plays a threshold rule, with an ``--eta-offset`` that moves the
simulated boundary.  The offsets bring the ``team_point`` and ``vector``
boundaries, which the equilibrium rule keeps beyond any sample, within reach
of the sampler, so their tallies are non-trivial.  Each run is stored as its
command line, its standard output and its exit code;
``tests/test_verify_golden.py`` replays every run and requires byte equality.

The record should only be regenerated on purpose, by a change that is meant
to alter the numbers the Monte Carlo estimator prints.

Usage: python3 scripts/verify_golden.py [-o tests/data/verify_golden.txt]
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sigeq import cli  # noqa: E402

DEFAULT_OUT = ROOT / "tests" / "data" / "verify_golden.txt"
SEEDS = (0, 101, 20190611)
PAIRS = (
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


def runs() -> list[tuple[str, ...]]:
    """Every recorded command line, in file order."""
    out = []
    for seed in SEEDS:
        for cfg, concept in PAIRS:
            out.append(("verify", "--config", f"configs/{cfg}.json",
                        "--concept", concept, "--seed", str(seed)))
    for seed in SEEDS:
        for cfg, concept in PAIRS:
            if (cfg, concept) not in DEGENERATE:
                out.append(("verify", "--config", f"configs/{cfg}.json",
                            "--concept", concept, "--seed", str(seed),
                            "--eta-offset", ETA_OFFSETS[cfg]))
    return out


def render(argv: tuple[str, ...]) -> str:
    """One record: the command line, the printed lines and the exit code."""
    resolved = [str(ROOT / a) if a.startswith("configs/") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(resolved)
    return f"$ sigeq {' '.join(argv)}\n{buf.getvalue()}exit {rc}\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    records = [render(argv) for argv in runs()]
    args.out.write_text("".join(records))
    print(f"wrote {len(records)} runs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
