#!/usr/bin/env python3
"""Write the transmitter/receiver risk curves r(d) for a game config.

Produces the data behind the classic risk-versus-separation plot: for each
normalized distance d on a uniform grid up to d_max, the receiver plays its
matched rule and both Bayes risks are recorded.  The leader's optimum shows
up as the minimum of the r_t column.  A config the CLI rejects, fewer than
one step, a receiver that ignores the channel or an output it cannot write
exits 2 with one ``error:`` line, as the CLI does.

Usage: python3 scripts/risk_curve.py configs/demo.json --steps 2000 -o curve.csv
"""

import argparse
import sys

from sigeq.cli import cmd_sweep, load_spec
from sigeq import SpecError, derived_quantities


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("-o", "--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()

    try:
        dq = derived_quantities(load_spec(args.config))
        if args.steps < 1:
            raise SpecError("steps: must be at least 1")
        if not dq.tau.is_finite:
            raise SpecError("the receiver ignores the channel; no curve")
        sweep_args = argparse.Namespace(
            config=args.config, concept="stackelberg", param="d",
            min=dq.d_max / args.steps, max=dq.d_max, steps=args.steps,
            csv=args.out,
        )
        return cmd_sweep(sweep_args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
