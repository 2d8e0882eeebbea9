#!/usr/bin/env python3
"""Contrast equilibrium sensitivity to cost-model error at a team point.

Starting from an agreed (identical-parameter) game on any channel, the
transmitter's costs are offset by +/-eps one coordinate at a time and the
game is re-solved under leader-follower and simultaneous play.  The
leader-follower solution can flip between informative and non-informative,
moving d* by the full d_max, while the simultaneous-play solution keeps its
signals (exactly on peak-power channels, within O(eps) under an average
budget).  A config whose agents differ, or whose tau is not finite, is a
usage error and exits 2.

Usage: python3 scripts/robustness_demo.py configs/team_point.json --eps 1e-3
"""

import argparse
import sys

from sigeq import Concept, SpecError, robustness_scan, single_cost_perturbations
from sigeq.cli import load_spec


def _describe(pert) -> str:
    parts = [f"{name}{offset:+g}"
             for name, offset in (("c00", pert.eps_c00), ("c01", pert.eps_c01),
                                  ("c10", pert.eps_c10), ("c11", pert.eps_c11))
             if offset != 0.0]
    return " ".join(parts) if parts else "unperturbed"


def _print_scan(title: str, scan) -> None:
    base = scan.base
    print(f"{title} at the base point: {base.case_label}, "
          f"informative={base.informative}, d_star={base.d_star:.6g}")
    flips = 0
    jump = 0.0
    for entry in scan.entries:
        label = f"  {_describe(entry.perturbation):<12} ->"
        rep = entry.report
        if rep is None:
            print(f"{label} invalid: {entry.error}")
            continue
        flips += rep.informative != base.informative
        jump = max(jump, abs(rep.d_star - base.d_star))
        print(f"{label} {rep.case_label}, informative={rep.informative}, "
              f"d_star change={rep.d_star - base.d_star:+.3g}")
    print(f"informativeness flips: {flips}; largest |d_star change|: {jump:.3g}"
          f" (d_max {base.d_max:.3g})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("--eps", type=float, default=1e-3)
    args = ap.parse_args()

    try:
        spec = load_spec(args.config)
        perts = single_cost_perturbations(args.eps)
        scans = [(title, robustness_scan(spec, concept, perts))
                 for title, concept in (("leader-follower", Concept.STACKELBERG),
                                        ("simultaneous play", Concept.NASH))]
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for k, (title, scan) in enumerate(scans):
        if k:
            print()
        _print_scan(title, scan)
    return 0


if __name__ == "__main__":
    sys.exit(main())
