#!/usr/bin/env python3
"""Compare every solve of a fixed draw of games between this tree and a parent.

The parent's ``src/sigeq`` is extracted with ``git archive <rev>`` into a
temporary directory and imported beside this tree's ``sigeq`` as a second
package, ``sigeq_parent``.  Each game is built from one config document by each
package's ``cli.spec_from_config`` and solved under every applicable concept
(team play only where the agents are identical).  Each outcome is recorded as
``scripts/golden.py`` records a report, every float as its ``repr``, or as
the error it raised, building the spec included, and the two sides are
compared: bit-equal, the same error, or changed.  Each changed outcome is
printed with its first differing leaf, old value, new value and ulps
(``golden.leaf_diffs``).  Warnings are silenced, so the caller's warning
filters do not change an outcome.

The draw is fixed:

* **moderate**, 2,400 games: the test suite's generators
  (``tests/conftest.py``) from seed 20190611, 100 games in each of 24 cells:
  scalar peak power, average power and vector peak power in dimensions 1-4,
  each x identical/mismatched agents x finite-tau-only/any tau;
* **extreme**, 3,000 draws from seed 0 (the robustness distribution of
  ROADMAP item 5): priors U[0.01, 0.99] half the time, else one prior
  log-uniform in [1e-300, 1e-2] (either side); each cost 0, U[0, 2] or
  log-uniform in [1e-300, 1e300], a third of the time each; sigma, budgets
  and covariance entries log-uniform in [1e-300, 1e300]; channels 40% scalar
  peak power, 30% average power, 30% a 2-D diagonal covariance; 30%
  identical agents.  Draws the spec types reject count as errors.

Exit status: 0 when no outcome changed, 1 when one did, 2 when the parent
cannot be loaded.

Usage: python3 scripts/differential.py --parent <rev>
"""

import argparse
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts")]

import numpy as np  # noqa: E402

import golden  # noqa: E402  (puts src and tests on sys.path)
import sigeq  # noqa: E402
from conftest import (  # noqa: E402
    random_avg_spec,
    random_identical_spec,
    random_scalar_spec,
    random_vector_spec,
)

PARENT = "sigeq_parent"
MODERATE_SEED = 20190611
MODERATE_GAMES = 100
EXTREME_SEED = 0
EXTREME_DRAWS = 3000


def load_package(src: Path):
    """The package in ``src/sigeq`` of a source tree, imported as ``PARENT``."""
    init = src / "sigeq" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        PARENT, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[PARENT] = module
    try:
        spec.loader.exec_module(module)
        importlib.import_module(f"{PARENT}.cli")
    except BaseException:
        unload_package()
        raise
    return module


def unload_package() -> None:
    for key in [k for k in sys.modules if k == PARENT or k.startswith(PARENT + ".")]:
        del sys.modules[key]


def extract_revision(rev: str, into: Path) -> None:
    """``src/sigeq`` of a git revision, written under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src/sigeq"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    # the extraction filter exists from Python 3.10.12 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)


# the moderate cells' channels: scalar and average power, then vector
# dimensions
MODERATE_CHANNELS = ("scalar", "avg", 1, 2, 3, 4)


def _moderate_spec(rng, channel, identical: bool, finite_tau: bool):
    if channel == "scalar":
        return (random_identical_spec(rng, finite_tau) if identical
                else random_scalar_spec(rng, finite_tau))
    if channel == "avg":
        return random_avg_spec(rng, identical, finite_tau)
    return random_vector_spec(rng, channel, identical, finite_tau)


def moderate_games() -> list[dict]:
    """The moderate draw, as config documents."""
    rng = np.random.default_rng(MODERATE_SEED)
    return [golden.spec_record(_moderate_spec(rng, channel, identical, finite_tau))
            for finite_tau in (True, False) for identical in (True, False)
            for channel in MODERATE_CHANNELS for _ in range(MODERATE_GAMES)]


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(lo, hi))


def _extreme_agent(rng) -> dict:
    if rng.random() < 0.5:
        prior0 = float(rng.uniform(0.01, 0.99))
        priors = (prior0, 1.0 - prior0)
    else:
        small = _log_uniform(rng, -300.0, -2.0)
        priors = (small, 1.0 - small) if rng.random() < 0.5 else (1.0 - small, small)
    costs = []
    for _ in range(4):
        kind = rng.integers(3)
        costs.append(0.0 if kind == 0 else float(rng.uniform(0.0, 2.0)) if kind == 1
                     else _log_uniform(rng, -300.0, 300.0))
    return {"prior0": repr(priors[0]), "prior1": repr(priors[1]),
            "costs": [[repr(costs[0]), repr(costs[1])], [repr(costs[2]), repr(costs[3])]]}


def extreme_games() -> list[dict]:
    """The extreme draw, as config documents."""
    rng = np.random.default_rng(EXTREME_SEED)
    games = []
    for _ in range(EXTREME_DRAWS):
        tx = _extreme_agent(rng)
        rx = tx if rng.random() < 0.3 else _extreme_agent(rng)
        channel = rng.random()
        if channel < 0.4:
            noise = {"sigma": repr(_log_uniform(rng, -300.0, 300.0))}
            power = {"p0": repr(_log_uniform(rng, -300.0, 300.0)),
                     "p1": repr(_log_uniform(rng, -300.0, 300.0))}
            dimension = 1
        elif channel < 0.7:
            noise = {"sigma": repr(_log_uniform(rng, -300.0, 300.0))}
            power = {"p_avg": repr(_log_uniform(rng, -300.0, 300.0))}
            dimension = 1
        else:
            v0, v1 = _log_uniform(rng, -300.0, 300.0), _log_uniform(rng, -300.0, 300.0)
            noise = {"covariance": [[repr(v0), "0.0"], ["0.0", repr(v1)]]}
            power = {"p0": repr(_log_uniform(rng, -300.0, 300.0)),
                     "p1": repr(_log_uniform(rng, -300.0, 300.0))}
            dimension = 2
        games.append({"transmitter": tx, "receiver": rx, "noise": noise,
                      "power": power, "dimension": dimension})
    return games


def outcome(package, doc: dict, concept: str) -> dict:
    """The record of one solve by ``package``, or the error it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = package.cli.spec_from_config(doc)
            return golden.report_record(package.solve(spec, package.Concept(concept)))
    except Exception as exc:  # noqa: BLE001  (every error is an outcome)
        return {"error": f"{type(exc).__name__}: {exc}"}


def compare(old) -> tuple[dict, list[str]]:
    """Counts of the outcome classes over the draw, ``old`` against this
    tree's ``sigeq``, and one line per changed outcome naming its game,
    concept and first differing leaf."""
    counts = {"bit-equal": 0, "same error": 0, "changed": 0}
    changed = []
    draws = [("moderate", doc) for doc in moderate_games()]
    draws += [("extreme", doc) for doc in extreme_games()]
    for i, (kind, doc) in enumerate(draws):
        concepts = [c.value for c in sigeq.Concept]
        if doc["transmitter"] != doc["receiver"]:
            concepts.remove("team")
        for concept in concepts:
            before, after = outcome(old, doc, concept), outcome(sigeq, doc, concept)
            if before != after:
                counts["changed"] += 1
                changed.append(f"game {i} ({kind}) "
                               + golden.leaf_diffs(before, after, concept)[0])
            elif "error" in after:
                counts["same error"] += 1
            else:
                counts["bit-equal"] += 1
    return counts, changed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REV", required=True,
                        help="git revision to compare against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            extract_revision(args.parent, Path(tmp))
            old = load_package(Path(tmp) / "src")
        except (OSError, subprocess.CalledProcessError, ImportError) as exc:
            print(f"error: cannot load the parent: {exc}", file=sys.stderr)
            return 2
        try:
            counts, changed = compare(old)
        finally:
            unload_package()
    total = sum(counts.values())
    print(f"{total} outcomes: " + ", ".join(f"{n} {name}" for name, n in counts.items()))
    for line in changed:
        print(line)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
