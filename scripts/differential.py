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

The draw is fixed.  Both distributions are described in the docstrings of
``tests/conftest.py``:

* **moderate**, 2,400 games: the cell draw (``cell_games``) from seed
  20190611, 100 games in each of its 24 cells;
* **extreme**, 3,000 games: the extreme draw (``extreme_games``) from
  seed 0.  Games the spec types reject count as errors.

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
from conftest import cell_games, extreme_games  # noqa: E402

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
    rng = np.random.default_rng(MODERATE_SEED)
    draws = [("moderate", golden.spec_record(spec))
             for _, spec in cell_games(rng, MODERATE_GAMES)]
    draws += [("extreme", doc) for doc in extreme_games(EXTREME_SEED, EXTREME_DRAWS)]
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
