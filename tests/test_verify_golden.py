"""Golden record of ``sigeq verify``: every recorded run must print the
recorded lines and exit with the recorded code, byte for byte.

The record is written by ``scripts/verify_golden.py``; this test reuses its
run list and renderer so the format is defined once.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "verify_golden.txt"


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "verify_golden", ROOT / "scripts" / "verify_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_script()
RUNS = golden.runs()
TEXT = GOLDEN.read_text()
# each record starts with its "$ sigeq ..." command line
RECORDS = ["$ " + r for r in TEXT.split("$ ")[1:]]


def test_record_holds_every_run_in_order():
    assert "".join(RECORDS) == TEXT
    assert [r.splitlines()[0] for r in RECORDS] == [
        f"$ sigeq {' '.join(argv)}" for argv in RUNS]


@pytest.mark.parametrize("index", range(len(RUNS)))
def test_verify_matches_golden_bytes(index):
    assert golden.render(RUNS[index]) == RECORDS[index]
