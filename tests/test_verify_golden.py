"""Golden record of ``sigeq verify``: every recorded run must print the
recorded lines and exit with the recorded code, byte for byte.

The record is written by ``scripts/golden.py``, beside the solve record that
``test_solve_golden.py`` replays; this test reuses the script's run list,
renderer and record reader, so the format is defined once.
"""

import pytest

from conftest import load_script

golden = load_script("golden")
RUNS = golden.verify_runs()
ENTRIES, _ = golden.read_record(golden.VERIFY_GOLDEN)


def test_record_holds_every_run_in_order():
    assert "".join(ENTRIES) == golden.VERIFY_GOLDEN.read_text()
    assert [r.splitlines()[0] for r in ENTRIES] == [
        f"$ sigeq {' '.join(argv)}" for argv in RUNS]


@pytest.mark.parametrize("index", range(len(RUNS)))
def test_verify_matches_golden_bytes(index):
    assert golden.render_cli(RUNS[index]) == ENTRIES[index]
