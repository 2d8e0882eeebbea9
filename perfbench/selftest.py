"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that
  * the same seed gives the same input digest and the same deterministic
    counts (failed_share, undecided_share, avgpower.wasted_round_share and
    every calls_per_op of the traced run);
  * another seed gives another digest;
  * every metric name printed, in the report lines and in the final JSON,
    is declared in BENCHMARK.json, and the JSON holds exactly the declared
    end-to-end (untraced) or per-layer (traced) metrics.
It also checks that a directory holding only BENCHMARK.json and the
benchmark's own files makes the benchmark exit non-zero without a result.
Exits 1 on the first failed check.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"
DETERMINISTIC = re.compile(r"calls_per_op$|^failed_share$|^undecided_share$|wasted_round_share$")


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _parse(proc: subprocess.CompletedProcess) -> tuple[str, dict, set]:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = re.search(r"digest=(\w+)", proc.stdout).group(1)
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"outputs failed their checks: {lines[-1]}")
    return digest, result["metrics"], printed


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            digest, layers, printed = _parse(_run(ROOT, workload, 1, 1))
            again, layers_again, _ = _parse(_run(ROOT, workload, 1, 1))
            other, _, _ = _parse(_run(ROOT, workload, 2, 1))
            _, timed, printed_timed = _parse(_run(ROOT, workload, 1, 0))
            _check(digest == again, f"{workload}: same seed, digests {digest} != {again}")
            _check(digest != other, f"{workload}: seeds 1 and 2 share digest {digest}")
            for name, metric in layers.items():
                if DETERMINISTIC.search(name):
                    _check(metric["value"] == layers_again[name]["value"],
                           f"{workload}: {name} differs between runs of one seed")
            _check(set(layers) == per_layer, f"{workload}: traced metrics != per_layer")
            _check(set(timed) == end_to_end, f"{workload}: untraced metrics != end_to_end")
            unknown = (printed | printed_timed) - end_to_end - per_layer
            _check(not unknown, f"{workload}: undeclared metrics printed: {sorted(unknown)}")
            print(f"ok {workload} digest={digest}", flush=True)

        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in spec["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(bare, spec["workloads"][0]["name"], 1, 0)
            _check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
                   "bare directory: the benchmark printed a result or exited 0")
        finally:
            shutil.rmtree(bare)
        print("ok bare directory exits non-zero")
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
