"""Benchmark of sigeq: four closed-loop workloads, one caller in one process.

Run from the repository root (``src`` goes on the path, as for the tests):

    python3 perfbench/run.py --workload analytic_mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``analytic_mix``, ``avg_nash``,
``mc_verify`` and ``sweep_cli``.  The caller sends the next operation when the
last one returns.  Inputs come from ``--seed`` alone.

``--trace 0`` measures with tracing off for ``--seconds`` after a warm-up and
reports the end-to-end metrics.  ``setup_s`` is the median over fresh
interpreters of importing ``sigeq`` and building every spec and config the
workload uses.

``--trace 1`` runs the workload's first ``trace_ops`` operations untraced,
repeated until ``--seconds / 2`` has passed, then the same repetitions with
every public ``sigeq`` function wrapped (``tracing.py``).  It reports the
per-layer metrics, the tracing overhead (traced over untraced wall time,
minus one) and writes the spans of the first traced repetition to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  Counts in this mode cover
a fixed set of operations, so they repeat exactly for a seed.

Every operation's output is checked.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations that
raised or whose output failed a check.  A ``sigeq verify`` that exits 1 on a
config where 1 is the expected verdict is not counted there; it is counted,
with the failed operations, in ``failed_share``.
"""

import os

# pin every thread pool before numpy loads; thread scaling is not measured
for _var in ("SIGEQ_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("analytic_mix", "avg_nash", "mc_verify", "sweep_cli")
SETUP_PROBES = 5
WARMUP_S = 0.5
P99_MIN_OPS = 1000
MAX_TRACEBACKS = 3
LATENCY_CAP = 1 << 17

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
)
# Ungated figures first, then per-layer metrics.  The comment on each layer
# metric names the end-to-end metric it should move; where a workload does
# not reach the layer, its value is 0 and a change should leave it there.
PER_LAYER = (
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),           # analytic_mix only: needs 1000 ops
    ("rows_per_s", "1/s"),              # sweep_cli only
    ("failed_share", "share"),          # mc_verify: the known verify exits 1
    ("undecided_share", "share"),       # avg_nash: searches that end exhausted
    ("trace.overhead_share", "share"),
    ("init.solve.self_us", "us"),       # analytic_mix latency_p50_ms
    # analytic_mix ops_per_s; avg_nash through every round
    ("detection.derived_quantities.calls_per_op", "count"),
    ("detection.derived_quantities.self_us", "us"),
    ("detection.optimal_receiver_rule.calls_per_op", "count"),
    ("detection.optimal_receiver_rule.self_us", "us"),
    ("detection.spec_build_us", "us"),  # analytic_mix setup_s, sweep_cli rows_per_s
    ("equilibrium.report_build.self_us", "us"),  # analytic_mix latency_p50_ms
    ("stackelberg.classify_transmitter_preference.self_us", "us"),  # same
    # analytic_mix and avg_nash ops_per_s
    ("nash.best_response_receiver.calls_per_op", "count"),
    ("nash.best_response_receiver.self_us", "us"),
    # analytic_mix latency_p99_ms
    ("vector.min_eigenpair.calls_per_op", "count"),
    ("vector.min_eigenpair.self_us", "us"),
    # avg_nash ops_per_s and latency_p90_ms; rounds per game
    ("avgpower.best_response.calls_per_op", "count"),
    ("avgpower.best_response.self_ms", "ms"),
    ("avgpower.wasted_round_share", "share"),  # rounds of exhausted games
    # mc_verify ops_per_s
    ("oracle.mc_estimate.ns_per_sample", "ns"),
    ("oracle.rng_ns_per_sample", "ns"),
    ("oracle.ndtri_ns_per_sample", "ns"),
    ("oracle.compare_ns_per_sample", "ns"),
    ("cli.main.self_us_per_row", "us"),  # sweep_cli rows_per_s
    ("cli.load_spec.self_us", "us"),     # mc_verify latency, predicted negligible
)
UNITS = dict(END_TO_END + PER_LAYER)
ROUND_SPAN = "avgpower.nash_avg_best_response"


class LatencySample:
    """Every latency up to ``LATENCY_CAP``, then a uniform reservoir sample.

    Keeps the benchmark's own memory flat, so ``peak_rss_mb`` does not grow
    when the program gets faster and more ops fit in the window.
    """

    def __init__(self):
        self.values = array("d")
        self.seen = 0
        self._rng = random.Random(0)

    def add(self, latency: float) -> None:
        self.seen += 1
        if len(self.values) < LATENCY_CAP:
            self.values.append(latency)
            return
        j = self._rng.randrange(self.seen)
        if j < LATENCY_CAP:
            self.values[j] = latency


class Runner:
    """Runs operations one after another and tallies what they produced.

    ``known`` maps an operation index to the outcome of its first full check;
    a repeat of that operation must reproduce the same fingerprint.
    """

    def __init__(self, workload, known=None, tracer=None):
        self.workload = workload
        self.known = {} if known is None else known
        self.tracer = tracer
        self.tracebacks = 0
        self.reset()

    def reset(self):
        self.latencies = LatencySample()
        self.attempted = 0
        self.failed = 0
        self.verify_failed = 0
        self.undecided = 0
        self.rows = 0
        self.rounds = 0
        self.wasted_rounds = 0

    def step(self, index: int) -> None:
        op = self.workload.ops[index]
        tracer = self.tracer
        if tracer is not None:
            tracer.op = index
            rounds_before = tracer.calls[ROUND_SPAN]
            tracer.active = True
        t0 = time.perf_counter()
        error = None
        try:
            result = self.workload.run(op)
        except Exception as exc:
            error = exc
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            outcome = self._judge(index, op, result)
        else:
            outcome = None
            self._log_failure(error)
        self.latencies.add(latency)
        self.attempted += 1
        if outcome is None or not outcome.ok:
            self.failed += 1
            return
        self.verify_failed += outcome.verify_failed
        self.undecided += outcome.undecided
        self.rows += outcome.rows
        if tracer is not None:
            rounds = tracer.calls[ROUND_SPAN] - rounds_before
            self.rounds += rounds
            if outcome.undecided:
                self.wasted_rounds += rounds

    def _judge(self, index, op, result):
        known = self.known.get(index)
        try:
            result = self.workload.collect(result)
            if known is None:
                known = self.known[index] = self.workload.check(op, result)
                return known
            if self.workload.fingerprint(result) != known.fingerprint:
                return None
            return known
        except Exception as exc:
            self._log_failure(exc)
            return None

    def _log_failure(self, error: Exception) -> None:
        if self.tracebacks < MAX_TRACEBACKS:
            self.tracebacks += 1
            traceback.print_exception(error, file=sys.stderr)


def _environment() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form
        blas = "unknown"
    return (f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas} threads=1 "
            "(SIGEQ_THREADS, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS); "
            "thread scaling not measured")


def _probe_setup(args) -> list[float]:
    """Set-up times of fresh interpreters that import sigeq and build inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def _warm_up(runner: Runner) -> None:
    """Run ops until lazy numpy/scipy set-up is done and the warm-up pass ends."""
    n = len(runner.workload.ops)
    start = time.perf_counter()
    i = 0
    while i < runner.workload.warm_ops or time.perf_counter() - start < WARMUP_S:
        runner.step(i % n)
        i += 1


def _timed(runner: Runner, seconds: float) -> float:
    runner.reset()
    n = len(runner.workload.ops)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        runner.step(i % n)
        i += 1
        if time.perf_counter() >= deadline:
            return time.perf_counter() - start


def _repeat_prefix(runner: Runner, reps: int | None, budget: float) -> tuple[int, float]:
    """Run the first ``trace_ops`` ops ``reps`` times, or until ``budget`` s."""
    k = runner.workload.trace_ops
    done = 0
    elapsed = 0.0
    while (done < reps) if reps is not None else (done == 0 or elapsed < budget):
        if runner.tracer is not None:
            runner.tracer.keep_spans = done == 0
        t0 = time.perf_counter()
        for i in range(k):
            runner.step(i)
        elapsed += time.perf_counter() - t0
        done += 1
    return done, elapsed


def _percentiles_ms(latencies) -> dict:
    import numpy

    p50, p90, p99 = numpy.percentile(numpy.asarray(latencies) * 1e3, [50, 90, 99])
    return {"p50": float(p50), "p90": float(p90), "p99": float(p99)}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _workload_figures(runner: Runner, wall: float) -> dict:
    """Figures every run reports from an untraced window: name -> (value, n, of)."""
    n = runner.attempted
    q = _percentiles_ms(runner.latencies.values)
    return {
        "ops_per_s": (n / wall, n, "ops"),
        "latency_p50_ms": (q["p50"], n, "ops"),
        "latency_p90_ms": (q["p90"], n, "ops"),
        "latency_p99_ms": (q["p99"] if n >= P99_MIN_OPS else 0.0, n,
                           "ops" if n >= P99_MIN_OPS else f"ops, 0 below {P99_MIN_OPS}"),
        "rows_per_s": (runner.rows / wall, runner.rows, "rows"),
        "failed_share": (_share(runner.failed + runner.verify_failed, n), n,
                         f"ops, {runner.failed} failed checks, "
                         f"{runner.verify_failed} verify exits 1"),
        "undecided_share": (_share(runner.undecided, n), n, "ops"),
    }


def _layer_figures(tracer, setup_tracer, runner: Runner) -> dict:
    import tracing

    ops = runner.attempted
    calls = tracer.calls

    def per_call(names, scale):
        n = sum(calls[x] for x in names)
        return (sum(tracer.self_ns[x] for x in names) / n / scale if n else 0.0), n, "calls"

    def per_op(name):
        return calls[name] / ops, ops, "ops"

    spec_names = [f"detection.{t}" for t in tracing.SPEC_TYPES]
    spec_ns = sum(t.total_ns[x] for t in (tracer, setup_tracer) for x in spec_names)
    specs = sum(t.calls["detection.GameSpec"] for t in (tracer, setup_tracer))
    samples = tracer.samples

    def per_sample(ns):
        return (ns / samples if samples else 0.0), samples, "samples"

    main_ns = tracer.total_ns["cli.main"] - tracer.cli_heavy_ns
    return {
        "init.solve.self_us": per_call(["init.solve"], 1e3),
        "detection.derived_quantities.calls_per_op": per_op("detection.derived_quantities"),
        "detection.derived_quantities.self_us": per_call(["detection.derived_quantities"], 1e3),
        "detection.optimal_receiver_rule.calls_per_op": per_op("detection.optimal_receiver_rule"),
        "detection.optimal_receiver_rule.self_us":
            per_call(["detection.optimal_receiver_rule"], 1e3),
        "detection.spec_build_us": (spec_ns / specs / 1e3 if specs else 0.0, specs, "specs"),
        "equilibrium.report_build.self_us":
            per_call(["equilibrium.babbling_report", "equilibrium.degenerate_receiver_report"],
                     1e3),
        "stackelberg.classify_transmitter_preference.self_us":
            per_call(["stackelberg.classify_transmitter_preference"], 1e3),
        "nash.best_response_receiver.calls_per_op": per_op("nash.best_response_receiver"),
        "nash.best_response_receiver.self_us": per_call(["nash.best_response_receiver"], 1e3),
        "vector.min_eigenpair.calls_per_op": per_op("vector.min_eigenpair"),
        "vector.min_eigenpair.self_us": per_call(["vector.min_eigenpair"], 1e3),
        "avgpower.best_response.calls_per_op": per_op(ROUND_SPAN),
        "avgpower.best_response.self_ms": per_call([ROUND_SPAN], 1e6),
        "avgpower.wasted_round_share":
            (_share(runner.wasted_rounds, runner.rounds), runner.rounds, "rounds"),
        "oracle.mc_estimate.ns_per_sample": per_sample(tracer.total_ns["oracle.mc_estimate"]),
        "oracle.rng_ns_per_sample": per_sample(tracer.self_ns["oracle._chunk_normals"]),
        "oracle.ndtri_ns_per_sample": per_sample(tracer.total_ns["oracle.ndtri"]),
        "oracle.compare_ns_per_sample":
            per_sample(tracer.self_ns["oracle._count_h1_scalar"]
                       + tracer.self_ns["oracle._count_h1_vector"]),
        "cli.main.self_us_per_row":
            (main_ns / runner.rows / 1e3 if runner.rows else 0.0, runner.rows, "rows"),
        "cli.load_spec.self_us": per_call(["cli.load_spec"], 1e3),
    }


def _emit(figures: dict, names, correct: bool, attempted: int, failed: int) -> None:
    for name in sorted(figures):
        value, n, of = figures[name]
        print(f"metric {name} = {value!r} {UNITS[name]} (n={n} {of})")
    metrics = {name: {"value": figures[name][0], "unit": unit} for name, unit in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def _run_untraced(args, workload, runner: Runner) -> None:
    setups = _probe_setup(args)
    _warm_up(runner)
    warm_failed = runner.failed
    wall = _timed(runner, args.seconds)
    figures = _workload_figures(runner, wall)
    figures["setup_s"] = (statistics.median(setups), len(setups), "set-ups, median")
    figures["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, "process")
    print(f"window: {wall!r} s measured, closed loop, 1 caller")
    _emit(figures, END_TO_END, warm_failed + runner.failed == 0,
          runner.attempted, runner.failed)


def _run_traced(args, workload, runner: Runner) -> None:
    import tracing
    import workloads

    setup_tracer = tracing.Tracer()
    with setup_tracer.installed():
        setup_tracer.active = True
        workloads.build(args.workload, args.seed, OUT_DIR)
        setup_tracer.active = False
    _warm_up(runner)
    warm_failed = runner.failed
    runner.reset()
    reps, untraced = _repeat_prefix(runner, None, args.seconds / 2.0)
    tracer = tracing.Tracer()
    traced_runner = Runner(workload, runner.known, tracer)
    with tracer.installed():
        _, traced = _repeat_prefix(traced_runner, reps, 0.0)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    figures = _workload_figures(runner, untraced)
    del figures["ops_per_s"], figures["latency_p90_ms"]
    figures.update(_layer_figures(tracer, setup_tracer, traced_runner))
    figures["trace.overhead_share"] = (traced / untraced - 1.0, traced_runner.attempted,
                                       "ops, traced against untraced")
    print(f"trace: {reps} x {workload.trace_ops} ops untraced in {untraced!r} s, "
          f"traced in {traced!r} s; {len(tracer.spans)} spans written to "
          f"{spans_path.relative_to(ROOT)}")
    failed = runner.failed + traced_runner.failed
    _emit(figures, PER_LAYER, warm_failed + failed == 0,
          runner.attempted + traced_runner.attempted, failed)


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            timeout=600)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="'all' runs each workload in turn, one process each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)
    if not (ROOT / "src" / "sigeq" / "__init__.py").is_file():
        print(f"error: no sigeq sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    t0 = time.perf_counter()
    import workloads

    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    setup = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup}))
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds!r} trace={args.trace}")
    print(_environment())
    print(f"inputs: ops={len(workload.ops)} digest={workloads.digest(workload)} "
          f"trace_ops={workload.trace_ops} in-process set-up {setup!r} s")
    runner = Runner(workload)
    try:
        if args.trace:
            _run_traced(args, workload, runner)
        else:
            _run_untraced(args, workload, runner)
    finally:
        Path(OUT_DIR / "sweep.csv").unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
