"""Seeded inputs, operations and output checks of the four workloads.

Every workload is a list of operations built from ``(name, seed)`` alone.
``run`` performs one operation through the public ``sigeq`` API, looking the
entry point up at call time so a traced run sees the wrapped function;
``collect`` gathers what the operation left behind, outside its latency;
``check`` judges its output without trusting it; ``fingerprint`` reduces the
output to a value that must repeat exactly when the same operation runs
again.  The generators draw their own numbers and read only the configs
frozen next to this file.
"""

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sigeq
import sigeq.cli

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
REPORT_TOL = 1e-12

TEAM = sigeq.Concept.TEAM
STACK = sigeq.Concept.STACKELBERG
NASH = sigeq.Concept.NASH


@dataclass(frozen=True)
class Outcome:
    """Result of the full output check of one operation."""

    ok: bool
    fingerprint: object
    verify_failed: bool = False
    undecided: bool = False
    rows: int = 0


def _rng(name: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


# The game parameters follow the distributions of the test suite's random
# instances (tests/conftest.py), re-implemented here so that a change to a
# test cannot change a workload: prior0 uniform on [0.05, 0.95], each cost
# uniform on [0, 2], sigma uniform on [0.2, 2], every power budget uniform on
# [0.25, 4], and a covariance a a^T + n I with a standard normal.  Under these
# costs the receiver's threshold ratio tau is finite for half the draws.


def _agent(rng) -> sigeq.AgentParams:
    prior0 = float(rng.uniform(0.05, 0.95))
    c = rng.uniform(0.0, 2.0, size=4)
    return sigeq.AgentParams.from_prior0(
        prior0, ((float(c[0]), float(c[1])), (float(c[2]), float(c[3]))))


def _covariance(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T + dim * np.eye(dim)
    return 0.5 * (cov + cov.T)


def _random_spec(rng, channel: str, dim: int, identical: bool,
                 finite_tau: bool) -> sigeq.GameSpec:
    """Draw games of the channel until tau is finite or not, as asked."""
    while True:
        transmitter = _agent(rng)
        receiver = transmitter if identical else _agent(rng)
        if channel == "vector":
            spec = sigeq.GameSpec(transmitter, receiver,
                                  sigeq.NoiseModel.matrix(_covariance(rng, dim)),
                                  sigeq.PeakPower(float(rng.uniform(0.25, 4.0)),
                                                  float(rng.uniform(0.25, 4.0))),
                                  dim)
        elif channel == "avg":
            spec = sigeq.GameSpec(transmitter, receiver,
                                  sigeq.NoiseModel.scalar(float(rng.uniform(0.2, 2.0))),
                                  sigeq.AveragePower(float(rng.uniform(0.25, 4.0))))
        else:
            spec = sigeq.GameSpec(transmitter, receiver,
                                  sigeq.NoiseModel.scalar(float(rng.uniform(0.2, 2.0))),
                                  sigeq.PeakPower(float(rng.uniform(0.25, 4.0)),
                                                  float(rng.uniform(0.25, 4.0))))
        if sigeq.derived_quantities(spec).tau.is_finite == finite_tau:
            return spec


def _spec_key(spec: sigeq.GameSpec) -> str:
    if spec.noise.is_scalar:
        noise = repr(spec.noise.sigma)
    else:
        noise = spec.noise.covariance.tobytes().hex()
    return f"{spec.transmitter!r}|{spec.receiver!r}|{noise}|{spec.power!r}"


# ---------------------------------------------------------------------------
# solve workloads: one op is one sigeq.solve(spec, concept)


@dataclass(frozen=True)
class SolveOp:
    spec: sigeq.GameSpec
    concept: sigeq.Concept


class _SolveWorkload:
    """Shared run and check of workloads whose ops call sigeq.solve."""

    ops: list
    warm_ops = 1

    def describe(self, op: SolveOp) -> str:
        return f"{op.concept.value}|{_spec_key(op.spec)}"

    def run(self, op: SolveOp):
        return sigeq.solve(op.spec, op.concept)

    def collect(self, report):
        return report

    def fingerprint(self, report) -> tuple:
        return (report.case_label, report.informative, report.d_star,
                report.risk_t, report.risk_r)

    def check(self, op: SolveOp, report) -> Outcome:
        spec = op.spec
        risk_t, risk_r = sigeq.risk_pair(spec.transmitter, spec.receiver,
                                         report.signals, report.rule, spec.noise)
        ok = (report.concept is op.concept
              and math.isfinite(report.risk_t) and math.isfinite(report.risk_r)
              and abs(risk_t - report.risk_t) <= REPORT_TOL
              and abs(risk_r - report.risk_r) <= REPORT_TOL)
        try:
            sigeq.check_power(report.signals, spec.power, spec.transmitter)
        except sigeq.SpecError:
            ok = False
        return Outcome(ok, self.fingerprint(report),
                       undecided=report.case_label == "exhausted")


VECTOR_DIMS = (2, 3, 4, 8, 16)


# Concepts an analytic solve serves, by channel and by whether the two agents
# are identical.  Team play needs identical agents; average-power Nash is a
# numeric search, left to ``avg_nash``.
ANALYTIC_CONCEPTS = {
    ("scalar", False): (STACK, NASH),
    ("scalar", True): (TEAM, STACK, NASH),
    ("vector", False): (STACK, NASH),
    ("vector", True): (TEAM, STACK, NASH),
    ("avg", False): (STACK,),
    ("avg", True): (TEAM, STACK),
}
CELL_OPS = 70  # a multiple of len(VECTOR_DIMS)


class AnalyticMix(_SolveWorkload):
    """Analytic solves, an equal share for every cell of channel x concept x
    (identical or mismatched agents) x (finite or degenerate tau).

    That is 26 cells of ``CELL_OPS`` games; vector cells cycle through
    ``VECTOR_DIMS``.  The seed draws the games and their order.
    """

    name = "analytic_mix"

    def __init__(self, seed: int, scratch: Path):
        rng = _rng(self.name, seed)
        ops = []
        for (channel, identical), concepts in ANALYTIC_CONCEPTS.items():
            for concept in concepts:
                for finite_tau in (True, False):
                    for k in range(CELL_OPS):
                        dim = VECTOR_DIMS[k % len(VECTOR_DIMS)] if channel == "vector" else 1
                        spec = _random_spec(rng, channel, dim, identical, finite_tau)
                        ops.append(SolveOp(spec, concept))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        # the first pass checks every op in full, outside the timed window
        self.warm_ops = len(self.ops)
        self.trace_ops = len(self.ops)


class AvgNash(_SolveWorkload):
    """Numeric average-power Nash searches on mismatched finite-tau games.

    Games whose search ends ``exhausted`` are kept: they are the latency tail.
    """

    name = "avg_nash"
    trace_ops = 64

    def __init__(self, seed: int, scratch: Path):
        rng = _rng(self.name, seed)
        self.ops = [SolveOp(_random_spec(rng, "avg", 1, False, True), NASH)
                    for _ in range(1024)]


# ---------------------------------------------------------------------------
# CLI workloads: one op is one in-process sigeq.cli.main(argv)


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    expect: object  # what the check compares the output against


def _config(name: str) -> str:
    return str(CONFIG_DIR / f"{name}.json")


class _CliWorkload:
    """Shared run of workloads whose ops call sigeq.cli.main in-process."""

    ops: list
    warm_ops = 1

    def describe(self, op: CliOp) -> str:
        # paths differ between checkouts, so only the config's name counts
        argv = list(op.argv)
        argv[argv.index("--config") + 1] = Path(argv[argv.index("--config") + 1]).name
        if "--csv" in argv:
            del argv[argv.index("--csv"):]
        return " ".join(argv)

    def run(self, op: CliOp) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = sigeq.cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()

    def collect(self, result):
        return result

    def fingerprint(self, result):
        return result


def _is_float(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


VERIFY_PAIRS = (
    ("demo", STACK), ("demo", NASH),
    ("biased", STACK), ("biased", NASH),
    ("avg_symmetric", TEAM), ("avg_symmetric", STACK), ("avg_symmetric", NASH),
    ("team_point", TEAM), ("team_point", STACK), ("team_point", NASH),
    ("vector", TEAM), ("vector", STACK), ("vector", NASH),
)
VERIFY_SAMPLES = 1_000_000
VERIFY_SEEDS = 4
# Configs on which ``sigeq verify`` exits 1 under every concept: the analytic
# error probability is below 1e-17, no sample crosses the threshold, so the
# plug-in standard error is 0 and the 4-sigma check fails.
VERIFY_KNOWN_FAILING = ("team_point", "vector")
# The empirical half must lie within this many standard errors of the analytic
# value, the errors taken from the analytic probabilities.
VERIFY_SIGMAS = 6.0


def _analytic_verify(cfg: str, concept: sigeq.Concept) -> tuple[tuple, tuple]:
    """(p10, p01, risk_t, risk_r) of the pair and the standard error of each
    at ``VERIFY_SAMPLES`` samples, half under each hypothesis."""
    spec = sigeq.cli.load_spec(_config(cfg))
    report = sigeq.solve(spec, concept)
    p10, p01 = sigeq.rule_error_probs(report.signals, report.rule, spec.noise)
    m = VERIFY_SAMPLES // 2
    se10 = math.sqrt(p10 * (1.0 - p10) / m)
    se01 = math.sqrt(p01 * (1.0 - p01) / m)
    values, errors = [p10, p01], [se10, se01]
    for agent in (spec.transmitter, spec.receiver):
        values.append(sigeq.bayes_risk(agent, p10, p01))
        errors.append(math.hypot(agent.prior0 * agent.false_alarm_margin * se10,
                                 agent.prior1 * agent.miss_margin * se01))
    return tuple(values), tuple(errors)


class McVerify(_CliWorkload):
    """``sigeq verify`` at the default sample count on every valid config and
    concept, ``VERIFY_SEEDS`` verify seeds per run.

    Every op carries its expected exit code: 1 on ``VERIFY_KNOWN_FAILING``,
    0 elsewhere.  An exit of 1 is counted as ``verify_failed``.  The op fails
    its check when it raises, exits with another code than expected, prints
    analytic values that differ from the library's own answer, or prints an
    empirical value more than ``VERIFY_SIGMAS`` standard errors from it.
    """

    name = "mc_verify"

    def __init__(self, seed: int, scratch: Path):
        rng = _rng(self.name, seed)
        expected = {pair: _analytic_verify(*pair) for pair in VERIFY_PAIRS}
        ops = []
        for _ in range(VERIFY_SEEDS):
            verify_seed = int(rng.integers(0, 2**31))
            for i in rng.permutation(len(VERIFY_PAIRS)):
                cfg, concept = VERIFY_PAIRS[i]
                argv = ("verify", "--config", _config(cfg), "--concept", concept.value,
                        "--seed", str(verify_seed))
                rc = 1 if cfg in VERIFY_KNOWN_FAILING else 0
                ops.append(CliOp(argv, (rc, *expected[cfg, concept], verify_seed)))
        self.ops = ops
        self.trace_ops = len(VERIFY_PAIRS)

    def check(self, op: CliOp, result) -> Outcome:
        rc, text = result
        expected_rc, analytic, errors, verify_seed = op.expect
        lines = text.splitlines()
        verdict = "pass" if rc == 0 else "FAIL"
        ok = (rc == expected_rc and len(lines) == 5
              and lines[4] == f"verify: {verdict} n={VERIFY_SAMPLES} seed={verify_seed}")
        if ok:
            flags = []
            for line, name, value, error in zip(lines, ("p10", "p01", "risk_t", "risk_r"),
                                                analytic, errors):
                fields = line.split()
                ok = ok and (len(fields) == 5 and fields[0] == name
                             and fields[1] == f"analytic={value:.17g}"
                             and fields[2].startswith("empirical=")
                             and _is_float(fields[2][len("empirical="):])
                             and abs(float(fields[2][len("empirical="):]) - value)
                             <= VERIFY_SIGMAS * error)
                flags.append(fields[-1])
            ok = ok and ("FAIL" in flags) == (rc == 1)
        return Outcome(ok, result, verify_failed=rc == 1)


SWEEP_STEPS = 64
SWEEP_HEADER = "param,value,d_star,risk_t,risk_r,case"


class SweepCli(_CliWorkload):
    """``sigeq sweep --csv`` over the parameter paths of the shipped configs.

    Every cycle runs the same nine sweeps; the seed draws their ranges and
    order.  Average-power Nash sweeps are left to ``avg_nash``.
    """

    name = "sweep_cli"

    def __init__(self, seed: int, scratch: Path):
        rng = _rng(self.name, seed)
        for cfg in ("biased", "demo", "vector", "team_point"):
            sigeq.cli.load_spec(_config(cfg))
        self.csv = str(scratch / "sweep.csv")
        ops = []
        for _ in range(8):
            d_lo = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 1.0))
            cycle = [
                ("biased", "alpha", float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.7, 1.0))),
                ("demo", "noise.sigma", float(rng.uniform(0.05, 0.2)), float(rng.uniform(1.0, 5.0))),
                ("vector", "transmitter.prior0", float(rng.uniform(0.05, 0.3)),
                 float(rng.uniform(0.7, 0.95))),
                ("team_point", "eps10", float(rng.uniform(-0.35, -0.1)),
                 float(rng.uniform(0.1, 0.35))),
            ]
            sweeps = [(cfg, param, lo, hi, concept)
                      for cfg, param, lo, hi in cycle for concept in (STACK, NASH)]
            # the fixed-distance path skips the solver; demo's d_max is 20
            sweeps.append(("demo", "d", d_lo, float(rng.uniform(5.0, 20.0)), STACK))
            for i in rng.permutation(len(sweeps)):
                cfg, param, lo, hi, concept = sweeps[i]
                argv = ("sweep", "--config", _config(cfg), "--concept", concept.value,
                        "--param", param, "--min", repr(lo), "--max", repr(hi),
                        "--steps", str(SWEEP_STEPS), "--csv", self.csv)
                ops.append(CliOp(argv, param))
        self.ops = ops
        self.trace_ops = len(sweeps)  # one cycle

    def collect(self, result):
        return result[0], Path(self.csv).read_text()

    def check(self, op: CliOp, result) -> Outcome:
        rc, text = result
        lines = text.splitlines()
        ok = rc == 0 and len(lines) == 1 + SWEEP_STEPS and lines[0] == SWEEP_HEADER
        if ok:
            for line in lines[1:]:
                # the case label is the last field and may hold commas itself
                fields = line.split(",", 5)
                ok = ok and (len(fields) == 6 and fields[0] == op.expect
                             and all(_is_float(f) for f in fields[1:5]))
        return Outcome(ok, result, rows=len(lines) - 1 if ok else 0)


WORKLOADS = {cls.name: cls for cls in (AnalyticMix, AvgNash, McVerify, SweepCli)}


def build(name: str, seed: int, scratch: Path):
    return WORKLOADS[name](seed, scratch)


def digest(workload) -> str:
    h = hashlib.sha256()
    for op in workload.ops:
        h.update(workload.describe(op).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
