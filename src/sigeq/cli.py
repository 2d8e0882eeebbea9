"""Command-line front end: solve, sweep, dynamics, verify.

Every numeric answer comes from the library; this module only parses a JSON
game description, calls the matching function, and formats output.  Floats
are printed with 17 significant digits so doubles round-trip bit-exactly.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import solve
from .detection import (
    AgentParams,
    AveragePower,
    GameSpec,
    NoiseModel,
    PeakPower,
    ReceiverRule,
    RuleKind,
    SpecError,
    _fixed_error_probs,
    bayes_risk,
    derived_quantities,
    prior_only_rule,
    rule_error_probs,
)
from .equilibrium import Concept, informative_risks
from .nash import OutcomeKind, best_response_dynamics
from .oracle import mc_estimate
from .stackelberg import preset_biased_cost, preset_deception, preset_subjective_priors
from .team import Perturbation

_SWEEP_HEADER = "param,value,d_star,risk_t,risk_r,case"
_D_RANGE_TOL = 1e-12


def _fmt(x) -> str:
    if isinstance(x, np.ndarray):
        return "[" + " ".join(format(float(c), ".17g") for c in x) + "]"
    if isinstance(x, (bool, np.bool_)):
        return "yes" if x else "no"
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# config loading
# Each spec type names its own bad field; the reader adds only what no
# constructor knows: the agent or the preset that a message comes from.


def _read_json(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SpecError(f"config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"config: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("config: expected a JSON object")
    return doc


def _agent_from(doc, path: str) -> AgentParams:
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: expected an object")
    for key in ("prior0", "costs"):
        if key not in doc:
            raise SpecError(f"{path}: missing field '{key}'")
    try:
        if "prior1" in doc:
            return AgentParams(doc["prior0"], doc["prior1"], doc["costs"])
        return AgentParams.from_prior0(doc["prior0"], doc["costs"])
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _noise_from(doc) -> NoiseModel:
    if not isinstance(doc, dict):
        raise SpecError("noise: expected an object")
    if "sigma" in doc and "covariance" not in doc:
        return NoiseModel.scalar(doc["sigma"])
    if "covariance" in doc and "sigma" not in doc:
        return NoiseModel.matrix(doc["covariance"])
    raise SpecError("noise: provide exactly one of 'sigma' or 'covariance'")


def _power_from(doc):
    if not isinstance(doc, dict):
        raise SpecError("power: expected an object")
    if "p_avg" in doc:
        return AveragePower(doc["p_avg"])
    if "p0" in doc and "p1" in doc:
        return PeakPower(doc["p0"], doc["p1"])
    raise SpecError("power: provide 'p0' and 'p1', or 'p_avg'")


_PRESETS = {
    "biased_cost": (preset_biased_cost, ("alpha",), ("prior0", "sigma", "p0", "p1")),
    "subjective_priors": (preset_subjective_priors, ("prior0_t", "prior0_r"),
                          ("costs", "sigma", "p0", "p1")),
    "deception": (preset_deception, (), ("prior0", "sigma", "p0", "p1")),
}


def _spec_from_preset(doc) -> GameSpec:
    name = doc["preset"]
    if not isinstance(name, str) or name not in _PRESETS:
        raise SpecError(f"preset: unknown preset {name!r}")
    builder, required, optional = _PRESETS[name]
    for key in required:
        if key not in doc:
            raise SpecError(f"preset {name}: missing field '{key}'")
    kwargs = {key: value for key, value in doc.items() if key != "preset"}
    for key in kwargs:
        if key not in required and key not in optional:
            raise SpecError(f"preset {name}: unknown field '{key}'")
    try:
        return builder(**kwargs)
    except SpecError as exc:
        raise SpecError(f"preset {name}: {exc}") from exc


def spec_from_config(doc: dict) -> GameSpec:
    """Build a game from a parsed JSON document (explicit or preset form)."""
    if "preset" in doc:
        return _spec_from_preset(doc)
    for key in ("transmitter", "receiver", "noise", "power"):
        if key not in doc:
            raise SpecError(f"config: missing field '{key}'")
    noise = _noise_from(doc["noise"])
    return GameSpec(
        transmitter=_agent_from(doc["transmitter"], "transmitter"),
        receiver=_agent_from(doc["receiver"], "receiver"),
        noise=noise,
        power=_power_from(doc["power"]),
        dimension=doc.get("dimension", noise.dimension),
    )


def load_spec(path: str) -> GameSpec:
    return spec_from_config(_read_json(path))


# ---------------------------------------------------------------------------
# sweep parameter rebinding

_EPS_PARAMS = {"eps00": "eps_c00", "eps01": "eps_c01",
               "eps10": "eps_c10", "eps11": "eps_c11"}
_COST_FIELDS = {"c00": (0, 0), "c01": (0, 1), "c10": (1, 0), "c11": (1, 1)}


def _sweep_spec(doc: dict, base: GameSpec, param: str, value: float) -> GameSpec:
    if param in _EPS_PARAMS:
        pert = Perturbation(**{_EPS_PARAMS[param]: value})
        return replace(base, transmitter=pert.applied_to(base.transmitter))
    if param == "alpha":
        if doc.get("preset") != "biased_cost":
            raise SpecError("param alpha: config must use the biased_cost preset")
        kwargs = {k: doc[k] for k in ("prior0", "sigma", "p0", "p1") if k in doc}
        return preset_biased_cost(value, **kwargs)
    head, dot, tail = param.partition(".")
    if not dot:
        raise SpecError(f"param {param}: unknown parameter name")
    if head == "noise":
        if tail != "sigma":
            raise SpecError(f"param {param}: unknown field")
        return replace(base, noise=NoiseModel.scalar(value))
    if head == "power":
        if tail == "p_avg":
            return replace(base, power=AveragePower(value))
        if tail in ("p0", "p1"):
            if not isinstance(base.power, PeakPower):
                raise SpecError(f"param {param}: peak-power config required")
            p0 = value if tail == "p0" else base.power.p0
            p1 = value if tail == "p1" else base.power.p1
            return replace(base, power=PeakPower(p0, p1))
        raise SpecError(f"param {param}: unknown field")
    if head in ("transmitter", "receiver"):
        agent = getattr(base, head)
        if tail == "prior0":
            new = AgentParams.from_prior0(value, agent.costs)
        elif tail in _COST_FIELDS:
            i, j = _COST_FIELDS[tail]
            rows = [list(agent.costs[0]), list(agent.costs[1])]
            rows[i][j] = value
            new = AgentParams(agent.prior0, agent.prior1, rows)
        else:
            raise SpecError(f"param {param}: unknown field")
        return replace(base, **{head: new})
    raise SpecError(f"param {param}: unknown parameter name")


# ---------------------------------------------------------------------------
# subcommands


def _emit(lines: list[str], csv_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if csv_path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(csv_path).write_text(text)
        except OSError as exc:
            raise SpecError(f"csv: {exc}") from exc


def cmd_solve(args) -> int:
    spec = load_spec(args.config)
    report = solve(spec, Concept(args.concept))
    fields = (
        ("concept", report.concept.value),
        ("case", report.case_label),
        ("informative", _fmt(report.informative)),
        ("existence", report.existence.value),
        ("d_star", _fmt(report.d_star)),
        ("d_max", _fmt(report.d_max)),
        ("s0", _fmt(report.signals.s0)),
        ("s1", _fmt(report.signals.s1)),
        ("rule", report.rule.kind.value),
        ("rule_a", _fmt(report.rule.a)),
        ("rule_eta", _fmt(report.rule.eta)),
        ("risk_t", _fmt(report.risk_t)),
        ("risk_r", _fmt(report.risk_r)),
    )
    if args.csv is not None:
        # written first, so that an unwritable path prints no report;
        # the CSV column of the rule's kind is named rule_kind
        header = ",".join("rule_kind" if name == "rule" else name for name, _ in fields)
        _emit([header, ",".join(value for _, value in fields)], args.csv)
    for name, value in fields:
        print(f"{name}: {value}")
    return 0


def _fixed_d_rows(spec: GameSpec, lo: float, hi: float, steps: int) -> list[str]:
    dq = derived_quantities(spec)
    if not dq.tau.is_finite:
        raise SpecError("param d: requires a finite threshold ratio")
    tau = dq.tau.finite_value()
    if not np.isfinite((lo, hi)).all():
        raise SpecError("param d: range must be finite")
    # the range may run either way
    if min(lo, hi) < 0.0 or max(lo, hi) > dq.d_max + _D_RANGE_TOL:
        raise SpecError("param d: range must lie within [0, d_max]")
    rows = []
    for v in np.linspace(lo, hi, steps):
        v = float(v)
        if v == 0.0:
            p10, p01 = _fixed_error_probs(prior_only_rule(tau, dq.zeta))
            risk_t = bayes_risk(spec.transmitter, p10, p01)
            risk_r = bayes_risk(spec.receiver, p10, p01)
        else:
            risk_t, risk_r = informative_risks(spec.transmitter, spec.receiver,
                                               v, dq.log_tau, dq.zeta)
        rows.append(",".join(["d", _fmt(v), _fmt(v), _fmt(risk_t),
                              _fmt(risk_r), "fixed"]))
    return rows


def cmd_sweep(args) -> int:
    doc = _read_json(args.config)
    base = spec_from_config(doc)
    if args.steps < 1:
        raise SpecError("steps: must be at least 1")
    if args.param == "d":
        rows = _fixed_d_rows(base, args.min, args.max, args.steps)
    else:
        concept = Concept(args.concept)
        rows = []
        for v in np.linspace(args.min, args.max, args.steps):
            spec_v = _sweep_spec(doc, base, args.param, float(v))
            report = solve(spec_v, concept)
            rows.append(",".join([
                args.param, _fmt(float(v)), _fmt(report.d_star),
                _fmt(report.risk_t), _fmt(report.risk_r), report.case_label,
            ]))
    _emit([_SWEEP_HEADER] + rows, args.csv)
    return 0


def cmd_dynamics(args) -> int:
    spec = load_spec(args.config)
    init = ReceiverRule.threshold(args.init_a, args.init_eta)
    trace = best_response_dynamics(spec, init_rule=init)
    lines = ["step,s0,s1,rule_kind,rule_a,rule_eta"]
    for k, (signals, rule) in enumerate(trace.iterates, start=1):
        lines.append(",".join([
            str(k), _fmt(signals.s0), _fmt(signals.s1),
            rule.kind.value, _fmt(rule.a), _fmt(rule.eta),
        ]))
    if trace.outcome is OutcomeKind.CONVERGED:
        lines.append(f"converged step={trace.step}")
    else:
        lines.append("oscillating period=2")
    _emit(lines, args.csv)
    return 0


def cmd_verify(args) -> int:
    spec = load_spec(args.config)
    report = solve(spec, Concept(args.concept))
    p10, p01 = rule_error_probs(report.signals, report.rule, spec.noise)
    risk_t = bayes_risk(spec.transmitter, p10, p01)
    risk_r = bayes_risk(spec.receiver, p10, p01)
    rule = report.rule
    if args.eta_offset != 0.0:
        if rule.kind is not RuleKind.THRESHOLD:
            raise SpecError("eta-offset: needs a threshold rule")
        rule = ReceiverRule.threshold(rule.a, rule.eta + args.eta_offset)
    est = mc_estimate(report.signals, rule, spec.noise,
                      (spec.transmitter, spec.receiver), args.samples,
                      args.seed)
    checks = (
        ("p10", p10, est.p10_hat, est.p10_stderr),
        ("p01", p01, est.p01_hat, est.p01_stderr),
        ("risk_t", risk_t, est.risk_t_hat, est.risk_t_stderr),
        ("risk_r", risk_r, est.risk_r_hat, est.risk_r_stderr),
    )
    ok = True
    for name, analytic, empirical, stderr in checks:
        passed = abs(analytic - empirical) <= 4.0 * stderr
        ok = ok and passed
        print(f"{name} analytic={_fmt(analytic)} empirical={_fmt(empirical)} "
              f"stderr={_fmt(stderr)} {'ok' if passed else 'FAIL'}")
    print(f"verify: {'pass' if ok else 'FAIL'} n={est.n_samples} seed={est.seed}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigeq",
        description="Solve and verify equilibria of a Gaussian signaling game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, concept=True):
        p.add_argument("--config", required=True, help="JSON game description")
        if concept:
            p.add_argument("--concept", required=True,
                           choices=[c.value for c in Concept])

    p_solve = sub.add_parser("solve", help="solve one game and print the report")
    common(p_solve)
    p_solve.add_argument("--csv", help="also write the report as one CSV row")

    p_sweep = sub.add_parser("sweep", help="solve across one varying parameter")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="d, alpha, epsNN, or a dotted field like noise.sigma")
    p_sweep.add_argument("--min", type=float, required=True)
    p_sweep.add_argument("--max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--csv", help="CSV output path (default: stdout)")

    p_dyn = sub.add_parser("dynamics", help="run alternating best responses")
    common(p_dyn, concept=False)
    p_dyn.add_argument("--init-a", type=float, default=1.0,
                       help="starting rule direction (nonzero)")
    p_dyn.add_argument("--init-eta", type=float, default=0.0)
    p_dyn.add_argument("--csv", help="CSV output path (default: stdout)")

    p_ver = sub.add_parser("verify",
                           help="check analytic risks against simulation")
    common(p_ver)
    p_ver.add_argument("--samples", type=int, default=1_000_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--eta-offset", type=float, default=0.0,
                       help="diagnostic: shift the simulated rule threshold")
    return parser


_parser = None  # built by the first call of main, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # found by name at each call, so the shared parser holds no command
    # function and a rebound cmd_* name takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
