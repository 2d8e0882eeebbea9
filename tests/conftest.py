"""Shared random-instance generators, signal-pair and rule comparisons, and
the brute-force leader oracle, for the test suite.

Costs are drawn from continuous distributions, so cost margins are nonzero
almost surely; generators that promise a finite threshold ratio reject the
draws where the margin signs disagree.
"""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import erfc

from sigeq import (
    AgentParams,
    AveragePower,
    GameSpec,
    NoiseModel,
    PeakPower,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    bayes_risk,
    derived_quantities,
    optimal_receiver_rule,
    prior_only_rule,
    rule_error_probs,
    rules_equal,
)
from sigeq.detection import _num_close

# pytest puts src on sys.path (pyproject's pythonpath); the CLI and script
# tests run child interpreters, which find the package through PYTHONPATH
_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(_ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def load_script(name: str):
    """The module of ``scripts/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, _ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run with ``args`` in a new interpreter,
    which has loaded nothing the suite has; a failure shows its stderr."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=_ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def signals_equal(lhs: SignalDesign, rhs: SignalDesign, tol: float = 0.0) -> bool:
    """Both pairs agree level by level within ``tol``; a vector level never
    equals a scalar one."""
    return _num_close(lhs.s0, rhs.s0, tol) and _num_close(lhs.s1, rhs.s1, tol)


def matched_rule(signals: SignalDesign, receiver: AgentParams,
                 noise: NoiseModel) -> ReceiverRule:
    """``optimal_receiver_rule`` of ``receiver`` against ``signals``, on the
    derived record of a game with that receiver on ``noise``; the rule reads
    only the receiver's fields (case, tau, ln tau, zeta), so the transmitter
    and the budget are placeholders."""
    spec = GameSpec(receiver, receiver, noise, PeakPower(1.0, 1.0), noise.dimension)
    return optimal_receiver_rule(signals, noise, derived_quantities(spec))


def grid_search_transmitter(spec: GameSpec, grid_size: int) -> tuple[float, float]:
    """Brute-force scan of the leader's risk over ``grid_size`` separations
    in [0, d_max] of a scalar peak-power game with a finite tau.

    The receiver always plays its matched follower rule, including the
    prior-only response to the coincident pair at d = 0.  The risk at d > 0
    is written out here from the matched rule's error tails, with scipy's
    ``erfc``, apart from the solver's case analysis.  Returns the first
    minimizing grid point, so ties resolve to the smallest separation.
    """
    assert spec.noise.is_scalar and isinstance(spec.power, PeakPower) and grid_size >= 2
    dq = derived_quantities(spec)
    assert dq.tau.is_finite
    tx = spec.transmitter
    ds = np.linspace(0.0, dq.d_max, grid_size)
    risks = np.empty(grid_size)
    coincident = SignalDesign(0.0, 0.0)
    risks[0] = bayes_risk(tx, *rule_error_probs(
        coincident, prior_only_rule(dq.tau.value, dq.zeta), spec.noise))
    pos = ds[1:]
    sqrt2 = math.sqrt(2.0)
    p10 = 0.5 * erfc(dq.zeta * (dq.log_tau / pos + pos / 2.0) / sqrt2)
    p01 = 0.5 * erfc(dq.zeta * (-dq.log_tau / pos + pos / 2.0) / sqrt2)
    risks[1:] = bayes_risk(tx, p10, p01)
    i = int(np.argmin(risks))
    return float(ds[i]), float(risks[i])


def _unit_rule(rule: ReceiverRule) -> tuple[np.ndarray, float]:
    """(a, eta) of a threshold rule scaled to a unit direction.  The largest
    entry of a is divided out first, so no square overflows or underflows, as
    it can in ``ReceiverRule.normalized`` at extreme magnitudes."""
    a = np.atleast_1d(np.asarray(rule.a, dtype=float))
    top = float(np.max(np.abs(a)))
    a, eta = a / top, rule.eta / top
    norm = math.sqrt(float(a @ a))
    return a / norm, eta / norm


def rules_close(lhs: ReceiverRule, rhs: ReceiverRule, rel: float) -> bool:
    """Both rules are of one kind and, scaled to a unit direction, the vectors
    (a, eta) differ by at most ``rel`` times the length of ``rhs``'s.  A scalar
    direction counts as a 1-vector; rules that ignore the observation must be
    equal."""
    if lhs.kind is not rhs.kind:
        return False
    if lhs.kind is not RuleKind.THRESHOLD:
        return rules_equal(lhs, rhs)
    (xa, x_eta), (ya, y_eta) = _unit_rule(lhs), _unit_rule(rhs)
    if xa.shape != ya.shape:
        return False
    da = xa - ya
    gap = math.hypot(math.sqrt(float(da @ da)), x_eta - y_eta)
    return gap <= rel * math.hypot(1.0, y_eta)


def random_agent(rng: np.random.Generator) -> AgentParams:
    prior0 = float(rng.uniform(0.05, 0.95))
    c = rng.uniform(0.0, 2.0, size=4)
    return AgentParams.from_prior0(
        prior0, ((float(c[0]), float(c[1])), (float(c[2]), float(c[3]))))


def _noise_and_power(rng: np.random.Generator) -> tuple[NoiseModel, PeakPower]:
    noise = NoiseModel.scalar(float(rng.uniform(0.2, 2.0)))
    power = PeakPower(float(rng.uniform(0.25, 4.0)), float(rng.uniform(0.25, 4.0)))
    return noise, power


def random_scalar_spec(rng: np.random.Generator,
                       finite_tau: bool = True) -> GameSpec:
    while True:
        noise, power = _noise_and_power(rng)
        spec = GameSpec(random_agent(rng), random_agent(rng), noise, power)
        if not finite_tau or derived_quantities(spec).tau.is_finite:
            return spec


def random_identical_spec(rng: np.random.Generator,
                          finite_tau: bool = True) -> GameSpec:
    while True:
        agent = random_agent(rng)
        noise, power = _noise_and_power(rng)
        spec = GameSpec(agent, agent, noise, power)
        if not finite_tau or derived_quantities(spec).tau.is_finite:
            return spec


def random_avg_spec(rng: np.random.Generator,
                    identical: bool = False,
                    finite_tau: bool = True) -> GameSpec:
    while True:
        tx = random_agent(rng)
        rx = tx if identical else random_agent(rng)
        spec = GameSpec(tx, rx, NoiseModel.scalar(float(rng.uniform(0.2, 2.0))),
                        AveragePower(float(rng.uniform(0.25, 4.0))))
        if not finite_tau or derived_quantities(spec).tau.is_finite:
            return spec


def random_spd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    m = a @ a.T + n * np.eye(n)
    return 0.5 * (m + m.T)


def random_vector_spec(rng: np.random.Generator, n: int,
                       identical: bool = False,
                       finite_tau: bool = True) -> GameSpec:
    while True:
        tx = random_agent(rng)
        rx = tx if identical else random_agent(rng)
        noise = NoiseModel.matrix(random_spd_matrix(rng, n))
        power = PeakPower(float(rng.uniform(0.25, 4.0)),
                          float(rng.uniform(0.25, 4.0)))
        spec = GameSpec(tx, rx, noise, power, dimension=n)
        if not finite_tau or derived_quantities(spec).tau.is_finite:
            return spec


DEMO_TX = AgentParams.from_prior0(0.25, ((0.6, 0.4), (0.4, 0.6)))
DEMO_RX = AgentParams.from_prior0(0.25, ((0.0, 0.4), (0.9, 0.0)))


def demo_spec() -> GameSpec:
    return GameSpec(DEMO_TX, DEMO_RX, NoiseModel.scalar(0.1), PeakPower(1.0, 1.0))


def team_point_spec(sigma: float = 0.1) -> GameSpec:
    """Shared-parameter game at the demo receiver point (tau = 0.75)."""
    agent = AgentParams.from_prior0(0.25, ((0.0, 0.4), (0.9, 0.0)))
    return GameSpec(agent, agent, NoiseModel.scalar(sigma), PeakPower(1.0, 1.0))


def fragile_team_spec(channel: str = "scalar") -> GameSpec:
    """Shared-parameter game (tau = 4/27) whose small power budget leaves the
    endpoint comparison nearly tied, so 1e-3 cost offsets flip informativeness.

    ``channel`` "vector" puts the same agent on a 2-D channel with covariance
    diag(900, 3600), whose least-noise axis matches the scalar sigma = 30;
    "avg" spends an average budget of 1 instead of the two peak budgets.
    """
    agent = AgentParams.from_prior0(0.25, ((0.0, 0.9), (0.4, 0.0)))
    if channel == "vector":
        return GameSpec(agent, agent, NoiseModel.matrix(np.diag([900.0, 3600.0])),
                        PeakPower(1.0, 1.0), dimension=2)
    power = AveragePower(1.0) if channel == "avg" else PeakPower(1.0, 1.0)
    return GameSpec(agent, agent, NoiseModel.scalar(30.0), power)
