"""Shared random-instance generators, the fixed cell and extreme draws of
games, signal-pair and rule comparisons, and the brute-force leader oracle,
for the test suite and the scripts.

The ``random_*`` generators draw costs from continuous distributions, so
cost margins are nonzero almost surely; generators that promise a finite
threshold ratio reject the draws where the margin signs disagree.
"""

import importlib.util
import itertools
import math
import os
import subprocess
import sys
from collections.abc import Iterator
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


def unit_rule(rule: ReceiverRule) -> tuple[np.ndarray, float]:
    """(a, eta) of a threshold rule scaled to a unit direction, the same rule
    (a scalar direction as a 1-vector).  The largest entry of a is divided out
    first, so no square overflows or underflows at extreme magnitudes."""
    a = np.atleast_1d(np.asarray(rule.a, dtype=float))
    top = float(np.max(np.abs(a)))
    a, eta = a / top, rule.eta / top
    norm = math.sqrt(float(a @ a))
    return a / norm, eta / norm


def rules_close(lhs: ReceiverRule, rhs: ReceiverRule, rel: float) -> bool:
    """Both rules are of one kind and, scaled to a unit direction, the vectors
    (a, eta) differ by at most ``rel`` times the length of ``rhs``'s.  A scalar
    direction counts as a 1-vector; bit-equal rules are close, and rules that
    ignore the observation must be equal."""
    if rules_equal(lhs, rhs):
        # before scaling, which can overflow: eta / max|a| is inf where the
        # direction is subnormal, and the gap of two infs is nan
        return True
    if lhs.kind is not rhs.kind or lhs.kind is not RuleKind.THRESHOLD:
        return False
    (xa, x_eta), (ya, y_eta) = unit_rule(lhs), unit_rule(rhs)
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


# ---------------------------------------------------------------------------
# The two draws of games that the golden record (scripts/golden.py), the
# parent differential (scripts/differential.py) and the solve-path tests run
# on.  Each distribution is described once, here.

CELL_CHANNELS = ("scalar", "vector", "avg")
CELL_VECTOR_DIMS = (1, 2, 3, 4, 8)


def _cell_agent(rng: np.random.Generator, discrete: bool) -> AgentParams:
    if not discrete:
        return random_agent(rng)
    prior0 = float(rng.choice((0.25, 0.5, 0.75)))
    c = [float(x) for x in rng.choice((0.0, 0.5, 1.0), size=4)]
    return AgentParams.from_prior0(prior0, ((c[0], c[1]), (c[2], c[3])))


def _cell_budget(rng: np.random.Generator, discrete: bool) -> float:
    return float(rng.choice((0.5, 1.0, 2.0)) if discrete else rng.uniform(0.25, 4.0))


def cell_spec(rng: np.random.Generator, channel: str, dim: int, identical: bool,
              finite_tau: bool, discrete: bool) -> GameSpec:
    """One game of the cell draw.

    A cell is a channel (``"scalar"`` or ``"vector"`` peak power, the latter
    in dimension ``dim``, or ``"avg"``, scalar average power) x identical or
    mismatched agents x finite or degenerate tau x continuous or discrete
    draws.  Continuous draws are ``random_agent``'s (prior0 U[0.05, 0.95],
    each cost U[0, 2]), with each budget U[0.25, 4].  Discrete draws take
    prior0 from {0.25, 0.5, 0.75}, each cost from {0, 0.5, 1} and each budget
    from {0.5, 1, 2}; so they reach zero cost margins and tied budgets, and
    the ``flat``, ``xi(0,.)`` and ``p0=p1`` labels that continuous draws
    never do.  sigma is U[0.2, 2] and a covariance ``random_spd_matrix``.  A
    game is redrawn until whether tau is finite matches the cell.
    """
    while True:
        tx = _cell_agent(rng, discrete)
        rx = tx if identical else _cell_agent(rng, discrete)
        if channel == "vector":
            noise = NoiseModel.matrix(random_spd_matrix(rng, dim))
        else:
            noise = NoiseModel.scalar(float(rng.uniform(0.2, 2.0)))
        if channel == "avg":
            power = AveragePower(_cell_budget(rng, discrete))
        else:
            power = PeakPower(_cell_budget(rng, discrete), _cell_budget(rng, discrete))
        spec = GameSpec(tx, rx, noise, power, noise.dimension)
        if derived_quantities(spec).tau.is_finite == finite_tau:
            return spec


def cell_games(rng: np.random.Generator, count: int,
               rich_count: int | None = None) -> Iterator[tuple[dict, GameSpec]]:
    """The cell draw, cell by cell: games of ``cell_spec``, each with its cell
    as a dict.  Each of the 24 cells holds ``count`` games, except that a
    given ``rich_count`` is the number in the three mismatched finite-tau
    cells of discrete draws, which reach the most labels.  The i-th vector
    game of a cell has dimension ``CELL_VECTOR_DIMS[i % 5]``."""
    for channel, identical, finite_tau, discrete in itertools.product(
            CELL_CHANNELS, (True, False), (True, False), (False, True)):
        cell = {"channel": channel, "agents": "identical" if identical else "mismatched",
                "tau": "finite" if finite_tau else "degenerate",
                "draws": "discrete" if discrete else "continuous"}
        rich = rich_count is not None and discrete and finite_tau and not identical
        for i in range(rich_count if rich else count):
            dim = CELL_VECTOR_DIMS[i % len(CELL_VECTOR_DIMS)] if channel == "vector" else 1
            yield cell, cell_spec(rng, channel, dim, identical, finite_tau, discrete)


def _wide(rng: np.random.Generator, lo: float = -300.0, hi: float = 300.0) -> float:
    """Log-uniform in [10 ** lo, 10 ** hi]."""
    return float(10.0 ** rng.uniform(lo, hi))


def _extreme_agent(rng: np.random.Generator) -> dict:
    if rng.random() < 0.5:
        prior0 = float(rng.uniform(0.01, 0.99))
        priors = (prior0, 1.0 - prior0)
    else:
        small = _wide(rng, -300.0, -2.0)
        priors = (small, 1.0 - small) if rng.random() < 0.5 else (1.0 - small, small)
    costs = []
    for _ in range(4):
        kind = rng.integers(3)
        costs.append(repr(0.0 if kind == 0 else float(rng.uniform(0.0, 2.0)) if kind == 1
                          else _wide(rng)))
    return {"prior0": repr(priors[0]), "prior1": repr(priors[1]),
            "costs": [costs[:2], costs[2:]]}


def extreme_games(seed: int, count: int) -> list[dict]:
    """The extreme draw: ``count`` games from ``seed``, as the config
    documents that ``cli.spec_from_config`` reads, every float as its
    ``repr``.

    Priors are U[0.01, 0.99] half the time, else one of them is log-uniform
    in [1e-300, 1e-2] and the other 1 minus it; both are written out, so a
    small prior1 survives where 1 - prior0 would round it away.  Each cost is
    0, U[0, 2] or log-uniform in [1e-300, 1e300], a third of the time each.
    sigma, the budgets and the covariance entries are log-uniform in
    [1e-300, 1e300].  The channel is scalar peak power 40% of the time,
    scalar average power 30%, and peak power on a 2-D diagonal covariance
    30%; the agents are identical 30% of the time.  Nothing is redrawn: a
    game that the spec types reject stays in the draw.
    """
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        tx = _extreme_agent(rng)
        rx = tx if rng.random() < 0.3 else _extreme_agent(rng)
        channel = rng.random()
        scalar = channel < 0.7
        noise = ({"sigma": repr(_wide(rng))} if scalar else
                 {"covariance": [[repr(_wide(rng)), "0.0"], ["0.0", repr(_wide(rng))]]})
        power = ({"p_avg": repr(_wide(rng))} if 0.4 <= channel < 0.7
                 else {"p0": repr(_wide(rng)), "p1": repr(_wide(rng))})
        games.append({"transmitter": tx, "receiver": rx, "noise": noise, "power": power,
                      "dimension": 1 if scalar else 2})
    return games


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
