"""Leader-follower solution: the transmitter commits, the receiver best-responds.

Because the follower plays the matched threshold rule, the leader's risk is a
function of the normalized signal distance d alone.  Its derivative changes
sign with ``slope = k0 + k1`` (behavior as d grows) and
``bend = ln(tau) * (k0 - k1)`` (behavior near d = 0): the risk is decreasing
at d exactly when slope * d^2 - 2 * bend > 0.  That yields six cases over the
sign grid:

* bend < 0, slope >= 0: risk strictly decreasing, optimum at d_max (case-1);
* bend < 0, slope < 0: decreasing then increasing, optimum at
  min(d_max, sqrt(|2 bend / slope|)) (case-2 at the budget, case-3 interior);
* bend >= 0, slope < 0: risk strictly increasing, optimum at 0 (case-4);
* bend >= 0, slope >= 0: increasing then decreasing, optimum at an endpoint:
  d = 0 when the budget ends inside the increasing stretch (case-5), else the
  closed-form endpoint comparison decides (case-6).

Boundary conventions: bend = 0 and slope = 0 route to the >= branches, and a
transmitter with both cost margins zero (risk constant in d) reports the
non-informative outcome ("flat").

``classify_transmitter_preference`` reads k0, k1, tau, ln tau and d_max from
the derived record; it is the leader-follower chooser of the solve pipeline
in ``equilibrium``, on every channel.  The module also holds the preset games
of the paper's examples.  It imports only ``detection``.
"""

import math

from .detection import (
    AgentParams,
    DerivedQuantities,
    GameSpec,
    NoiseModel,
    PeakPower,
    SpecError,
    _real,
    q_function,
)

__all__ = [
    "classify_transmitter_preference",
    "preset_subjective_priors",
    "preset_biased_cost",
    "preset_deception",
]


def classify_transmitter_preference(dq: DerivedQuantities) -> tuple[str, float]:
    """(case label, d*) of the leader, by the sign grid above.

    Case-6 compares the endpoints by the sign of

        (k1 / (k0 tau))^sign(ln tau) * Q(|ln tau|/d_max - d_max/2)
            - Q(|ln tau|/d_max + d_max/2),

    which is positive exactly when full separation beats babbling; that
    comparison needs a finite ln tau and d_max > 0.  An exact zero means both
    endpoints tie; the informative end is taken because it maximizes the
    information available to the receiver at no cost to the transmitter.
    """
    k0, k1, log_tau, d_max = dq.k0, dq.k1, dq.log_tau, dq.d_max
    bend = log_tau * (k0 - k1)
    slope = k0 + k1
    if bend < 0.0:
        if slope >= 0.0:
            return "case-1", d_max
        ratio = abs(2.0 * bend / slope)
        if d_max * d_max < ratio:
            return "case-2", d_max
        return "case-3", math.sqrt(ratio)
    if slope < 0.0:
        return "case-4", 0.0
    if k0 == 0.0 and k1 == 0.0:
        # risk constant in d; minimal separation is the canonical report
        return "flat", 0.0
    numer = abs(2.0 * bend)
    ratio = 0.0 if numer == 0.0 else (math.inf if slope == 0.0 else numer / slope)
    if d_max * d_max < ratio:
        return "case-5", 0.0
    if not math.isfinite(log_tau):
        raise SpecError("tau: must be finite and strictly positive")
    if not d_max > 0.0:
        raise SpecError("d_max: must be strictly positive")
    tau = dq.tau.value
    if log_tau > 0.0:
        coeff = k1 / (k0 * tau)
    elif log_tau < 0.0:
        coeff = (k0 * tau) / k1
    else:
        coeff = 1.0
    expr = coeff * q_function(abs(log_tau) / d_max - d_max / 2.0) - q_function(
        abs(log_tau) / d_max + d_max / 2.0
    )
    return "case-6", d_max if expr >= 0.0 else 0.0


# ---------------------------------------------------------------------------
# presets


def _check_unit_interval(name: str, value: float) -> float:
    value = _real(name, value)
    if not 0.0 < value < 1.0:
        raise SpecError(f"{name}: must lie strictly inside (0, 1)")
    return value


def preset_subjective_priors(prior0_t: float, prior0_r: float,
                             costs: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 1.0), (1.0, 0.0)),
                             sigma: float = 1.0, p0: float = 1.0, p1: float = 1.0) -> GameSpec:
    """Agents share costs but disagree on the prior of H0."""
    prior0_t = _check_unit_interval("prior0_t", prior0_t)
    prior0_r = _check_unit_interval("prior0_r", prior0_r)
    return GameSpec(
        transmitter=AgentParams.from_prior0(prior0_t, costs),
        receiver=AgentParams.from_prior0(prior0_r, costs),
        noise=NoiseModel.scalar(sigma),
        power=PeakPower(p0, p1),
    )


def preset_biased_cost(alpha: float, prior0: float = 0.5, sigma: float = 1.0,
                       p0: float = 1.0, p1: float = 1.0) -> GameSpec:
    """Shared priors; transmitter cost bias alpha against the honest receiver.

    The receiver pays the uniform error cost; the transmitter pays alpha on
    errors and 1 - alpha on correct decisions, so alpha > 1/2 aligns the
    agents and alpha < 1/2 opposes them.
    """
    alpha = _real("alpha", alpha)
    if not 0.0 <= alpha <= 1.0:
        raise SpecError("alpha: must lie in [0, 1]")
    prior0 = _check_unit_interval("prior0", prior0)
    tx_costs = ((1.0 - alpha, alpha), (alpha, 1.0 - alpha))
    rx_costs = ((0.0, 1.0), (1.0, 0.0))
    return GameSpec(
        transmitter=AgentParams.from_prior0(prior0, tx_costs),
        receiver=AgentParams.from_prior0(prior0, rx_costs),
        noise=NoiseModel.scalar(sigma),
        power=PeakPower(p0, p1),
    )


def preset_deception(prior0: float = 0.5, sigma: float = 1.0,
                     p0: float = 1.0, p1: float = 1.0) -> GameSpec:
    """Transmitter rewarded for induced errors, receiver honest.

    The transmitter's margins are both negative (it prefers the receiver to
    decide wrongly under either hypothesis) while the receiver pays the
    uniform error cost.
    """
    return preset_biased_cost(0.0, prior0, sigma, p0, p1)
