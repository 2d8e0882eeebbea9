"""Equilibria of a two-agent Gaussian signaling game.

A transmitter picks one of two signal levels, a receiver sees it through
additive Gaussian noise and decides which hypothesis produced it.  The agents
hold their own priors and decision costs, so their notions of risk disagree.
This package computes the jointly optimal design and both game-theoretic
solutions (leader-follower and simultaneous play), over scalar and vector
channels, under peak or average power budgets, and ships numeric oracles
(Monte Carlo simulation, brute-force search) that double-check every
closed-form answer.
"""

from .detection import (
    AgentParams,
    AveragePower,
    DerivedQuantities,
    GameSpec,
    MismatchedAgentsError,
    NoiseModel,
    PeakPower,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    Tau,
    bayes_risk,
    check_power,
    conditional_error_probs,
    d_max_of,
    derived_quantities,
    optimal_receiver_rule,
    prior_only_rule,
    q_function,
    receiver_case,
    risk_pair,
    rule_error_probs,
    rules_equal,
)
from .stackelberg import (
    classify_transmitter_preference,
    preset_biased_cost,
    preset_deception,
    preset_subjective_priors,
)
from .nash import (
    DynamicsTrace,
    Existence,
    OutcomeKind,
    best_response_dynamics,
    best_response_transmitter,
)
from .avgpower import nash_avg_best_response
from .equilibrium import Concept, EquilibriumReport, _solve, informative_risks
from .team import (
    Perturbation,
    RobustnessScan,
    ScanEntry,
    require_identical_agents,
    robustness_scan,
    single_cost_perturbations,
)
from .oracle import McEstimate, mc_estimate

__version__ = "0.1.0"


def solve(spec: GameSpec, concept: Concept) -> EquilibriumReport:
    """Solve ``spec`` under ``concept`` on whichever channel it uses: scalar
    or vector peak power, or scalar average power.

    This is the one solve entry.  Team play first checks that the agents are
    identical (``MismatchedAgentsError``).
    """
    concept = Concept(concept)
    if concept is Concept.TEAM:
        require_identical_agents(spec)
    return _solve(spec, concept)
