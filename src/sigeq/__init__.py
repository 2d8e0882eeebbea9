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
    ReceiverCase,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    Tau,
    TauKind,
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
    signals_equal,
)
from .equilibrium import (
    Concept,
    EquilibriumReport,
    Existence,
    _solve,
    informative_risks,
    separation_levels,
)
from .team import require_identical_agents, solve_team
from .stackelberg import (
    EndpointChoice,
    Perturbation,
    ScanEntry,
    StackelbergScan,
    TransmitterPreference,
    classify_transmitter_preference,
    endpoint_rule,
    preset_biased_cost,
    preset_deception,
    preset_subjective_priors,
    robustness_scan_stackelberg,
    single_cost_perturbations,
    solve_stackelberg,
)
from .nash import (
    DynamicsTrace,
    NashScan,
    OutcomeKind,
    best_response_dynamics,
    best_response_receiver,
    best_response_transmitter,
    robustness_scan_nash,
    solve_nash,
)
from .vector import (
    EigenPair,
    best_response_transmitter_vec,
    mahalanobis_d,
    min_eigenpair,
    solve_nash_vec,
    solve_stackelberg_vec,
    solve_team_vec,
)
from .avgpower import (
    max_separation_signals,
    nash_avg_best_response,
    solve_nash_avg,
    solve_stackelberg_avg,
    solve_team_avg,
)
from .oracle import McEstimate, grid_search_transmitter, mc_estimate

__version__ = "0.1.0"


def solve(spec: GameSpec, concept: Concept) -> EquilibriumReport:
    """Solve ``spec`` under ``concept`` on whichever channel it uses."""
    if isinstance(spec.power, AveragePower) and not spec.noise.is_scalar:
        raise SpecError(
            "power: the average-power budget is defined for scalar channels only"
        )
    concept = Concept(concept)
    if concept is Concept.TEAM:
        require_identical_agents(spec)
    return _solve(spec, concept)
