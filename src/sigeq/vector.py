"""Vector-channel extension: multivariate Gaussian noise with covariance.

Distance is measured in the noise metric (Mahalanobis), so everything the
scalar analysis says about the normalized distance d carries over verbatim;
what changes is geometry.  The budget-maximal distance is achieved along the
covariance's minimum eigenvector, which makes that direction canonical for
informative signal pairs, and a one-dimensional covariance [[sigma^2]]
reproduces the scalar solvers exactly.

So the vector entry points run the scalar ones' solve pipeline; only the
realizer differs: it places the pair along the minimum eigenvector, which
it computes only for an informative pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .detection import (
    DerivedQuantities,
    GameSpec,
    NoiseModel,
    PeakPower,
    RuleKind,
    SignalDesign,
    SpecError,
    _sign,
)
from .equilibrium import (
    Concept,
    EquilibriumReport,
    _Choice,
    _peak_levels,
    _solve,
)
from .team import require_identical_agents

__all__ = [
    "EigenPair",
    "min_eigenpair",
    "mahalanobis_d",
    "best_response_transmitter_vec",
    "solve_team_vec",
    "solve_stackelberg_vec",
    "solve_nash_vec",
]

_SYMMETRY_TOL = 1e-12
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Smallest eigenvalue with a canonically signed unit eigenvector."""

    value: float
    vector: np.ndarray
    residual: float


def min_eigenpair(matrix) -> EigenPair:
    """Smallest eigenpair of a symmetric positive-definite matrix.

    The eigenvector is normalized and sign-fixed so its first component of
    nonnegligible magnitude is positive.  The residual ||A v - lambda v||
    must come out below 1e-9 * ||A||.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpecError("matrix: must be square")
    if a.shape[0] > 64:
        raise SpecError("matrix: dimension limited to 64")
    if np.max(np.abs(a - a.T)) > _SYMMETRY_TOL:
        raise SpecError("matrix: must be symmetric within 1e-12")
    values, vectors = np.linalg.eigh(a)
    if values[0] <= 0.0:
        raise SpecError("matrix: must be positive definite")
    return _signed_pair(a, values, vectors)


def _covariance_axis(noise: NoiseModel) -> EigenPair:
    """``min_eigenpair`` of a covariance that ``NoiseModel`` has validated:
    square, at most 64 wide, symmetric and positive definite."""
    values, vectors = np.linalg.eigh(noise.covariance)
    return _signed_pair(noise.covariance, values, vectors)


def _signed_pair(a: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> EigenPair:
    """The first pair of ``eigh``'s output, sign-fixed and residual-checked."""
    column = vectors[:, 0]
    # the sign of the first entry above 1e-12 in magnitude, read as floats
    lead = next((x for x in column.tolist() if abs(x) > 1e-12), 0.0)
    vec = -column if lead < 0.0 else column.copy()
    value = float(values[0])
    r = a.dot(vec) - value * vec
    flat = a.ravel()
    # the 2-norm and the Frobenius norm, as np.linalg.norm computes them
    residual = math.sqrt(float(r.dot(r)))
    if residual > _RESIDUAL_TOL * math.sqrt(float(flat.dot(flat))):
        raise ArithmeticError("eigenpair residual exceeded tolerance")
    vec.setflags(write=False)
    return EigenPair(value, vec, residual)


def mahalanobis_d(signals: SignalDesign, covariance) -> float:
    """Distance between the two signals in the noise metric.

    Computed through a linear solve; the covariance is never inverted
    explicitly.
    """
    cov = np.asarray(covariance, dtype=float)
    diff = np.asarray(signals.s1, dtype=float) - np.asarray(signals.s0, dtype=float)
    quad = float(diff @ np.linalg.solve(cov, diff))
    if quad < 0.0:
        raise SpecError("covariance: must be positive definite")
    return math.sqrt(quad)


def _require_vector_peak(spec: GameSpec) -> None:
    if spec.noise.is_scalar:
        raise SpecError("noise: scalar games are solved by the scalar solvers")
    if not isinstance(spec.power, PeakPower):
        raise SpecError("power: vector games support peak power only")


def _place_vector_peak(spec: GameSpec, dq: DerivedQuantities,
                       choice: _Choice) -> tuple[SignalDesign, float]:
    axis = _covariance_axis(spec.noise)
    (u0, u1), d_star = _peak_levels(spec.power, dq.zeta, choice,
                                    math.sqrt(axis.value))
    return SignalDesign(u0 * axis.vector, u1 * axis.vector), d_star


def solve_team_vec(spec: GameSpec) -> EquilibriumReport:
    """Team-optimal design over a vector channel."""
    require_identical_agents(spec)
    _require_vector_peak(spec)
    return _solve(spec, Concept.TEAM)


def solve_stackelberg_vec(spec: GameSpec) -> EquilibriumReport:
    """Leader-follower solution over a vector channel."""
    _require_vector_peak(spec)
    return _solve(spec, Concept.STACKELBERG)


def solve_nash_vec(spec: GameSpec) -> EquilibriumReport:
    """Equilibrium classification over a vector channel.

    The sign analysis is the scalar game's; the canonical informative pair
    lies along the minimum-eigenvalue direction, where the matched rule
    direction stays parallel to the signal difference under the noise
    metric.
    """
    _require_vector_peak(spec)
    return _solve(spec, Concept.NASH)


def best_response_transmitter_vec(rule, transmitter, power: PeakPower,
                                  dimension: int | None = None) -> SignalDesign:
    """Vector analog of the transmitter best response: full power along the
    rule direction, signs from the transmitter's own cost margins.

    Degenerate rules carry no direction, so their zero-pair response needs
    ``dimension`` passed explicitly.
    """
    if rule.kind is not RuleKind.THRESHOLD:
        if dimension is None:
            raise SpecError("dimension: required for a degenerate rule")
        return SignalDesign(np.zeros(dimension), np.zeros(dimension))
    a = np.asarray(rule.a, dtype=float)
    unit = a / float(np.linalg.norm(a))
    s0 = -_sign(transmitter.false_alarm_margin) * math.sqrt(power.p0) * unit
    s1 = _sign(transmitter.miss_margin) * math.sqrt(power.p1) * unit
    return SignalDesign(s0, s1)
