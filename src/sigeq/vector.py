"""Vector-channel extension: multivariate Gaussian noise with covariance.

Distance is measured in the noise metric (Mahalanobis), so everything the
scalar analysis says about the normalized distance d carries over verbatim;
what changes is geometry.  The budget-maximal distance is achieved along the
covariance's minimum eigenvector, which makes that direction canonical for
informative signal pairs, and a one-dimensional covariance [[sigma^2]]
reproduces the scalar channel exactly.

So vector games run the scalar games' solve pipeline; only the realizer
differs: it places the pair along the minimum eigenvector, which it computes
only for an informative pair.
"""

import math

import numpy as np

from .detection import DerivedQuantities, GameSpec, NoiseModel, SignalDesign
from .equilibrium import _Choice, _peak_levels

__all__: list[str] = []

_RESIDUAL_TOL = 1e-9


def _covariance_axis(noise: NoiseModel) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a covariance that ``NoiseModel`` has validated
    (square, at most 64 wide, symmetric and positive definite), with its unit
    eigenvector, read-only and signed so that its first entry above 1e-12 in
    magnitude is positive."""
    values, vectors = np.linalg.eigh(noise.covariance)
    return _signed_pair(noise.covariance, values, vectors)


def _signed_pair(a: np.ndarray, values: np.ndarray,
                 vectors: np.ndarray) -> tuple[float, np.ndarray]:
    """The first pair of ``eigh``'s output, sign-fixed and residual-checked:
    ||A v - lambda v|| must come out below 1e-9 ||A||, or ``ArithmeticError``.
    """
    column = vectors[:, 0]
    # the sign of the first entry above 1e-12 in magnitude, read as floats
    lead = next((x for x in column.tolist() if abs(x) > 1e-12), 0.0)
    vec = -column if lead < 0.0 else column.copy()
    value = float(values[0])
    # the check runs on A and lambda scaled by a power of two, exactly, that
    # puts the largest eigenvalue in [1/2, 1); it bounds every |a_ij| of a
    # positive definite A, so no square of the check overflows or underflows
    _, exp = math.frexp(float(values[-1]))
    scaled = np.ldexp(a, -exp)
    r = scaled.dot(vec) - math.ldexp(value, -exp) * vec
    flat = scaled.ravel()
    if math.sqrt(float(r.dot(r))) > _RESIDUAL_TOL * math.sqrt(float(flat.dot(flat))):
        raise ArithmeticError("eigenpair residual exceeded tolerance")
    vec.setflags(write=False)
    return value, vec


def _place_vector_peak(spec: GameSpec, dq: DerivedQuantities,
                       choice: _Choice) -> tuple[SignalDesign, float]:
    """Place the pair along the covariance's minimum eigenvector.

    For Nash the sign analysis is the scalar game's; the canonical
    informative pair lies along this direction, where the matched rule
    direction stays parallel to the signal difference under the noise metric.
    """
    value, axis = _covariance_axis(spec.noise)
    (u0, u1), d_star = _peak_levels(spec.power, dq.zeta, choice, math.sqrt(value))
    return SignalDesign(u0 * axis, u1 * axis), d_star
