"""Vector-channel extension: multivariate Gaussian noise with covariance.

Distance is measured in the noise metric (Mahalanobis), so everything the
scalar analysis says about the normalized distance d carries over verbatim;
what changes is geometry.  The budget-maximal distance is achieved along the
covariance's minimum eigenvector, which makes that direction canonical for
informative signal pairs, and a one-dimensional covariance [[sigma^2]]
reproduces the scalar channel exactly.

So vector games run the scalar games' solve pipeline; only the realizer
differs: it places the pair along the minimum eigenvector, which
``NoiseModel`` derives with the minimum eigenvalue when it is built, so no
solve decomposes the covariance.
"""

import math

from .detection import DerivedQuantities, GameSpec, SignalDesign
from .equilibrium import _Choice, _peak_levels

__all__: list[str] = []


def _place_vector_peak(spec: GameSpec, dq: DerivedQuantities,
                       choice: _Choice) -> tuple[SignalDesign, float]:
    """Place the pair along the covariance's minimum eigenvector.

    For Nash the sign analysis is the scalar game's; the canonical
    informative pair lies along this direction, where the matched rule
    direction stays parallel to the signal difference under the noise metric.
    """
    noise = spec.noise
    (u0, u1), d_star = _peak_levels(spec.power, dq.zeta, choice,
                                    math.sqrt(noise.min_eigenvalue))
    axis = noise.min_eigenvector
    return SignalDesign(u0 * axis, u1 * axis), d_star
