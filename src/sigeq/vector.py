"""Vector-channel extension: multivariate Gaussian noise with covariance.

Distance is measured in the noise metric (Mahalanobis), so everything the
scalar analysis says about the normalized distance d carries over verbatim;
what changes is geometry.  The budget-maximal distance is achieved along the
covariance's minimum eigenvector, which makes that direction canonical for
informative signal pairs, and a one-dimensional covariance [[sigma^2]]
reproduces the scalar channel exactly.

So a vector solve is a lift of the scalar solve: the pipeline runs the scalar
game at sigma_eff = sqrt(lambda_min), and the realizer lifts its levels and
matched rule along the minimum eigenvector.  ``NoiseModel`` derives that pair
when it is built, so no solve decomposes or factors the covariance.
"""

import math

from .detection import DerivedQuantities, GameSpec, ReceiverRule, SignalDesign
from .equilibrium import _Choice, _peak_levels

__all__: list[str] = []


def _place_vector_peak(spec: GameSpec, dq: DerivedQuantities,
                       choice: _Choice) -> tuple[SignalDesign, ReceiverRule, float]:
    """Lift the scalar levels (u0, u1) at sigma_eff = sqrt(lambda) along the
    unit eigenvector v of the least eigenvalue lambda, with the rule matched
    to the lifted pair.

    The pair is s_i = u_i v.  Since Sigma v = lambda v, the whitened
    difference Sigma^-1 (s1 - s0) is c v with c = (u1 - u0) / lambda, so the
    matched rule is a = zeta c v, eta = zeta (ln tau + c (u1 + u0) / 2),
    which needs no linear solve.  For Nash the sign analysis is the scalar
    game's.  Levels that round to one value leave no direction, which the
    rule refuses with a ``SpecError``.
    """
    noise = spec.noise
    lam = noise.min_eigenvalue
    (u0, u1), d_star = _peak_levels(spec.power, dq.zeta, choice, math.sqrt(lam))
    axis = noise.min_eigenvector
    c = (u1 - u0) / lam
    rule = ReceiverRule.threshold((dq.zeta * c) * axis,
                                  dq.zeta * (dq.log_tau + 0.5 * (c * (u1 + u0))))
    return SignalDesign(u0 * axis, u1 * axis), rule, d_star
