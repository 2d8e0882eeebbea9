"""Independent numeric check: channel simulation.

The Monte Carlo estimator never touches the analytic error-probability
formulas; it pushes simulated observations through the decision rule and
counts, to catch mistakes in the closed-form solvers.

Reproducibility contract: sampling uses the Philox counter-based generator,
one independent subsequence per (hypothesis, chunk) derived from the master
seed, and standard normals via the inverse CDF (scipy ndtri) of its
uniforms.  Chunks are counted one after another in the calling thread and
their integer tallies summed in a fixed order, so a seed gives bitwise
identical results.
The tallies are exactly those of pushing every uniform through ndtri and the
decision rule, but most samples never reach ndtri: a scalar chunk counts the
generator's raw 64-bit words against the rule's boundary mapped to integer
word bounds (the uniform of word w is (w >> 11) * 2**-53, so each bound is
exact), and a vector chunk whose boundary lies beyond the sampler's reach is
not drawn at all (see ``_count_h1_scalar`` and ``_count_h1_vector``).

The solvers are closed forms over ``math.erfc``, and so is ``_ndtr``, the
normal CDF that maps a guard band to uniform bounds; only ``ndtri`` needs
scipy.  Loading ``scipy.special`` costs more time and memory than the rest
of ``import sigeq`` together, so ``ndtri`` imports it at its first call:
importing the package and ``sigeq solve``, ``sweep`` and ``dynamics`` never
load scipy, and a scalar chunk loads it only when a sample lands in the
guard band.  ``ndtri`` stays a module-level function that the code below
calls through the module namespace, so a caller can swap it for a wrapper.

The signal pair and the rule check their entries when they are built; their
fit to the channel is ``detection._check_fits``, run by ``rule_error_probs``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .detection import (
    AgentParams,
    NoiseModel,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    _check_fits,
    _fixed_error_probs,
    bayes_risk,
)

__all__ = ["McEstimate", "mc_estimate"]

_CHUNK = 1 << 15
_MIN_SAMPLES = 10_000
# The sampler's uniforms lie on the lattice k * 2**-53 for 1 <= k < 2**53
# (random() yields k = 0 too; it is moved to k = 1).
_U_MIN = 2.0 ** -53
_LATTICE = 1 << 53
# Pads a uniform-space bound for the absolute error of ndtr (below 2.2e-16).
_U_PAD = 2.0 ** -50
# Relative guard band of the boundary tests, about 8000 ulps: far above the
# error of ndtri (below 2e-15 in absolute terms) and the float error of the
# affine decision rule.
_GUARD = 2.0 ** -40
# Exceeds |ndtri(u)| <= ndtri(1 - 2**-53) = 8.2095... on the whole lattice.
_Z_REACH = 8.25
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class McEstimate:
    """Empirical error probabilities and risks with per-quantity std errors."""

    p10_hat: float
    p01_hat: float
    risk_t_hat: float
    risk_r_hat: float
    p10_stderr: float
    p01_stderr: float
    risk_t_stderr: float
    risk_r_stderr: float
    n_samples: int
    seed: int


def ndtri(u):
    """scipy's standard normal inverse CDF, loaded on the first call."""
    from scipy.special import ndtri
    return ndtri(u)


def _ndtr(x: float) -> float:
    """The standard normal CDF, within 2.2e-16 absolute."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _chunk_words(seed: int, hyp: int, chunk: int, size: int) -> np.ndarray:
    """The chunk's raw 64-bit Philox words, in stream order."""
    return np.random.Philox(np.random.SeedSequence(
        entropy=seed, spawn_key=(hyp, chunk))).random_raw(size)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms ``Generator.random`` makes of raw words, bit for bit:
    word w becomes (w >> 11) * 2**-53."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u *= _U_MIN
    # the word's index can be 0, where the inverse CDF diverges
    u[u == 0.0] = _U_MIN
    return u


def _chunk_uniforms(seed: int, hyp: int, chunk: int, shape) -> np.ndarray:
    words = _chunk_words(seed, hyp, chunk, int(np.prod(shape)))
    return _uniforms(words).reshape(shape)


def _chunk_normals(seed: int, hyp: int, chunk: int, shape) -> np.ndarray:
    return ndtri(_chunk_uniforms(seed, hyp, chunk, shape))


def _at_least(words: np.ndarray, k: int) -> np.ndarray:
    """Mask of the words whose lattice index ``w >> 11`` is at least k."""
    if k <= 0:
        return np.ones(words.shape, dtype=bool)
    if k >= _LATTICE:
        # k << 11 would not fit in a uint64; no index reaches it
        return np.zeros(words.shape, dtype=bool)
    return words >= np.uint64(k << 11)


def _count_h1_scalar(seed: int, hyp: int, chunk: int, size: int, signal: float,
                     sigma: float, a: float, eta: float) -> int:
    """Count ``a * (signal + sigma * ndtri(u)) > eta`` over the chunk's
    uniforms, counting raw words and calling ndtri only near the boundary.

    In exact arithmetic the rule declares H1 iff z > t when a > 0 and iff
    z < t when a < 0, with t = (eta/a - signal)/sigma.  The guard band
    t +- delta is about 8000 ulps of |t|, |eta/a|/sigma and |signal|/sigma,
    far wider than the float error of t, of the rule itself and of ndtri.
    Its ends map to the uniform bounds lo = ndtr(t - delta) - pad and
    hi = ndtr(t + delta) + pad, the pad exceeding ndtr's absolute error.  So
    u > hi implies Phi^-1(u) > t + delta: float ndtri(u) lies above the band
    and the float rule takes the exact side; likewise for u < lo.  Only
    lo <= u <= hi needs the rule itself.  The argument rests on the accuracy
    of ndtr and ndtri, not on float ndtri being monotone.

    The uniforms are never formed outside the band.  The sampler's uniform
    of word w is u = k * 2**-53 with the integer k = w >> 11, and k = 0 is
    moved to k = 1.  Since lo * 2**53 and hi * 2**53 are exact:
    u > hi iff k >= floor(hi * 2**53) + 1, which the move cannot change as
    hi >= 2**-50; and u >= lo iff k >= ceil(lo * 2**53) when lo > 2**-53,
    while every word qualifies when lo <= 2**-53.  An index bound k becomes
    the word bound k << 11; one of 2**53 or more admits no word.

    A band wholly beyond +-_Z_REACH decides the chunk without drawing it.
    (The uniform bounds cannot show this: the pad keeps hi above 2**-50 and
    lo below 1 - 2**-50.)  If t or delta is not finite, the band is the
    whole lattice and every sample takes the rule.
    """
    t = (eta / a - signal) / sigma
    delta = _GUARD * (1.0 + abs(t) + (abs(eta / a) + abs(signal)) / sigma)
    if math.isfinite(t) and math.isfinite(delta):
        # H1 lies above the band when a > 0 and below it when a < 0
        if t + delta <= -_Z_REACH:
            return size if a > 0 else 0
        if t - delta >= _Z_REACH:
            return 0 if a > 0 else size
        lo = _ndtr(t - delta) - _U_PAD
        hi = _ndtr(t + delta) + _U_PAD
        k_lo = math.ceil(lo * _LATTICE) if lo > _U_MIN else 0
        k_hi = math.floor(hi * _LATTICE) + 1
    else:
        k_lo, k_hi = 0, _LATTICE
    words = _chunk_words(seed, hyp, chunk, size)
    above = _at_least(words, k_hi)
    from_lo = _at_least(words, k_lo)
    n_above = int(np.count_nonzero(above))
    in_band = int(np.count_nonzero(from_lo)) - n_above
    count = n_above if a > 0 else size - n_above - in_band
    if in_band:
        z = ndtri(_uniforms(words[from_lo & ~above]))
        count += int(np.count_nonzero(a * (signal + sigma * z) > eta))
    return count


def _count_h1_vector(seed: int, hyp: int, chunk: int, size: int,
                     signal: np.ndarray, chol: np.ndarray, a: np.ndarray,
                     eta: float) -> int:
    """Count ``(z @ chol.T + signal) @ a > eta`` over the chunk's normals.

    Every normal the sampler yields has |z| <= |ndtri(2**-53)| < _Z_REACH, so
    a . y stays within a . signal +- _Z_REACH * sum_ij |a_i| |chol_ij|; the
    slack covers the float error of a . y, which grows with the dimension.
    A boundary beyond that reach decides the whole chunk without drawing it.
    """
    center = float(a @ signal)
    reach = _Z_REACH * float(np.abs(a) @ np.abs(chol).sum(axis=1))
    slack = (_GUARD * (a.size + 1)
             * (reach + float(np.abs(a) @ np.abs(signal)) + abs(eta)))
    if eta >= center + reach + slack:
        return 0
    if eta < center - reach - slack:
        return size
    z = _chunk_normals(seed, hyp, chunk, (size, chol.shape[0]))
    y = z @ chol.T + signal
    return int(np.count_nonzero(y @ a > eta))


def mc_estimate(signals: SignalDesign, rule: ReceiverRule, noise: NoiseModel,
                agents: tuple[AgentParams, AgentParams], n: int,
                seed: int) -> McEstimate:
    """Estimate error probabilities and risks by simulating the channel.

    Half the samples go to each hypothesis, from signals and a rule that fit
    the channel.  Degenerate rules ignore the observation, so their
    probabilities are exact and carry zero std error.  Vector noise is drawn
    through the covariance's Cholesky factor; one that is positive definite
    by its eigenvalues but not to that factorization raises a ``SpecError``
    naming ``noise.covariance``.
    """
    tx, rx = agents
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise SpecError("seed: must be a non-negative integer")
    if n < _MIN_SAMPLES:
        raise SpecError("n: at least 10000 samples required")
    if n % 2:
        raise SpecError("n: must be even, half the samples go to each hypothesis")
    m = n // 2
    _check_fits(signals, rule, noise)

    if rule.kind is not RuleKind.THRESHOLD:
        p10, p01 = _fixed_error_probs(rule)
        return McEstimate(p10, p01,
                          bayes_risk(tx, p10, p01), bayes_risk(rx, p10, p01),
                          0.0, 0.0, 0.0, 0.0, n, seed)

    if noise.is_scalar:
        count, channel = _count_h1_scalar, noise.sigma
    else:
        try:
            channel = np.linalg.cholesky(noise.covariance)
        except np.linalg.LinAlgError:
            raise SpecError("noise.covariance: not positive definite to working "
                            "precision, the noise cannot be sampled") from None
        count = _count_h1_vector
    counts = [0, 0]
    for hyp, signal in ((0, signals.s0), (1, signals.s1)):
        for c, start in enumerate(range(0, m, _CHUNK)):
            counts[hyp] += count(seed, hyp, c, min(_CHUNK, m - start), signal,
                                 channel, rule.a, rule.eta)

    p10_hat = counts[0] / m
    p01_hat = (m - counts[1]) / m
    se10 = math.sqrt(p10_hat * (1.0 - p10_hat) / m)
    se01 = math.sqrt(p01_hat * (1.0 - p01_hat) / m)

    def risk_se(agent: AgentParams) -> float:
        w10 = agent.prior0 * agent.false_alarm_margin * se10
        w01 = agent.prior1 * agent.miss_margin * se01
        return math.hypot(w10, w01)

    return McEstimate(
        p10_hat, p01_hat,
        bayes_risk(tx, p10_hat, p01_hat), bayes_risk(rx, p10_hat, p01_hat),
        se10, se01, risk_se(tx), risk_se(rx),
        n, seed,
    )
