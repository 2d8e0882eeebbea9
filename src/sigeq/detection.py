"""Binary Bayesian signaling over an additive Gaussian channel.

A transmitter encodes one of two hypotheses H0/H1 as signal levels S0/S1,
the channel adds Gaussian noise, and a receiver maps each observation to a
decision.  Both agents carry their own priors and decision costs, so the
same decision rule is scored against two different Bayes risks.

This module holds the game description types and the detection primitives
shared by every solver:

* the Gaussian tail function ``q_function``,
* the kind of the receiver's optimal rule, a ``RuleKind`` fixed by the
  signs of its cost margins (``receiver_case``),
* the derived scalars that drive the equilibrium analysis
  (``derived_quantities``): the likelihood-ratio threshold ``tau``, the
  orientation sign ``zeta``, the transmitter tail weights ``k0``/``k1``,
  the signs ``xi_signs`` of the cost-mismatch ratios and the maximum
  normalized signal distance ``d_max``,
* the receiver's best response to a signal pair, read from that record
  (``optimal_receiver_rule``), and the conditional error probabilities of
  the matched threshold rule at a normalized distance, given ln tau
  (``conditional_error_probs``): each formula once, with its checks, and
  called by name from the solve pipeline,
* Bayes-risk evaluation of an arbitrary ``(signals, rule)`` pair
  (``rule_error_probs``, ``bayes_risk``).

It imports no other module of the package: the choosers and realizers sit
above it, and ``equilibrium`` above them.

Every record type of the package, these and the reports, traces and scans
above, is declared with ``_record``: a frozen dataclass with slots, whose
``__init__`` stores each field through its slot.  Records are immutable and
have no instance ``__dict__``, so ``vars()`` and new attributes do not work
on them; ``dataclasses.replace``, ``copy`` and ``pickle`` do, and ``replace``
runs the checks of ``__post_init__`` again.

Cost convention: ``costs[j][i]`` is the cost of deciding Hj when Hi is
true.  All sign classifications use exact comparisons; no epsilon is
applied to cost margins.
"""

import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from enum import Enum

import numpy as np

__all__ = [
    "SpecError",
    "MismatchedAgentsError",
    "AgentParams",
    "NoiseModel",
    "PeakPower",
    "AveragePower",
    "GameSpec",
    "Tau",
    "DerivedQuantities",
    "RuleKind",
    "ReceiverRule",
    "SignalDesign",
    "q_function",
    "receiver_case",
    "derived_quantities",
    "d_max_of",
    "conditional_error_probs",
    "bayes_risk",
    "optimal_receiver_rule",
    "prior_only_rule",
    "rule_error_probs",
    "risk_pair",
    "rules_equal",
    "check_power",
]

_PRIOR_TOL = 1e-12
_SYMMETRY_TOL = 1e-12
_POWER_TOL = 1e-12
_RESIDUAL_TOL = 1e-9
_SQRT2 = math.sqrt(2.0)


class SpecError(ValueError):
    """A game description violates a structural requirement."""


class MismatchedAgentsError(SpecError):
    """Team analysis was requested but transmitter and receiver differ."""


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


def _real(name: str, value, arrays: bool = False) -> float | np.ndarray:
    """``value`` as a float or, where ``arrays`` allows, a list, tuple or
    array as a read-only float array, else a ``SpecError`` naming the field.
    The spec types, rules and signal pairs convert every input with it."""
    try:
        if arrays and isinstance(value, (list, tuple, np.ndarray)):
            arr = np.array(value, dtype=float)
            arr.setflags(write=False)
            return arr
        return float(value)
    except (TypeError, ValueError):
        kind = "a real number or a regular array of them" if arrays else "a real number"
        raise SpecError(f"{name}: must be {kind}") from None


def _record(cls=None, *, eq: bool = True):
    """Declare ``cls`` a frozen dataclass with slots, as every record of the
    package is.

    The dataclass's own ``__init__`` would make one ``object.__setattr__``
    call per field, the larger part of building a small record.  In its place
    goes one with the same signature and defaults, which stores each field
    through its slot's descriptor, past the frozen ``__setattr__``, and then
    runs ``__post_init__``.
    """
    if cls is None:
        return lambda cls: _record(cls, eq=eq)
    cls = dataclass(cls, init=False, frozen=True, slots=True, eq=eq)
    scope, params, body = {}, [], []
    for f in fields(cls):
        scope[f"_set_{f.name}"] = vars(cls)[f.name].__set__
        scope[f"_default_{f.name}"] = f.default
        if f.init:
            params.append(f.name if f.default is MISSING else f"{f.name}=_default_{f.name}")
            body.append(f"_set_{f.name}(self, {f.name})")
        elif f.default is not MISSING:
            body.append(f"_set_{f.name}(self, _default_{f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    "
         + "\n    ".join(body), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields(cls) if f.init} | {"return": None}
    cls.__init__ = init
    # the dataclass's own guards test the class from before the slots were
    # added, so a name that is not a field raised a TypeError from super()
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _frozen_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# game description


@_record
class AgentParams:
    """Priors and decision costs of one agent.

    Priors must be strictly positive and sum to one within 1e-12; costs must
    be finite and nonnegative.  The cost entries ``c00``...``c11`` and the
    two cost margins that drive every result are stored once, at
    construction: ``false_alarm_margin`` (C10 - C00, the extra cost of
    deciding H1 under H0) and ``miss_margin`` (C01 - C11, the extra cost of
    deciding H0 under H1).  They are left out of ``repr``, ``==`` and
    ``hash``, which see only the priors and ``costs``.
    """

    prior0: float
    prior1: float
    costs: tuple[tuple[float, float], tuple[float, float]]
    c00: float = field(init=False, repr=False, compare=False)
    c01: float = field(init=False, repr=False, compare=False)
    c10: float = field(init=False, repr=False, compare=False)
    c11: float = field(init=False, repr=False, compare=False)
    false_alarm_margin: float = field(init=False, repr=False, compare=False)
    miss_margin: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prior0 = _real("prior0", self.prior0)
        prior1 = _real("prior1", self.prior1)
        try:
            (c00, c01), (c10, c11) = self.costs
        except (TypeError, ValueError):
            raise SpecError("costs: expected a 2x2 matrix indexed [decision][truth]") from None
        c00, c01, c10, c11 = flat = [_real("costs", c) for c in (c00, c01, c10, c11)]
        if not (prior0 > 0.0 and prior1 > 0.0):
            raise SpecError("prior0: priors must be strictly positive")
        if abs(prior0 + prior1 - 1.0) > _PRIOR_TOL:
            raise SpecError("prior0: prior0 + prior1 must equal 1 within 1e-12")
        if not all(map(math.isfinite, flat)):
            raise SpecError("costs: entries must be finite")
        if min(flat) < 0.0:
            raise SpecError("costs: entries must be nonnegative")
        # every field, in order, through its slot, past the frozen guard
        for store, value in zip(_AGENT_STORES, (prior0, prior1, ((c00, c01), (c10, c11)),
                                                c00, c01, c10, c11, c10 - c00, c01 - c11)):
            store(self, value)

    @classmethod
    def from_prior0(
        cls, prior0: float, costs: tuple[tuple[float, float], tuple[float, float]]
    ) -> "AgentParams":
        prior0 = _real("prior0", prior0)
        return cls(prior0, 1.0 - prior0, costs)


_AGENT_STORES = tuple(vars(AgentParams)[f.name].__set__ for f in fields(AgentParams))


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


@_record(eq=False)
class NoiseModel:
    """Additive Gaussian noise: scalar N(0, sigma^2) or vector N(0, covariance).

    Exactly one of ``sigma`` / ``covariance`` is set.  Values must be finite;
    a covariance must be square, symmetric within 1e-12 elementwise, and
    positive definite.  Its one eigendecomposition, made for that check,
    yields the least-noise pair: ``min_eigenvalue``, the smallest eigenvalue,
    and ``min_eigenvector``, its read-only unit eigenvector, signed so that
    its first entry above 1e-12 in magnitude is positive (both None for
    scalar noise).  ``d_max_of`` and the vector realizer read this pair.
    """

    sigma: float | None = None
    covariance: np.ndarray | None = None
    min_eigenvalue: float | None = field(default=None, init=False, repr=False)
    min_eigenvector: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if (self.sigma is None) == (self.covariance is None):
            raise SpecError("noise: provide exactly one of sigma or covariance")
        if self.sigma is not None:
            object.__setattr__(self, "sigma", _real("noise.sigma", self.sigma))
            if not math.isfinite(self.sigma):
                raise SpecError("noise.sigma: must be finite")
            if not self.sigma > 0.0:
                raise SpecError("noise.sigma: must be strictly positive")
            return
        cov = _real("noise.covariance", self.covariance, arrays=True)
        if np.ndim(cov) != 2 or cov.shape[0] != cov.shape[1]:
            raise SpecError("noise.covariance: must be a square matrix")
        if cov.shape[0] > 64:
            raise SpecError("noise.covariance: dimension limited to 64")
        if not np.all(np.isfinite(cov)):
            raise SpecError("noise.covariance: entries must be finite")
        if np.max(np.abs(cov - cov.T)) > _SYMMETRY_TOL:
            raise SpecError("noise.covariance: must be symmetric within 1e-12")
        values, vectors = np.linalg.eigh(cov)
        if values[0] <= 0.0:
            raise SpecError("noise.covariance: must be positive definite")
        lam, axis = _signed_pair(cov, values, vectors)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "min_eigenvalue", lam)
        object.__setattr__(self, "min_eigenvector", axis)

    @classmethod
    def scalar(cls, sigma: float) -> "NoiseModel":
        return cls(sigma=sigma)

    @classmethod
    def matrix(cls, covariance) -> "NoiseModel":
        return cls(covariance=covariance)

    @property
    def is_scalar(self) -> bool:
        return self.sigma is not None

    @property
    def dimension(self) -> int:
        return 1 if self.is_scalar else int(self.covariance.shape[0])


@_record
class PeakPower:
    """Per-signal magnitude budget: ||S_i||^2 <= p_i."""

    p0: float
    p1: float

    def __post_init__(self) -> None:
        for name in ("p0", "p1"):
            value = _real(f"power.{name}", getattr(self, name))
            if not math.isfinite(value):
                raise SpecError(f"power.{name}: must be finite")
            if not value > 0.0:
                raise SpecError(f"power.{name}: must be strictly positive")
            object.__setattr__(self, name, value)


@_record
class AveragePower:
    """Prior-weighted budget: pi0 S0^2 + pi1 S1^2 <= p_avg (transmitter priors)."""

    p_avg: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_avg", _real("power.p_avg", self.p_avg))
        if not math.isfinite(self.p_avg):
            raise SpecError("power.p_avg: must be finite")
        if not self.p_avg > 0.0:
            raise SpecError("power.p_avg: must be strictly positive")


@_record(eq=False)
class GameSpec:
    """Full description of one signaling game instance."""

    transmitter: AgentParams
    receiver: AgentParams
    noise: NoiseModel
    power: PeakPower | AveragePower
    dimension: int = 1

    def __post_init__(self) -> None:
        for name, kind, what in _GAME_PARTS:
            if not isinstance(getattr(self, name), kind):
                raise SpecError(f"{name}: must be {what}")
        dimension = _real("dimension", self.dimension)
        if not (dimension.is_integer() and dimension >= 1.0):
            raise SpecError("dimension: must be a positive integer")
        object.__setattr__(self, "dimension", int(dimension))
        if self.dimension != self.noise.dimension:
            raise SpecError("dimension: must match the noise model dimension")
        if isinstance(self.power, AveragePower) and not self.noise.is_scalar:
            raise SpecError(
                "power: the average-power budget is defined for scalar channels only")


_GAME_PARTS = (("transmitter", AgentParams, "an AgentParams"),
               ("receiver", AgentParams, "an AgentParams"),
               ("noise", NoiseModel, "a NoiseModel"),
               ("power", (PeakPower, AveragePower), "a PeakPower or an AveragePower"))


# ---------------------------------------------------------------------------
# derived quantities


class RuleKind(Enum):
    THRESHOLD = "threshold"
    ALWAYS_H0 = "always-h0"
    ALWAYS_H1 = "always-h1"
    INDIFFERENT = "indifferent"


@_record
class Tau:
    """Receiver threshold ratio.

    ``value`` is the computed ratio, or None when its denominator vanishes.
    ``is_finite`` holds when it is positive: a ratio <= 0, including one
    that underflowed to 0, leaves no threshold, while one that overflowed to
    inf still counts.
    """

    value: float | None = None

    @property
    def is_finite(self) -> bool:
        return self.value is not None and self.value > 0.0

    def finite_value(self) -> float:
        if not self.is_finite:
            raise SpecError("tau: no finite threshold ratio in this configuration")
        return self.value


@_record
class DerivedQuantities:
    """Scalars the equilibrium analysis runs on, derived once per solve.

    ``k0``/``k1`` weight the transmitter's two error-probability tails in its
    risk (NaN unless tau is finite).  ``d_max`` is the largest normalized
    signal distance the power budget allows.  ``log_tau`` is ln tau (NaN
    unless tau is finite), ``case`` the ``receiver_case`` and ``xi_signs``
    the products zeta * sign(margin) of the transmitter's two margins, which
    at a finite tau are the signs of the cost-mismatch ratios xi0/xi1
    (transmitter over receiver margin).
    """

    tau: Tau
    zeta: int
    k0: float
    k1: float
    d_max: float
    log_tau: float
    case: RuleKind
    xi_signs: tuple[int, int]


def receiver_case(receiver: AgentParams) -> RuleKind:
    """Kind of the receiver's optimal rule, from its cost-margin signs.

    Only when both margins share a strict sign does the observation matter
    (THRESHOLD).  A single nonnegative/nonpositive combination pins the
    decision outright; two vanishing margins leave the receiver indifferent.
    """
    miss = _sign(receiver.miss_margin)
    fa = _sign(receiver.false_alarm_margin)
    if miss > 0:
        return RuleKind.THRESHOLD if fa > 0 else RuleKind.ALWAYS_H1
    if miss == 0:
        if fa > 0:
            return RuleKind.ALWAYS_H0
        if fa < 0:
            return RuleKind.ALWAYS_H1
        return RuleKind.INDIFFERENT
    return RuleKind.THRESHOLD if fa < 0 else RuleKind.ALWAYS_H0


def d_max_of(spec: GameSpec) -> float:
    """Largest normalized signal distance reachable under the power budget."""
    if isinstance(spec.power, PeakPower):
        reach = math.sqrt(spec.power.p0) + math.sqrt(spec.power.p1)
        if spec.noise.is_scalar:
            return reach / spec.noise.sigma
        return reach / math.sqrt(spec.noise.min_eigenvalue)
    tx = spec.transmitter
    scale = (tx.prior0 + tx.prior1) / (tx.prior0 * tx.prior1)
    return math.sqrt(scale * spec.power.p_avg) / spec.noise.sigma


def _threshold_ratio(receiver: AgentParams) -> Tau:
    """The receiver's likelihood-ratio threshold pi0 (C10 - C00) / (pi1 (C01 - C11)).

    Whether it is finite follows the computed ratio, so a ratio that
    underflows to 0 is not, even where both margins share a strict sign.
    """
    den = receiver.prior1 * receiver.miss_margin
    if den == 0.0:
        return Tau(None)
    return Tau(receiver.prior0 * receiver.false_alarm_margin / den)


def derived_quantities(spec: GameSpec) -> DerivedQuantities:
    rx = spec.receiver
    tx = spec.transmitter
    tau = _threshold_ratio(rx)
    zeta = _sign(rx.miss_margin)
    fa, miss = tx.false_alarm_margin, tx.miss_margin
    if tau.is_finite:
        k0 = tx.prior0 * zeta * fa * tau.value ** -0.5
        k1 = tx.prior1 * zeta * miss * tau.value ** 0.5
        log_tau = math.log(tau.value)
    else:
        k0 = k1 = log_tau = math.nan
    return DerivedQuantities(tau, zeta, k0, k1, d_max_of(spec), log_tau,
                             receiver_case(rx), (_sign(fa) * zeta, _sign(miss) * zeta))


# ---------------------------------------------------------------------------
# decision rules and signal pairs


@_record(eq=False)
class ReceiverRule:
    """Decision rule.  THRESHOLD decides H1 iff a . y > eta, with finite
    entries, a not all zero and a finite eta; scaling (a, eta) by any positive
    number gives the same rule, so validity reads the entries, never a norm.

    Degenerate kinds ignore the observation; ``eta`` then records the
    prior-rule margin zeta * (tau - 1) when one is defined, else 0.
    """

    kind: RuleKind
    a: float | np.ndarray = 0.0
    eta: float = 0.0

    def __post_init__(self) -> None:
        # the solvers pass floats, which skip the conversion
        if type(self.a) is not float:
            object.__setattr__(self, "a", _real("rule.a", self.a, arrays=True))
        if type(self.eta) is not float:
            object.__setattr__(self, "eta", _real("rule.eta", self.eta))
        a, vector = self.a, isinstance(self.a, np.ndarray)
        if self.kind is RuleKind.THRESHOLD:
            entries = a.ravel().tolist() if vector else (a,)
            if not all(map(math.isfinite, entries)):
                raise SpecError("rule.a: must be finite")
            if not math.isfinite(self.eta):
                raise SpecError("rule.eta: must be finite")
            if not any(entries):
                raise SpecError("rule: a threshold rule needs a nonzero direction")
        elif vector or a != 0.0:
            raise SpecError("rule: degenerate rules carry a = 0")

    @classmethod
    def threshold(cls, a, eta: float) -> "ReceiverRule":
        return cls(RuleKind.THRESHOLD, a, eta)

    @classmethod
    def always_h0(cls, eta: float = 0.0) -> "ReceiverRule":
        return cls(RuleKind.ALWAYS_H0, 0.0, eta)

    @classmethod
    def always_h1(cls, eta: float = 0.0) -> "ReceiverRule":
        return cls(RuleKind.ALWAYS_H1, 0.0, eta)

    @classmethod
    def indifferent(cls, eta: float = 0.0) -> "ReceiverRule":
        return cls(RuleKind.INDIFFERENT, 0.0, eta)


# the rule of each receiver case that ignores the observation
_FIXED_RULES = {
    RuleKind.ALWAYS_H0: ReceiverRule.always_h0(),
    RuleKind.ALWAYS_H1: ReceiverRule.always_h1(),
    RuleKind.INDIFFERENT: ReceiverRule.indifferent(),
}


@_record(eq=False)
class SignalDesign:
    """A transmitter signal pair; floats for scalar channels, arrays otherwise."""

    s0: float | np.ndarray
    s1: float | np.ndarray

    def __post_init__(self) -> None:
        # the solvers pass floats, which skip the conversion
        if type(self.s0) is not float:
            object.__setattr__(self, "s0", _real("signals.s0", self.s0, arrays=True))
        if type(self.s1) is not float:
            object.__setattr__(self, "s1", _real("signals.s1", self.s1, arrays=True))

    @property
    def coincident(self) -> bool:
        if isinstance(self.s0, np.ndarray):
            # np.array_equal without its argument conversions
            return self.s0.shape == np.shape(self.s1) and bool((self.s0 == self.s1).all())
        return self.s0 == self.s1


def _num_close(x, y, tol: float) -> bool:
    xa = isinstance(x, np.ndarray)
    ya = isinstance(y, np.ndarray)
    if xa or ya:
        if not (xa and ya) or x.shape != y.shape:
            return False
        return bool(np.all(np.abs(x - y) <= tol))
    return abs(x - y) <= tol


def rules_equal(lhs: ReceiverRule, rhs: ReceiverRule, tol: float = 0.0) -> bool:
    if lhs.kind is not rhs.kind:
        return False
    return _num_close(lhs.a, rhs.a, tol) and _num_close(lhs.eta, rhs.eta, tol)


def _within_budget(energy: float, budget: float) -> bool:
    # the pair's energy rounds relative to the budget it spends
    return energy <= budget + _POWER_TOL * max(1.0, budget)


def check_power(signals: SignalDesign, power: PeakPower | AveragePower,
                transmitter: AgentParams) -> None:
    """Raise unless the pair satisfies the budget within 1e-12 relative to it
    (1e-12 absolute for budgets below 1)."""
    if isinstance(signals.s0, np.ndarray):
        e0 = float(signals.s0 @ signals.s0)
        e1 = float(signals.s1 @ signals.s1)
    else:
        e0 = signals.s0 * signals.s0
        e1 = signals.s1 * signals.s1
    if isinstance(power, PeakPower):
        if not (_within_budget(e0, power.p0) and _within_budget(e1, power.p1)):
            raise SpecError("signals: peak power budget exceeded")
        return
    if not _within_budget(transmitter.prior0 * e0 + transmitter.prior1 * e1,
                          power.p_avg):
        raise SpecError("signals: average power budget exceeded")


# ---------------------------------------------------------------------------
# detection primitives


def q_function(x: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(x / _SQRT2)


def conditional_error_probs(d: float, log_tau: float, zeta: int) -> tuple[float, float]:
    """(P10, P01) of the threshold rule matched to normalized distance d.

    P10 = Pr(decide H1 | H0 true), P01 = Pr(decide H0 | H1 true).  Requires
    d > 0, a finite ln tau (NaN stands for a tau <= 0) and zeta = +1 or -1;
    coincident signals never reach this formula (they are handled by the
    prior-only rule).
    """
    if not d > 0.0:
        raise SpecError("d: normalized distance must be strictly positive")
    if not math.isfinite(log_tau):
        raise SpecError("tau: must be finite and strictly positive")
    if zeta not in (-1, 1):
        raise SpecError("zeta: must be +1 or -1")
    p10 = q_function(zeta * (log_tau / d + d / 2.0))
    p01 = q_function(zeta * (-log_tau / d + d / 2.0))
    return p10, p01


def bayes_risk(agent: AgentParams, p10: float, p01: float) -> float:
    """Expected cost of an agent given the rule's error probabilities."""
    return (
        agent.prior0 * agent.c00
        + agent.prior1 * agent.c11
        + agent.prior0 * agent.false_alarm_margin * p10
        + agent.prior1 * agent.miss_margin * p01
    )


def prior_only_rule(tau: float, zeta: int) -> ReceiverRule:
    """Optimal rule when the observation is uninformative (coincident signals).

    Compares zeta against zeta * tau: the decision is fixed by the sign of
    zeta * (1 - tau), and tau = 1 leaves the receiver indifferent.
    """
    eta = zeta * (tau - 1.0)
    margin = zeta * (1.0 - tau)
    if margin > 0.0:
        return ReceiverRule.always_h1(eta)
    if margin < 0.0:
        return ReceiverRule.always_h0(eta)
    return ReceiverRule.indifferent(eta)


def optimal_receiver_rule(signals: SignalDesign, noise: NoiseModel,
                          dq: DerivedQuantities) -> ReceiverRule:
    """Best response of the receiver to a known signal pair, from the game's
    derived record (its case, tau, ln tau and zeta).

    A receiver whose case ignores the observation plays its fixed rule, and
    coincident signals get the prior-only rule.  On a vector channel the
    direction solves Sigma w = s1 - s0 by LU; a covariance that is positive
    definite by its eigenvalues but singular to that factorization raises a
    ``SpecError`` naming ``noise.covariance``.
    """
    if dq.case is not RuleKind.THRESHOLD:
        return _FIXED_RULES[dq.case]
    if not dq.tau.is_finite:
        # both margins share a sign, but their ratio underflowed to 0
        raise SpecError("tau: the matched rule needs a finite threshold ratio")
    if signals.coincident:
        return prior_only_rule(dq.tau.value, dq.zeta)
    s0, s1, zeta = signals.s0, signals.s1, dq.zeta
    if noise.is_scalar:
        a = zeta * (s1 - s0)
        eta = zeta * (noise.sigma * noise.sigma * dq.log_tau + (s1 * s1 - s0 * s0) / 2.0)
        return ReceiverRule.threshold(a, eta)
    try:
        w = np.linalg.solve(noise.covariance, s1 - s0)
    except np.linalg.LinAlgError:
        raise SpecError("noise.covariance: singular to working precision, "
                        "the matched rule cannot be solved") from None
    eta = zeta * (dq.log_tau + 0.5 * float(w.dot(s1 + s0)))
    return ReceiverRule.threshold(zeta * w, eta)


def _fixed_error_probs(rule: ReceiverRule) -> tuple[float, float]:
    """(P10, P01) of a degenerate rule, which ignores the observation.

    INDIFFERENT is scored as ALWAYS_H0 (the canonical choice for risk
    accounting).
    """
    return (1.0, 0.0) if rule.kind is RuleKind.ALWAYS_H1 else (0.0, 1.0)


def _check_fits(signals: SignalDesign, rule: ReceiverRule, noise: NoiseModel) -> None:
    """Raise unless the signals and a threshold rule's direction are floats
    on a scalar channel, or arrays of its dimension on a vector one."""
    if noise.sigma is not None:
        # class tests only: this runs on every scalar risk
        if isinstance(signals.s0, np.ndarray) or isinstance(signals.s1, np.ndarray):
            raise SpecError("signals: a scalar channel takes scalar signals")
        if isinstance(rule.a, np.ndarray):
            raise SpecError("rule.a: a scalar channel takes a scalar direction")
        return
    shape = (noise.dimension,)
    if np.shape(signals.s0) != shape or np.shape(signals.s1) != shape:
        raise SpecError(f"signals: the channel takes vectors of length {shape[0]}")
    if rule.kind is RuleKind.THRESHOLD and np.shape(rule.a) != shape:
        raise SpecError(f"rule.a: the channel takes a direction of length {shape[0]}")


def rule_error_probs(signals: SignalDesign, rule: ReceiverRule,
                     noise: NoiseModel) -> tuple[float, float]:
    """(P10, P01) of a rule applied to a signal pair that fits the channel."""
    _check_fits(signals, rule, noise)
    if rule.kind is not RuleKind.THRESHOLD:
        return _fixed_error_probs(rule)
    a = rule.a
    if noise.is_scalar:
        spread = abs(a) * noise.sigma
        m0 = a * signals.s0
        m1 = a * signals.s1
    else:
        spread = math.sqrt(float(a @ noise.covariance @ a))
        m0 = float(a @ signals.s0)
        m1 = float(a @ signals.s1)
    if spread == 0.0:
        # the spread underflowed: take its limit 0+, a step at each mean
        return _q_limit(rule.eta - m0), _q_limit(-(rule.eta - m1))
    p10 = q_function((rule.eta - m0) / spread)
    p01 = q_function(-(rule.eta - m1) / spread)
    return p10, p01


def _q_limit(x: float) -> float:
    """Q(x / s) as s goes to 0+."""
    return 0.5 if x == 0.0 else q_function(x * math.inf)


def risk_pair(transmitter: AgentParams, receiver: AgentParams,
              signals: SignalDesign, rule: ReceiverRule,
              noise: NoiseModel) -> tuple[float, float]:
    """(transmitter risk, receiver risk) of a signal pair under a rule."""
    p10, p01 = rule_error_probs(signals, rule, noise)
    return bayes_risk(transmitter, p10, p01), bayes_risk(receiver, p10, p01)
