"""Vector-channel solvers and their coherence with the scalar ones."""

import math

import numpy as np
import pytest

from sigeq import (
    AgentParams,
    Concept,
    GameSpec,
    NoiseModel,
    PeakPower,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    derived_quantities,
    mc_estimate,
    optimal_receiver_rule,
    rules_equal,
    solve,
)
from sigeq import detection
from conftest import (
    DEMO_RX,
    DEMO_TX,
    demo_spec,
    matched_rule,
    random_scalar_spec,
    random_spd_matrix,
    random_vector_spec,
    rules_close,
)


def embed_1d(spec: GameSpec) -> GameSpec:
    cov = np.array([[spec.noise.sigma ** 2]])
    return GameSpec(spec.transmitter, spec.receiver, NoiseModel.matrix(cov),
                    spec.power, dimension=1)


def mahalanobis_d(signals: SignalDesign, covariance) -> float:
    """Distance between the two signals in the noise metric, by a linear
    solve: the oracle for reported distances."""
    diff = np.asarray(signals.s1, dtype=float) - np.asarray(signals.s0, dtype=float)
    return math.sqrt(float(diff @ np.linalg.solve(covariance, diff)))


def min_eigenpair(covariance) -> tuple[float, np.ndarray]:
    """The minimum eigenpair that ``NoiseModel`` derives from a covariance and
    the solve path reads."""
    noise = NoiseModel.matrix(covariance)
    return noise.min_eigenvalue, noise.min_eigenvector


# ---------------------------------------------------------------------------
# eigen and distance helpers


def test_min_eigenpair_identity():
    value, axis = min_eigenpair(np.eye(3))
    assert value == 1.0
    assert np.array_equal(axis, np.array([1.0, 0.0, 0.0]))


def test_min_eigenpair_diagonal():
    value, axis = min_eigenpair(np.diag([1.0, 4.0]))
    assert value == 1.0
    assert np.array_equal(axis, np.array([1.0, 0.0]))


def test_min_eigenpair_coupled():
    value, axis = min_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert abs(value - 1.0) <= 1e-12
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(axis, [inv_sqrt2, -inv_sqrt2], atol=1e-12)
    # canonical orientation: first sizable component is positive
    assert axis[0] > 0


def test_min_eigenpair_random_matrices():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = random_spd_matrix(rng, n)
        value, axis = min_eigenpair(m)
        assert abs(value - float(np.linalg.eigvalsh(m)[0])) <= 1e-12 * np.linalg.norm(m)
        assert abs(float(axis @ axis) - 1.0) <= 1e-12
        assert np.linalg.norm(m @ axis - value * axis) <= 1e-9 * np.linalg.norm(m)
        # the first entry above 1e-12 in magnitude is positive
        assert axis[np.flatnonzero(np.abs(axis) > 1e-12)[0]] > 0.0
        with pytest.raises(ValueError):
            axis[0] = 9.0


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_mismatched_eigenpair_fails_its_residual_check_at_extreme_scales(scale):
    # the squares of the residual check would overflow (1e300) or underflow
    # (1e-300) unscaled, and let the wrong pair through
    a = np.diag([scale, 4.0 * scale])
    values, vectors = np.linalg.eigh(a)
    with pytest.raises(ArithmeticError):
        detection._signed_pair(a, values, vectors[:, ::-1])
    # the matched pair passes and comes back as eigh gave it
    value, axis = detection._signed_pair(a, values, vectors)
    assert value == values[0] and np.array_equal(axis, vectors[:, 0])


def test_mahalanobis_examples():
    s = SignalDesign(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    assert mahalanobis_d(s, np.diag([4.0, 1.0])) == 1.0
    same = SignalDesign(np.array([0.3, 0.3]), np.array([0.3, 0.3]))
    assert mahalanobis_d(same, np.eye(2)) == 0.0
    one_d = SignalDesign(np.array([-1.0]), np.array([1.0]))
    assert mahalanobis_d(one_d, np.array([[0.25]])) == 4.0


# ---------------------------------------------------------------------------
# solver examples


def test_team_concentrates_on_least_noise_direction():
    agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
    spec = GameSpec(agent, agent, NoiseModel.matrix(np.diag([0.01, 1.0])),
                    PeakPower(1.0, 1.0), dimension=2)
    rep = solve(spec, Concept.TEAM)
    assert rep.d_star == 20.0 and rep.d_max == 20.0
    assert np.array_equal(rep.signals.s0, np.array([-1.0, 0.0]))
    assert np.array_equal(rep.signals.s1, np.array([1.0, 0.0]))
    scalar = solve(GameSpec(agent, agent, NoiseModel.scalar(0.1),
                            PeakPower(1.0, 1.0)), Concept.TEAM)
    assert abs(rep.d_max - scalar.d_max) <= 1e-12
    assert rep.risk_t == scalar.risk_t


def test_stackelberg_interior_point_in_vector_noise():
    spec = GameSpec(DEMO_TX, DEMO_RX, NoiseModel.matrix(np.diag([0.01, 1.0])),
                    PeakPower(1.0, 1.0), dimension=2)
    rep = solve(spec, Concept.STACKELBERG)
    assert rep.case_label == "case-3"
    scalar_rep = solve(demo_spec(), Concept.STACKELBERG)
    assert rep.d_star == scalar_rep.d_star
    assert rep.risk_t == scalar_rep.risk_t
    # reported separation in the noise metric equals the optimizer
    assert abs(mahalanobis_d(rep.signals, spec.noise.covariance) - rep.d_star) <= 1e-9


def test_nash_vector_rule_direction_is_whitened_difference():
    agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
    cov = np.array([[2.0, 1.0], [1.0, 2.0]])
    spec = GameSpec(agent, agent, NoiseModel.matrix(cov), PeakPower(1.0, 1.0),
                    dimension=2)
    rep = solve(spec, Concept.NASH)
    assert rep.informative
    diff = rep.signals.s1 - rep.signals.s0
    want = np.linalg.solve(cov, diff)
    got = np.asarray(rep.rule.a)
    scale = float(got @ want) / float(want @ want)
    assert scale > 0
    assert np.allclose(got, scale * want, atol=1e-12)
    # informative signals stay on the least-noise axis at full power
    _, axis = min_eigenpair(cov)
    assert np.allclose(np.abs(rep.signals.s0), np.abs(axis), atol=1e-12)


# ---------------------------------------------------------------------------
# properties


def test_power_feasibility_on_random_vector_games():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        spec = random_vector_spec(rng, n)
        for concept in (Concept.STACKELBERG, Concept.NASH):
            rep = solve(spec, concept)
            e0 = float(rep.signals.s0 @ rep.signals.s0)
            e1 = float(rep.signals.s1 @ rep.signals.s1)
            assert e0 <= spec.power.p0 + 1e-12
            assert e1 <= spec.power.p1 + 1e-12


def test_scalar_games_embed_exactly_as_1d_vector_games():
    # the 1x1 covariance [[sigma^2]] gives the scalar report to the bit; only
    # the rule is formed differently (the scalar one from (s1^2 - s0^2) / 2,
    # the lifted one from c (u1 + u0) / 2), so after scaling to a unit
    # direction it agrees within 1e-15 of the size of its terms, which exceed
    # the rule itself when s1 - s0 is small against the levels
    rng = np.random.default_rng(47)
    concepts = ((Concept.TEAM, True), (Concept.STACKELBERG, False),
                (Concept.NASH, False))
    for _ in range(1250):
        identical = bool(rng.integers(0, 2))
        spec = random_scalar_spec(rng)
        if identical:
            spec = GameSpec(spec.transmitter, spec.transmitter, spec.noise,
                            spec.power)
        vec_spec = embed_1d(spec)
        log_tau = derived_quantities(spec).log_tau
        for concept, needs_identical in concepts:
            if needs_identical and not identical:
                continue
            a = solve(spec, concept)
            b = solve(vec_spec, concept)
            assert a.case_label == b.case_label
            assert a.informative == b.informative
            assert a.existence == b.existence
            assert a.d_star == b.d_star
            assert a.d_max == b.d_max
            assert a.risk_t == b.risk_t
            assert a.risk_r == b.risk_r
            assert float(b.signals.s0[0]) == a.signals.s0
            assert float(b.signals.s1[0]) == a.signals.s1
            assert a.rule.kind is b.rule.kind
            if a.rule.kind is RuleKind.THRESHOLD:
                u0, u1 = a.signals.s0, a.signals.s1
                terms = (spec.noise.sigma ** 2 * abs(log_tau)
                         + max(u0 * u0, u1 * u1)) / abs(u1 - u0)
                assert rules_close(b.rule, a.rule, 1e-15 * max(1.0, terms))
            else:
                assert a.rule.eta == b.rule.eta


def test_diagonal_covariance_reduces_to_scalar_distance():
    rng = np.random.default_rng(53)
    for _ in range(50):
        agent = AgentParams.from_prior0(float(rng.uniform(0.1, 0.9)),
                                        ((0.0, 1.0), (1.0, 0.0)))
        n = int(rng.integers(1, 6))
        diag = rng.uniform(0.05, 4.0, size=n)
        power = PeakPower(float(rng.uniform(0.25, 4.0)),
                          float(rng.uniform(0.25, 4.0)))
        vec = GameSpec(agent, agent, NoiseModel.matrix(np.diag(diag)), power,
                       dimension=n)
        sigma = math.sqrt(float(np.min(diag)))
        scalar = GameSpec(agent, agent, NoiseModel.scalar(sigma), power)
        d_max = solve(scalar, Concept.TEAM).d_max
        assert abs(solve(vec, Concept.TEAM).d_max - d_max) <= 1e-12


def test_vector_interior_separation_matches_reported_distance():
    rng = np.random.default_rng(59)
    found = 0
    while found < 25:
        spec = random_vector_spec(rng, int(rng.integers(2, 5)))
        rep = solve(spec, Concept.STACKELBERG)
        if rep.case_label != "case-3":
            continue
        d = mahalanobis_d(rep.signals, spec.noise.covariance)
        assert abs(d - rep.d_star) <= 1e-9
        assert rules_equal(
            rep.rule,
            optimal_receiver_rule(rep.signals, spec.noise, derived_quantities(spec)),
            1e-9)
        found += 1


@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_reported_distance_never_passes_d_max(n):
    # d_max and the realizer read the one eigenvalue NoiseModel keeps, so a
    # full-budget pair lands on d_max exactly, never an ulp past it
    rng = np.random.default_rng(61 + n)
    for _ in range(40):
        for identical in (True, False):
            spec = random_vector_spec(rng, n, identical=identical)
            concepts = list(Concept) if identical else [Concept.STACKELBERG,
                                                        Concept.NASH]
            for concept in concepts:
                rep = solve(spec, concept)
                assert rep.d_star <= rep.d_max
                if concept is Concept.TEAM:
                    assert rep.d_star == rep.d_max
                    d = mahalanobis_d(rep.signals, spec.noise.covariance)
                    assert abs(d - rep.d_star) <= 1e-12 * rep.d_star


def test_one_eigendecomposition_per_covariance(monkeypatch):
    # building the noise model decomposes the covariance once; the solves
    # then lift the scalar solve and call nothing from np.linalg
    calls = {name: 0 for name in np.linalg.__all__
             if callable(getattr(np.linalg, name))
             and not isinstance(getattr(np.linalg, name), type)}

    def counted(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    assert {"eigh", "eigvalsh", "solve", "cholesky", "inv", "norm"} <= calls.keys()
    noise = NoiseModel.matrix(random_spd_matrix(np.random.default_rng(67), 4))
    assert {k: v for k, v in calls.items() if v} == {"eigh": 1}
    agent = AgentParams.from_prior0(0.3, ((0.0, 1.0), (1.0, 0.0)))
    team = GameSpec(agent, agent, noise, PeakPower(1.0, 2.0), dimension=4)
    mixed = GameSpec(DEMO_TX, DEMO_RX, noise, PeakPower(1.0, 1.0), dimension=4)
    informative = 0
    for concept in Concept:
        informative += solve(team, concept).informative
        if concept is not Concept.TEAM:
            informative += solve(mixed, concept).informative
    assert informative >= 3
    assert {k: v for k, v in calls.items() if v} == {"eigh": 1}


def test_a_covariance_singular_to_working_precision_raises_spec_errors():
    # positive definite by its eigenvalues (lambda_min = 2.3e-97), so the
    # noise model accepts it; LU and Cholesky still fail on it.  The solve
    # lifts its rule without either; the public calls that need one refuse
    # the covariance by name
    noise = NoiseModel.matrix([[2.7403972190502652e-81, 3.912012776501258e-81],
                               [3.912012776501258e-81, 5.58453491965406e-81]])
    assert noise.min_eigenvalue > 0.0
    tx = AgentParams.from_prior0(0.515106050978188,
                                 ((0.0, 1.9477201544805032), (0.0, 0.0)))
    rx = AgentParams.from_prior0(1.965034376461695e-75,
                                 ((1.8215285357872062, 0.695863617411761),
                                  (5.2245994897596465e+216, 1.3547786078764018e-68)))
    spec = GameSpec(tx, rx, noise,
                    PeakPower(9.847978193360906e-232, 1.1713552857848433e-144),
                    dimension=2)
    rep = solve(spec, Concept.STACKELBERG)
    assert rep.informative and rep.rule.kind is RuleKind.THRESHOLD
    agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
    pair = SignalDesign([-1.0, 0.0], [1.0, 0.0])
    with pytest.raises(SpecError, match="^noise.covariance: singular"):
        matched_rule(pair, agent, noise)
    with pytest.raises(SpecError, match="^noise.covariance: not positive definite"):
        mc_estimate(pair, ReceiverRule.threshold([1.0, 0.0], 0.0), noise,
                    (agent, agent), 10_000, 0)
