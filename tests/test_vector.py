"""Vector-channel solvers and their coherence with the scalar ones."""

import math

import numpy as np
import pytest

from sigeq import (
    AgentParams,
    EigenPair,
    GameSpec,
    NoiseModel,
    PeakPower,
    ReceiverRule,
    RuleKind,
    SignalDesign,
    SpecError,
    best_response_transmitter_vec,
    derived_quantities,
    mahalanobis_d,
    min_eigenpair,
    optimal_receiver_rule,
    rules_equal,
    solve_nash,
    solve_nash_vec,
    solve_stackelberg,
    solve_stackelberg_vec,
    solve_team,
    solve_team_vec,
)
from sigeq import vector
from conftest import (
    DEMO_RX,
    DEMO_TX,
    demo_spec,
    random_scalar_spec,
    random_spd_matrix,
    random_vector_spec,
)


def embed_1d(spec: GameSpec) -> GameSpec:
    cov = np.array([[spec.noise.sigma ** 2]])
    return GameSpec(spec.transmitter, spec.receiver, NoiseModel.matrix(cov),
                    spec.power, dimension=1)


# ---------------------------------------------------------------------------
# eigen and distance helpers


def test_min_eigenpair_identity():
    pair = min_eigenpair(np.eye(3))
    assert pair.value == 1.0
    assert np.array_equal(pair.vector, np.array([1.0, 0.0, 0.0]))
    assert pair.residual <= 1e-9


def test_min_eigenpair_diagonal():
    pair = min_eigenpair(np.diag([1.0, 4.0]))
    assert pair.value == 1.0
    assert np.array_equal(pair.vector, np.array([1.0, 0.0]))


def test_min_eigenpair_coupled():
    pair = min_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert abs(pair.value - 1.0) <= 1e-12
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(pair.vector, [inv_sqrt2, -inv_sqrt2], atol=1e-12)
    # canonical orientation: first sizable component is positive
    assert pair.vector[0] > 0


def test_min_eigenpair_validation():
    with pytest.raises(SpecError):
        min_eigenpair(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(SpecError):
        min_eigenpair(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SpecError):
        min_eigenpair(np.ones((2, 3)))
    with pytest.raises(SpecError):
        min_eigenpair(np.eye(65))


def test_min_eigenpair_random_matrices():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = random_spd_matrix(rng, n)
        pair = min_eigenpair(m)
        assert pair.value <= float(np.linalg.eigvalsh(m)[-1])
        assert abs(float(pair.vector @ pair.vector) - 1.0) <= 1e-12
        assert pair.residual <= 1e-9 * float(np.linalg.norm(m))
        with pytest.raises(ValueError):
            pair.vector[0] = 9.0
        # the solve path skips the checks NoiseModel has made, not the bits
        axis = vector._covariance_axis(NoiseModel.matrix(m))
        assert (axis.value, axis.residual) == (pair.value, pair.residual)
        assert np.array_equal(axis.vector, pair.vector)


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
    rep = solve_team_vec(spec)
    assert rep.d_star == 20.0 and rep.d_max == 20.0
    assert np.array_equal(rep.signals.s0, np.array([-1.0, 0.0]))
    assert np.array_equal(rep.signals.s1, np.array([1.0, 0.0]))
    scalar = solve_team(GameSpec(agent, agent, NoiseModel.scalar(0.1),
                                 PeakPower(1.0, 1.0)))
    assert abs(rep.d_max - scalar.d_max) <= 1e-12
    assert rep.risk_t == scalar.risk_t


def test_stackelberg_interior_point_in_vector_noise():
    spec = GameSpec(DEMO_TX, DEMO_RX, NoiseModel.matrix(np.diag([0.01, 1.0])),
                    PeakPower(1.0, 1.0), dimension=2)
    rep = solve_stackelberg_vec(spec)
    assert rep.case_label == "case-3"
    scalar_rep = solve_stackelberg(demo_spec())
    assert rep.d_star == scalar_rep.d_star
    assert rep.risk_t == scalar_rep.risk_t
    # reported separation in the noise metric equals the optimizer
    assert abs(mahalanobis_d(rep.signals, spec.noise.covariance) - rep.d_star) <= 1e-9


def test_nash_vector_rule_direction_is_whitened_difference():
    agent = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
    cov = np.array([[2.0, 1.0], [1.0, 2.0]])
    spec = GameSpec(agent, agent, NoiseModel.matrix(cov), PeakPower(1.0, 1.0),
                    dimension=2)
    rep = solve_nash_vec(spec)
    assert rep.informative
    diff = rep.signals.s1 - rep.signals.s0
    want = np.linalg.solve(cov, diff)
    got = np.asarray(rep.rule.a)
    scale = float(got @ want) / float(want @ want)
    assert scale > 0
    assert np.allclose(got, scale * want, atol=1e-12)
    # informative signals stay on the least-noise axis at full power
    axis = min_eigenpair(cov).vector
    assert np.allclose(np.abs(rep.signals.s0), np.abs(axis), atol=1e-12)


def test_transmitter_best_response_vector():
    tx = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))
    rule = ReceiverRule.threshold(np.array([3.0, 4.0]), 0.0)
    resp = best_response_transmitter_vec(rule, tx, PeakPower(4.0, 1.0))
    assert np.allclose(resp.s0, [-1.2, -1.6], atol=1e-15)
    assert np.allclose(resp.s1, [0.6, 0.8], atol=1e-15)
    with pytest.raises(SpecError):
        best_response_transmitter_vec(ReceiverRule.always_h0(), tx, PeakPower(1, 1))
    parked = best_response_transmitter_vec(ReceiverRule.always_h0(), tx,
                                           PeakPower(1.0, 1.0), dimension=3)
    assert np.array_equal(parked.s0, np.zeros(3))
    assert np.array_equal(parked.s1, np.zeros(3))


# ---------------------------------------------------------------------------
# properties


def test_power_feasibility_on_random_vector_games():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        spec = random_vector_spec(rng, n)
        for solver in (solve_stackelberg_vec, solve_nash_vec):
            rep = solver(spec)
            e0 = float(rep.signals.s0 @ rep.signals.s0)
            e1 = float(rep.signals.s1 @ rep.signals.s1)
            assert e0 <= spec.power.p0 + 1e-12
            assert e1 <= spec.power.p1 + 1e-12


def test_scalar_games_embed_exactly_as_1d_vector_games():
    rng = np.random.default_rng(47)
    pairs = ((solve_team, solve_team_vec, True),
             (solve_stackelberg, solve_stackelberg_vec, False),
             (solve_nash, solve_nash_vec, False))
    for _ in range(60):
        identical = bool(rng.integers(0, 2))
        spec = random_scalar_spec(rng)
        if identical:
            spec = GameSpec(spec.transmitter, spec.transmitter, spec.noise,
                            spec.power)
        vec_spec = embed_1d(spec)
        for scalar_solver, vector_solver, needs_identical in pairs:
            if needs_identical and not identical:
                continue
            a = scalar_solver(spec)
            b = vector_solver(vec_spec)
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
                na, nb = a.rule.normalized(), b.rule.normalized()
                assert abs(na.a - float(np.asarray(nb.a)[0])) <= 1e-12
                assert abs(na.eta - nb.eta) <= 1e-12
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
        assert abs(solve_team_vec(vec).d_max - solve_team(scalar).d_max) <= 1e-12


def test_vector_interior_separation_matches_reported_distance():
    rng = np.random.default_rng(59)
    found = 0
    while found < 25:
        spec = random_vector_spec(rng, int(rng.integers(2, 5)))
        rep = solve_stackelberg_vec(spec)
        if rep.case_label != "case-3":
            continue
        d = mahalanobis_d(rep.signals, spec.noise.covariance)
        assert abs(d - rep.d_star) <= 1e-9
        assert rules_equal(
            rep.rule,
            optimal_receiver_rule(rep.signals, spec.receiver, spec.noise),
            1e-9)
        found += 1
