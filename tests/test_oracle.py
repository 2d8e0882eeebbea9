"""Channel-simulation estimator and the brute-force separation scan of the
test oracle (``conftest.grid_search_transmitter``).

These are the independent checks the analytic solvers are validated against,
so the tests here pin their determinism contract hard: fixed seeds map to
fixed estimates, regardless of thread count or chunking.  The estimator's
chunk counts are held to a brute-force oracle that pushes every uniform of
the chunk through the inverse CDF and the decision rule.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from sigeq import oracle
from sigeq import (
    AgentParams,
    Concept,
    GameSpec,
    NoiseModel,
    PeakPower,
    ReceiverRule,
    SignalDesign,
    SpecError,
    mc_estimate,
    q_function,
    solve,
)
from conftest import (DEMO_RX, DEMO_TX, demo_spec, grid_search_transmitter, matched_rule,
                      random_scalar_spec)
from test_stackelberg import spec_with_weights

HONEST = AgentParams.from_prior0(0.5, ((0.0, 1.0), (1.0, 0.0)))


# ---------------------------------------------------------------------------
# mc_estimate


def test_constant_rules_are_exact():
    sig = SignalDesign(-1.0, 1.0)
    noise = NoiseModel.scalar(1.0)
    est = mc_estimate(sig, ReceiverRule.always_h0(), noise, (DEMO_TX, DEMO_RX),
                      10_000, 5)
    assert (est.p10_hat, est.p01_hat) == (0.0, 1.0)
    assert est.risk_r_hat == 0.25 * 0.0 + 0.75 * 0.4
    assert (est.p10_stderr, est.p01_stderr) == (0.0, 0.0)
    assert (est.risk_t_stderr, est.risk_r_stderr) == (0.0, 0.0)
    est1 = mc_estimate(sig, ReceiverRule.always_h1(), noise, (DEMO_TX, DEMO_RX),
                       10_000, 5)
    assert (est1.p10_hat, est1.p01_hat) == (1.0, 0.0)
    assert est1.risk_r_hat == 0.25 * 0.9
    # an indifferent receiver is scored as if it always declared H0
    esti = mc_estimate(sig, ReceiverRule.indifferent(), noise,
                       (DEMO_TX, DEMO_RX), 10_000, 5)
    assert (esti.p10_hat, esti.p01_hat) == (0.0, 1.0)


def test_antipodal_estimates_near_analytic():
    noise = NoiseModel.scalar(1.0)
    sig = SignalDesign(-1.0, 1.0)
    rule = matched_rule(sig, HONEST, noise)
    est = mc_estimate(sig, rule, noise, (HONEST, HONEST), 1_000_000, 1234)
    q1 = q_function(1.0)
    assert abs(est.p10_hat - q1) <= 3.0 * est.p10_stderr
    assert abs(est.p01_hat - q1) <= 3.0 * est.p01_stderr
    assert est.n_samples == 1_000_000 and est.seed == 1234
    assert est.p10_stderr == math.sqrt(est.p10_hat * (1 - est.p10_hat) / 500_000)


def test_equilibrium_risks_near_analytic():
    spec = demo_spec()
    rep = solve(spec, Concept.STACKELBERG)
    est = mc_estimate(rep.signals, rep.rule, spec.noise, (DEMO_TX, DEMO_RX),
                      1_000_000, 77)
    assert abs(est.risk_t_hat - 0.5378817736566109) <= 3.0 * est.risk_t_stderr
    assert abs(est.risk_r_hat - 0.20506971530212073) <= 3.0 * est.risk_r_stderr


def test_estimates_are_bitwise_reproducible():
    noise = NoiseModel.scalar(0.5)
    sig = SignalDesign(-0.7, 1.3)
    rule = ReceiverRule.threshold(1.7, 0.2)
    first = mc_estimate(sig, rule, noise, (DEMO_TX, DEMO_RX), 100_000, 42)
    again = mc_estimate(sig, rule, noise, (DEMO_TX, DEMO_RX), 100_000, 42)
    assert first == again
    third = mc_estimate(sig, rule, noise, (DEMO_TX, DEMO_RX), 100_000, 42)
    assert first == third
    other_seed = mc_estimate(sig, rule, noise, (DEMO_TX, DEMO_RX), 100_000, 43)
    assert other_seed != first


def test_one_dimensional_channel_matches_scalar_stream():
    noise = NoiseModel.scalar(1.0)
    sig = SignalDesign(-1.0, 1.0)
    rule = matched_rule(sig, HONEST, noise)
    scalar = mc_estimate(sig, rule, noise, (HONEST, HONEST), 200_000, 9)
    vec = mc_estimate(
        SignalDesign(np.array([-1.0]), np.array([1.0])),
        ReceiverRule.threshold(np.array([rule.a]), rule.eta),
        NoiseModel.matrix(np.array([[1.0]])),
        (HONEST, HONEST), 200_000, 9)
    assert scalar.p10_hat == vec.p10_hat
    assert scalar.p01_hat == vec.p01_hat
    assert scalar.risk_t_hat == vec.risk_t_hat


def test_vector_channel_estimates():
    cov = np.array([[0.04, 0.0], [0.0, 1.0]])
    noise = NoiseModel.matrix(cov)
    sig = SignalDesign(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    rule = matched_rule(sig, HONEST, noise)
    est = mc_estimate(sig, rule, noise, (HONEST, HONEST), 400_000, 2024)
    q10 = q_function(1.0 / 0.2)
    # Q(5) ~ 2.9e-7: expect zero or near-zero miscounts out of 2e5 draws
    assert est.p10_hat <= 5.0 / 200_000
    assert abs(est.p10_hat - q10) <= 4.0 * max(est.p10_stderr, 1e-6)


def test_mc_validation():
    noise = NoiseModel.scalar(1.0)
    sig = SignalDesign(-1.0, 1.0)
    rule = ReceiverRule.threshold(1.0, 0.0)
    with pytest.raises(SpecError):
        mc_estimate(sig, rule, noise, (DEMO_TX, DEMO_RX), 9_999, 1)
    # half the samples go to each hypothesis, so an odd count is refused
    # rather than rounded down
    for odd_rule in (rule, ReceiverRule.always_h1()):
        with pytest.raises(SpecError, match="^n: must be even"):
            mc_estimate(sig, odd_rule, noise, (DEMO_TX, DEMO_RX), 10_001, 1)
    with pytest.raises(SpecError):
        mc_estimate(SignalDesign(np.array([-1.0]), np.array([1.0])), rule,
                    noise, (DEMO_TX, DEMO_RX), 10_000, 1)
    vec_noise = NoiseModel.matrix(np.eye(2))
    with pytest.raises(SpecError):
        mc_estimate(sig, rule, vec_noise, (DEMO_TX, DEMO_RX), 10_000, 1)
    with pytest.raises(SpecError):
        mc_estimate(
            SignalDesign(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
            ReceiverRule.threshold(np.array([1.0]), 0.0), vec_noise,
            (DEMO_TX, DEMO_RX), 10_000, 1)


# ---------------------------------------------------------------------------
# chunk counts against the inverse-CDF oracle


def _brute_uniforms(seed, hyp, chunk, shape):
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed,
                                                spawn_key=(hyp, chunk))))
    u = gen.random(shape)
    u[u == 0.0] = 2.0 ** -53
    return u


def _brute_count_scalar(u, signal, sigma, a, eta):
    y = signal + sigma * ndtri(u)
    return int(np.count_nonzero(a * y > eta))


def _brute_count_vector(u, signal, chol, a, eta):
    y = ndtri(u) @ chol.T + signal
    return int(np.count_nonzero(y @ a > eta))


def _near(value, rng):
    """The value itself or one ulp to either side of it."""
    step = int(rng.integers(-1, 2))
    return float(np.nextafter(value, step * math.inf)) if step else float(value)


def _chunk_key(rng):
    return int(rng.integers(0, 2**31)), int(rng.integers(0, 2)), int(rng.integers(0, 31))


def _scalar_case(rng):
    seed, hyp, chunk = _chunk_key(rng)
    size = int(rng.choice([1, 2, 32768, int(np.exp(rng.uniform(0.0, np.log(32768))))]))
    signal = float(rng.uniform(-5.0, 5.0))
    sigma = float(10.0 ** rng.uniform(-3.0, 2.0))
    a = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0))
    u = _brute_uniforms(seed, hyp, chunk, size)
    mode = rng.integers(0, 5)
    if mode == 0:    # on a sampled observation, as the rule computes it
        k = int(rng.integers(0, size))
        eta = _near(a * (signal + sigma * ndtri(u[k:k + 1]))[0], rng)
    elif mode == 1:  # anywhere the sampler reaches
        eta = a * (signal + sigma * float(rng.uniform(-9.0, 9.0)))
    elif mode == 2:  # beyond the lattice's extreme normals
        t = float(rng.choice([-1.0, 1.0]) * rng.uniform(8.21, 40.0))
        eta = a * (signal + sigma * t)
    elif mode == 3:  # on the lattice's extreme normals
        eta = _near(a * (signal + sigma * rng.choice([-1.0, 1.0])
                         * ndtri(np.array([2.0 ** -53])))[0], rng)
    else:            # a band touching an end: lo <= 2**-53 or hi >= 1 - 2**-53
        t = float(rng.choice([-1.0, 1.0]) * rng.uniform(7.95, 8.25))
        eta = a * (signal + sigma * t)
    return (seed, hyp, chunk, size, signal, sigma, a, eta), u


def test_raw_words_carry_the_uniform_stream():
    # the word counts of _count_h1_scalar are exact only if the sampler's
    # uniform of word w is (w >> 11) * 2**-53, as numpy's Generator.random
    # makes it, with 0 moved to 2**-53
    rng = np.random.default_rng(1011)
    odd = 2 * int(rng.integers(1, 16384)) + 1
    for shape in (1, 1, odd, 32768, 32768, (odd, 3), (16384, 2)):
        seed, hyp, chunk = _chunk_key(rng)
        words = oracle._chunk_words(seed, hyp, chunk, int(np.prod(shape)))
        assert words.dtype == np.uint64 and words.shape == (np.prod(shape),)
        u = oracle._chunk_uniforms(seed, hyp, chunk, shape)
        assert np.array_equal(u, _brute_uniforms(seed, hyp, chunk, shape))
        assert np.array_equal(u.ravel(), np.maximum(words >> np.uint64(11), np.uint64(1))
                              .astype(np.float64) * 2.0 ** -53)


def test_scalar_counts_match_the_inverse_cdf_oracle():
    rng = np.random.default_rng(20190611)
    touching = 0
    for _ in range(2000):
        args, u = _scalar_case(rng)
        assert oracle._count_h1_scalar(*args) == _brute_count_scalar(u, *args[4:]), args
        t = (args[7] / args[6] - args[4]) / args[5]
        touching += 7.95 <= abs(t) < 8.21
    # bands with lo <= 2**-53 or hi >= 1 - 2**-53 that still take the draw
    assert touching >= 300


# eta/a overflows, or |eta/a| + |signal| does: every sample takes the rule
UNBOUNDED_BANDS = ([(0.5, 1.0, a, eta) for a in (1e-300, -1e-300) for eta in (1e10, -1e10)]
                   + [(1e308, 1.0, 1.0, 1e308), (-1e308, 1e-3, -1.0, 1e308)])


def test_scalar_counts_with_unbounded_guard_band():
    for signal, sigma, a, eta in UNBOUNDED_BANDS:
        u = _brute_uniforms(3, 1, 2, 1000)
        args = (3, 1, 2, 1000, signal, sigma, a, eta)
        assert oracle._count_h1_scalar(*args) == _brute_count_scalar(u, *args[4:])


def _vector_case(rng):
    seed, hyp, chunk = _chunk_key(rng)
    size = int(rng.choice([1, 32768, int(np.exp(rng.uniform(0.0, np.log(32768))))]))
    dim = int(rng.integers(1, 5))
    b = rng.normal(size=(dim, dim)) * 10.0 ** rng.uniform(-2.0, 1.0)
    chol = np.linalg.cholesky(b @ b.T + float(rng.uniform(1e-3, 1.0)) * np.eye(dim))
    signal = rng.uniform(-5.0, 5.0, dim)
    a = rng.normal(size=dim) * 10.0 ** rng.uniform(-2.0, 2.0)
    u = _brute_uniforms(seed, hyp, chunk, (size, dim))
    center = float(a @ signal)
    # the largest |a . (y - signal)| any lattice normal can produce
    extreme = float(-ndtri(2.0 ** -53)) * float(np.abs(a) @ np.abs(chol).sum(axis=1))
    side = float(rng.choice([-1.0, 1.0]))
    mode = rng.integers(0, 4)
    if mode == 0:    # on a sampled observation, as the rule computes it
        k = int(rng.integers(0, size))
        eta = _near(((ndtri(u[k:k + 1]) @ chol.T + signal) @ a)[0], rng)
    elif mode == 1:  # within a few standard deviations
        eta = center + float(rng.normal()) * 3.0 * float(np.linalg.norm(chol.T @ a))
    elif mode == 2:  # past the lattice's reach, inside the shortcut's margin
        eta = center + side * extreme * float(rng.uniform(1.0, 1.004))
    else:            # beyond the shortcut's reach
        eta = center + side * extreme * float(rng.uniform(1.006, 3.0))
    return (seed, hyp, chunk, size, signal, chol, a, eta), u


def test_vector_counts_match_the_inverse_cdf_oracle():
    rng = np.random.default_rng(1983)
    for _ in range(600):
        args, u = _vector_case(rng)
        assert oracle._count_h1_vector(*args) == _brute_count_vector(u, *args[4:]), args


def test_counts_at_the_ends_of_the_uniform_lattice(monkeypatch):
    # chunks made of the sampler's most extreme uniforms, with the boundary
    # placed on each of their observations and one ulp to either side; each
    # lattice point comes as two words, its low 11 bits all 0 and all 1, and
    # the word 0 is moved to the point 2**-53
    k = np.concatenate([np.arange(1, 33), 2**53 - np.arange(1, 33), [2**52]])
    k = k.astype(np.uint64) << np.uint64(11)
    words = np.concatenate([k, k | np.uint64(0x7FF), [np.uint64(0)]])
    u = np.maximum(words >> np.uint64(11), np.uint64(1)).astype(np.float64) * 2.0 ** -53
    # scalar and vector chunks both draw through the word source
    monkeypatch.setattr(oracle, "_chunk_words",
                        lambda seed, hyp, chunk, size: words[:size].copy())
    rng = np.random.default_rng(5)
    for signal, sigma, a in ((0.0, 1.0, 1.0), (0.3, 0.01, -2.0), (-4.0, 50.0, 0.5)):
        for y in signal + sigma * ndtri(u):
            eta = _near(a * y, rng)
            assert (oracle._count_h1_scalar(0, 0, 0, u.size, signal, sigma, a, eta)
                    == _brute_count_scalar(u, signal, sigma, a, eta))
    for signal, sigma, a, eta in UNBOUNDED_BANDS:
        assert (oracle._count_h1_scalar(0, 0, 0, u.size, signal, sigma, a, eta)
                == _brute_count_scalar(u, signal, sigma, a, eta))
    chol = np.array([[0.1]])
    for a in (np.array([200.0]), np.array([-3.0])):
        for obs in (ndtri(u)[:, None] @ chol.T + 1.0) @ a:
            eta = _near(obs, rng)
            assert (oracle._count_h1_vector(0, 0, 0, u.size, np.array([1.0]), chol, a, eta)
                    == _brute_count_vector(u[:, None], np.array([1.0]), chol, a, eta))


def test_guard_constants_cover_the_special_function_errors():
    # the exactness argument in _count_h1_scalar rests on these bounds
    rng = np.random.default_rng(11)
    xs = rng.uniform(-9.0, 9.0, 300)
    with mpmath.workdps(40):
        ndtr_err = max(abs(mpmath.mpf(float(ndtr(x))) - mpmath.ncdf(x)) for x in xs)
        us = np.concatenate([rng.integers(1, 2**53, 200), rng.integers(1, 2**20, 50),
                             2**53 - rng.integers(1, 2**20, 50)]) * 2.0 ** -53
        ndtri_err = max(abs(mpmath.mpf(float(ndtri(v)))
                            - mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(v) - 1))
                        for v in us)
    assert 0.0 < ndtr_err <= oracle._U_PAD
    assert ndtri_err <= oracle._GUARD / 100
    assert -ndtri(2.0 ** -53) == ndtri(1.0 - 2.0 ** -53) < oracle._Z_REACH


# ---------------------------------------------------------------------------
# the grid search oracle


def test_grid_locates_interior_optimum():
    d_best, risk_best = grid_search_transmitter(demo_spec(), 20_001)
    assert abs(d_best - 0.47041885791917976) <= 20.0 / 20_000
    assert d_best == 0.47000000000000003
    assert risk_best == 0.537881784926837
    assert risk_best >= 0.5378817736566109


def test_grid_identical_agents_pick_last_point():
    agent = AgentParams.from_prior0(0.25, ((0.0, 0.4), (0.9, 0.0)))
    spec = GameSpec(agent, agent, NoiseModel.scalar(0.2), PeakPower(1.0, 1.0))
    d_best, risk_best = grid_search_transmitter(spec, 2001)
    assert d_best == 10.0
    # independent evaluation routes, so only ulp-level agreement is owed
    assert math.isclose(risk_best, solve(spec, Concept.TEAM).risk_t, rel_tol=1e-12)


def test_grid_babbling_preference_picks_zero():
    spec = spec_with_weights(-0.3, 0.1, 0.5, 4.0)
    d_best, _ = grid_search_transmitter(spec, 2001)
    assert d_best == 0.0


def test_grid_never_beats_the_solver():
    rng = np.random.default_rng(31)
    for _ in range(100):
        spec = random_scalar_spec(rng)
        rep = solve(spec, Concept.STACKELBERG)
        _, risk_best = grid_search_transmitter(spec, 2001)
        assert risk_best >= rep.risk_t - 1e-9
