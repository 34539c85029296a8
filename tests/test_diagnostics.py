import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from sgdol import (
    FtrlState,
    GradientPair,
    RngStream,
    RosenbrockOracle,
    SigmoidLossOracle,
    dot,
    finite_diff_grad,
    ftrl_argmin_oracle,
    rosenbrock_f,
    run_verification,
    smoothness_probe,
    sq_norm,
    surrogate_bound_check,
)
from sgdol.diagnostics import _MC_CHUNK


def test_argmin_oracle_empty_history():
    assert ftrl_argmin_oracle(1.0, 2.0, []) == pytest.approx(0.5, abs=1e-9)


def test_argmin_oracle_negative_history_hits_lower_boundary():
    pair = GradientPair(np.array([1.0]), np.array([-10.0]))
    assert ftrl_argmin_oracle(1.0, 1.0, [pair] * 3) == pytest.approx(0.0, abs=1e-9)


def test_argmin_oracle_matches_closed_form():
    gen = RngStream(80).generator()
    for _ in range(40):
        alpha = float(gen.choice(np.array([0.1, 1.0, 10.0])))
        M = float(gen.choice(np.array([0.5, 1.0, 2.0])))
        state = FtrlState(alpha=alpha, M=M)
        history = []
        for _ in range(int(gen.integers(0, 30))):
            g = gen.uniform(-1, 1, 3)
            gp = gen.uniform(-1, 1, 3)
            history.append(GradientPair(g, gp))
            state.observe_stats(dot(g, gp), sq_norm(g))
        assert abs(state.stepsize() - ftrl_argmin_oracle(alpha, M, history)) < 1e-8


def test_argmin_oracle_output_beats_reference_points():
    gen = RngStream(81).generator()
    for curvature_scale in [1.0, 2.0] * 20:
        alpha = float(gen.choice(np.array([0.1, 1.0, 10.0])))
        M = float(gen.choice(np.array([0.5, 1.0, 2.0])))
        history = [GradientPair(gen.uniform(-1, 1, 2), gen.uniform(-1, 1, 2))
                   for _ in range(int(gen.integers(1, 30)))]

        def objective(eta):
            # One term per past loss, independent of the oracle's summed form.
            terms = [0.5 * M * alpha * (eta - 1.0 / M) ** 2]
            for p in history:
                terms.append(0.5 * curvature_scale * M * eta * eta * float(np.sum(p.g * p.g))
                             - eta * float(np.sum(p.g * p.g_prime)))
            return math.fsum(terms)

        best = objective(ftrl_argmin_oracle(alpha, M, history, curvature_scale=curvature_scale))
        for ref in np.linspace(0.0, 2.0 / M, 65).tolist():
            assert best <= objective(ref) + 1e-12 * abs(objective(ref))


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_argmin_oracle_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # With tol=0.0 the search would never end: the interval stalls at one ulp.
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        ftrl_argmin_oracle(1.0, 1.0, [], tol=tol)


@pytest.mark.parametrize("curvature_scale", [0.0, -1.0, math.nan, math.inf])
def test_argmin_oracle_rejects_a_bad_curvature_scale(curvature_scale):
    with pytest.raises(ValueError, match="curvature_scale: must be"):
        ftrl_argmin_oracle(1.0, 1.0, [], curvature_scale=curvature_scale)


def test_argmin_oracle_rejects_pairs_of_different_dimensions():
    history = [GradientPair(np.ones(2), np.ones(2)), GradientPair(np.ones(3), np.ones(3))]
    with pytest.raises(ValueError, match="history pairs must share one shape"):
        ftrl_argmin_oracle(1.0, 1.0, history)


def test_argmin_oracle_ends_where_one_ulp_exceeds_tol():
    # Near 1/M = 1e6 one ulp is wider than the default tol, so a search
    # down to tol alone would never end. From M = 1e-160 on, the parabola
    # step's squared offsets would overflow unless scaled.
    for M in (1e-6, 1e-160, 1e-300):
        assert ftrl_argmin_oracle(1.0, M, []) == pytest.approx(1.0 / M, rel=1e-12), M
    g = np.array([1.0, 2.0])
    history = [GradientPair(g, 0.5 * g)] * 3
    ftrl = FtrlState(alpha=1.0, M=1e-160)
    for pair in history:
        ftrl.observe_stats(float(pair.g @ pair.g_prime), float(pair.g @ pair.g))
    assert ftrl_argmin_oracle(1.0, 1e-160, history) == pytest.approx(ftrl.stepsize(), rel=1e-12)


def test_finite_diff_exact_for_affine():
    c = np.array([2.0, -3.0, 0.5])
    fd = finite_diff_grad(lambda x: float(c @ x) + 1.0, np.zeros(3), 1e-6)
    assert np.allclose(fd, c, atol=1e-9)


def test_finite_diff_rosenbrock_origin():
    fd = finite_diff_grad(rosenbrock_f, np.zeros(2), 1e-6)
    assert np.max(np.abs(fd - np.array([-2.0, 0.0]))) < 1e-5


def test_finite_diff_quadratic_near_exact():
    fd = finite_diff_grad(lambda x: 0.5 * float(np.sum(x * x)), np.array([2.0]), 1e-4)
    assert abs(fd[0] - 2.0) < 1e-9


def test_finite_diff_rejects_bad_h():
    for h in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            finite_diff_grad(rosenbrock_f, np.zeros(2), h)


def test_surrogate_bound_zero_noise_deterministic_pass():
    oracle = RosenbrockOracle(sigma=0.0)
    v = surrogate_bound_check(oracle, np.array([0.2, 0.1]), 1.0 / 1002.0, 200, RngStream(82))
    assert v.passed
    # identical samples; SE is zero up to variance-of-constant rounding
    assert v.std_err == pytest.approx(0.0, abs=1e-12)
    assert v.mean_decrease <= v.mean_surrogate


def test_surrogate_bound_zero_stepsize():
    oracle = RosenbrockOracle(sigma=1.0)
    v = surrogate_bound_check(oracle, np.array([0.2, 0.1]), 0.0, 500, RngStream(83))
    assert v.passed
    assert v.mean_decrease == 0.0
    assert v.mean_surrogate == 0.0


def test_surrogate_bound_requires_smoothness():
    oracle = RosenbrockOracle(sigma=1.0)
    oracle.smoothness = None
    with pytest.raises(ValueError, match="smoothness"):
        surrogate_bound_check(oracle, np.zeros(2), 0.1, 10, RngStream(84))


def _one_shot_verdict(oracle, x, eta, N, rng):
    """The check's statistics from all N pairs drawn and evaluated at once."""
    pairs = oracle.pairs(x, oracle.draw(rng.generator(), N))
    g, gp = pairs[:, 0], pairs[:, 1]
    M = oracle.smoothness
    decreases = oracle.f_lanes(x - eta * g) - oracle.f(x)
    surrogates = 0.5 * M * eta * eta * np.sum(g * g, axis=1) - eta * np.sum(g * gp, axis=1)
    se = math.sqrt((np.var(decreases, ddof=1) + np.var(surrogates, ddof=1)) / N)
    return float(np.mean(decreases)), float(np.mean(surrogates)), se


@pytest.mark.parametrize("case", ["rosenbrock-sigma5", "sigmoid-b1", "sigmoid-b50",
                                  "sigmoid-b500"])  # b500: the full batch
def test_chunked_surrogate_bound_equals_one_draw(case, synthetic500):
    if case == "rosenbrock-sigma5":
        oracle, x = RosenbrockOracle(sigma=5.0), np.array([0.3, -0.2])
    else:
        oracle = SigmoidLossOracle(synthetic500, batch_size=int(case[len("sigmoid-b"):]))
        x = RngStream(87).generator().uniform(-0.5, 0.5, synthetic500.n_features)
    N = 2 * _MC_CHUNK + 17  # two whole chunks and a short one
    eta = 1.0 / oracle.smoothness
    v = surrogate_bound_check(oracle, x, eta, N, RngStream(88))
    assert (v.mean_decrease, v.mean_surrogate, v.std_err) == \
        _one_shot_verdict(oracle, x, eta, N, RngStream(88))
    assert v.n == N and v.passed


@pytest.mark.parametrize("batch", [1, 50, 500])  # 500: the full batch
def test_surrogate_bound_memory_does_not_grow_with_N(batch, synthetic500):
    # Every pair's two 50-row minibatches held at once took 141 MB here, and
    # a chunk's 1024 points evaluated at once 13-23 MB; in blocks, 1-3.2 MB.
    oracle = SigmoidLossOracle(synthetic500, batch_size=batch)
    x = np.zeros(synthetic500.n_features)
    tracemalloc.start()
    try:
        surrogate_bound_check(oracle, x, 1.0 / oracle.smoothness, 20000, RngStream(89))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("N", [0, -5])
def test_surrogate_bound_requires_a_sample(N):
    with pytest.raises(ValueError, match="N must be >= 1"):
        surrogate_bound_check(RosenbrockOracle(sigma=1.0), np.zeros(2), 1e-3, N, RngStream(84))


@pytest.mark.parametrize("N", [10.0, 2.5, True, "10"])
def test_surrogate_bound_requires_an_integer_sample_count(N):
    with pytest.raises(ValueError, match="N must be an integer"):
        surrogate_bound_check(RosenbrockOracle(sigma=1.0), np.zeros(2), 1e-3, N, RngStream(84))


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
def test_surrogate_bound_requires_a_finite_stepsize(eta):
    with pytest.raises(ValueError, match="eta must be finite"):
        surrogate_bound_check(RosenbrockOracle(sigma=1.0), np.zeros(2), eta, 10, RngStream(84))


def test_surrogate_bound_takes_a_numpy_integer_count():
    v = surrogate_bound_check(RosenbrockOracle(sigma=1.0), np.zeros(2), 1e-3, np.int64(10),
                              RngStream(84))
    assert v.n == 10


@pytest.mark.parametrize("pairs, message", [(2.5, "an integer"), (True, "an integer"),
                                            (0, ">= 1")])
def test_smoothness_probe_requires_a_positive_integer_pair_count(pairs, message):
    with pytest.raises(ValueError, match=f"pairs must be {message}"):
        smoothness_probe(lambda x: x, lambda gen: gen.uniform(size=2), pairs, RngStream(85))


def test_smoothness_probe_linear_field_exact():
    probe = smoothness_probe(lambda x: 2.0 * x,
                             lambda gen: gen.uniform(-1, 1, 3),
                             pairs=25, rng=RngStream(85))
    assert probe == pytest.approx(2.0, abs=1e-12)


def test_smoothness_probe_rosenbrock_near_optimum():
    # Hessian at (1, 1) has top eigenvalue about 1001.6; sampling close to the
    # optimum drives the probe toward it without exceeding it by much.
    oracle = RosenbrockOracle()
    probe = smoothness_probe(
        oracle.grad,
        lambda gen: np.array([1.0, 1.0]) + 1e-4 * gen.standard_normal(2),
        pairs=400, rng=RngStream(86))
    assert 900.0 <= probe <= 1002.01


def test_smoothness_probe_sigmoid_composite_bound(synthetic500):
    from sgdol import SigmoidLossOracle

    oracle = SigmoidLossOracle(synthetic500, batch_size=1)
    cap = 2.0 * float(np.max(np.sum(synthetic500.features ** 2, axis=1)))
    probe = smoothness_probe(
        oracle.grad,
        lambda gen: gen.uniform(-0.5, 0.5, synthetic500.n_features),
        pairs=60, rng=RngStream(87))
    assert probe <= cap


def test_run_verification_passes_and_is_deterministic():
    first = run_verification(seed=5150, mc_samples=8000)
    second = run_verification(seed=5150, mc_samples=8000)
    assert all(r.passed for r in first), [r for r in first if not r.passed]
    assert [(r.name, r.detail) for r in first] == [(r.name, r.detail) for r in second]


def test_run_verification_results_are_json_serializable():
    results = run_verification(seed=5150, mc_samples=200)
    assert [type(r.passed) for r in results] == [bool] * len(results)
    rows = json.loads(json.dumps([dataclasses.asdict(r) for r in results]))
    assert [row["passed"] for row in rows] == [r.passed for r in results]


def _ftrl_trial(alpha, M, history, observed, state, eta, argmin):
    """One FTRL-check trial, every float by its hex and every pair by its bytes."""
    return (alpha.hex(), M.hex(),
            [(p.g.dtype.str, p.g.shape, p.g.tobytes(), p.g_prime.shape, p.g_prime.tobytes())
             for p in history],
            [(type(a).__name__, a.hex(), type(b).__name__, b.hex()) for a, b in observed],
            type(state.sum_inner).__name__, float(state.sum_inner).hex(),
            type(state.sum_sq).__name__, float(state.sum_sq).hex(),
            float(eta).hex(), float(argmin).hex())


def _per_pair_ftrl_check(seed):
    """The FTRL check as a loop of two size-d draws per pair, its trials logged."""
    gen = RngStream(seed, 1).generator()
    trials = []
    for _ in range(60):
        T = int(gen.integers(0, 31))
        d = int(gen.integers(1, 6))
        alpha = float(gen.choice(np.array([0.1, 1.0, 10.0])))
        M = float(gen.choice(np.array([0.5, 1.0, 2.0])))
        history, observed = [], []
        state = FtrlState(alpha=alpha, M=M)
        for _ in range(T):
            g = gen.uniform(-1.0, 1.0, size=d)
            gp = gen.uniform(-1.0, 1.0, size=d)
            history.append(GradientPair(g, gp))
            observed.append((float(np.sum(g * gp)), float(np.sum(g * g))))
            state.observe_stats(*observed[-1])
        eta = state.stepsize()
        trials.append(_ftrl_trial(alpha, M, history, observed, state, eta,
                                  ftrl_argmin_oracle(alpha, M, history)))
    return trials


@pytest.mark.parametrize("seed", [20190901, 7] + list(range(20)))
def test_ftrl_check_feeds_the_learner_and_argmin_what_a_per_pair_loop_does(seed, monkeypatch):
    from sgdol import diagnostics

    learners, argmins = [], []

    class SpyFtrl(FtrlState):
        def __post_init__(self):
            super().__post_init__()
            self.observed, self.played = [], []
            learners.append(self)

        def observe_stats(self, inner, g_sq):
            self.observed.append((inner, g_sq))
            super().observe_stats(inner, g_sq)

        def stepsize(self):
            self.played.append(super().stepsize())
            return self.played[-1]

    def spy_argmin(alpha, M, history, *args, **kwargs):
        argmins.append((list(history), ftrl_argmin_oracle(alpha, M, history, *args, **kwargs)))
        return argmins[-1][1]

    monkeypatch.setattr(diagnostics, "FtrlState", SpyFtrl)
    monkeypatch.setattr(diagnostics, "ftrl_argmin_oracle", spy_argmin)
    result = diagnostics._check_ftrl_closed_form(seed)
    assert len(learners) == len(argmins) == 60
    assert all(len(s.played) == 1 for s in learners)
    got = [_ftrl_trial(s.alpha, s.M, history, s.observed, s, s.played[0], argmin)
           for s, (history, argmin) in zip(learners, argmins)]
    want = _per_pair_ftrl_check(seed)
    for trial, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"seed {seed}, trial {trial}"
    worst = max(abs(float.fromhex(w[-2]) - float.fromhex(w[-1])) for w in want)
    assert result.passed is (worst < 1e-8)
    assert result.detail == f"max deviation {worst:.3e}"
