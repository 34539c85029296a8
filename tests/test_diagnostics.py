import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from sgdol import (
    Dataset,
    FtrlState,
    RngStream,
    RosenbrockOracle,
    SigmoidLossOracle,
    dot,
    finite_diff_grad,
    ftrl_argmin_oracle,
    rosenbrock_f,
    rosenbrock_grad,
    run_verification,
    smoothness_probe,
    sigmoid_loss_f,
    sigmoid_loss_grad,
    sq_norm,
    surrogate_bound_check,
)
from sgdol.diagnostics import _MC_CHUNK


def test_argmin_oracle_empty_history():
    assert ftrl_argmin_oracle(1.0, 2.0, []) == pytest.approx(0.5, abs=1e-9)


def test_argmin_oracle_empty_pairs_array():
    assert ftrl_argmin_oracle(1.0, 2.0, np.empty((0, 2, 3))) == pytest.approx(0.5, abs=1e-9)


def test_argmin_oracle_negative_history_hits_lower_boundary():
    history = np.array([[[1.0], [-10.0]]] * 3)  # (T, 2, d): g = 1, g' = -10
    assert ftrl_argmin_oracle(1.0, 1.0, history) == pytest.approx(0.0, abs=1e-9)


def test_argmin_oracle_matches_closed_form():
    gen = RngStream(80).generator()
    for _ in range(40):
        alpha = float(gen.choice(np.array([0.1, 1.0, 10.0])))
        M = float(gen.choice(np.array([0.5, 1.0, 2.0])))
        state = FtrlState(alpha=alpha, M=M)
        T = int(gen.integers(0, 30))
        history = gen.uniform(-1, 1, size=(T, 2, 3))
        for g, gp in history:
            state.observe_stats(dot(g, gp), sq_norm(g))
        assert abs(state.stepsize() - ftrl_argmin_oracle(alpha, M, history)) < 1e-8


def test_argmin_oracle_output_beats_reference_points():
    gen = RngStream(81).generator()
    for curvature_scale in [1.0, 2.0] * 20:
        alpha = float(gen.choice(np.array([0.1, 1.0, 10.0])))
        M = float(gen.choice(np.array([0.5, 1.0, 2.0])))
        history = gen.uniform(-1, 1, size=(int(gen.integers(1, 30)), 2, 2))

        def objective(eta):
            # One term per past loss, independent of the oracle's summed form.
            terms = [0.5 * M * alpha * (eta - 1.0 / M) ** 2]
            for g, gp in history:
                terms.append(0.5 * curvature_scale * M * eta * eta * float(np.sum(g * g))
                             - eta * float(np.sum(g * gp)))
            return math.fsum(terms)

        best = objective(ftrl_argmin_oracle(alpha, M, history, curvature_scale=curvature_scale))
        for ref in np.linspace(0.0, 2.0 / M, 65).tolist():
            assert best <= objective(ref) + 1e-12 * abs(objective(ref))


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_argmin_oracle_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # With tol=0.0 the search would never end: the interval stalls at one ulp.
    with pytest.raises(ValueError, match="tol: must be"):
        ftrl_argmin_oracle(1.0, 1.0, [], tol=tol)


@pytest.mark.parametrize("curvature_scale", [0.0, -1.0, math.nan, math.inf])
def test_argmin_oracle_rejects_a_bad_curvature_scale(curvature_scale):
    with pytest.raises(ValueError, match="curvature_scale: must be"):
        ftrl_argmin_oracle(1.0, 1.0, [], curvature_scale=curvature_scale)


@pytest.mark.parametrize("shape", [(3, 3, 2), (3, 2), (2,), (), (3, 2, 2, 1)])
def test_argmin_oracle_rejects_a_history_not_shaped_like_pairs(shape):
    with pytest.raises(ValueError, match=r"history must have shape \(T, 2, d\)"):
        ftrl_argmin_oracle(1.0, 1.0, np.ones(shape))


def test_argmin_oracle_rejects_pairs_of_different_dimensions():
    with pytest.raises(ValueError):
        ftrl_argmin_oracle(1.0, 1.0, [(np.ones(2), np.ones(2)), (np.ones(3), np.ones(3))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [0, 1], ids=["g", "g_prime"])
def test_argmin_oracle_rejects_every_non_finite_entry(entry, bad):
    history = np.ones((4, 2, 3))
    history[2, entry, 1] = bad
    with pytest.raises(ValueError, match="gradient pair entries must be finite"):
        ftrl_argmin_oracle(1.0, 1.0, history)


def test_argmin_oracle_accepts_signed_zeros_and_subnormals():
    history = np.array([[[1e150, -0.0, 5e-324], [-1e150, 0.0, -5e-324]]])
    assert ftrl_argmin_oracle(1.0, 1.0, history) == pytest.approx(0.0, abs=1e-9)


def test_argmin_oracle_ends_where_one_ulp_exceeds_tol():
    # Near 1/M = 1e6 one ulp is wider than the default tol, so a search
    # down to tol alone would never end. From M = 1e-160 on, the parabola
    # step's squared offsets would overflow unless scaled.
    for M in (1e-6, 1e-160, 1e-300):
        assert ftrl_argmin_oracle(1.0, M, []) == pytest.approx(1.0 / M, rel=1e-12), M
    g = np.array([1.0, 2.0])
    history = np.array([[g, 0.5 * g]] * 3)
    ftrl = FtrlState(alpha=1.0, M=1e-160)
    for g, gp in history:
        ftrl.observe_stats(float(g @ gp), float(g @ g))
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
        with pytest.raises(ValueError, match="h: must be"):
            finite_diff_grad(rosenbrock_f, np.zeros(2), h)


def test_finite_diff_takes_a_list():
    # A list raised AttributeError: 'list' object has no attribute 'shape'.
    fd = finite_diff_grad(rosenbrock_f, [0.0, 1.0], 1e-6)
    assert fd.tobytes() == finite_diff_grad(rosenbrock_f, np.array([0.0, 1.0]), 1e-6).tobytes()


@pytest.mark.parametrize("x, problem", [
    ([], r"x must have shape \(\.\.\., d\) with d >= 1, got \(0,\)"),
    (np.empty((3, 0)), r"x must have shape \(\.\.\., d\) with d >= 1, got \(3, 0\)"),
    (0.5, r"x must have shape \(\.\.\., d\) with d >= 1, got \(\)"),
    ([0.0, np.nan], "x entries must be finite"),
    ([[0.0, 1.0], [np.inf, 0.0]], "x entries must be finite"),
], ids=["empty", "empty-last-axis", "scalar", "nan", "inf-in-a-stack"])
def test_finite_diff_rejects_an_empty_or_non_finite_point(x, problem):
    def f(v):
        pytest.fail("f was called")
    with pytest.raises(ValueError, match=problem):
        finite_diff_grad(f, x, 1e-6)


def _small_sigmoid_f():
    gen = RngStream(3).generator()
    data = Dataset(gen.uniform(-1.0, 1.0, size=(5, 4)),
                   np.where(gen.uniform(size=5) < 0.5, -1.0, 1.0))
    return lambda v: sigmoid_loss_f(v, data)


@pytest.mark.parametrize("objective, shape", [
    ("rosenbrock", (100, 2)), ("sigmoid", (20, 4)), ("rosenbrock", (3, 4, 2)),
])
def test_stacked_finite_diff_equals_one_call_per_point(objective, shape):
    f = rosenbrock_f if objective == "rosenbrock" else _small_sigmoid_f()
    calls = []

    def counted(v):
        calls.append(v.shape)
        return f(v)
    x = RngStream(90).generator().uniform(-1.5, 1.5, size=shape)
    stacked = finite_diff_grad(counted, x, 1e-6)
    assert calls == [shape] * (2 * shape[-1])  # 2 d calls, each on the whole stack
    points = x.reshape(-1, shape[-1])
    per_point = np.array([finite_diff_grad(f, p, 1e-6) for p in points]).reshape(shape)
    assert stacked.shape == shape and stacked.tobytes() == per_point.tobytes()


@pytest.mark.parametrize("seed", [20190901, 4242, 1])
def test_gradient_check_stacks_the_points_a_per_point_loop_draws(seed, monkeypatch):
    # The loop the check replaced: one draw and one finite_diff_grad call a point.
    from sgdol import diagnostics
    calls = []

    def spy(f, x, h):
        calls.append((x, finite_diff_grad(f, x, h)))
        return calls[-1][1]
    monkeypatch.setattr(diagnostics, "finite_diff_grad", spy)
    result = diagnostics._check_gradients(seed)
    gen = RngStream(seed, 2).generator()
    want = []
    for _ in range(100):
        x = gen.uniform(-2.0, 2.0, size=2)
        want.append((x, finite_diff_grad(rosenbrock_f, x, 1e-6), rosenbrock_grad(x)))
    feats = gen.uniform(-1.0, 1.0, size=(5, 4))
    labels = np.where(gen.uniform(size=5) < 0.5, -1.0, 1.0)
    data = Dataset(feats, labels)
    for _ in range(20):
        x = gen.uniform(-1.0, 1.0, size=4)
        want.append((x, finite_diff_grad(lambda v: sigmoid_loss_f(v, data), x, 1e-6),
                     sigmoid_loss_grad(x, feats, labels)))
    assert [x.shape for x, _ in calls] == [(100, 2), (20, 4)]
    for (x, fd), part in zip(calls, (want[:100], want[100:])):
        assert x.tobytes() == np.array([w[0] for w in part]).tobytes()
        assert fd.tobytes() == np.array([w[1] for w in part]).tobytes()
    worst = max(float(np.max(np.abs(fd - an))) for _, fd, an in want)
    assert result.passed is (worst < 1e-5)
    assert result.detail == f"max abs deviation {worst:.3e}"


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


def _verify_data(rows):
    """A dataset drawn as ``run_verification``'s sigmoid case draws its 50x8 one."""
    gen = RngStream(20190901, 5).generator()
    feats = gen.uniform(-1.0, 1.0, size=(rows, 8))
    return Dataset(feats, np.where(gen.uniform(size=rows) < 0.5, -1.0, 1.0))


def _check_case(case, synthetic500):
    """(oracle, x) of a named surrogate-bound case."""
    if case == "rosenbrock-sigma5":
        return RosenbrockOracle(sigma=5.0), np.array([0.3, -0.2])
    if case.startswith("verify"):  # 50x8, 2x8, or 1x8, whose one row is the full batch
        data = _verify_data(int(case.split("-")[1].split("x")[0]))
        return SigmoidLossOracle(data, batch_size=1), np.zeros(8)
    oracle = SigmoidLossOracle(synthetic500, batch_size=int(case[len("sigmoid-b"):]))
    return oracle, RngStream(87).generator().uniform(-0.5, 0.5, synthetic500.n_features)


@pytest.mark.parametrize("case", ["rosenbrock-sigma5", "sigmoid-b1", "sigmoid-b50",
                                  "sigmoid-b500",  # b500: the full batch
                                  "verify-50x8-b1", "verify-2x8-b1",
                                  "verify-1x8-b1"])  # 1x8-b1: one row is the full batch
def test_chunked_surrogate_bound_equals_one_draw(case, synthetic500):
    oracle, x = _check_case(case, synthetic500)
    N = 2 * _MC_CHUNK + 17  # two whole chunks and a short one
    eta = 1.0 / oracle.smoothness
    v = surrogate_bound_check(oracle, x, eta, N, RngStream(88))
    assert (v.mean_decrease, v.mean_surrogate, v.std_err) == \
        _one_shot_verdict(oracle, x, eta, N, RngStream(88))
    assert v.n == N and v.passed


def _spy_evaluations(monkeypatch, cls):
    """Per chunk of a check on an oracle of class ``cls``: its draw, the rows
    or pairs ``pairs`` takes (a (2, 1) entry is two rows) and the points
    ``f_lanes`` takes. ``rows`` holds the distinct rows of each ``pairs``
    call on one-row halves."""
    chunks = []
    draw, pairs, f_lanes = cls.draw, cls.pairs, cls.f_lanes

    def spied_draw(self, gen, n):
        drawn = draw(self, gen, n)
        chunks.append({"drawn": drawn, "n": n, "pairs": 0, "rows": [], "f": 0})
        return drawn

    def spied_pairs(self, X, noise):
        if chunks:  # not the x0 checks before the first draw
            by_row = noise.shape[1:] == (2, 1)
            chunks[-1]["pairs"] += noise.shape[0] * (2 if by_row else 1)
            if by_row:
                chunks[-1]["rows"].append(set(noise.ravel().tolist()))
        return pairs(self, X, noise)

    def spied_f_lanes(self, X):
        if chunks:
            chunks[-1]["f"] += X.size // X.shape[-1]
        return f_lanes(self, X)

    monkeypatch.setattr(cls, "draw", spied_draw)
    monkeypatch.setattr(cls, "pairs", spied_pairs)
    monkeypatch.setattr(cls, "f_lanes", spied_f_lanes)
    return chunks


@pytest.mark.parametrize("case", ["verify-50x8-b1", "verify-2x8-b1", "rosenbrock-sigma5",
                                  "sigmoid-b50"])
def test_surrogate_bound_evaluates_each_distinct_row_once(case, synthetic500, monkeypatch):
    # Where a draw is one row a half, each chunk evaluates only the rows
    # first drawn in it, so the check evaluates each distinct row once;
    # elsewhere each chunk evaluates its pairs.
    oracle, x = _check_case(case, synthetic500)
    chunks = _spy_evaluations(monkeypatch, type(oracle))
    N = 2 * _MC_CHUNK + 17
    surrogate_bound_check(oracle, x, 1.0 / oracle.smoothness, N, RngStream(88))
    assert [c["n"] for c in chunks] == [_MC_CHUNK, _MC_CHUNK, 17]
    if not case.startswith("verify"):
        assert all((c["pairs"], c["f"], c["rows"]) == (c["n"], c["n"], []) for c in chunks)
        return
    seen = set()
    for chunk in chunks:
        new = set(chunk["drawn"].ravel().tolist()) - seen
        seen |= new
        # One pairs call on the new rows, none without any; an odd count
        # takes one row more, as pairs take rows two at a time.
        assert chunk["rows"] == ([new] if new else [])
        assert chunk["f"] == len(new)
        assert chunk["pairs"] == len(new) + len(new) % 2
    # 2048 draws take every row at once, so no later chunk evaluates one.
    assert chunks[0]["f"] == len(seen) == len(oracle.data)
    assert sum(c["f"] for c in chunks) == len(seen)


def test_surrogate_bound_row_table_evaluates_late_and_repeated_rows_once(monkeypatch):
    # Row 49 is first drawn in the short last chunk and row 0 in every
    # chunk: each is evaluated once, and the verdict is the one-draw one.
    oracle = SigmoidLossOracle(_verify_data(50), batch_size=1)

    def draw(gen, n):
        drawn = gen.integers(0, 48, size=(n, 2, 1))
        drawn[0, 0, 0] = 0
        if n < _MC_CHUNK:
            drawn[-1, 1, 0] = 49
        return drawn
    monkeypatch.setattr(SigmoidLossOracle, "draw", lambda self, gen, n: draw(gen, n))
    chunks = _spy_evaluations(monkeypatch, SigmoidLossOracle)
    N = 2 * _MC_CHUNK + 17
    x, eta = np.zeros(8), 1.0 / oracle.smoothness
    v = surrogate_bound_check(oracle, x, eta, N, RngStream(91))
    assert all(0 in c["drawn"] for c in chunks) and 49 in chunks[2]["drawn"]
    assert [c["rows"] for c in chunks] == [[set(range(48))], [], [{49}]]
    assert [c["f"] for c in chunks] == [48, 0, 1]
    monkeypatch.undo()
    gen = RngStream(91).generator()
    whole = np.concatenate([draw(gen, n) for n in (_MC_CHUNK, _MC_CHUNK, 17)])
    oracle.draw = lambda gen, n: whole
    assert (v.mean_decrease, v.mean_surrogate, v.std_err) == \
        _one_shot_verdict(oracle, x, eta, N, RngStream(91))


class _EntryBatchOracle(SigmoidLossOracle):
    """Both halves of a pair are the gradient over the entry's two rows, so
    at batch size 1 a row's gradient depends on the row drawn with it."""

    def pairs(self, X, noise):
        g = super().pairs(X, noise).mean(axis=-2, keepdims=True)
        return np.broadcast_to(g, g.shape[:-2] + (2, self.dim)).copy()


def test_surrogate_bound_takes_the_whole_chunk_path_on_a_subclass(monkeypatch):
    # isinstance sent such a subclass down the per-row path, which paired
    # each row with whatever row it was packed with.
    oracle = _EntryBatchOracle(_verify_data(50), batch_size=1)
    x, eta, N = np.full(8, 0.1), 1.0 / oracle.smoothness, 2 * _MC_CHUNK + 17
    chunks = _spy_evaluations(monkeypatch, _EntryBatchOracle)
    v = surrogate_bound_check(oracle, x, eta, N, RngStream(92))
    assert [(c["pairs"], c["f"]) for c in chunks] == [(2 * c["n"], c["n"]) for c in chunks]
    monkeypatch.undo()
    want = _one_shot_verdict(oracle, x, eta, N, RngStream(92))
    assert (v.mean_decrease, v.mean_surrogate, v.std_err) == want
    assert v.passed is (want[0] <= want[1] + 3.0 * want[2])


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
    with pytest.raises(ValueError, match="N: must be an integer >= 1"):
        surrogate_bound_check(RosenbrockOracle(sigma=1.0), np.zeros(2), 1e-3, N, RngStream(84))


@pytest.mark.parametrize("N", [10.0, 2.5, True, "10"])
def test_surrogate_bound_requires_an_integer_sample_count(N):
    with pytest.raises(ValueError, match="N: must be an integer >= 1"):
        surrogate_bound_check(RosenbrockOracle(sigma=1.0), np.zeros(2), 1e-3, N, RngStream(84))


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
def test_surrogate_bound_requires_a_finite_stepsize(eta):
    with pytest.raises(ValueError, match="eta: must be finite"):
        surrogate_bound_check(RosenbrockOracle(sigma=1.0), np.zeros(2), eta, 10, RngStream(84))


@pytest.mark.parametrize("x, problem", [
    ([np.nan, 0.0], "vector entries must be finite"),
    ([0.0, np.inf], "vector entries must be finite"),
    ([[0.3, -0.2]], "vector must be 1-D"),
    ([0.3, -0.2], None),
], ids=["nan", "inf", "2-d", "list"])
def test_surrogate_bound_takes_its_point_as_a_vector(x, problem):
    # A list raised AttributeError, and a NaN or inf point gave a NaN verdict.
    oracle = RosenbrockOracle(sigma=1.0)
    if problem is not None:
        with pytest.raises(ValueError, match=problem):
            surrogate_bound_check(oracle, x, 1e-3, 10, RngStream(84))
    else:
        assert surrogate_bound_check(oracle, x, 1e-3, 10, RngStream(84)) == \
            surrogate_bound_check(oracle, np.array(x), 1e-3, 10, RngStream(84))


def test_surrogate_bound_takes_a_numpy_integer_count():
    v = surrogate_bound_check(RosenbrockOracle(sigma=1.0), np.zeros(2), 1e-3, np.int64(10),
                              RngStream(84))
    assert v.n == 10


@pytest.mark.parametrize("pairs", [2.5, True, 0])
def test_smoothness_probe_requires_a_positive_integer_pair_count(pairs):
    with pytest.raises(ValueError, match="pairs: must be an integer >= 1"):
        smoothness_probe(lambda x: x, lambda gen: gen.uniform(size=2), pairs, RngStream(85))


def test_smoothness_probe_linear_field_exact():
    probe = smoothness_probe(lambda x: 2.0 * x,
                             lambda gen: gen.uniform(-1, 1, 3),
                             pairs=25, rng=RngStream(85))
    assert probe == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("grad, sample_point", [
    (lambda x: np.full(3, np.nan), lambda gen: gen.uniform(-1, 1, 3)),
    (lambda x: np.where(x[0] > 0.5, np.nan, 2.0 * x), lambda gen: gen.uniform(-1, 1, 3)),
    (lambda x: 2.0 * x, lambda gen: np.where(gen.uniform() < 0.2, np.nan, gen.uniform(-1, 1, 3))),
], ids=["nan-gradient", "nan-gradient-at-some-points", "nan-points"])
def test_smoothness_probe_reports_a_nan_ratio(grad, sample_point):
    # max(0.0, nan) is 0.0: a NaN gradient everywhere read as a bound of 0.0.
    assert math.isnan(smoothness_probe(grad, sample_point, pairs=25, rng=RngStream(85)))


def test_smoothness_probe_on_verify_linear_field_still_reads_two():
    probe = smoothness_probe(lambda x: 2.0 * x, lambda gen: gen.uniform(-1.0, 1.0, size=3),
                             pairs=50, rng=RngStream(20190901, 7))
    assert abs(probe - 2.0) < 1e-12


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


@pytest.mark.parametrize("kwargs, problem", [
    (dict(mc_samples=0), "mc_samples: must be an integer >= 1, got 0"),
    (dict(mc_samples=2.5), "mc_samples: must be an integer >= 1, got 2.5"),
    (dict(seed=-1), "seed: must be a 64-bit unsigned integer, got -1"),
], ids=["no-samples", "fractional-samples", "negative-seed"])
def test_run_verification_checks_its_arguments_before_any_check(monkeypatch, kwargs, problem):
    # mc_samples=0 ran three checks before the fourth raised.
    monkeypatch.setattr("sgdol.diagnostics._check_ftrl_closed_form",
                        lambda seed: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match=f"^{problem}$"):
        run_verification(**kwargs)


def test_run_verification_results_are_json_serializable():
    results = run_verification(seed=5150, mc_samples=200)
    assert [type(r.passed) for r in results] == [bool] * len(results)
    rows = json.loads(json.dumps([dataclasses.asdict(r) for r in results]))
    assert [row["passed"] for row in rows] == [r.passed for r in results]


def _ftrl_trial(alpha, M, history, observed, state, eta, argmin):
    """One FTRL-check trial, every float by its hex and every pair by its bytes."""
    return (alpha.hex(), M.hex(),
            [(g.dtype.str, g.shape, g.tobytes(), gp.shape, gp.tobytes()) for g, gp in history],
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
            history.append((g, gp))
            observed.append((float(np.sum(g * gp)), float(np.sum(g * g))))
            state.observe_stats(*observed[-1])
        eta = state.stepsize()
        trials.append(_ftrl_trial(alpha, M, history, observed, state, eta,
                                  ftrl_argmin_oracle(alpha, M, np.reshape(history, (T, 2, d)))))
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


def _state(gen):
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@pytest.mark.parametrize("seed", [20190901, 7, 1])
def test_ftrl_check_index_draw_takes_what_generator_choice_takes(seed):
    # The FTRL check picks alpha and M by an index draw; Generator.choice
    # makes the same draw, so the stream and the floats are the same.
    by_choice, by_index = RngStream(seed, 1).generator(), RngStream(seed, 1).generator()
    for options in [(0.1, 1.0, 10.0), (0.5, 1.0, 2.0)] * 500:
        want = float(by_choice.choice(np.array(options)))
        got = options[by_index.integers(0, 3)]
        assert type(got) is float and got.hex() == want.hex()
    assert _state(by_index) == _state(by_choice)
