import numpy as np
import pytest

from sgdol import (
    Dataset,
    LibsvmParseError,
    QuadraticOracle,
    RngStream,
    RosenbrockOracle,
    SigmoidLossOracle,
    balance_subsample,
    load_libsvm,
    rosenbrock_f,
    rosenbrock_grad,
    sigmoid_loss_f,
    sigmoid_loss_grad,
)
from sgdol.diagnostics import finite_diff_grad
from sgdol.oracles import sigmoid_phi_prime


def test_rosenbrock_values():
    assert rosenbrock_f(np.array([1.0, 1.0])) == 0.0
    assert rosenbrock_f(np.array([0.0, 0.0])) == 1.0
    assert rosenbrock_f(np.array([-1.0, 1.0])) == 4.0


def test_rosenbrock_grad_values():
    assert np.array_equal(rosenbrock_grad(np.array([1.0, 1.0])), np.zeros(2))
    assert np.array_equal(rosenbrock_grad(np.array([0.0, 0.0])), np.array([-2.0, 0.0]))


def test_rosenbrock_grad_matches_finite_differences():
    gen = RngStream(11).generator()
    for _ in range(100):
        x = gen.uniform(-2.0, 2.0, size=2)
        fd = finite_diff_grad(rosenbrock_f, x, 1e-6)
        assert np.max(np.abs(fd - rosenbrock_grad(x))) < 1e-5


def test_one_pair_zero_noise_exact():
    oracle = RosenbrockOracle(sigma=0.0)
    gen = RngStream(12).generator()
    x = np.array([0.4, -0.3])
    g, g_prime = oracle.pairs(x, oracle.draw(gen, 1))[0]
    exact = rosenbrock_grad(x)
    assert np.array_equal(g, exact)
    assert np.array_equal(g_prime, exact)


def test_rosenbrock_noisy_unbiased_at_origin():
    # Mean over 1e5 pair draws within 3*sigma/sqrt(N) per coordinate.
    oracle = RosenbrockOracle(sigma=0.2)
    gs = oracle.pairs(np.zeros(2), oracle.draw(RngStream(13).generator(), 100000))[:, 0]
    bound = 3.0 * 0.2 / np.sqrt(100000)
    assert np.all(np.abs(gs.mean(axis=0) - np.array([-2.0, 0.0])) < bound)


@pytest.mark.parametrize("make_oracle,x", [
    (lambda: RosenbrockOracle(sigma=5.0), np.array([0.3, -0.2])),
    (lambda: QuadraticOracle(np.array([0.5, 2.0, 1.0]), sigma=1.5), np.array([1.0, -1.0, 0.5])),
])
def test_h1_unbiasedness_and_independence(make_oracle, x):
    oracle = make_oracle()
    n = 100000
    gs, gps = np.moveaxis(oracle.pairs(x, oracle.draw(RngStream(14).generator(), n)), 1, 0)
    exact = oracle.grad(x)
    for block in (gs, gps):
        err = np.abs(block.mean(axis=0) - exact)
        tol = 4.0 * block.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(err <= tol)
    inner = np.sum(gs * gps, axis=1)
    tol = 4.0 * inner.std(ddof=1) / np.sqrt(n)
    assert abs(inner.mean() - np.sum(exact * exact)) <= tol


def test_quadratic_oracle_metadata():
    oracle = QuadraticOracle(np.array([0.1, 1.0]))
    assert oracle.smoothness == 1.0
    assert oracle.pl_constant == pytest.approx(0.1)
    assert oracle.f(np.array([2.0, 0.0])) == pytest.approx(0.2)
    assert np.array_equal(oracle.grad(np.array([2.0, 3.0])), np.array([0.2, 3.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("per_coord", [False, True], ids=["scalar", "per_coord"])
@pytest.mark.parametrize("make", [lambda sigma: RosenbrockOracle(sigma=sigma),
                                  lambda sigma: QuadraticOracle(np.ones(2), sigma=sigma)],
                         ids=["rosenbrock", "quadratic"])
def test_non_finite_noise_level_is_rejected(make, per_coord, bad):
    # Such a run would return NaN iterates without a word; refuse the oracle.
    with pytest.raises(ValueError, match="sigma: must be"):
        make(np.array([1.0, bad]) if per_coord else bad)


@pytest.mark.parametrize("M", [0.0, -1.0, np.nan, np.inf], ids=["zero", "neg", "nan", "inf"])
@pytest.mark.parametrize("make", [lambda M: RosenbrockOracle(smoothness=M),
                                  lambda M: SigmoidLossOracle(
                                      Dataset(np.eye(2), np.ones(2)), 1, smoothness=M)],
                         ids=["rosenbrock", "sigmoid"])
def test_bad_smoothness_is_rejected(make, M):
    # With M = 0 the surrogate bound check passed whatever the oracle did.
    with pytest.raises(ValueError, match="M: must be"):
        make(M)


def test_sigmoid_default_smoothness_needs_a_nonzero_feature():
    with pytest.raises(ValueError, match="M: must be > 0"):
        SigmoidLossOracle(Dataset(np.zeros((2, 2)), np.ones(2)), 1)


# ---------------------------------------------------------------------------
# sigmoid-type classification loss
# ---------------------------------------------------------------------------


def test_sigmoid_loss_bias_only_row():
    data = Dataset(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
    assert sigmoid_loss_f(np.zeros(3), data) == pytest.approx(0.5)


def test_sigmoid_loss_zero_at_perfect_fit():
    data = Dataset(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
    x = np.array([0.0, 0.0, 1.0])
    assert sigmoid_loss_f(x, data) == 0.0
    grad = sigmoid_loss_grad(x, data.features, data.labels)
    assert np.array_equal(grad, np.zeros(3))


def test_sigmoid_loss_range(synthetic500):
    gen = RngStream(15).generator()
    for _ in range(20):
        x = gen.uniform(-3, 3, size=synthetic500.n_features)
        v = sigmoid_loss_f(x, synthetic500)
        assert 0.0 <= v < 1.0


def test_sigmoid_phi_lipschitz_and_smoothness_constants():
    theta = np.linspace(-10.0, 10.0, 20001)
    assert np.max(np.abs(sigmoid_phi_prime(theta))) <= 1.0
    h = theta[1] - theta[0]
    second = np.diff(sigmoid_phi_prime(theta)) / h
    assert np.max(np.abs(second)) <= 2.0 + 1e-6


def test_sigmoid_grad_matches_finite_differences():
    gen = RngStream(16).generator()
    feats = gen.uniform(-1, 1, size=(5, 4))
    labels = np.where(gen.uniform(size=5) < 0.5, -1.0, 1.0)
    data = Dataset(feats, labels)
    for _ in range(100):
        x = gen.uniform(-1, 1, size=4)
        fd = finite_diff_grad(lambda v: sigmoid_loss_f(v, data), x, 1e-6)
        an = sigmoid_loss_grad(x, feats, labels)
        assert np.max(np.abs(fd - an)) < 1e-5


def test_sigmoid_loss_empty_dataset_rejected():
    with pytest.raises(ValueError):
        sigmoid_loss_grad(np.zeros(2), np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("batch_size", [2.5, 2.0, True])
def test_minibatch_oracle_refuses_a_batch_size_that_is_not_an_integer(synthetic500,
                                                                      batch_size):
    with pytest.raises(ValueError,
                       match=f"batch_size: must be an integer >= 1, got {batch_size!r}"):
        SigmoidLossOracle(synthetic500, batch_size=batch_size)


def test_minibatch_full_batch_is_exact(synthetic500):
    oracle = SigmoidLossOracle(synthetic500, batch_size=len(synthetic500))
    x = np.zeros(synthetic500.n_features)
    g, g_prime = oracle.pairs(x, oracle.draw(RngStream(17).generator(), 1))[0]
    full = oracle.grad(x)
    assert np.array_equal(g, full)
    assert np.array_equal(g_prime, full)


def test_minibatch_batch1_unbiased(synthetic500):
    oracle = SigmoidLossOracle(synthetic500, batch_size=1)
    x = np.zeros(synthetic500.n_features)
    n = 100000
    gs, gps = np.moveaxis(oracle.pairs(x, oracle.draw(RngStream(18).generator(), n)), 1, 0)
    full = oracle.grad(x)
    tol = 4.0 * gs.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(gs.mean(axis=0) - full) <= tol)
    inner = np.sum(gs * gps, axis=1)
    assert abs(inner.mean() - np.sum(full * full)) <= 4.0 * inner.std(ddof=1) / np.sqrt(n)


def test_minibatch_batch_size_bounds(synthetic500):
    with pytest.raises(ValueError):
        SigmoidLossOracle(synthetic500, batch_size=0)
    with pytest.raises(ValueError):
        SigmoidLossOracle(synthetic500, batch_size=len(synthetic500) + 1)


# ---------------------------------------------------------------------------
# LibSVM parsing
# ---------------------------------------------------------------------------


def test_load_libsvm_examples(tmp_path):
    path = tmp_path / "ex.libsvm"
    path.write_text("+1 1:0.5 3:1\n")
    data = load_libsvm(path, append_bias=True, n_features=3)
    assert np.array_equal(data.features, np.array([[0.5, 0.0, 1.0, 1.0]]))
    assert data.labels[0] == 1.0


def test_load_libsvm_featureless_row(tmp_path):
    path = tmp_path / "ex.libsvm"
    path.write_text("-1\n")
    data = load_libsvm(path, append_bias=True, n_features=4)
    assert np.array_equal(data.features, np.array([[0.0, 0.0, 0.0, 0.0, 1.0]]))
    assert data.labels[0] == -1.0


def test_load_libsvm_malformed_value(tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_text("+1 1:0.5\n1 2:a\n")
    with pytest.raises(LibsvmParseError, match="line 2"):
        load_libsvm(path)


def test_load_libsvm_nonbinary_label(tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_text("2 1:0.5\n")
    with pytest.raises(LibsvmParseError, match="label"):
        load_libsvm(path)


def test_load_libsvm_decreasing_indices(tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_text("+1 3:1 2:1\n")
    with pytest.raises(LibsvmParseError, match="increasing"):
        load_libsvm(path)


@pytest.mark.parametrize("n_features", [0, -3])
def test_load_libsvm_rejects_fewer_than_one_feature(tiny3_path, n_features):
    with pytest.raises(ValueError, match=f"n_features: must be an integer >= 1, got {n_features}"):
        load_libsvm(tiny3_path, n_features=n_features)


@pytest.mark.parametrize("n_features", [2.5, True])
def test_load_libsvm_refuses_a_feature_count_that_is_not_an_integer(tiny3_path, n_features):
    # 2.5 failed as "line 1: index 3 exceeds n_features=2.5"; True was taken as 1.
    with pytest.raises(ValueError, match=f"n_features: must be an integer >= 1, got {n_features}"):
        load_libsvm(tiny3_path, n_features=n_features)


def test_load_libsvm_comments_and_blank_lines(tiny3_path):
    data = load_libsvm(tiny3_path)
    assert len(data) == 3
    assert data.n_features == 4  # 3 features + bias
    assert list(data.labels) == [1.0, -1.0, 1.0]


# Forms that float() and int() read but the format does not have.
_FOREIGN_NUMERALS = {
    "underscore-in-index": ("+1 1_0:0.5", "bad feature token '1_0:0.5'"),
    "arabic-indic-index": ("-1 \u0663:2.0", "bad feature token '\u0663:2.0'"),
    "signed-index": ("+1 +3:1", "bad feature token '+3:1'"),
    "underscore-in-value": ("+1 2:1_5.0", "bad feature token '2:1_5.0'"),
    "arabic-indic-label": ("\u0661 1:1", "bad label '\u0661'"),
}


@pytest.mark.parametrize("line, message", _FOREIGN_NUMERALS.values(), ids=_FOREIGN_NUMERALS)
def test_load_libsvm_refuses_numerals_outside_the_format(tmp_path, line, message):
    path = tmp_path / "bad.libsvm"
    path.write_text(f"+1 1:0.5\n{line}\n", encoding="utf-8")
    with pytest.raises(LibsvmParseError) as excinfo:
        load_libsvm(path)
    assert str(excinfo.value) == f"line 2: {message}"


def test_load_libsvm_reads_signs_exponents_and_bare_fractions(tmp_path):
    path = tmp_path / "ex.libsvm"
    path.write_text("+1 1:1e-5 2:-0.5 3:+.5\n1 1:1\n-1.0 2:2\n")
    data = load_libsvm(path, append_bias=False)
    assert np.array_equal(data.features, np.array([[1e-5, -0.5, 0.5], [1, 0, 0], [0, 2, 0]]))
    assert data.labels.tolist() == [1.0, 1.0, -1.0]


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------


def _random_dataset(n_pos, n_neg, seed):
    gen = RngStream(seed).generator()
    feats = gen.uniform(-1, 1, size=(n_pos + n_neg, 3))
    labels = np.array([1.0] * n_pos + [-1.0] * n_neg)
    return Dataset(feats, labels)


def test_balance_subsample_counts():
    data = _random_dataset(100, 40, seed=19)
    balanced = balance_subsample(data, RngStream(20).generator())
    assert len(balanced) == 80
    assert int((balanced.labels == 1.0).sum()) == 40
    assert int((balanced.labels == -1.0).sum()) == 40


def test_balance_subsample_single_class_rejected():
    data = _random_dataset(10, 0, seed=21)
    with pytest.raises(ValueError):
        balance_subsample(data, RngStream(22).generator())


def test_balance_subsample_already_balanced_keeps_rows():
    data = _random_dataset(25, 25, seed=23)
    balanced = balance_subsample(data, RngStream(24).generator())
    assert len(balanced) == 50
    original = sorted(map(tuple, np.column_stack([data.features, data.labels])))
    shuffled = sorted(map(tuple, np.column_stack([balanced.features, balanced.labels])))
    assert original == shuffled


# The allocating forms that _residuals, sigmoid_phi and record_lanes replace
# with in-place ones; the outputs must not change in a single bit.
def _residuals_allocating(x, features, labels):
    return np.matmul(features, x[..., None])[..., 0] - labels


def _phi_allocating(theta):
    t2 = theta * theta
    return t2 / (1.0 + t2)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _residual_cases(gen):
    """(x, features, labels) for one point, stacked points and stacked minibatches."""
    feats = gen.uniform(-1.0, 1.0, size=(30, 6))
    labels = np.where(gen.uniform(size=30) < 0.5, -1.0, 1.0)
    idx = gen.integers(0, 30, size=(4, 2, 5))
    yield gen.uniform(-3.0, 3.0, size=6), feats, labels
    yield gen.uniform(-3.0, 3.0, size=(7, 6)), feats, labels
    yield gen.uniform(-3.0, 3.0, size=(2, 4, 6)), feats, labels
    # pairs(): (G, R, 1, d) points against (R, 2, B, d) gathered rows
    yield gen.uniform(-3.0, 3.0, size=(3, 4, 1, 6)), feats[idx], labels[idx]


def test_residuals_and_phi_equal_their_allocating_forms_bitwise():
    from sgdol.oracles import _residuals, sigmoid_phi

    gen = RngStream(91).generator()
    for _ in range(5):
        for x, feats, labels in _residual_cases(gen):
            before = [a.copy() for a in (x, feats, labels)]
            r = _residuals(x, feats, labels)
            assert _same(r, _residuals_allocating(x, feats, labels))
            assert all(_same(a, b) for a, b in zip((x, feats, labels), before))
            r_before = r.copy()
            assert _same(sigmoid_phi(r), _phi_allocating(r_before))
            assert _same(r, r_before)  # phi leaves its argument alone
    for theta in (0.7, -2.5, np.float64(1e200), np.float64(-0.0), np.inf):
        with np.errstate(all="ignore"):
            got, want = sigmoid_phi(theta), _phi_allocating(theta)
        assert type(got) is type(want) and _same(got, want)
    assert _same(sigmoid_phi(np.arange(-3, 4)), _phi_allocating(np.arange(-3, 4)))


def test_sigmoid_record_lanes_equals_the_allocating_f_and_gradient(synthetic500):
    from sgdol.oracles import _residuals, sigmoid_phi_prime

    gen = RngStream(92).generator()
    data = synthetic500
    oracle = SigmoidLossOracle(data, batch_size=50)
    for shape in ((data.n_features,), (3, data.n_features), (2, 3, data.n_features)):
        X = gen.uniform(-2.0, 2.0, size=shape)
        r = _residuals_allocating(X, data.features, data.labels)
        f_want = np.mean(_phi_allocating(r), axis=-1)
        w = sigmoid_phi_prime(r)
        g_want = np.matmul(w[..., None, :], data.features)[..., 0, :] / len(data)
        f, g = oracle.record_lanes(X)
        assert _same(f, f_want) and _same(g, g_want)
        assert _same(oracle.f_lanes(X), f_want) and _same(oracle.grad_lanes(X), g_want)
        assert _same(_residuals(X, data.features, data.labels), r)
