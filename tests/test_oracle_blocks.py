"""The dataset oracle's stacked methods, evaluated a block of points at a time.

``SigmoidLossOracle`` evaluates f, its gradient, the records and the pairs
in blocks so that its temporaries stay small. Each row is still one stacked
gemv, so a blocked result must equal the one-point and the unblocked
results bit for bit, and the lane loop's per-step ``pairs`` must stay one
block at the widths the shipped configs step.
"""

import os
import tracemalloc

import numpy as np
import pytest

from sgdol import (
    Dataset,
    RngStream,
    SigmoidLossOracle,
    parse_config,
    run_experiment,
    sigmoid_loss_f,
    sigmoid_loss_grad,
)
from sgdol import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _verify_like():
    """A 50 x 8 dataset shaped like the one ``sgdol verify``'s Monte Carlo check uses."""
    gen = RngStream(93).generator()
    feats = gen.uniform(-1.0, 1.0, size=(50, 8))
    return Dataset(feats, np.where(gen.uniform(size=50) < 0.5, -1.0, 1.0))


@pytest.fixture(params=["synthetic500", "verify50x8"])
def data(request, synthetic500):
    return synthetic500 if request.param == "synthetic500" else _verify_like()


def _point_counts(block):
    return [1, block - 1, block, block + 1, 2 * block + 17]  # the last: two blocks and a short one


def test_block_sizes_follow_the_residual_and_row_budgets(synthetic500):
    oracle = SigmoidLossOracle(synthetic500, batch_size=50)
    assert oracle._block_points == oracles._RECORD_RESIDUALS // 500 == 16
    assert oracle._block_streams == oracles._PAIR_FLOATS // (2 * 50 * 21) == 62
    assert SigmoidLossOracle(_verify_like(), batch_size=1)._block_points == 163


@pytest.mark.parametrize("which", range(5))
@pytest.mark.parametrize("lead", [(), (2,)], ids=["flat", "leading-axes"])
def test_blocked_f_grad_and_records_equal_one_point_evaluation(data, which, lead):
    oracle = SigmoidLossOracle(data, batch_size=1)
    n = _point_counts(oracles._RECORD_RESIDUALS // len(data))[which]
    d = data.n_features
    X = RngStream(94, n).generator().uniform(-2.0, 2.0, size=lead + (n, d))
    f, g = oracle.f_lanes(X), oracle.grad_lanes(X)
    assert f.shape == lead + (n,) and g.shape == X.shape
    for idx in np.ndindex(*X.shape[:-1]):
        assert _same(f[idx], oracle.f(X[idx])) and _same(g[idx], oracle.grad(X[idx]))
    # The unblocked stacked evaluation over all points at once.
    assert _same(f, sigmoid_loss_f(X, data))
    assert _same(g, sigmoid_loss_grad(X, data.features, data.labels))
    f_rec, g_rec = oracle.record_lanes(X)
    assert _same(f_rec, f) and _same(g_rec, g)


def test_one_point_methods_keep_their_shapes(synthetic500):
    oracle = SigmoidLossOracle(synthetic500, batch_size=50)
    x = np.full(synthetic500.n_features, 0.1)
    f, g = oracle.record_lanes(x)
    assert type(oracle.f_lanes(x)) is np.float64 and _same(f, oracle.f_lanes(x))
    assert g.shape == x.shape and _same(g, oracle.grad_lanes(x))
    empty = np.empty((0, synthetic500.n_features))
    assert oracle.f_lanes(empty).shape == (0,) and oracle.grad_lanes(empty).shape == empty.shape


@pytest.mark.parametrize("tenth", [False, True], ids=["b1", "b-tenth"])  # b-tenth: 50 of 500
def test_blocked_pairs_equal_an_unblocked_call(data, tenth):
    batch = len(data) // 10 if tenth else 1
    oracle = SigmoidLossOracle(data, batch_size=batch)
    block = oracles._PAIR_FLOATS // (2 * batch * data.n_features)
    R = 2 * block + 17  # two whole blocks and a short one
    gen = RngStream(95, batch).generator()
    noise = oracle.draw(gen, R)
    feats, labels = data.features[noise], data.labels[noise]
    x = gen.uniform(-1.0, 1.0, size=data.n_features)
    # One query point read by every stream: the Monte Carlo check's call.
    assert _same(oracle.pairs(x, noise), sigmoid_loss_grad(x[..., None, :], feats, labels))
    # Lanes on a leading axis, one point per stream each.
    X = gen.uniform(-1.0, 1.0, size=(3, R, data.n_features))
    assert _same(oracle.pairs(X, noise), sigmoid_loss_grad(X[..., None, :], feats, labels))


@pytest.fixture
def spied_blocks(monkeypatch):
    """[(streams in the pairs call, minibatch-gradient blocks it computed)] per call."""
    calls = []
    real_pairs, real_grads = SigmoidLossOracle.pairs, SigmoidLossOracle._minibatch_grads

    def pairs(self, X, noise):
        calls.append([noise.shape[0] if noise.ndim == 3 else 1, 0])
        return real_pairs(self, X, noise)

    def grads(self, X, rows):
        calls[-1][1] += 1
        return real_grads(self, X, rows)
    monkeypatch.setattr(SigmoidLossOracle, "pairs", pairs)
    monkeypatch.setattr(SigmoidLossOracle, "_minibatch_grads", grads)
    return calls


@pytest.mark.parametrize("repetitions", [1, 2, 5])  # 2 as benchmarked, 5 as shipped
def test_each_classification_step_takes_its_pairs_in_one_block(repetitions, spied_blocks,
                                                               tmp_path):
    spec = parse_config(os.path.join(ROOT, "configs", "classification_batch50.ini"))
    spec.oracle.dataset = os.path.join(ROOT, spec.oracle.dataset)
    spec.T, spec.repetitions, spec.output_dir = 40, repetitions, str(tmp_path)
    run_experiment(spec)
    assert spied_blocks == [[repetitions, 1]] * spec.T


def test_sixty_streams_at_b50_are_one_block(synthetic500, spied_blocks):
    oracle = SigmoidLossOracle(synthetic500, batch_size=50)
    gen = RngStream(96).generator()
    X = gen.uniform(-1.0, 1.0, size=(4, 60, synthetic500.n_features))
    oracle.pairs(X, oracle.draw(gen, 60))
    oracle.pairs(X[0, 0], oracle.draw(gen, 1000))
    assert spied_blocks == [[60, 1], [1000, -(-1000 // 62)]]


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stacked_evaluation_memory_does_not_grow_with_points(synthetic500):
    # All 20,000 points at once held 20000 x 500 residuals: 240 MB for f.
    oracle = SigmoidLossOracle(synthetic500, batch_size=50)
    X = RngStream(97).generator().uniform(-1.0, 1.0, size=(20000, synthetic500.n_features))
    assert _peak(oracle.f_lanes, X) <= 1e6
    assert _peak(oracle.grad_lanes, X) <= X.nbytes + 1e6
