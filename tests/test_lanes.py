"""The lane engine against the one-run-at-a-time loop it replaced.

Every lane of a multi-lane ``run_lanes`` call must equal, bit for bit, the
run that ``reference_generic.reference_run`` makes of that optimizer on that
repetition's stream. Each engine call here holds every optimizer kind on two
streams, so lanes of different kinds share each stream's draws, and its
horizon crosses a draw-chunk boundary.
"""

import tracemalloc

import numpy as np
import pytest

from reference_generic import as_reference, reference_run, trajectories_equal
from sgdol import (
    Adam,
    OptimizerConfig,
    QuadraticOracle,
    RegretLedger,
    RngStream,
    RosenbrockOracle,
    Sgd,
    Sgdol,
    SgdolMomentum,
    SigmoidLossOracle,
    StochasticOracle,
    run,
)
from sgdol._kernels import _CHUNK_FLOATS
from sgdol.optimizers import OPTIMIZER_KINDS, run_lanes

# The steps of one 2-D noise chunk, plus 77: a chunk boundary in every case,
# and a last chunk that is cut short.
T = _CHUNK_FLOATS // (2 * 2) + 77
STREAMS = 2


def _configs(M, lr):
    """One config per kind, with stepsizes scaled to the objective's smoothness M."""
    return {
        "sgdol_global": OptimizerConfig(kind="sgdol_global", M=M),
        "sgdol_coord": OptimizerConfig(kind="sgdol_coord", M=M, alpha=3.0),
        "sgdol_momentum": OptimizerConfig(kind="sgdol_momentum", M=M),
        "sgd": OptimizerConfig(kind="sgd", lr=lr),
        "adagrad_global": OptimizerConfig(kind="adagrad_global", lr=5.0 * lr),
        "adagrad_coord": OptimizerConfig(kind="adagrad_coord", lr=lr),
        "adam": OptimizerConfig(kind="adam", lr=0.1 * lr),
        "sgd_gl": OptimizerConfig(kind="sgd_gl", M=M, sigma=3.0, T=T, f_gap=1.0),
    }


def _sigmoid(batch):
    def make(data):
        return SigmoidLossOracle(data, batch_size=len(data) if batch is None else batch)
    return make


CASES = {
    "sigmoid-b50": (_sigmoid(50), 3),
    "sigmoid-b1": (_sigmoid(1), 1),
    "sigmoid-full": (_sigmoid(None), 4),
    "rosenbrock": (lambda data: RosenbrockOracle(sigma=5.0), 2),
    "quadratic-d100": (lambda data: QuadraticOracle(np.arange(1, 101) / 100, sigma=1.0), 5),
}
_engine_cache = {}


def _case(name, synthetic500):
    """The oracle, configs, streams and engine results of one case, computed once."""
    if name not in _engine_cache:
        make_oracle, stride = CASES[name]
        oracle = make_oracle(synthetic500)
        configs = _configs(oracle.smoothness, 1.0 / oracle.smoothness)
        x0 = np.zeros(oracle.dim)
        rngs = [RngStream(500 + r) for r in range(STREAMS)]
        outs = [[RngStream(600 + r, i) for r in range(STREAMS)] for i in range(len(configs))]
        groups = [[cfg.build(x0) for _ in rngs] for cfg in configs.values()]
        results = run_lanes(groups, oracle, T, rngs, outs, report_every=stride)
        _engine_cache[name] = (oracle, configs, x0, rngs, outs, stride, groups, results)
    return _engine_cache[name]


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
@pytest.mark.parametrize("case", list(CASES))
def test_every_lane_matches_the_reference_loop(case, kind, synthetic500):
    oracle, configs, x0, rngs, outs, stride, groups, results = _case(case, synthetic500)
    i = list(configs).index(kind)
    for r, rng in enumerate(rngs):
        expected = reference_run(configs[kind].build(x0), oracle, T, rng, report_every=stride,
                                 output_rng=outs[i][r])
        assert trajectories_equal(results[i][r], expected), (case, kind, r)


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_engine_leaves_each_optimizer_in_the_reference_state(kind, synthetic500):
    oracle, configs, x0, rngs, outs, stride, groups, results = _case("sigmoid-b50", synthetic500)
    i = list(configs).index(kind)
    ref = as_reference(configs[kind].build(x0))
    reference_run(ref, oracle, T, rngs[1], report_every=stride, output_rng=outs[i][1])
    # A second leg from the state each first leg left.
    got = run(groups[i][1], oracle, 40, RngStream(700), report_every=1, force_generic=True)
    assert trajectories_equal(got, reference_run(ref, oracle, 40, RngStream(700), report_every=1))


def test_single_run_matches_the_reference_loop(synthetic500):
    # One lane steps unstacked, so the full batch's pairs get a lone (d,) point.
    for batch in (50, 1, None):
        oracle = _sigmoid(batch)(synthetic500)
        for cfg in _configs(oracle.smoothness, 1.0 / oracle.smoothness).values():
            opt = cfg.build(np.zeros(oracle.dim))
            expected = reference_run(opt, oracle, 150, RngStream(41), report_every=7)
            got = run(opt, oracle, 150, RngStream(41), report_every=7)
            assert trajectories_equal(got, expected), (batch, cfg.kind)


def _ledger_bits(optimizer):
    """Dtype and bytes of each running value of an optimizer's regret ledger."""
    return [(np.asarray(v).dtype, np.asarray(v).tobytes())
            for v in (getattr(optimizer.ledger, name) for name in RegretLedger.VALUES)]


def test_regret_ledger_matches_the_reference_loop(synthetic500):
    oracle = SigmoidLossOracle(synthetic500, batch_size=1)
    opt = Sgdol(np.zeros(oracle.dim), M=oracle.smoothness, record_regret=True)
    ref = as_reference(opt)
    got = run(opt, oracle, T, RngStream(42))
    assert trajectories_equal(got, reference_run(ref, oracle, T, RngStream(42)))
    assert opt.ledger.count == ref.ledger.count == T
    assert _ledger_bits(opt) == _ledger_bits(ref)


def test_stacked_ledgers_equal_single_runs():
    # Three lanes of ledger-carrying learners, each warmed by a different
    # number of rounds, so their running values differ when stacked.
    oracle, T_ = RosenbrockOracle(sigma=5.0), 90
    rngs = [RngStream(60 + r) for r in range(3)]
    outs = [[RngStream(70 + r) for r in range(3)]]

    def make(r):
        opt = Sgdol(np.zeros(2), M=1002.0, record_regret=True)
        if r:
            run(opt, oracle, r, RngStream(80 + r), force_generic=True)
        return opt
    lanes = [make(r) for r in range(3)]
    results = run_lanes([lanes], oracle, T_, rngs, outs)
    for r, opt in enumerate(lanes):
        single = make(r)
        expected = run(single, oracle, T_, rngs[r], output_rng=outs[0][r], force_generic=True)
        assert trajectories_equal(results[0][r], expected)
        assert opt.ledger.count == T_ + r
        assert _ledger_bits(opt) == _ledger_bits(single)


class _FourMethodOracle(StochasticOracle):
    """A user oracle that defines only the contract's four methods."""

    dim = 2

    def __init__(self):
        self._inner = RosenbrockOracle(sigma=1.0)

    def f_lanes(self, X):
        return self._inner.f_lanes(X)

    def grad_lanes(self, X):
        return self._inner.grad_lanes(X)

    def draw(self, rng, n):
        return self._inner.draw(rng, n)

    def pairs(self, X, noise):
        return self._inner.pairs(X, noise)


def test_four_method_oracle_runs_like_the_built_in_one():
    got = run(Sgdol(np.zeros(2), M=1002.0), _FourMethodOracle(), 100, RngStream(43),
              report_every=3)
    expected = run(Sgdol(np.zeros(2), M=1002.0), RosenbrockOracle(sigma=1.0), 100,
                   RngStream(43), report_every=3, force_generic=True)
    assert trajectories_equal(got, expected)
    rngs, outs = [RngStream(1), RngStream(2)], [[RngStream(3), RngStream(4)]]
    [lanes] = run_lanes([[Sgd(np.zeros(2), lr=1e-3) for _ in rngs]], _FourMethodOracle(), 100,
                        rngs, outs, report_every=3)
    for r, rng in enumerate(rngs):
        single = run(Sgd(np.zeros(2), lr=1e-3), RosenbrockOracle(sigma=1.0), 100, rng,
                     report_every=3, output_rng=outs[0][r], force_generic=True)
        assert trajectories_equal(lanes[r], single)


def test_lane_groups_are_checked():
    oracle, rngs = RosenbrockOracle(sigma=1.0), [RngStream(1), RngStream(2)]
    outs = [[RngStream(3), RngStream(4)]]
    with pytest.raises(ValueError, match="share a kind"):
        run_lanes([[Sgd(np.zeros(2), lr=1e-3), Sgdol(np.zeros(2), M=1002.0)]], oracle, 10, rngs, outs)
    with pytest.raises(ValueError, match="one optimizer per oracle stream"):
        run_lanes([[Sgd(np.zeros(2), lr=1e-3)]], oracle, 10, rngs, outs)
    with pytest.raises(ValueError, match="share a kind and state"):
        run_lanes([[Sgdol(np.zeros(2), M=1002.0, record_regret=True),
                    Sgdol(np.zeros(2), M=1002.0)]], oracle, 10, rngs, outs)


@pytest.mark.parametrize("make, name", [
    (lambda v: Sgd(np.zeros(2), lr=v), "lr"),
    (lambda v: Sgdol(np.zeros(2), M=1002.0 * v), "M"),
    (lambda v: Sgdol(np.zeros(2), M=1002.0, curvature_scale=v), "ftrl.curvature_scale"),
    (lambda v: SgdolMomentum(np.zeros(2), M=1002.0, clamp_beta=v == 1.0), "clamp_beta"),
    (lambda v: Adam(np.zeros(2), lr=1e-3, eps=v), "eps"),
], ids=["sgd", "sgdol_global", "curvature_scale", "sgdol_momentum", "adam"])
def test_lane_group_refuses_optimizers_that_differ_in_a_parameter(make, name):
    # A group steps every lane with its first optimizer's parameters, so a
    # second lane of another stepsize would silently run at the first's.
    oracle, rngs = RosenbrockOracle(sigma=1.0), [RngStream(1), RngStream(2)]
    outs = [[RngStream(3), RngStream(4)]]
    with pytest.raises(ValueError, match=f"differ in {name}"):
        run_lanes([[make(1.0), make(0.5)]], oracle, 10, rngs, outs)


DIVERGING = dict(oracle=RosenbrockOracle(sigma=5.0), T=1000, rng=RngStream(44))


def test_divergence_raises_like_the_reference_loop():
    ref, opt = as_reference(Sgd(np.zeros(2), lr=0.05)), Sgd(np.zeros(2), lr=0.05)
    with pytest.raises(ValueError, match="gradient pair entries must be finite"):
        reference_run(ref, **DIVERGING)
    with pytest.raises(ValueError, match="gradient pair entries must be finite"):
        run(opt, **DIVERGING, force_generic=True)
    # Both stop before the step whose pair is not finite.
    assert np.array_equal(opt.x, ref.x, equal_nan=True)


def test_one_diverging_lane_stops_the_engine():
    oracle, T_, rng = DIVERGING.values()
    # The stable lane alone runs to the end.
    run_lanes([[Sgd(np.zeros(2), lr=1e-4)]], oracle, T_, [rng], [[RngStream(45)]])
    with pytest.raises(ValueError, match="gradient pair entries must be finite"):
        run_lanes([[Sgd(np.zeros(2), lr=1e-4)], [Sgd(np.zeros(2), lr=0.05)]], oracle, T_,
                  [rng], [[RngStream(45)], [RngStream(46)]])


def _peak_bytes(synthetic500, T_):
    oracle = SigmoidLossOracle(synthetic500, batch_size=50)
    x0 = np.zeros(oracle.dim)
    rngs = [RngStream(47), RngStream(48)]
    groups = [[Sgd(x0, lr=0.1) for _ in rngs]]
    outs = [[RngStream(49), RngStream(50)]]
    tracemalloc.start()
    try:
        run_lanes(groups, oracle, T_, rngs, outs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lane_memory_does_not_grow_with_T(synthetic500):
    # Both horizons keep 500 records. Drawing all indices at once would add
    # 1.6 MB a stream at T = 2e3 and 16 MB at T = 2e4; drawn in chunks, the
    # peak stays put.
    small = _peak_bytes(synthetic500, 2_000)
    large = _peak_bytes(synthetic500, 20_000)
    assert large < small + 64_000
