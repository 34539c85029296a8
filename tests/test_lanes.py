"""The lane engine against the one-run-at-a-time loop it replaced.

Every lane of a multi-lane ``run_lanes`` call must equal, bit for bit, the
run that ``reference_generic.reference_run`` makes of that optimizer on that
repetition's stream. Each engine call here holds every optimizer kind on two
streams, so lanes of different kinds share each stream's draws, and its
horizon crosses a draw-chunk boundary.
"""

import functools
import tracemalloc
from operator import attrgetter

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


@pytest.mark.parametrize("make_oracle", [lambda data: RosenbrockOracle(sigma=5.0),
                                         _sigmoid(1), _sigmoid(None)],
                         ids=["rosenbrock", "sigmoid-b1", "sigmoid-full"])
def test_stacked_ledgers_equal_single_runs(make_oracle, synthetic500):
    # Three lanes of ledger-carrying learners, each warmed by a different
    # number of rounds, so their running values differ. Each lane's ledger
    # folds its chunks' rounds from its own stream's draw.
    oracle, T_ = make_oracle(synthetic500), 90
    rngs = [RngStream(60 + r) for r in range(3)]
    outs = [[RngStream(70 + r) for r in range(3)]]

    def make(r):
        opt = Sgdol(np.zeros(oracle.dim), M=oracle.smoothness, record_regret=True)
        if r:
            run(opt, oracle, r, RngStream(80 + r), force_generic=True)
        return opt
    lanes = [make(r) for r in range(3)]
    results = run_lanes([lanes], oracle, T_, rngs, outs, report_every=7)
    for r, opt in enumerate(lanes):
        single = make(r)
        expected = run(single, oracle, T_, rngs[r], report_every=7, output_rng=outs[0][r],
                       force_generic=True)
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
    # A regret ledger is not state: a group may mix runs with and without one.
    group = [Sgdol(np.zeros(2), M=1002.0, record_regret=ledger) for ledger in (True, False)]
    [results] = run_lanes([group], oracle, 10, rngs, outs, report_every=3)
    singles = [Sgdol(np.zeros(2), M=1002.0, record_regret=ledger) for ledger in (True, False)]
    for r, (rng, opt, single) in enumerate(zip(rngs, group, singles)):
        expected = run(single, oracle, 10, rng, report_every=3, output_rng=outs[0][r],
                       force_generic=True)
        assert trajectories_equal(results[r], expected) and _state_equal(opt, single)
    assert group[0].ledger.count == 10 and _ledger_bits(group[0]) == _ledger_bits(singles[0])


@pytest.mark.parametrize("groups, rngs, output_rngs", [
    pytest.param(lambda: [[Sgd(np.zeros(2), lr=1e-3)]], [RngStream(1)], [], id="no-row"),
    pytest.param(lambda: [[Sgd(np.zeros(2), lr=1e-3)]], [RngStream(1)], [[]], id="short-row"),
    pytest.param(lambda: [[Sgd(np.zeros(2), lr=1e-3)]], [RngStream(1)],
                 [[RngStream(2), RngStream(3)]], id="long-row"),
    pytest.param(lambda: [[]], [], [[]], id="no-stream"),
])
def test_the_loop_refuses_streams_that_do_not_fit_its_groups(groups, rngs, output_rngs):
    # One output row per group, one output stream per oracle stream, and
    # at least one oracle stream under any group.
    with pytest.raises(ValueError, match="stream"):
        run_lanes(groups(), RosenbrockOracle(), 10, rngs, output_rngs)


class _FailingOracle(_FourMethodOracle):
    """A user oracle whose ``pairs`` raises at the lane loop's step ``fail``.

    A step asks for the pairs at its lanes' points, shape (lanes, 2) or, for
    one lane, (2,); a ledger's fold of a chunk asks at (steps, 2).
    """

    def __init__(self, lanes, fail):
        super().__init__()
        self.step_shape, self.fail, self.steps = (lanes, 2) if lanes > 1 else (2,), fail, 0

    def pairs(self, X, noise):
        self.steps += X.shape == self.step_shape
        if self.steps == self.fail and X.shape == self.step_shape:
            raise RuntimeError("pairs failed")
        return super().pairs(X, noise)


@pytest.mark.parametrize("lanes", [1, 3])
def test_a_ledger_keeps_the_rounds_taken_when_pairs_raises(lanes):
    # pairs raises partway through the second noise chunk. Each ledger still
    # holds every round that its learner took, as a clean run of that many
    # steps leaves it, and each optimizer its steps.
    taken = _CHUNK_FLOATS // (2 * 2) + 40
    rngs = [RngStream(110 + r) for r in range(lanes)]
    outs = [[RngStream(120 + r) for r in range(lanes)]]
    group = [Sgdol(np.zeros(2), M=1002.0, record_regret=True) for _ in rngs]
    with pytest.raises(RuntimeError, match="pairs failed"):
        run_lanes([group], _FailingOracle(lanes, taken + 1), 2 * taken, rngs, outs)
    for rng, opt in zip(rngs, group):
        clean = Sgdol(np.zeros(2), M=1002.0, record_regret=True)
        run(clean, RosenbrockOracle(sigma=1.0), taken, rng, force_generic=True)
        assert opt.ledger.count == taken
        assert _ledger_bits(opt) == _ledger_bits(clean) and _state_equal(opt, clean)


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


# Every kind diverges on noisy Rosenbrock from these parameters: the learned
# stepsizes from a tiny M, SGD at lr = 0.05, sgd_gl at the lr = 0.82 that its
# large f_gap gives, and the adaptive kinds from a first step of about
# lr = 1e100, after which f overflows.
_DIVERGE_T = 600
DIVERGING = {
    "sgdol_global": OptimizerConfig(kind="sgdol_global", M=0.01),
    "sgdol_coord": OptimizerConfig(kind="sgdol_coord", M=0.01),
    "sgdol_momentum": OptimizerConfig(kind="sgdol_momentum", M=0.01),
    "sgd": OptimizerConfig(kind="sgd", lr=0.05),
    "adagrad_global": OptimizerConfig(kind="adagrad_global", lr=1e100),
    "adagrad_coord": OptimizerConfig(kind="adagrad_coord", lr=1e100),
    "adam": OptimizerConfig(kind="adam", lr=1e100),
    "sgd_gl": OptimizerConfig(kind="sgd_gl", M=0.01, sigma=5.0, T=_DIVERGE_T, f_gap=1e4),
}


def _state_equal(a, b):
    """Whether two optimizers hold equal x, state and regret ledger, a NaN equal to a NaN."""
    attrs = ("x",) + a.state
    if getattr(a, "ledger", None) is not None:
        attrs += tuple(f"ledger.{v}" for v in RegretLedger.VALUES)
    return all(np.array_equal(attrgetter(attr)(a), attrgetter(attr)(b), equal_nan=True)
               for attr in attrs)


@pytest.mark.parametrize("ledger", [False, True], ids=["every_kind", "sgdol_ledger"])
def test_divergence_is_data_alike_on_every_loop(ledger):
    # Each run of every kind diverges, and no loop refuses its non-finite
    # pairs: the kernel (for a kind with one), the lanes and the reference
    # loop carry the same inf and NaN through records, iterates and state.
    assert set(DIVERGING) == set(OPTIMIZER_KINDS)
    oracle = RosenbrockOracle(sigma=5.0)
    rngs = [RngStream(44), RngStream(45)]
    makers = [functools.partial(cfg.build, np.zeros(2)) for cfg in DIVERGING.values()]
    if ledger:  # each run's ledger holds its own rounds
        makers = [lambda: Sgdol(np.zeros(2), M=0.01, record_regret=True)]
    outs = [[RngStream(46, i * len(rngs) + r) for r in range(len(rngs))]
            for i in range(len(makers))]
    groups = [[make() for _ in rngs] for make in makers]
    results = run_lanes(groups, oracle, _DIVERGE_T, rngs, outs, report_every=1)
    for i, (make, group) in enumerate(zip(makers, groups)):
        for r, (rng, lane) in enumerate(zip(rngs, group)):
            ref, single = as_reference(make()), make()
            expected = reference_run(ref, oracle, _DIVERGE_T, rng, report_every=1,
                                     output_rng=outs[i][r])
            got = run(single, oracle, _DIVERGE_T, rng, report_every=1, output_rng=outs[i][r])
            assert expected.diverged_at is not None, lane.kind
            assert trajectories_equal(results[i][r], expected), (lane.kind, r)
            assert trajectories_equal(got, expected), (lane.kind, r)
            assert _state_equal(lane, ref) and _state_equal(single, ref), (lane.kind, r)


def test_one_diverging_lane_leaves_the_others_bit_identical():
    oracle, T_ = RosenbrockOracle(sigma=5.0), 300
    rngs = [RngStream(44), RngStream(45), RngStream(46)]
    outs = [[RngStream(47, r) for r in range(3)], [RngStream(48, r) for r in range(3)]]

    def stable():
        return [Sgd(np.zeros(2), lr=1e-4) for _ in rngs]
    alone = run_lanes([stable()], oracle, T_, rngs, outs[:1])
    # A second group of one kind on the same streams diverges, and the
    # middle lane of the first starts where it diverges too.
    lanes = stable()
    lanes[1].x = np.full(2, 1e150)
    with_them = run_lanes([lanes, [Sgd(np.zeros(2), lr=0.05) for _ in rngs]], oracle, T_,
                          rngs, outs)
    assert with_them[0][1].diverged_at == 1
    assert all(result.diverged_at is not None for result in with_them[1])
    for r in (0, 2):
        assert with_them[0][r].diverged_at is None
        assert trajectories_equal(with_them[0][r], alone[0][r])


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
