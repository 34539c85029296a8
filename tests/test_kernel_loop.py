"""Every kernel-kind run on the exact Rosenbrock steps on its fused kernel.

``optimizers._run_groups`` is the one step loop: ``run`` hands it one lane,
and ``harness.run_experiment`` every (optimizer x repetition) run of an
experiment at once. Each stream's noise is drawn a chunk at a time, once
for all the groups, and each kernel group's kernel takes the chunk's steps
while every other group steps through ``update``. Each run must equal a
single ``run`` of that optimizer on that repetition's streams bit for bit,
wherever its output step k falls in a chunk. The loop's draws, memory and
failure behaviour are pinned here too, as is the state that a kernel run
and an ``update`` run leave on an optimizer.
"""

import csv
import tracemalloc
import warnings
from collections import defaultdict

import numpy as np
import pytest
from test_update_loop import _bits, _result_bits, _state_bits, _streams

import sgdol.harness as harness
from sgdol import (
    AdaGradGlobal,
    ExperimentSpec,
    OptimizerConfig,
    OracleSpec,
    QuadraticOracle,
    RngStream,
    RosenbrockOracle,
    Sgd,
    Sgdol,
    SgdolCoord,
    SgdolMomentum,
    run,
    run_experiment,
    run_lanes,
)
from sgdol._kernels import _CHUNK_FLOATS
from sgdol.optimizers import _CLASSES, _run_groups

REPS = 2
ROWS = _CHUNK_FLOATS // 4  # steps per noise chunk at d = 2
# Past two noise chunks and not a multiple of their rows.
T = 2 * ROWS + 77

# One config per kind with a fused kernel; sgd_gl runs on the sgd kernel.
KERNEL_CONFIGS = {
    "sgdol_global": OptimizerConfig(kind="sgdol_global", M=1002.0, alpha=10.0),
    "sgdol_coord": OptimizerConfig(kind="sgdol_coord", M=1002.0, alpha=10.0),
    "sgd": OptimizerConfig(kind="sgd", lr=1.0 / 1002.0),
    "sgd_gl": OptimizerConfig(kind="sgd_gl"),
    "adagrad_global": OptimizerConfig(kind="adagrad_global", lr=0.1),
    "adagrad_coord": OptimizerConfig(kind="adagrad_coord", lr=0.1),
    "adam": OptimizerConfig(kind="adam", lr=1e-3),
}


def _spec(configs, report_every, T=T, sigma=5.0, output_dir=None):
    return ExperimentSpec(oracle=OracleSpec(kind="rosenbrock", sigma=sigma),
                          optimizers=list(configs.items()), T=T, repetitions=REPS, seed=41,
                          report_every=report_every, output_dir=output_dir, keep_raw=True)


@pytest.fixture
def draw_calls(monkeypatch):
    """The n of every ``RosenbrockOracle.draw`` call, a list per generator drawn from."""
    calls = defaultdict(list)
    real = RosenbrockOracle.draw

    def spy(self, rng, n):
        calls[rng].append(n)
        return real(self, rng, n)
    monkeypatch.setattr(RosenbrockOracle, "draw", spy)
    return calls


def test_every_kernel_kind_is_configured():
    assert set(KERNEL_CONFIGS) == {kind for kind, cls in _CLASSES.items() if cls.kernel}


@pytest.mark.parametrize("report_every", [1, 3, 7])
def test_each_experiment_kernel_run_equals_its_single_run(report_every, draw_calls, routes):
    spec = _spec(KERNEL_CONFIGS, report_every)
    table = run_experiment(spec)
    # One draw per noise chunk per repetition, shared by all seven runs.
    assert list(draw_calls.values()) == [[ROWS, ROWS, 77]] * REPS
    [groups] = routes.groups
    # Every step of every run on its kind's kernel; sgd_gl's is sgd's.
    kernels = [_CLASSES[name].kernel for name in KERNEL_CONFIGS]
    assert routes.kernels == kernels
    assert routes.kernel_steps == {name: kernels.count(name) * T * REPS for name in kernels}
    oracle = spec.oracle.build(spec.seed)
    for i, name in enumerate(KERNEL_CONFIGS):
        cfg = harness._fill_sgd_gl(KERNEL_CONFIGS[name], oracle, np.zeros(2), T)
        for rep in range(REPS):
            rng, out = _streams(spec, i, rep)
            single = cfg.build(np.zeros(2))
            expected = run(single, oracle, T, rng, report_every=report_every, output_rng=out)
            assert _result_bits(table.series[name].raw[rep]) == _result_bits(expected), (name, rep)
            assert _state_bits(groups[i][rep]) == _state_bits(single), (name, rep)


def _output_stream(k, T):
    """An output stream whose index in [1, T] is k."""
    seed = 0
    while RngStream(seed).generator().integers(1, T + 1) != k:
        seed += 1
    return RngStream(seed)


def _makers():
    """One maker per noise width and ledger: both SGDOL kernels read g and g'."""
    return [lambda: Sgdol(np.zeros(2), M=1002.0, alpha=10.0, record_regret=True),
            lambda: SgdolCoord(np.zeros(2), M=1002.0, alpha=10.0),
            lambda: Sgd(np.zeros(2), lr=1.0 / 1002.0),
            lambda: AdaGradGlobal(np.zeros(2), lr=0.1)]


def _ledger_bits(optimizer):
    ledger = getattr(optimizer, "ledger", None)
    return None if ledger is None else [_bits(getattr(ledger, v)) for v in ledger.VALUES]


# k on the run's first and last step, and on each chunk's first and last.
@pytest.mark.parametrize("k", [1, ROWS, ROWS + 1, 2 * ROWS, 2 * ROWS + 1, T])
@pytest.mark.parametrize("report_every", [1, 3, 7])
def test_kernel_group_run_equals_single_runs_wherever_k_falls(k, report_every, draw_calls):
    oracle = RosenbrockOracle(sigma=np.array([5.0, 2.0]))
    rngs = [RngStream(50), RngStream(51)]
    makers = _makers()
    outs = [[_output_stream(k, T), RngStream(60 + i)] for i in range(len(makers))]
    groups = [[make() for _ in rngs] for make in makers]
    results = _run_groups(groups, oracle, T, rngs, outs, report_every)
    assert list(draw_calls.values()) == [[ROWS, ROWS, 77]] * len(rngs)
    for i, make in enumerate(makers):
        for r, rng in enumerate(rngs):
            # A single run on its kernel, and one through update, which
            # captures x_k by its own code.
            for force_generic in (False, True):
                single = make()
                expected = run(single, oracle, T, rng, report_every=report_every,
                               output_rng=outs[i][r], force_generic=force_generic)
                assert _result_bits(results[i][r]) == _result_bits(expected), (i, r)
                assert _state_bits(groups[i][r]) == _state_bits(single), (i, r)
                assert _ledger_bits(groups[i][r]) == _ledger_bits(single), (i, r)
    assert all(row[0].k == k for row in results)


def test_each_stream_is_drawn_once_per_chunk_for_kernel_and_update_groups(draw_calls, routes):
    # sgdol_global steps on its kernel and sgdol_momentum through update,
    # both on each repetition's one draw of each chunk.
    configs = {"sgdol": KERNEL_CONFIGS["sgdol_global"],
               "momentum": OptimizerConfig(kind="sgdol_momentum", M=1002.0)}
    run_experiment(_spec(configs, 1, T=2 * ROWS + 76))
    assert list(draw_calls.values()) == [[ROWS, ROWS, 76]] * REPS
    assert routes.kernels == ["sgdol_global"]


def test_a_run_cut_short_leaves_one_state_on_both_paths(monkeypatch):
    # The second draw raises. On its kernel and through update the run
    # keeps the first chunk's steps, and its ledger their rounds, bit for bit.
    real, left = RosenbrockOracle.draw, []
    for force_generic in (False, True):
        calls = []

        def draw(self, rng, n, calls=calls):
            calls.append(n)
            if len(calls) == 2:
                raise RuntimeError("draw failed")
            return real(self, rng, n)
        monkeypatch.setattr(RosenbrockOracle, "draw", draw)
        opt = Sgdol(np.zeros(2), M=1002.0, record_regret=True)
        with pytest.raises(RuntimeError, match="draw failed"):
            run(opt, RosenbrockOracle(sigma=1.0), 2000, RngStream(5), force_generic=force_generic)
        assert opt.ledger.count == ROWS and opt.ftrl.sum_sq > 0.0 and opt.x.any()
        left.append((_state_bits(opt), _ledger_bits(opt)))
    assert left[0] == left[1]


def test_a_mixed_call_cut_short_leaves_each_run_as_a_single_run_cut_short(monkeypatch):
    # Each stream's second draw raises. A kernel group with a regret ledger
    # and a lane group in one call each keep the first chunk's steps, and the
    # ledgers their rounds, as single runs cut short the same way do.
    real, calls = RosenbrockOracle.draw, defaultdict(int)

    def draw(self, rng, n):
        calls[rng] += 1
        if calls[rng] == 2:
            raise RuntimeError("draw failed")
        return real(self, rng, n)
    monkeypatch.setattr(RosenbrockOracle, "draw", draw)
    makers = [lambda: Sgdol(np.zeros(2), M=1002.0, alpha=10.0, record_regret=True),
              lambda: SgdolMomentum(np.zeros(2), M=1002.0)]
    oracle, rngs = RosenbrockOracle(sigma=5.0), [RngStream(54), RngStream(55)]
    outs = [[RngStream(80 + 2 * i + r) for r in range(len(rngs))] for i in range(len(makers))]
    groups = [[make() for _ in rngs] for make in makers]
    with pytest.raises(RuntimeError, match="draw failed"):
        _run_groups(groups, oracle, T, rngs, outs, report_every=3)
    assert all(opt.x.any() for group in groups for opt in group)
    assert [opt.ledger.count for opt in groups[0]] == [ROWS] * len(rngs)
    for i, make in enumerate(makers):
        for r, rng in enumerate(rngs):
            single = make()
            with pytest.raises(RuntimeError, match="draw failed"):
                run(single, oracle, T, rng, report_every=3, output_rng=outs[i][r])
            assert _state_bits(groups[i][r]) == _state_bits(single), (i, r)
            assert _ledger_bits(groups[i][r]) == _ledger_bits(single), (i, r)


def _kernel_group_peak(T):
    """The tracemalloc peak of a two-stream ``_run_groups`` call of four kernel groups."""
    rngs = [RngStream(52), RngStream(53)]
    groups = [[make() for _ in rngs] for make in _makers()]
    outs = [[RngStream(70 + 2 * i + r) for r in range(len(rngs))] for i in range(len(groups))]
    tracemalloc.start()
    try:
        _run_groups(groups, RosenbrockOracle(sigma=5.0), T, rngs, outs, report_every=T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_kernel_group_memory_does_not_grow_with_T():
    # Four times the steps (4 and 16 chunks per stream), one record each. A
    # (T, 2, 2) draw per stream would add 192 kB between these horizons,
    # every chunk's flat floats kept 576 kB, and a per-step record of the
    # regret ledger's rounds 390 kB.
    short, long = (_kernel_group_peak(T) for T in (2_000, 8_000))
    assert abs(long - short) < 16 * 1024


# Sgd at lr = 0.05 overshoots the Rosenbrock valley: at sigma = 5 its mean f
# here overflows at t = 8 and is NaN from t = 10 on.
_STABLE = {"sgdol": KERNEL_CONFIGS["sgdol_global"], "adam": KERNEL_CONFIGS["adam"]}
_DIVERGING = {"sgd_diverging": OptimizerConfig(kind="sgd", lr=0.05)}


def test_diverging_run_leaves_the_other_csvs_byte_identical(tmp_path):
    # The diverging run sits between the others, so their output streams move.
    with_it = {"sgdol": _STABLE["sgdol"], **_DIVERGING, "adam": _STABLE["adam"]}
    for name, configs in (("with", with_it), ("without", _STABLE), ("alone", _DIVERGING)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(_spec(configs, 1, T=300, output_dir=tmp_path / name))
    for name in _STABLE:
        assert ((tmp_path / "with" / f"{name}.csv").read_bytes()
                == (tmp_path / "without" / f"{name}.csv").read_bytes()), name
    diverged = (tmp_path / "with" / "sgd_diverging.csv").read_bytes()
    assert diverged == (tmp_path / "alone" / "sgd_diverging.csv").read_bytes()
    with open(tmp_path / "with" / "sgd_diverging.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 300
    finite = np.isfinite([float(row["f_value"]) for row in rows])
    first_nan = int(np.argmin(finite))
    assert 5 <= first_nan <= 20 and not finite[first_nan:].any()
    assert b",nan," in diverged


def _attributes(obj):
    """Every attribute of an optimizer, its learners' and ledger's included, as bits."""
    out = {}
    for name, value in vars(obj).items():
        if hasattr(value, "__dict__") and not isinstance(value, np.ndarray):
            out.update({f"{name}.{k}": v for k, v in _attributes(value).items()})
        else:
            out[name] = None if value is None else _bits(value)
    return out


_LOOP_CASES = [
    pytest.param(lambda d: SgdolMomentum(np.zeros(d), M=1.0), "quadratic", id="momentum"),
    pytest.param(lambda d: SgdolMomentum(np.zeros(d), M=1.0, clamp_beta=True), "quadratic",
                 id="momentum-clamped"),
    *(pytest.param(make, oracle, id=f"{oracle}-{i}")
      for oracle in ("quadratic", "rosenbrock")
      for i, make in enumerate([lambda d: Sgdol(np.zeros(d), M=1002.0, record_regret=True),
                                lambda d: SgdolCoord(np.zeros(d), M=1002.0),
                                lambda d: Sgd(np.zeros(d), lr=1e-3)])),
]


@pytest.mark.parametrize("make, oracle_kind", _LOOP_CASES)
def test_every_loop_leaves_the_same_attributes(make, oracle_kind, routes):
    # A single run (one lane), a two-lane group and a two-lane group with
    # force_generic leave each optimizer with the same attributes, bit for
    # bit. Without force_generic a kind with a kernel steps on it on the
    # Rosenbrock and sums its records in index order on the quadratic.
    oracle = (QuadraticOracle(np.ones(2), sigma=1.0) if oracle_kind == "quadratic"
              else RosenbrockOracle(sigma=1.0))
    rngs, outs = [RngStream(1), RngStream(2)], [[RngStream(3), RngStream(4)]]
    single = [make(2) for _ in rngs]
    for opt, rng, out in zip(single, rngs, outs[0]):
        run(opt, oracle, 5, rng, output_rng=out)
    runs = {loop: [make(2) for _ in rngs] for loop in (run_lanes, _run_groups)}
    for loop, group in runs.items():
        steps, index_sums = sum(routes.kernel_steps.values()), routes.index_sums
        loop([group], oracle, 5, rngs, outs)
        kernel = group[0].kernel is not None and loop is _run_groups
        assert (sum(routes.kernel_steps.values()) - steps
                == (10 if kernel and oracle_kind == "rosenbrock" else 0)), loop
        assert (routes.index_sums > index_sums) == (kernel and oracle_kind == "quadratic"), loop
    for r in range(len(rngs)):
        expected = _attributes(single[r])
        assert _attributes(runs[_run_groups][r]) == expected
        assert _attributes(runs[run_lanes][r]) == expected
    assert "beta" not in vars(single[0])


def test_the_router_sends_each_group_to_its_loop_and_keeps_its_place(routes):
    # On the exact Rosenbrock the momentum variant, which has no kernel,
    # steps through update, and the others on their kernels, all in one call.
    oracle = RosenbrockOracle(sigma=1.0)
    rngs = [RngStream(1), RngStream(2)]
    makers = [lambda: SgdolMomentum(np.zeros(2), M=1002.0),
              lambda: Sgd(np.zeros(2), lr=1e-3),
              lambda: SgdolMomentum(np.zeros(2), M=1002.0, clamp_beta=True),
              lambda: Sgdol(np.zeros(2), M=1002.0)]
    groups = [[make() for _ in rngs] for make in makers]
    outs = [[RngStream(10 + i), RngStream(20 + i)] for i in range(len(makers))]
    results = _run_groups(groups, oracle, 50, rngs, outs, report_every=3)
    assert routes.kernels == ["sgd", "sgdol_global"]
    assert routes.kernel_steps == {"sgd": 100, "sgdol_global": 100} and routes.index_sums == 0
    for i, make in enumerate(makers):
        for r, rng in enumerate(rngs):
            expected = run(make(), oracle, 50, rng, report_every=3, output_rng=outs[i][r])
            assert _result_bits(results[i][r]) == _result_bits(expected), (i, r)


@pytest.mark.parametrize("clamp_beta", [False, True])
def test_momentum_update_plays_the_learned_beta(clamp_beta):
    oracle = QuadraticOracle(np.ones(3), sigma=1.0)
    opt = SgdolMomentum(np.zeros(3), M=1.0, clamp_beta=clamp_beta)
    run(opt, oracle, 5, RngStream(1))
    eta, beta = opt.ftrl.stepsize()  # read before the update
    beta = 0.0 if clamp_beta else beta
    x, z = opt.x, opt.z
    g, g_prime = oracle.pairs(opt.x, oracle.draw(RngStream(2).generator(), 1))[0]
    assert opt.update(g, g_prime) == eta
    assert clamp_beta or beta != 1.0  # warm: not the learner's first play, 1/M
    assert _bits(opt.x) == _bits(x - eta * g - beta * z)
    assert "beta" not in vars(opt)
