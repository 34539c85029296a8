"""Every run on an exact quadratic steps through ``update``.

``optimizers._run_groups`` takes the lane engine's arguments: ``run``
hands it one lane, and ``harness.run_experiment`` every (optimizer x
repetition) run of a quadratic experiment at once, each repetition's noise
drawn once for all of them. No run there steps on a kernel; a kind with a
kernel sums its records in index order, as the kernels' reference does.
Each lane of such an experiment must equal a single ``run`` of that
optimizer on that repetition's streams bit for bit, and the momentum
variant, which has no kernel, must equal its ``force_generic`` run. How the
loop carries a diverging run, and its memory, are pinned here too.
"""

import tracemalloc
import warnings
from operator import attrgetter

import numpy as np
import pytest

import sgdol.harness as harness
from reference_generic import reference_run, trajectories_equal
from sgdol import (
    ExperimentSpec,
    OptimizerConfig,
    OracleSpec,
    QuadraticOracle,
    RngStream,
    SgdolMomentum,
    derive_stream_id,
    run,
    run_experiment,
)
from sgdol._kernels import _CHUNK_FLOATS
from sgdol.cli import cli_main
from sgdol.optimizers import OPTIMIZER_KINDS

REPS = 2


def _chunk_rows(d):
    """Steps per noise chunk at dimension d."""
    return max(1, _CHUNK_FLOATS // (2 * d))


def _configs(d):
    """One config per kind on the quadratic with diag in (0, 1], so M = 1."""
    return {
        "sgdol_global": OptimizerConfig(kind="sgdol_global", M=1.0),
        "sgdol_coord": OptimizerConfig(kind="sgdol_coord", M=1.0, alpha=3.0),
        "sgdol_momentum": OptimizerConfig(kind="sgdol_momentum", M=1.0),
        "sgd": OptimizerConfig(kind="sgd", lr=0.5),
        "adagrad_global": OptimizerConfig(kind="adagrad_global", lr=2.0),
        "adagrad_coord": OptimizerConfig(kind="adagrad_coord", lr=0.5),
        "adam": OptimizerConfig(kind="adam", lr=0.05),
        "sgd_gl": OptimizerConfig(kind="sgd_gl", M=1.0, sigma=3.0, T=500, f_gap=1.0),
    }


def _spec(d, T, report_every, configs):
    oracle = OracleSpec(kind="quadratic", diag=np.arange(1, d + 1) / d, sigma=0.7)
    return ExperimentSpec(oracle=oracle, optimizers=list(configs.items()), T=T,
                          repetitions=REPS, seed=31, report_every=report_every,
                          keep_raw=True)


def _streams(spec, opt_idx, rep):
    """The oracle and output streams ``run_experiment`` gives (optimizer, repetition)."""
    return (RngStream(spec.seed, derive_stream_id(harness._PURPOSE_ORACLE, rep)),
            RngStream(spec.seed, derive_stream_id(harness._PURPOSE_OUTPUT, opt_idx, rep)))


def _bits(value):
    """Dtype, shape and bytes of a value: equal means bitwise equal, NaNs included."""
    a = np.asarray(value)
    return a.dtype, a.shape, a.tobytes()


def _result_bits(res):
    traj = res.trajectory
    return [res.k] + [_bits(v) for v in (res.x_final, res.x_k, traj.t, traj.f_value,
                                         traj.true_grad_sq_norm, traj.stepsize)] + [
        None if traj.stepsize_coords is None else _bits(traj.stepsize_coords)]


def _state_bits(optimizer):
    return [_bits(optimizer.x)] + [_bits(attrgetter(attr)(optimizer))
                                   for attr in optimizer.state]


@pytest.mark.parametrize("report_every", [1, 3, 7])
@pytest.mark.parametrize("d", [2, 5, 100])
def test_each_experiment_lane_equals_its_single_run(d, report_every, routes):
    # A horizon past one noise chunk and not a multiple of its rows, so the
    # record steps straddle chunk edges.
    T = _chunk_rows(d) + 77
    configs = _configs(d)
    spec = _spec(d, T, report_every, configs)
    table = run_experiment(spec)
    [groups] = routes.groups
    assert routes.kernels == [] and routes.index_sums > 0
    oracle = spec.oracle.build(spec.seed)
    x0 = np.zeros(d)
    for i, (name, cfg) in enumerate(configs.items()):
        for rep in range(REPS):
            rng, out = _streams(spec, i, rep)
            single = cfg.build(x0)
            expected = run(single, oracle, T, rng, report_every=report_every, output_rng=out)
            lane = table.series[name].raw[rep]
            assert _result_bits(lane) == _result_bits(expected), (name, rep)
            assert _state_bits(groups[i][rep]) == _state_bits(single), (name, rep)


@pytest.mark.parametrize("report_every", [1, 3, 7])
@pytest.mark.parametrize("d", [2, 5, 100])
def test_momentum_on_a_quadratic_equals_its_engine_run(d, report_every, routes):
    oracle = QuadraticOracle(np.arange(1, d + 1) / d, sigma=0.7)
    T = _chunk_rows(d) + 77
    o1, o2 = SgdolMomentum(np.zeros(d), M=1.0), SgdolMomentum(np.zeros(d), M=1.0)
    r1 = run(o1, oracle, T, RngStream(32), report_every=report_every)
    r2 = run(o2, oracle, T, RngStream(32), report_every=report_every, force_generic=True)
    # The momentum variant has no kernel: it sums no record in index order.
    assert routes.groups == [[[o1]], [[o2]]]
    assert routes.kernels == [] and routes.index_sums == 0
    assert _result_bits(r1) == _result_bits(r2)
    assert _state_bits(o1) == _state_bits(o2)


def test_every_kind_steps_through_update_on_the_exact_quadratic(routes):
    # No kind takes a kernel, and exactly the kinds with one sum in index order.
    assert set(_configs(3)) == set(OPTIMIZER_KINDS)
    oracle = QuadraticOracle(np.ones(3))
    optimizers = [cfg.build(np.zeros(3)) for cfg in _configs(3).values()]
    for opt in optimizers:
        index_sums = routes.index_sums
        run(opt, oracle, 1, RngStream(1))
        assert (routes.index_sums > index_sums) == (opt.kernel is not None), opt.kind
    assert routes.groups == [[[opt]] for opt in optimizers]
    assert routes.kernels == []


# M = 1 is far below the curvature 100: every iterate overflows within 200 steps.
_DIVERGING = dict(oracle=OracleSpec(kind="quadratic", diag=np.full(3, 100.0), sigma=1.0),
                  T=300, repetitions=2, seed=1, report_every=1)


def test_diverging_momentum_run_is_data_on_both_loops():
    # The momentum variant has no kernel: on the exact quadratic, with
    # force_generic and on the reference loop it overflows to the same
    # records and iterates.
    oracle = QuadraticOracle(np.full(3, 100.0), sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [run(SgdolMomentum(np.zeros(3), M=1.0), oracle, 300, RngStream(1), report_every=1,
                   force_generic=generic) for generic in (False, True)]
        expected = reference_run(SgdolMomentum(np.zeros(3), M=1.0), oracle, 300, RngStream(1),
                                 report_every=1)
    assert expected.diverged_at is not None
    assert not np.isfinite(expected.x_final).any()
    for result in got:
        assert trajectories_equal(result, expected)


def test_diverging_momentum_run_leaves_the_other_runs_bit_identical():
    stable = ("sgd", OptimizerConfig(kind="sgd", lr=1e-3))
    momentum = ("momentum", OptimizerConfig(kind="sgdol_momentum", M=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        both, alone = (run_experiment(ExperimentSpec(optimizers=optimizers, keep_raw=True,
                                                     **_DIVERGING))
                       for optimizers in ([stable, momentum], [stable]))
    assert all(result.diverged_at is not None for result in both.series["momentum"].raw)
    for with_it, without in zip(both.series["sgd"].raw, alone.series["sgd"].raw):
        assert with_it.diverged_at is None
        assert trajectories_equal(with_it, without)


def test_diverging_momentum_experiment_prints_nan(tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text("""
[experiment]
oracle = quadratic
diag = 100 100 100
sigma = 1
t = 300
repetitions = 2
seed = 1

[optimizer.momentum]
kind = sgdol_momentum
m = 1
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["run", str(config)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "momentum: 300 recorded points, final grad_sq_norm nan\n"
    assert captured.err == ""


def test_diverging_kernel_kinds_overflow_silently():
    # Stepsizes of 1/M and 0.5 against the curvature 100: the iterates
    # overflow, and a kind with a kernel carries inf and nan to the end.
    kinds = ("sgdol_global", "sgdol_coord", "sgd")
    spec = ExperimentSpec(optimizers=[(k, _configs(3)[k]) for k in kinds], **_DIVERGING)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_experiment(spec)
    for name in kinds:
        assert not np.isfinite(table.series[name].f_value[-1]), name


def test_averaging_diverged_repetitions_warns_nothing():
    # Three repetitions of SGD at lr = 1 against the curvature 100 hold huge
    # finite values before they overflow; their sum overflows silently.
    spec = ExperimentSpec(optimizers=[("sgd", OptimizerConfig(kind="sgd", lr=1.0))],
                          **{**_DIVERGING, "repetitions": 3})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_experiment(spec)
    f_value = table.series["sgd"].f_value
    assert np.isfinite(f_value[0]) and not np.isfinite(f_value[-1])


def _peak_and_output_bytes(T):
    """The tracemalloc peak of a d=100 quadratic experiment, and the bytes of what it returns."""
    configs = {k: _configs(100)[k] for k in ("sgdol_coord", "sgd", "sgdol_momentum")}
    spec = _spec(100, T, 1, configs)
    tracemalloc.start()
    try:
        table = run_experiment(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = []
    for s in table.series.values():
        arrays += [s.t, s.grad_sq_norm, s.f_value, s.stepsize_mean, s.stepsize_coords,
                   s.optimality_gap]
        for res in s.raw:
            traj = res.trajectory
            arrays += [traj.t, traj.f_value, traj.true_grad_sq_norm, traj.stepsize,
                       traj.stepsize_coords]
    return peak, sum(a.nbytes for a in arrays if a is not None)


def test_experiment_memory_grows_only_by_its_records():
    # Four times the steps, all recorded: the peak may grow by the records
    # the experiment returns (the lanes' and the averages') and no more.
    # Between these horizons a (T, 2, d) noise draw per stream would add
    # 0.96 MB, x_t kept for every record of every lane 1.44 MB, and
    # averaging into new arrays the 240 kB of one more per-coordinate series.
    (small, small_out), (large, large_out) = (_peak_and_output_bytes(T) for T in (100, 400))
    assert large - small <= large_out - small_out + 16 * 1024
