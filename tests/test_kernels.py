"""Cross-checks between the runs of the kinds that have a fused kernel,
their array-loop references and the generic step path.

``run`` steps such a kind on a fused kernel on Rosenbrock, which stores
x and its stepsizes at record steps and leaves t, f, ||grad f||^2 and the
mean stepsize to the lane engine's code, and on a quadratic of any d, d = 2
included, through the optimizer's own ``update``, with the records summed
in index order, the order that the reference loops and the
``quad_d100_dense`` benchmark digests pin.
The comparisons are exact wherever the paths execute the same floating-point
operations in the same order: each kind's run against its reference
in ``reference_kernels`` (at d >= 8 only for the kinds whose update sums
nothing across coordinates, as numpy sums 8 elements and more pairwise), and
against the generic path on iterates, stepsizes and optimizer state at every
d. At d >= 8 only the records that sum across coordinates, f, ||grad f||^2
and the mean of per-coordinate stepsizes, differ from the generic path's;
``test_kernel_matches_generic_on_quadratic_d100_within_summation_order``
states by how much.
"""

import inspect
import tracemalloc
import warnings
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdol._kernels as kernels
from reference_generic import trajectories_equal as _trajectories_equal
from reference_kernels import (
    ORACLE_QUADRATIC,
    ORACLE_ROSENBROCK,
    REFERENCE_KERNELS,
    fold_round,
    reference_params,
)
from sgdol import (
    AdaGradCoord,
    AdaGradGlobal,
    Adam,
    QuadraticOracle,
    RegretLedger,
    RngStream,
    RosenbrockOracle,
    Sgd,
    SgdGhadimiLan,
    Sgdol,
    SgdolCoord,
    dot,
    run,
    run_lanes,
    sq_norm,
)
from sgdol.optimizers import _kernel_args, _set_attr

MAKERS = [
    lambda d: Sgdol(np.zeros(d), M=1002.0, alpha=10.0),
    lambda d: SgdolCoord(np.zeros(d), M=1002.0, alpha=10.0),
    lambda d: Sgd(np.zeros(d), lr=1.0 / 1002.0),
    lambda d: SgdGhadimiLan(np.zeros(d), M=1002.0, sigma=5.0, T=300, f_gap=1.0),
    lambda d: AdaGradGlobal(np.zeros(d), lr=1e-3),
    lambda d: AdaGradCoord(np.zeros(d), lr=1e-3),
    lambda d: Adam(np.zeros(d), lr=1e-3),
]


@pytest.mark.parametrize("make", MAKERS)
def test_kernel_matches_generic_on_rosenbrock(make):
    oracle = RosenbrockOracle(sigma=5.0)
    r1 = run(make(2), oracle, T=300, rng=RngStream(70), report_every=1)
    r2 = run(make(2), oracle, T=300, rng=RngStream(70), report_every=1,
             force_generic=True)
    assert _trajectories_equal(r1, r2)


@pytest.mark.parametrize("make", MAKERS)
def test_kernel_matches_generic_on_quadratic_d5(make):
    oracle = QuadraticOracle(np.linspace(0.2, 1.0, 5), sigma=0.7)
    r1 = run(make(5), oracle, T=200, rng=RngStream(71), report_every=3)
    r2 = run(make(5), oracle, T=200, rng=RngStream(71), report_every=3,
             force_generic=True)
    assert _trajectories_equal(r1, r2)


def _chunk_crossing_T(d):
    """A horizon that crosses noise-chunk boundaries of a kernel kind's run.

    It draws about ``_CHUNK_FLOATS`` noise floats at a time, in pairs of 2d
    floats. The horizon is not a multiple of the chunk.
    """
    return kernels._CHUNK_FLOATS // d + 77


@pytest.mark.parametrize("make", MAKERS)
def test_kernel_matches_generic_on_rosenbrock_across_noise_chunks(make):
    oracle = RosenbrockOracle(sigma=5.0)
    T = _chunk_crossing_T(2)
    r1 = run(make(2), oracle, T=T, rng=RngStream(76), report_every=1)
    r2 = run(make(2), oracle, T=T, rng=RngStream(76), report_every=1,
             force_generic=True)
    assert _trajectories_equal(r1, r2)


@pytest.mark.parametrize("make", MAKERS)
def test_kernel_matches_generic_on_quadratic_d5_across_noise_chunks(make):
    oracle = QuadraticOracle(np.linspace(0.2, 1.0, 5), sigma=0.7)
    T = _chunk_crossing_T(5)
    r1 = run(make(5), oracle, T=T, rng=RngStream(77), report_every=7)
    r2 = run(make(5), oracle, T=T, rng=RngStream(77), report_every=7,
             force_generic=True)
    assert _trajectories_equal(r1, r2)


def _bits(value):
    """Dtype, shape and bytes of a value: equal means bitwise equal, NaNs included."""
    a = np.asarray(value)
    return a.dtype, a.shape, a.tobytes()


def _state_bits(optimizer):
    """Bits of each state attribute of an optimizer, then of its regret ledger's running values."""
    ledger = getattr(optimizer, "ledger", None)
    return [_bits(attrgetter(attr)(optimizer)) for attr in optimizer.state] + (
        [] if ledger is None else [_bits(getattr(ledger, v)) for v in RegretLedger.VALUES])


def _result_bits(res):
    """k, then the bits of a run's iterates and every series it recorded."""
    traj = res.trajectory
    values = (res.x_final, res.x_k, traj.t, traj.f_value, traj.true_grad_sq_norm, traj.stepsize,
              traj.stepsize_coords)
    return [res.k] + [_bits(v) for v in values if v is not None]


@pytest.mark.parametrize("make", [
    *MAKERS, lambda d: Sgdol(np.zeros(d), M=1002.0, alpha=10.0, record_regret=True)])
def test_kernel_matches_generic_on_quadratic_d100_within_summation_order(make):
    # Both paths step the optimizer's own update on the same pairs, so the
    # iterates, every stepsize a step uses and the optimizer state agree bit
    # for bit. The records that sum across coordinates do not: the run sums
    # f, ||grad f||^2 and the mean of per-coordinate stepsizes in index order,
    # as the reference loops do, and the engine sums them pairwise from 8
    # elements up. Each such sum then differs by a few ulps of its terms. The
    # largest relative difference of any of them was 1.3e-15 (sgdol_coord's
    # mean stepsize), at this seed and over seeds 60-79 of this set-up alike;
    # the tolerance leaves five orders of magnitude above that, far below what
    # a wrong record would give.
    oracle = QuadraticOracle(np.arange(1, 101) / 100, sigma=1.0)
    o1, o2 = make(100), make(100)
    r1 = run(o1, oracle, T=200, rng=RngStream(84), report_every=1)
    r2 = run(o2, oracle, T=200, rng=RngStream(84), report_every=1, force_generic=True)
    t1, t2 = r1.trajectory, r2.trajectory
    assert np.array_equal(t1.t, t2.t) and r1.k == r2.k
    coord = t2.stepsize_coords is not None
    exact = [(r1.x_final, r2.x_final), (r1.x_k, r2.x_k),
             (t1.stepsize_coords, t2.stepsize_coords)]
    if not coord:
        exact.append((t1.stepsize, t2.stepsize))
    assert [_bits(a) for a, _ in exact] == [_bits(b) for _, b in exact]
    assert _state_bits(o1) == _state_bits(o2)
    close = [(t1.f_value, t2.f_value), (t1.true_grad_sq_norm, t2.true_grad_sq_norm)]
    if coord:
        close.append((t1.stepsize, t2.stepsize))
    for a, b in close:
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("sigma", [0.0, (0.0, 5.0)], ids=["sigma0", "sigma0-5"])
@pytest.mark.parametrize("make", MAKERS)
def test_kernel_matches_generic_on_rosenbrock_with_zero_noise_bitwise(make, sigma):
    # A kernel adds the pre-scaled noise sigma * z, which is -0.0 for a
    # negative z at sigma 0; r + -0.0 must leave every bit as the engine's
    # r + sigma * z does, signed zeros included.
    oracle = RosenbrockOracle(sigma=sigma)
    o1, o2 = make(2), make(2)
    r1 = run(o1, oracle, T=_chunk_crossing_T(2), rng=RngStream(78), report_every=1)
    r2 = run(o2, oracle, T=_chunk_crossing_T(2), rng=RngStream(78), report_every=1,
             force_generic=True)
    assert _result_bits(r1) == _result_bits(r2)
    assert _state_bits(o1) == _state_bits(o2)


def _warm(kind, x, rs):
    """An optimizer of ``kind`` at x with non-zero state drawn from rs.

    The sgdol_global one carries a regret ledger, warm too, so its running
    values are compared too.
    """
    d = x.shape[0]
    if kind == "sgdol_global":
        opt = Sgdol(x, M=1002.0, alpha=10.0, record_regret=True)
        state = [rs.normal(), 40.0 * rs.random(),
                 6, rs.normal(), rs.normal(), 40.0 * rs.random(), 9.0 * rs.random(), rs.random()]
        for name, value in zip(RegretLedger.VALUES, state[2:], strict=True):
            setattr(opt.ledger, name, value)
        del state[2:]
    elif kind == "sgdol_coord":
        opt = SgdolCoord(x, M=1002.0, alpha=10.0)
        state = [rs.normal(size=d), 40.0 * rs.random(d)]
    elif kind == "sgd":
        opt, state = Sgd(x, lr=1e-3), []
    elif kind == "sgd_gl":
        opt, state = SgdGhadimiLan(x, M=1002.0, sigma=5.0, T=300, f_gap=1.0), []
    elif kind == "adagrad_global":
        opt, state = AdaGradGlobal(x, lr=1e-2), [10.0 * rs.random()]
    elif kind == "adagrad_coord":
        opt, state = AdaGradCoord(x, lr=1e-2), [10.0 * rs.random(d)]
    else:
        assert kind == "adam"
        opt = Adam(x, lr=1e-3)
        state = [rs.normal(size=d), rs.random(d), 0.9 ** 5, 0.999 ** 5]
    for attr, value in zip(opt.state, state, strict=True):
        _set_attr(opt, attr, value)
    return opt


def _oracle(oracle_id, d):
    """Rosenbrock or a d-dimensional quadratic, with a different noise level per coordinate."""
    sigma = np.linspace(0.5, 5.0, d)
    if oracle_id == ORACLE_ROSENBROCK:
        return RosenbrockOracle(sigma=sigma)
    return QuadraticOracle(np.arange(1, d + 1) / d, sigma=sigma)


def _slices(noise):
    """A ``draw`` that ignores its stream and serves the next n pairs of a pre-drawn noise array."""
    served = 0

    def draw(rng, n):
        nonlocal served
        served += n
        return noise[served - n:served]
    return draw


def _folded_ledger(opt, oracle, noise):
    """The running values of ``opt``'s regret ledger once it has stepped on ``noise``,
    folded a round at a time by ``fold_round``.

    A twin without a ledger takes the steps by hand on ``oracle.pairs``.
    """
    twin = Sgdol(opt.x, M=opt.M, alpha=opt.alpha, curvature_scale=opt.ftrl.curvature_scale)
    twin.ftrl.sum_inner, twin.ftrl.sum_sq = opt.ftrl.sum_inner, opt.ftrl.sum_sq
    values = tuple(getattr(opt.ledger, v) for v in RegretLedger.VALUES)
    with np.errstate(all="ignore"):
        for entry in noise:
            g, g_prime = oracle.pairs(twin.x, entry)
            eta = twin.update(g, g_prime)
            values = fold_round(values, opt.M, opt.alpha, twin.ftrl.curvature_scale, eta,
                                dot(g, g_prime), sq_norm(g), sq_norm(g_prime))
    return values


def _run_against_reference(kind, oracle, x0, stride, T, noise, draw, rs):
    """``run`` of a warm optimizer of ``kind`` with ``draw`` as the oracle's, and its reference.

    The reference kernel is fed ``noise``, the parameters and state that
    the optimizer hands a kernel, and the output index run picked. Returns
    the bits of everything each returns or leaves behind, in the same
    order, a regret ledger's running values last and folded a round at a
    time for the reference, then the n of each draw call and the run's
    result.
    """
    oracle_id, diag, sigma = reference_params(oracle)
    x = np.broadcast_to(np.asarray(x0, dtype=float), (oracle.dim,)).copy()
    opt = _warm(kind, x, rs)
    ledger = getattr(opt, "ledger", None)
    folded = () if ledger is None else _folded_ledger(opt, oracle, noise)
    # Arrays, not the kernel's tuples: the reference updates them in place.
    args = [np.array(v) if isinstance(v, tuple) else v for v in _kernel_args(opt)]
    calls = []

    def counted(rng, n):
        calls.append(n)
        return draw(rng, n)
    oracle.draw = counted  # on the instance: the oracle keeps its class, so its path
    res = run(opt, oracle, T=T, rng=RngStream(86), report_every=stride)
    with np.errstate(over="ignore", invalid="ignore"):
        out = REFERENCE_KERNELS[opt.kernel](oracle_id, diag, x, T, sigma, noise, res.k, stride, *args)
    traj = res.trajectory
    coords = traj.stepsize_coords
    ran = [traj.t, traj.f_value, traj.true_grad_sq_norm, traj.stepsize,
           np.empty((len(traj), 0)) if coords is None else coords, res.x_k,
           *(attrgetter(attr)(opt) for attr in opt.state), res.x_final,
           *(() if ledger is None else (getattr(ledger, v) for v in RegretLedger.VALUES))]
    return [_bits(v) for v in ran], [_bits(v) for v in (*out, x, *folded)], calls, res


_KINDS = (*kernels.KERNEL_NAMES, "sgd_gl")
# From 8 coordinates up numpy sums these kinds' <g, g'> and ||g||^2 pairwise,
# and their references sum in index order; see
# test_kernel_matches_generic_on_quadratic_d100_within_summation_order.
_PAIRWISE_KINDS = ("sgdol_global", "adagrad_global")

# Steps per Rosenbrock noise chunk, and a horizon at which the seventh
# chunk, steps 3072-3583, holds no multiple of 600.
_CHUNK_STEPS = kernels._CHUNK_FLOATS // 4
_RECORDLESS_CHUNK_T = 7 * _CHUNK_STEPS + 77

# Rosenbrock runs on a kernel, the quadratics of every d through the
# optimizer's own update.
_TWIN_CASES = [
    pytest.param(ORACLE_ROSENBROCK, 2, (-1.2, 1.0), 1, _chunk_crossing_T(2),
                 id="rosenbrock-stride1"),
    pytest.param(ORACLE_ROSENBROCK, 2, (-1.2, 1.0), 7, _chunk_crossing_T(2),
                 id="rosenbrock-stride7"),
    # The shipped config's stride, and one longer than a chunk, at a horizon
    # where some chunk holds no record step.
    *(pytest.param(ORACLE_ROSENBROCK, 2, (-1.2, 1.0), stride, _RECORDLESS_CHUNK_T,
                   id=f"rosenbrock-stride{stride}") for stride in (200, 600)),
    *(pytest.param(ORACLE_QUADRATIC, d, (1.0,), stride, _chunk_crossing_T(d),
                   id=f"quadratic_d{d}-stride{stride}")
      for d in (2, 3, 5, 7, 100) for stride in (1, 7)),
]


def _with_kinds(cases, *extra, every_kind=False):
    """Each case for each kind, with ``extra`` appended to its values.

    Unless ``every_kind``, a case at d >= 8 leaves out the kinds that sum
    pairwise there.
    """
    return [pytest.param(kind, *case.values, *extra, id=f"{case.id}-{kind}")
            for case in cases for kind in _KINDS
            if every_kind or case.values[1] < 8 or kind not in _PAIRWISE_KINDS]


@pytest.mark.parametrize("kind, oracle_id, d, x0, stride, T, diverges", [
    *_with_kinds(_TWIN_CASES, False),
    # The gradient overflows at once, and every iterate turns inf or nan.
    *_with_kinds([pytest.param(ORACLE_ROSENBROCK, 2, (1e150, 1e150), 1, 60,
                               id="rosenbrock-diverging")], True, every_kind=True),
    # f and ||g||^2 overflow at once; only the SGDOL iterates turn nan (inf / inf
    # stepsizes), the other kinds' steps shrink x. Every sum is inf or nan in
    # any order, so the pairwise kinds match their references here too.
    *_with_kinds([pytest.param(ORACLE_QUADRATIC, d, (1e155,), 1, 60,
                               id=f"quadratic_d{d}-diverging") for d in (5, 100)], True,
                 every_kind=True),
])
def test_python_twin_matches_array_source_bitwise(kind, oracle_id, d, x0, stride, T, diverges):
    # The twin of an array source is the package loop that runs its kind:
    # the kernel on Rosenbrock, the optimizer's own update on a quadratic.
    rs = np.random.default_rng(85)
    noise = rs.standard_normal((T, 2, d))
    ran, ref, _, res = _run_against_reference(kind, _oracle(oracle_id, d), x0, stride, T, noise,
                                              _slices(noise), rs)
    assert ran == ref
    assert np.all(np.isfinite(res.trajectory.f_value)) != diverges
    if oracle_id == ORACLE_ROSENBROCK or not diverges:
        assert np.all(np.isfinite(res.x_final)) != diverges


@pytest.mark.parametrize("make", MAKERS)
@pytest.mark.parametrize("d", [2, 100])
def test_diverging_quadratic_run_warns_nothing(make, d):
    # Float arithmetic overflows silently; the update loop must too.
    opt = make(d)
    opt.x = np.full(d, 1e155)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(opt, QuadraticOracle(np.arange(1, d + 1) / d, sigma=1.0), T=60,
                  rng=RngStream(88), report_every=1)
    assert not np.any(np.isfinite(res.trajectory.f_value))


@pytest.mark.parametrize("make", MAKERS)
def test_diverging_rosenbrock_run_warns_nothing(make):
    # A kernel stores x_t; f and ||grad f||^2 come from numpy after the loop,
    # where an overflow warns unless it is silenced.
    opt = make(2)
    opt.x = np.full(2, 1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(opt, RosenbrockOracle(sigma=1.0), T=60, rng=RngStream(88), report_every=1)
    assert not np.any(np.isfinite(res.trajectory.f_value))


@pytest.mark.parametrize("kind, oracle_id, d, x0, stride, T", _with_kinds(_TWIN_CASES))
def test_kernel_draws_exactly_T_pairs_a_chunk_at_a_time(kind, oracle_id, d, x0, stride, T):
    # The run pulls from the oracle's draw on one stream; the reference gets
    # one bulk draw of T pairs from an equal stream.
    oracle = _oracle(oracle_id, d)
    noise = oracle.draw(RngStream(86).generator(), T)
    ran, ref, calls, _ = _run_against_reference(kind, oracle, x0, stride, T, noise, oracle.draw,
                                                np.random.default_rng(87))
    assert sum(calls) == T
    assert 1 <= max(calls) <= max(1, kernels._CHUNK_FLOATS // (2 * d)) < T
    assert ran == ref


def test_long_stride_twin_cases_skip_a_chunk_and_split_one_at_k():
    # The record test of a kernel call must find the next record step when
    # the call holds none, and when it starts mid-chunk after x_k.
    T = _RECORDLESS_CHUNK_T
    starts = range(0, T, _CHUNK_STEPS)
    assert any(-(-c0 // 600) * 600 >= min(c0 + _CHUNK_STEPS, T) for c0 in starts)
    # The output index of the twin runs, which depends on T and the stream only.
    res = run(Sgd(np.zeros(2), lr=1e-3), RosenbrockOracle(), T=T, rng=RngStream(86),
              report_every=600)
    assert (res.k - 1) % _CHUNK_STEPS != 0


@pytest.mark.parametrize("kind", _KINDS)
def test_kernel_takes_the_parameters_then_the_class_state(kind):
    # After stride a kernel takes the optimizer's parameters and the state
    # its class declares, and no more: a regret ledger's running values are
    # not state, and never reach a kernel.
    opt = _warm(kind, np.zeros(2), np.random.default_rng(0))
    params = list(inspect.signature(kernels.get_kernel(opt.kernel)).parameters.values())
    assert [p.name for p in params[:5]] == ["noise", "x", "c0", "T", "stride"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert len(params) - 5 == len(opt.params) + len(opt.state) == len(_kernel_args(opt))


@pytest.mark.parametrize("name", kernels.KERNEL_NAMES)
def test_kernel_takes_T_as_its_fourth_positional_argument(name):
    # perfbench/layers.py reads the T of a traced kernel call as a[3].
    params = list(inspect.signature(kernels.get_kernel(name)).parameters.values())
    assert params[3].name == "T"
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:4])


@pytest.mark.parametrize("name", kernels.KERNEL_NAMES)
@pytest.mark.parametrize("T", [1, 7])
def test_every_kernel_reads_four_noise_floats_a_step(name, T):
    # One noise layout for every kernel: g's two floats, then g''s two, which
    # the one-gradient kernels read and skip.
    opt = _warm(name, np.zeros(2), np.random.default_rng(3))
    noise = iter(np.random.default_rng(4).standard_normal(4 * T + 3).tolist())
    kernels.get_kernel(name)(noise, tuple(opt.x.tolist()), 0, T, 1, *_kernel_args(opt))
    assert len(list(noise)) == 3


def test_kernel_restores_optimizer_state():
    oracle = RosenbrockOracle(sigma=1.0)
    o1 = Sgdol(np.zeros(2), M=1002.0)
    o2 = Sgdol(np.zeros(2), M=1002.0)
    run(o1, oracle, T=100, rng=RngStream(72))
    run(o2, oracle, T=100, rng=RngStream(72), force_generic=True)
    assert o1.ftrl.sum_inner == o2.ftrl.sum_inner
    assert o1.ftrl.sum_sq == o2.ftrl.sum_sq


@pytest.mark.parametrize("force_generic", [False, True], ids=["kernel", "generic"])
@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("make", MAKERS)
def test_run_leaves_arrays_the_caller_holds_unchanged(make, d, force_generic):
    # A run gives the optimizer a new iterate and new array state on both
    # paths; arrays the caller handed it or took from it keep their values.
    oracle = (RosenbrockOracle(sigma=1.0) if d == 2
              else QuadraticOracle(np.linspace(0.2, 1.0, d), sigma=1.0))
    opt = make(d)
    opt.x = np.full(d, 0.5)
    state = (attrgetter(attr)(opt) for attr in opt.state)
    held = [opt.x] + [v for v in state if isinstance(v, np.ndarray)]
    before = [a.copy() for a in held]
    run(opt, oracle, T=10, rng=RngStream(1), force_generic=force_generic)
    assert all(np.array_equal(a, b) for a, b in zip(held, before))
    assert not np.array_equal(opt.x, before[0])


def test_used_optimizer_still_takes_the_kernel(routes):
    oracle = RosenbrockOracle(sigma=1.0)
    opt = Sgdol(np.zeros(2), M=1002.0)
    opt.update(np.ones(2), np.ones(2))  # state no longer fresh
    res = run(opt, oracle, T=10, rng=RngStream(73))
    assert len(res.trajectory) >= 1
    assert routes.groups == [[[opt]]]
    assert routes.kernels == ["sgdol_global"] and routes.kernel_steps == {"sgdol_global": 10}


def test_subclass_of_a_builtin_oracle_runs_on_its_own_objective(routes):
    class Shifted(QuadraticOracle):
        """The quadratic with its optimum moved from 0 to 1."""

        def f_lanes(self, X):
            return super().f_lanes(X - 1.0)

        def grad_lanes(self, X):
            return super().grad_lanes(X - 1.0)

    oracle = Shifted(np.ones(3))
    opt = Sgd(np.zeros(3), lr=0.5)
    res = run(opt, oracle, T=50, rng=RngStream(5), report_every=1)
    # Stepped through update, with the records summed as on any oracle.
    assert routes.groups == [[[opt]]]
    assert routes.kernels == [] and routes.index_sums == 0
    assert res.trajectory.f_value[0] == 1.5
    np.testing.assert_allclose(res.x_final, 1.0, rtol=0.0, atol=1e-12)  # 1 - 2**-50
    assert _trajectories_equal(res, run(Sgd(np.zeros(3), lr=0.5), oracle, T=50, rng=RngStream(5),
                                        report_every=1, force_generic=True))


def _warmed_up(make, oracle, steps):
    """A new optimizer after ``steps`` generic steps on a stream of its own."""
    opt = make(oracle.dim)
    gen = RngStream(90).generator()
    for _ in range(steps):
        opt.update(*oracle.pairs(opt.x, oracle.draw(gen, 1))[0])
    return opt


def _agree_after_warm_up(make, oracle, steps, T, stride, seed):
    """Kernel and generic runs of two equally used optimizers, twice in a row.

    The second run starts from the state the first one wrote back.
    """
    o1, o2 = _warmed_up(make, oracle, steps), _warmed_up(make, oracle, steps)
    for leg in (seed, seed + 1):
        r1 = run(o1, oracle, T=T, rng=RngStream(leg), report_every=stride)
        r2 = run(o2, oracle, T=T, rng=RngStream(leg), report_every=stride, force_generic=True)
        if not _trajectories_equal(r1, r2):
            return False
    return True


@pytest.mark.parametrize("make", MAKERS)
def test_used_optimizer_kernel_matches_generic_on_rosenbrock(make):
    assert _agree_after_warm_up(make, RosenbrockOracle(sigma=5.0), steps=7, T=300, stride=1,
                                seed=80)


@pytest.mark.parametrize("make", MAKERS)
def test_used_optimizer_kernel_matches_generic_on_quadratic_d5(make):
    oracle = QuadraticOracle(np.linspace(0.2, 1.0, 5), sigma=0.7)
    assert _agree_after_warm_up(make, oracle, steps=5, T=200, stride=3, seed=82)


@settings(max_examples=40, deadline=None, database=None)
@given(maker=st.integers(0, len(MAKERS) - 1), rosenbrock=st.booleans(), d=st.integers(1, 6),
       sigma=st.floats(0.0, 3.0), T=st.integers(1, 80), stride=st.integers(1, 10),
       steps=st.integers(0, 6), seed=st.integers(0, 2**32))
def test_kernel_matches_generic_after_any_warm_up(maker, rosenbrock, d, sigma, T, stride,
                                                  steps, seed):
    if rosenbrock:
        oracle = RosenbrockOracle(sigma=sigma)
    else:
        oracle = QuadraticOracle(np.linspace(0.2, 1.0, d), sigma=sigma)
    assert _agree_after_warm_up(MAKERS[maker], oracle, steps, T, stride, seed)


def _ledger_values(optimizer):
    """Bits of each running value of an optimizer's regret ledger."""
    return [_bits(getattr(optimizer.ledger, v)) for v in RegretLedger.VALUES]


def _ledger_runs(make, oracle, T, seed):
    """A ledger-carrying optimizer run on the kernel, and an equal one on the generic path."""
    opts = [make(), make()]
    for opt, generic in zip(opts, (False, True)):
        run(opt, oracle, T=T, rng=RngStream(seed), force_generic=generic)
    return opts


def _output_stream_with_k(T, offset):
    """An output stream whose step k is the ``offset``-th of a Rosenbrock noise chunk."""
    return next(s for s in (RngStream(94, i) for i in range(100_000))
                if (int(s.generator().integers(1, T + 1)) - 1) % _CHUNK_STEPS == offset)


@pytest.mark.parametrize("offset", [0, _CHUNK_STEPS - 1], ids=["k_opens_a_chunk",
                                                              "k_closes_a_chunk"])
@pytest.mark.parametrize("stride", [1, 7, 600])
def test_kernel_ledger_equals_a_per_round_fold_at_chunk_edges(stride, offset):
    # The kernel run folds each chunk's rounds into the ledger at once,
    # after its calls on either side of k, and keeps the rows of record
    # steps alone. Its ledger must equal a fold a round at a time and the
    # lane loop's, in type and bytes, whichever step of a chunk k is.
    T = _RECORDLESS_CHUNK_T
    oracle = RosenbrockOracle(sigma=2.0)
    out = _output_stream_with_k(T, offset)
    noise = oracle.draw(RngStream(92).generator(), T)
    kernel, lanes = (_warm("sgdol_global", np.array([-1.2, 1.0]), np.random.default_rng(93))
                     for _ in range(2))
    folded = _folded_ledger(kernel, oracle, noise)
    res = run(kernel, oracle, T=T, rng=RngStream(92), report_every=stride, output_rng=out)
    ref = run(lanes, oracle, T=T, rng=RngStream(92), report_every=stride, output_rng=out,
              force_generic=True)
    assert (res.k - 1) % _CHUNK_STEPS == offset
    assert _result_bits(res) == _result_bits(ref)
    assert _ledger_values(kernel) == _ledger_values(lanes) == [_bits(v) for v in folded]
    assert [type(getattr(kernel.ledger, v)) for v in RegretLedger.VALUES] == [int] + [float] * 5


def test_a_ledger_holds_one_type_on_every_path():
    # A kernel's chunk folds and the lane loop's, on one lane or on stacked
    # lanes, all leave an int count and Python floats, so a check built on
    # the ledger gives a plain bool.
    oracle = RosenbrockOracle(sigma=2.0)

    def make():
        return Sgdol(np.zeros(2), M=1002.0, record_regret=True)
    kernel, lane, stacked = make(), make(), [make(), make()]
    run(kernel, oracle, T=50, rng=RngStream(95))
    run(lane, oracle, T=50, rng=RngStream(95), force_generic=True)
    run_lanes([stacked], oracle, 50, [RngStream(95), RngStream(96)],
              [[RngStream(97), RngStream(98)]])
    for opt in (kernel, lane, *stacked):
        assert [type(getattr(opt.ledger, v)) for v in RegretLedger.VALUES] == [int] + [float] * 5
    assert _ledger_values(kernel) == _ledger_values(lane)


def test_attached_ledger_is_filled_on_both_paths():
    kernel, generic = _ledger_runs(lambda: Sgdol(np.zeros(2), M=1002.0, record_regret=True),
                                   RosenbrockOracle(sigma=2.0), 150, 79)
    assert kernel.ledger.count == generic.ledger.count == 150
    assert _ledger_values(kernel) == _ledger_values(generic)


def test_warm_learner_ledger_covers_every_round():
    # Noisy rounds, then noiseless ones from a reset iterate. A ledger that
    # started only at the second run reported a min slack of -5.72 here; the
    # learner's own ledger covers all 2200 rounds and the bound holds.
    for generic in (False, True):
        opt = Sgdol(np.ones(2), M=1.0, record_regret=True)
        run(opt, QuadraticOracle([1.0, 1.0], sigma=20.0), T=2000, rng=RngStream(1),
            force_generic=generic)
        opt.x = np.ones(2)
        run(opt, QuadraticOracle([1.0, 1.0], sigma=0.0), T=200, rng=RngStream(2),
            force_generic=generic)
        ledger = opt.ledger
        assert ledger.count == 2200
        L = ledger.max_grad_norm()
        slack = min(ledger.regret_bound_rhs(float(eta), L) - ledger.regret_vs(float(eta))
                    for eta in np.linspace(0.0, 2.0, 32))
        assert slack >= 0.0


def test_kernel_ledger_keeps_nan_once_the_run_diverges():
    opt = Sgdol(np.zeros(2), M=1.0, record_regret=True)
    res = run(opt, RosenbrockOracle(sigma=5.0), T=200, rng=RngStream(3), report_every=1)
    assert not np.isfinite(res.trajectory.f_value[-1])
    assert opt.ledger.count == 200
    assert np.isnan(opt.ledger.max_grad_norm())
    assert np.isnan(opt.ledger.cumulative_loss)


def _peak_bytes(make, oracle, T, force_generic=False):
    """The tracemalloc peak of a run on ``oracle`` that records one row."""
    tracemalloc.start()
    try:
        run(make(), oracle, T=T, rng=RngStream(78), report_every=T, force_generic=force_generic)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_regret_ledger_memory_does_not_grow_with_T():
    # On the engine; test_kernel_memory_does_not_grow_with_T checks the kernel.
    # The ledger is six running values. A per-step record of its rounds would
    # cost 169 bytes a step here, which is 507 kB between these horizons, 31
    # times the tolerance.
    short, long = (_peak_bytes(lambda: Sgdol(np.zeros(2), M=1002.0, record_regret=True),
                               RosenbrockOracle(sigma=5.0), T, force_generic=True)
                   for T in (1_000, 4_000))
    assert abs(long - short) < 16 * 1024


@pytest.mark.parametrize("make", [lambda: Sgdol(np.zeros(2), M=1002.0, record_regret=True),
                                  lambda: Sgd(np.zeros(2), lr=1.0 / 1002.0)],
                         ids=["sgdol_global", "sgd"])
def test_kernel_memory_does_not_grow_with_T(make):
    # The noise is drawn a chunk at a time, so four times the steps (8 and 32
    # chunks) may not raise the peak; one (T, 2, d) draw would add 384 kB
    # between the two runs, 23 times the tolerance. The sgdol_global run
    # carries a regret ledger, so its loop runs every line that a run without
    # one does, and the ledger's too: six running values, where a per-step
    # record of its rounds would add 65 bytes a step, 780 kB here.
    short, long = (_peak_bytes(make, RosenbrockOracle(sigma=5.0), T) for T in (4_000, 16_000))
    assert abs(long - short) < 16 * 1024
    assert max(short, long) < 256 * 1024


@pytest.mark.parametrize("d", [2, 100])
@pytest.mark.parametrize("make", [
    lambda d: Sgdol(np.zeros(d), M=1002.0, record_regret=True),
    lambda d: SgdolCoord(np.zeros(d), M=1002.0)], ids=["sgdol_global", "sgdol_coord"])
def test_update_loop_memory_does_not_grow_with_T(make, d):
    # Quadratics of every d step through the optimizer's own update, which
    # draws its noise in the kernels' chunks; a (T, 2, d) draw would add
    # 384 kB between these horizons at d = 2 and 19 MB at d = 100.
    oracle = QuadraticOracle(np.arange(1, d + 1) / d, sigma=1.0)
    short, long = (_peak_bytes(lambda: make(d), oracle, T) for T in (4_000, 16_000))
    assert abs(long - short) < 16 * 1024


def test_regret_arrays_match_between_paths():
    # A learner with doubled curvature, warmed by generic steps, then run on both paths.
    def make():
        opt = Sgdol(np.zeros(2), M=1002.0, curvature_scale=2.0, record_regret=True)
        run(opt, RosenbrockOracle(sigma=2.0), T=9, rng=RngStream(74), force_generic=True)
        return opt
    kernel, generic = _ledger_runs(make, RosenbrockOracle(sigma=2.0), 150, 75)
    assert kernel.ledger.count == 159
    assert _ledger_values(kernel) == _ledger_values(generic)
