"""Cross-checks between the fused kernels, the generic step path, and the
JIT/plain backends.

The comparisons are exact wherever the paths execute the same floating-point
operations in the same order: every kernel variant against every other, and
the kernels against the generic path up to d = 7. From 8 elements up numpy
sums pairwise while the kernels sum in index order, so at larger d the
kernels and the generic path agree only to the tolerance that
``test_kernel_matches_generic_on_quadratic_d100_within_summation_order``
states.
"""

import copy
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdol._kernels as kernels
from sgdol import _pykernels
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
    run,
)

MAKERS = [
    lambda d: Sgdol(np.zeros(d), M=1002.0, alpha=10.0),
    lambda d: SgdolCoord(np.zeros(d), M=1002.0, alpha=10.0),
    lambda d: Sgd(np.zeros(d), lr=1.0 / 1002.0),
    lambda d: SgdGhadimiLan(np.zeros(d), M=1002.0, sigma=5.0, T=300, f_gap=1.0),
    lambda d: AdaGradGlobal(np.zeros(d), lr=1e-3),
    lambda d: AdaGradCoord(np.zeros(d), lr=1e-3),
    lambda d: Adam(np.zeros(d), lr=1e-3),
]


def _trajectories_equal(r1, r2):
    t1, t2 = r1.trajectory, r2.trajectory
    return (np.array_equal(r1.x_final, r2.x_final)
            and np.array_equal(r1.x_k, r2.x_k)
            and r1.k == r2.k
            and np.array_equal(t1.t, t2.t)
            and np.array_equal(t1.f_value, t2.f_value)
            and np.array_equal(t1.true_grad_sq_norm, t2.true_grad_sq_norm)
            and np.array_equal(t1.stepsize, t2.stepsize, equal_nan=True)
            and np.array_equal(t1.surrogate_loss_value, t2.surrogate_loss_value)
            and np.array_equal(t1.cumulative_regret_lhs, t2.cumulative_regret_lhs)
            and np.array_equal(t1.stepsize_coords, t2.stepsize_coords))


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
    """A horizon that crosses noise-chunk boundaries of the Python kernels.

    They convert about ``_CHUNK_FLOATS`` noise floats at a time: rows of 2d
    floats for the SGDOL kernels, of d floats for the others. The horizon is
    a multiple of neither chunk.
    """
    return _pykernels._CHUNK_FLOATS // d + 77


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


@pytest.mark.parametrize("make", MAKERS)
def test_kernel_matches_generic_on_quadratic_d100_within_summation_order(make):
    # The kernels sum in index order; core.dot, core.sq_norm and np.sum sum
    # pairwise from 8 elements up. Each sum then differs by a few ulps of its
    # terms, and the surrogate's cancellation (0.5 M eta^2 a - eta b) and
    # iterates near the optimum magnify that in relative terms. The largest
    # relative difference of any recorded value, final iterate or x_k was
    # 2.3e-13 at this seed and 8.7e-13 over seeds 60-79 of this set-up (both
    # sgdol_global's surrogate); the tolerance leaves two orders of magnitude
    # above that, far below what a wrong update rule would produce.
    oracle = QuadraticOracle(np.arange(1, 101) / 100, sigma=1.0)
    r1 = run(make(100), oracle, T=200, rng=RngStream(84), report_every=1)
    r2 = run(make(100), oracle, T=200, rng=RngStream(84), report_every=1, force_generic=True)
    t1, t2 = r1.trajectory, r2.trajectory
    assert np.array_equal(t1.t, t2.t) and r1.k == r2.k
    for a, b in [(r1.x_final, r2.x_final), (r1.x_k, r2.x_k), (t1.f_value, t2.f_value),
                 (t1.true_grad_sq_norm, t2.true_grad_sq_norm), (t1.stepsize, t2.stepsize),
                 (t1.surrogate_loss_value, t2.surrogate_loss_value),
                 (t1.cumulative_regret_lhs, t2.cumulative_regret_lhs),
                 (t1.stepsize_coords, t2.stepsize_coords)]:
        if b is None:
            assert a is None
        else:
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=0.0)


def _kernel_args(name, d, rs):
    """Parameters, then non-zero incoming state, of the named kernel at dimension d."""
    if name == "sgdol_global":  # keep_steps on, so the per-step extras are compared too
        return [1002.0, 10.0, 1.0, True, rs.normal(), 40.0 * rs.random(), 7]
    if name == "sgdol_coord":
        return [1002.0, 10.0, rs.normal(size=d), 40.0 * rs.random(d), 7]
    if name == "sgd":
        return [1e-3]
    if name == "adagrad_global":
        return [1e-2, 10.0 * rs.random()]
    if name == "adagrad_coord":
        return [1e-2, 10.0 * rs.random(d)]
    assert name == "adam"
    return [1e-3, 0.9, 0.999, 1e-8, rs.normal(size=d), rs.random(d), 0.9 ** 5, 0.999 ** 5]


def _bits(value):
    """Dtype, shape and bytes of a value: equal means bitwise equal, NaNs included."""
    a = np.asarray(value)
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("name", kernels.KERNEL_NAMES)
@pytest.mark.parametrize("oracle_id, d, x0, stride, T, diverges", [
    pytest.param(kernels.ORACLE_ROSENBROCK, 2, (-1.2, 1.0), 1, _chunk_crossing_T(2), False,
                 id="rosenbrock-stride1"),
    pytest.param(kernels.ORACLE_ROSENBROCK, 2, (-1.2, 1.0), 7, _chunk_crossing_T(2), False,
                 id="rosenbrock-stride7"),
    pytest.param(kernels.ORACLE_QUADRATIC, 100, (1.0,), 1, _chunk_crossing_T(100), False,
                 id="quadratic_d100-stride1"),
    pytest.param(kernels.ORACLE_QUADRATIC, 100, (1.0,), 7, _chunk_crossing_T(100), False,
                 id="quadratic_d100-stride7"),
    # The gradient overflows at once, and every kernel's iterate turns inf or nan.
    pytest.param(kernels.ORACLE_ROSENBROCK, 2, (1e150, 1e150), 1, 60, True,
                 id="rosenbrock-diverging"),
])
def test_python_twin_matches_array_source_bitwise(name, oracle_id, d, x0, stride, T, diverges):
    rs = np.random.default_rng(85)
    diag = np.arange(1, d + 1) / d
    sigma = np.linspace(0.5, 5.0, d)
    noise = rs.standard_normal((T, 2, d))
    x = np.broadcast_to(np.asarray(x0, dtype=float), (d,))
    args = _kernel_args(name, d, rs)
    assert kernels._PYTHON[name] is not kernels._IMPLS[name]
    runs = []
    for kernel in (kernels._IMPLS[name], kernels._PYTHON[name]):
        xi, argsi = x.copy(), copy.deepcopy(args)  # both are updated in place
        with np.errstate(over="ignore", invalid="ignore"):
            out = kernel(oracle_id, diag, xi, T, sigma, noise, T // 2 + 1, stride, *argsi)
        runs.append([_bits(v) for v in (*out, xi, *argsi)])
    assert runs[0] == runs[1]
    assert np.all(np.isfinite(xi)) != diverges


def test_kernel_restores_optimizer_state():
    oracle = RosenbrockOracle(sigma=1.0)
    o1 = Sgdol(np.zeros(2), M=1002.0)
    o2 = Sgdol(np.zeros(2), M=1002.0)
    run(o1, oracle, T=100, rng=RngStream(72))
    run(o2, oracle, T=100, rng=RngStream(72), force_generic=True)
    assert o1.ftrl.sum_inner == o2.ftrl.sum_inner
    assert o1.ftrl.sum_sq == o2.ftrl.sum_sq
    assert o1.ftrl.t == o2.ftrl.t


def test_used_optimizer_falls_back_to_generic():
    from sgdol import GradientPair

    oracle = RosenbrockOracle(sigma=1.0)
    opt = Sgdol(np.zeros(2), M=1002.0)
    opt.step(GradientPair(np.ones(2), np.ones(2)))  # state no longer fresh
    res = run(opt, oracle, T=10, rng=RngStream(73))
    assert len(res.trajectory) >= 1
    assert opt.ftrl.t == 12


def _warmed_up(make, oracle, steps):
    """A new optimizer after ``steps`` generic steps on a stream of its own."""
    opt = make(oracle.dim)
    gen = RngStream(90).generator()
    for _ in range(steps):
        opt.step(oracle.sample_pair(opt.x, gen))
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


def test_attached_ledger_is_filled_on_both_paths():
    oracle = RosenbrockOracle(sigma=2.0)
    ledgers = [RegretLedger(10.0, 1002.0) for _ in range(2)]
    for ledger, generic in zip(ledgers, (False, True)):
        opt = Sgdol(np.zeros(2), M=1002.0, ledger=ledger)
        res = run(opt, oracle, T=150, rng=RngStream(79), force_generic=generic)
        assert res.ledger is None
    assert ledgers[0].count == ledgers[1].count == 150
    assert ledgers[0].cumulative_loss == ledgers[1].cumulative_loss
    assert ledgers[0].sum_inner == ledgers[1].sum_inner
    assert ledgers[0].sum_sq == ledgers[1].sum_sq


def test_sgdol_global_keeps_no_per_step_arrays_unless_asked():
    T = 20_000
    noise_bytes = T * 2 * 2 * 8  # the bulk (T, 2, d) draw at d = 2
    tracemalloc.start()
    try:
        run(Sgdol(np.zeros(2), M=1002.0), RosenbrockOracle(sigma=5.0), T=T, rng=RngStream(78),
            report_every=T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The noise is the only allocation that grows with T. The four per-step
    # regret arrays would add 32 bytes a step; the bound allows 16, which
    # covers the constant overhead (chunked noise conversion, about 170 kB).
    assert peak < noise_bytes + 16 * T


@pytest.mark.skipif(not kernels.numba_available(), reason="numba not installed")
@pytest.mark.parametrize("make", MAKERS)
def test_jit_and_python_backends_agree_bitwise(make):
    oracle = RosenbrockOracle(sigma=5.0)
    assert kernels.numba_enabled()
    r_jit = run(make(2), oracle, T=250, rng=RngStream(74), report_every=1)
    kernels.set_backend(False)
    try:
        assert not kernels.numba_enabled()
        r_py = run(make(2), oracle, T=250, rng=RngStream(74), report_every=1)
    finally:
        kernels.set_backend(True)
    assert _trajectories_equal(r_jit, r_py)


def test_env_flag_disables_numba():
    env = dict(os.environ, SGDOL_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sgdol._kernels as k; print(k.numba_enabled())"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_regret_arrays_match_between_paths():
    oracle = RosenbrockOracle(sigma=2.0)
    r1 = run(Sgdol(np.zeros(2), M=1002.0), oracle, T=150, rng=RngStream(75),
             record_regret=True)
    r2 = run(Sgdol(np.zeros(2), M=1002.0), oracle, T=150, rng=RngStream(75),
             record_regret=True, force_generic=True)
    assert r1.ledger.cumulative_loss == r2.ledger.cumulative_loss
    assert r1.ledger._etas == r2.ledger._etas
    assert r1.ledger._inners == r2.ledger._inners
    assert r1.ledger._sqs == r2.ledger._sqs
    assert r1.ledger._sqs_prime == r2.ledger._sqs_prime
