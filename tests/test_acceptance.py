"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single summary line (visible with pytest -s). Heavy runs
are computed once and shared via a module-level cache; everything is seeded,
so results and verdicts are deterministic.
"""

import os
import time

import numpy as np

from sgdol import (
    ExperimentSpec,
    FtrlState,
    GradientPair,
    OptimizerConfig,
    OracleSpec,
    QuadraticOracle,
    RngStream,
    RosenbrockOracle,
    Sgd,
    Sgdol,
    SgdolCoord,
    SgdolMomentum,
    SigmoidLossOracle,
    dot,
    ftrl_argmin_oracle,
    run,
    run_experiment,
    sq_norm,
    surrogate_bound_check,
)
from sgdol.core import derive_stream_id
from sgdol.oracles import balance_subsample, load_libsvm

M_ROSEN = 1002.0
ALPHA = 10.0
_cache = {}


def _report(name, passed, detail):
    print(f"\n[{name}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{name}: {detail}"


def _mean_series(sigma, make_opt, T, reps, fields, seed=2026):
    """Average the requested trajectory fields over seeded repetitions."""
    oracle = RosenbrockOracle(sigma=sigma)
    acc = {f: None for f in fields}
    for rep in range(reps):
        rng = RngStream(seed, derive_stream_id(1, rep))
        res = run(make_opt(), oracle, T=T, rng=rng, report_every=1)
        for f in fields:
            arr = getattr(res.trajectory, f)
            acc[f] = arr.copy() if acc[f] is None else acc[f] + arr
    return {f: acc[f] / reps for f in fields}


def _rosenbrock_noise_curves():
    """Shared 40-repetition, T=1e5 runs behind criteria 3 and 4."""
    if "ros_curves" not in _cache:
        t0 = time.perf_counter()
        T, reps = 100000, 40
        curves = {}
        for sigma in (0.2, 5.0):
            curves[("sgdol", sigma)] = _mean_series(
                sigma, lambda: Sgdol(np.zeros(2), M=M_ROSEN, alpha=ALPHA),
                T, reps, ("stepsize", "true_grad_sq_norm"))
        curves[("sgd", 5.0)] = _mean_series(
            5.0, lambda: Sgd(np.zeros(2), lr=1.0 / M_ROSEN),
            T, reps, ("true_grad_sq_norm",))
        _cache["ros_curves"] = (curves, time.perf_counter() - t0)
    return _cache["ros_curves"]


def _stored_ledger_runs(synthetic500):
    """Single-repetition runs of learners that carry a regret ledger."""
    if "ledgers" not in _cache:
        runs = {}
        for sigma in (0.0, 0.2, 5.0):
            opt = Sgdol(np.zeros(2), M=M_ROSEN, alpha=ALPHA, record_regret=True)
            run(opt, RosenbrockOracle(sigma=sigma), T=20000,
                rng=RngStream(3001, int(sigma * 10)))
            runs[f"rosenbrock sigma={sigma}"] = (M_ROSEN, opt.ledger)
        opt = Sgdol(np.ones(5), M=1.0, alpha=ALPHA, record_regret=True)
        run(opt, QuadraticOracle(np.linspace(0.1, 1.0, 5), sigma=0.0), T=200,
            rng=RngStream(3002))
        runs["pl quadratic"] = (1.0, opt.ledger)
        oracle = SigmoidLossOracle(synthetic500, batch_size=1)
        opt = Sgdol(np.zeros(synthetic500.n_features), M=oracle.smoothness, alpha=ALPHA,
                    record_regret=True)
        run(opt, oracle, T=2000, rng=RngStream(3003))
        runs["sigmoid batch=1"] = (oracle.smoothness, opt.ledger)
        _cache["ledgers"] = runs
    return _cache["ledgers"]


def test_c01_ftrl_closed_form_equivalence():
    t0 = time.perf_counter()
    gen = RngStream(1001).generator()
    worst = 0.0
    for _ in range(200):
        T = int(gen.integers(0, 51))
        d = int(gen.integers(1, 9))
        alpha = float(gen.choice(np.array([0.1, 1.0, 10.0])))
        M = float(gen.choice(np.array([0.5, 1.0, 2.0])))
        state = FtrlState(alpha=alpha, M=M)
        history = []
        for _ in range(T):
            g = gen.uniform(-1.0, 1.0, d)
            gp = gen.uniform(-1.0, 1.0, d)
            history.append(GradientPair(g, gp))
            state.observe_stats(dot(g, gp), sq_norm(g))
        worst = max(worst, abs(state.stepsize() - ftrl_argmin_oracle(alpha, M, history)))
    elapsed = time.perf_counter() - t0
    _report("C1 ftrl closed-form equivalence",
            worst < 1e-8 and elapsed < 5.0,
            f"max deviation {worst:.3e} over 200 histories, {elapsed:.2f}s")


def test_c02_noiseless_recovery():
    t0 = time.perf_counter()
    oracle = RosenbrockOracle(sigma=0.0)
    T = 10000
    r_ol = run(Sgdol(np.zeros(2), M=M_ROSEN, alpha=ALPHA), oracle, T=T,
               rng=RngStream(1002), report_every=1)
    r_gd = run(Sgd(np.zeros(2), lr=1.0 / M_ROSEN), oracle, T=T,
               rng=RngStream(1002), report_every=1)
    identical = (np.array_equal(r_ol.x_final, r_gd.x_final)
                 and np.array_equal(r_ol.trajectory.f_value, r_gd.trajectory.f_value)
                 and np.array_equal(r_ol.trajectory.true_grad_sq_norm,
                                    r_gd.trajectory.true_grad_sq_norm)
                 and np.array_equal(r_ol.trajectory.stepsize, r_gd.trajectory.stepsize)
                 and r_ol.k == r_gd.k and np.array_equal(r_ol.x_k, r_gd.x_k))
    exact_steps = bool(np.all(r_ol.trajectory.stepsize == 1.0 / 1002.0))
    elapsed = time.perf_counter() - t0
    _report("C2 noiseless recovery",
            identical and exact_steps and elapsed < 5.0,
            f"bitwise identical={identical}, all stepsizes exactly 1/1002={exact_steps}, "
            f"{elapsed:.2f}s")


def test_c03_noise_adaptivity():
    curves, fixture_time = _rosenbrock_noise_curves()
    t0 = time.perf_counter()  # after the fixture: its time enters once, as fixture_time
    T = 100000
    eta5 = curves[("sgdol", 5.0)]["stepsize"]
    eta02 = curves[("sgdol", 0.2)]["stepsize"]
    first = float(np.mean(eta5[: T // 10]))
    last = float(np.mean(eta5[-T // 10:]))
    ratio = first / last
    thresh = 0.5 / M_ROSEN
    cross5 = int(np.argmax(eta5 < thresh)) + 1
    cross02 = int(np.argmax(eta02 < thresh)) + 1
    crossed = bool(np.min(eta5) < thresh) and bool(np.min(eta02) < thresh)
    elapsed = time.perf_counter() - t0 + fixture_time
    _report("C3 noise adaptivity",
            ratio >= 5.0 and crossed and cross5 < cross02 and elapsed < 120.0,
            f"sigma=5 first/last stepsize ratio {ratio:.2f} (>=5); crossing below 0.5/M "
            f"at t={cross5} (sigma=5) vs t={cross02} (sigma=0.2); {elapsed:.1f}s")


def test_c04_convergence_vs_oscillation():
    curves, fixture_time = _rosenbrock_noise_curves()
    t0 = time.perf_counter()  # after the fixture: its time enters once, as fixture_time
    T = 100000
    g_ol = float(np.mean(curves[("sgdol", 5.0)]["true_grad_sq_norm"][-T // 10:]))
    g_gd = float(np.mean(curves[("sgd", 5.0)]["true_grad_sq_norm"][-T // 10:]))
    elapsed = time.perf_counter() - t0 + fixture_time
    _report("C4 convergence vs oscillation",
            g_ol * 10.0 <= g_gd and elapsed < 120.0,
            f"final-decile grad_sq: sgdol {g_ol:.4g} vs sgd {g_gd:.4g} "
            f"(ratio {g_gd / g_ol:.1f}, need >=10); {elapsed:.1f}s")


def test_c05_surrogate_bound_monte_carlo(synthetic500):
    t0 = time.perf_counter()
    N = 100000
    probes = [np.array(p) for p in
              [(0.0, 0.0), (0.5, 0.25), (-0.5, 0.3), (0.3, -0.4), (0.7, 0.49)]]
    verdicts = []
    for sigma in (0.2, 5.0):
        oracle = RosenbrockOracle(sigma=sigma)
        for i, x in enumerate(probes):
            v = surrogate_bound_check(oracle, x, 1.0 / oracle.smoothness, N,
                               RngStream(1005, derive_stream_id(int(sigma * 10), i)))
            verdicts.append(v.passed)
    gen = RngStream(1006).generator()
    for batch in (1, 50):
        oracle = SigmoidLossOracle(synthetic500, batch_size=batch)
        for i in range(5):
            x = (np.zeros(synthetic500.n_features) if i == 0
                 else gen.uniform(-0.3, 0.3, synthetic500.n_features))
            v = surrogate_bound_check(oracle, x, 1.0 / oracle.smoothness, N,
                               RngStream(1007, derive_stream_id(batch, i)))
            verdicts.append(v.passed)
    elapsed = time.perf_counter() - t0
    _report("C5 surrogate bound monte carlo",
            all(verdicts) and len(verdicts) == 20 and elapsed < 60.0,
            f"{sum(verdicts)}/20 probe points passed at 3 sigma; {elapsed:.1f}s")


def test_c06_pl_linear_rate():
    t0 = time.perf_counter()
    mu, M = 0.1, 1.0
    oracle = QuadraticOracle(np.linspace(mu, M, 5), sigma=0.0)
    res = run(Sgdol(np.ones(5), M=M, alpha=ALPHA), oracle, T=201,
              rng=RngStream(1008), report_every=1)
    f = res.trajectory.f_value
    gsq = res.trajectory.true_grad_sq_norm
    f1 = f[0]
    rate = 1.0 - mu / M
    rate_ok = all(f[T] <= rate ** T * f1 for T in range(1, 201))
    decrease_ok = all(f[t - 1] - f[t] >= gsq[t - 1] / (2.0 * M) for t in range(1, 201))
    elapsed = time.perf_counter() - t0
    _report("C6 PL linear rate",
            rate_ok and decrease_ok and elapsed < 1.0,
            f"rate bound for all T<=200: {rate_ok}; per-step decrease bound: "
            f"{decrease_ok}; exact float comparisons; {elapsed:.2f}s")


def test_c07_per_coordinate_adaptivity():
    t0 = time.perf_counter()
    T, reps, M = 10000, 20, 1.0
    oracle = QuadraticOracle(np.array([1.0, 1.0]), sigma=np.array([0.0, 1.0]))
    coord1_exact = True
    acc = None
    for rep in range(reps):
        rng = RngStream(1009, derive_stream_id(1, rep))
        res = run(SgdolCoord(np.ones(2), M=M, alpha=ALPHA), oracle, T=T,
                  rng=rng, report_every=1)
        coords = res.trajectory.stepsize_coords
        coord1_exact = coord1_exact and bool(np.all(coords[:, 0] == 1.0 / M))
        acc = coords[:, 1].copy() if acc is None else acc + coords[:, 1]
    coord2_last = float(np.mean((acc / reps)[-T // 10:]))
    elapsed = time.perf_counter() - t0
    _report("C7 per-coordinate adaptivity",
            coord1_exact and coord2_last < 0.5 / M and elapsed < 10.0,
            f"noiseless coordinate pinned at 1/M: {coord1_exact}; noisy coordinate "
            f"final-decile mean {coord2_last:.4f} < {0.5 / M}; {elapsed:.1f}s")


def test_c08_regret_bound_inequality(synthetic500):
    runs = _stored_ledger_runs(synthetic500)
    worst_slack = np.inf
    for name, (M, ledger) in runs.items():
        L = ledger.max_grad_norm()
        for eta in np.linspace(0.0, 2.0 / M, 32):
            slack = ledger.regret_bound_rhs(float(eta), L) - ledger.regret_vs(float(eta))
            worst_slack = min(worst_slack, slack)
    _report("C8 regret bound inequality",
            worst_slack >= 0.0,
            f"min slack over {len(runs)} stored runs x 32-point grid: {worst_slack:.4g}")


def test_c09_classification_experiment_shape(synthetic500_path):
    t0 = time.perf_counter()
    a9a_path = os.environ.get("SGDOL_A9A_PATH", "data/a9a")
    if os.path.exists(a9a_path):
        raw = load_libsvm(a9a_path, append_bias=True)
        data = balance_subsample(raw, RngStream(1010).generator())
        counts_ok = len(data) == 15682 and data.n_features == 124
        dataset_path, dataset_note = a9a_path, "a9a"
    else:
        data = load_libsvm(synthetic500_path, append_bias=True)
        counts_ok = len(data) == 500 and data.n_features == 21
        dataset_path, dataset_note = synthetic500_path, "synthetic fixture"
    M = 2.0 * float(np.mean(np.sum(data.features ** 2, axis=1)))
    T, reps = 10000, 5

    def experiment(batch):
        spec = ExperimentSpec(
            oracle=OracleSpec(kind="sigmoid", dataset=dataset_path, batch_size=batch),
            optimizers=[
                ("sgdol", OptimizerConfig(kind="sgdol_global", M=M, alpha=ALPHA)),
                ("sgd", OptimizerConfig(kind="sgd", lr=1.0 / M)),
            ],
            T=T, repetitions=reps, seed=1011, report_every=20)
        return run_experiment(spec)

    full = experiment(len(data))
    batch50 = experiment(50)
    batch1 = experiment(1)

    s_full_ol, s_full_gd = full.series["sgdol"], full.series["sgd"]
    full_identical = (np.array_equal(s_full_ol.grad_sq_norm, s_full_gd.grad_sq_norm)
                      and np.array_equal(s_full_ol.f_value, s_full_gd.f_value)
                      and np.array_equal(s_full_ol.stepsize_mean, s_full_gd.stepsize_mean))

    n = len(batch1.series["sgdol"].t)
    dec = slice(int(0.9 * n), n)
    g1_ol = float(np.mean(batch1.series["sgdol"].grad_sq_norm[dec]))
    g1_gd = float(np.mean(batch1.series["sgd"].grad_sq_norm[dec]))
    eta1 = batch1.series["sgdol"].stepsize_mean
    eta50 = batch50.series["sgdol"].stepsize_mean
    steps_decrease = (eta1[0] == 1.0 / M and float(np.mean(eta1[dec])) < 1.0 / M
                      and float(np.mean(eta50[dec])) < 1.0 / M)
    elapsed = time.perf_counter() - t0
    _report("C9 classification experiment shape",
            counts_ok and full_identical and g1_ol < g1_gd and steps_decrease
            and elapsed < 300.0,
            f"{dataset_note}: counts ok={counts_ok}; full-batch sgdol==sgd {full_identical}; "
            f"batch-1 final-decile grad_sq {g1_ol:.4g} < sgd {g1_gd:.4g}; stepsizes "
            f"decrease from 1/M={1.0 / M:.4g}; {elapsed:.1f}s")


def test_c10_momentum_degeneracy():
    all_equal = True
    for seed in range(10):
        oracle = RosenbrockOracle(sigma=1.0)
        rng = RngStream(1012, seed)
        clamped = SgdolMomentum(np.zeros(2), M=M_ROSEN, alpha=ALPHA, clamp_beta=True)
        plain = Sgdol(np.zeros(2), M=M_ROSEN, alpha=ALPHA, curvature_scale=2.0)
        r1 = run(clamped, oracle, T=100, rng=rng, report_every=1)
        r2 = run(plain, oracle, T=100, rng=rng, report_every=1, force_generic=True)
        all_equal = (all_equal
                     and np.array_equal(r1.x_final, r2.x_final)
                     and np.array_equal(r1.trajectory.stepsize, r2.trajectory.stepsize)
                     and np.array_equal(r1.x_k, r2.x_k))
    _report("C10 momentum degeneracy",
            all_equal,
            "beta clamped to 0 reproduces doubled-curvature SGDOL exactly on 10 seeds")
