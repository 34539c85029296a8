import inspect
import math

import numpy as np
import pytest

from sgdol import (
    DEFAULT_ALPHA,
    AdaGradCoord,
    AdaGradGlobal,
    Adam,
    OptimizerConfig,
    QuadraticOracle,
    RngStream,
    RosenbrockOracle,
    Sgd,
    SgdGhadimiLan,
    Sgdol,
    SgdolCoord,
    SgdolMomentum,
    run,
)
from sgdol.core import dot, sq_norm
from sgdol.online import FtrlState
from sgdol.optimizers import OPTIMIZER_KINDS, run_lanes


def _pair(g, gp=None):
    """(g, g') as ``update`` takes them; g' defaults to a copy of g."""
    g = np.asarray(g, dtype=float)
    return g, g.copy() if gp is None else np.asarray(gp, dtype=float)


def test_sgdol_first_step_takes_one_over_m():
    opt = Sgdol(np.zeros(2), M=2.0, alpha=10.0)
    assert opt.update(*_pair([-2.0, 0.0])) == 0.5
    assert np.array_equal(opt.x, np.array([1.0, 0.0]))
    assert Sgdol.g_pair_consumed == 2


def test_sgdol_zero_gradient_is_noop():
    opt = Sgdol(np.zeros(2), M=2.0)
    before = (opt.ftrl.sum_inner, opt.ftrl.sum_sq)
    opt.update(*_pair([0.0, 0.0]))
    assert np.array_equal(opt.x, np.zeros(2))
    assert (opt.ftrl.sum_inner, opt.ftrl.sum_sq) == before


def test_sgdol_stepsize_before_observation():
    # The stepsize for round t must not depend on round t's pair.
    opt = Sgdol(np.zeros(1), M=1.0, alpha=1.0)
    eta1 = opt.update(*_pair([100.0], [0.0]))  # wildly disagreeing pair
    assert eta1 == 1.0  # fresh state, unaffected by this round's pair
    eta2 = opt.update(*_pair([1.0], [1.0]))
    assert eta2 == pytest.approx(1.0 / 10001.0)  # now it has been seen


def test_sgdol_coord_dim1_equals_global():
    gen = RngStream(50).generator()
    a = Sgdol(np.array([0.7]), M=1.5, alpha=2.0)
    b = SgdolCoord(np.array([0.7]), M=1.5, alpha=2.0)
    for _ in range(40):
        g = gen.uniform(-1, 1, 1)
        gp = gen.uniform(-1, 1, 1)
        eta_a = a.update(*_pair(g, gp))
        eta_b = b.update(*_pair(g, gp))
        assert eta_b[0] == eta_a
        assert np.array_equal(a.x, b.x)


def test_sgdol_coord_all_zero_pair_is_noop():
    opt = SgdolCoord(np.ones(3), M=1.0)
    opt.update(*_pair(np.zeros(3)))
    assert np.array_equal(opt.x, np.ones(3))
    assert np.array_equal(opt.ftrl.stepsize(), np.ones(3))


def test_momentum_first_step_buffer_contributes_nothing():
    opt = SgdolMomentum(np.zeros(2), M=2.0, alpha=1.0)
    assert opt.ftrl.stepsize()[1] == 0.5  # beta: 1/M from the empty history
    opt.update(*_pair([-2.0, 0.0]))
    assert np.array_equal(opt.x, np.array([1.0, 0.0]))  # z1 = 0
    assert np.array_equal(opt.z, np.array([-2.0, 0.0]))


def test_momentum_beta_loss_at_zero_is_zero():
    # The comparator beta = 0 always has zero cumulative loss.
    opt = SgdolMomentum(np.zeros(2), M=1.0)
    gen = RngStream(51).generator()
    for _ in range(10):
        z = opt.z.copy()
        gp = gen.uniform(-1, 1, 2)
        beta_loss_at_zero = 1.0 * 0.0 * 0.0 * np.sum(z * z) - 0.0 * np.sum(z * gp)
        assert beta_loss_at_zero == 0.0
        opt.update(*_pair(gen.uniform(-1, 1, 2), gp))


def test_momentum_clamped_equals_doubled_curvature_sgdol():
    for seed in range(10):
        oracle = RosenbrockOracle(sigma=1.0)
        rng = RngStream(600 + seed)
        m = SgdolMomentum(np.zeros(2), M=1002.0, alpha=10.0, clamp_beta=True)
        p = Sgdol(np.zeros(2), M=1002.0, alpha=10.0, curvature_scale=2.0)
        rm = run(m, oracle, T=100, rng=rng, report_every=1)
        rp = run(p, oracle, T=100, rng=rng, report_every=1, force_generic=True)
        assert np.array_equal(rm.x_final, rp.x_final)
        assert np.array_equal(rm.trajectory.stepsize, rp.trajectory.stepsize)


def test_momentum_zero_stepsize_resets_buffer_decay():
    opt = SgdolMomentum(np.zeros(1), M=1.0, alpha=1.0)
    # Force the eta learner, entry 0, into the clipped-to-zero regime.
    opt.ftrl.sum_inner = np.array([-100.0, 0.0])
    opt.ftrl.sum_sq = np.array([1.0, 0.0])
    opt.z = np.array([5.0])
    opt.update(*_pair([2.0], [2.0]))
    assert np.array_equal(opt.z, np.array([2.0]))  # decay 0, buffer restarts at g


@pytest.mark.parametrize("clamp_beta", [False, True])
def test_momentum_learner_entries_are_two_scalar_learners(clamp_beta):
    # Entry 0 learns eta on (<g, g'>, ||g||^2) and entry 1 beta on
    # (<z, g'>, ||z||^2): each is a scalar learner fed its own losses, bit
    # for bit. Under clamp_beta the beta learner still learns; it is not played.
    d = 300  # long enough for numpy's pairwise sums
    opt = SgdolMomentum(np.zeros(d), M=2.0, alpha=1.0, clamp_beta=clamp_beta)
    eta_ftrl, beta_ftrl = (FtrlState(alpha=1.0, M=2.0, curvature_scale=2.0) for _ in range(2))
    gen = RngStream(77).generator()
    for _ in range(30):
        g, gp = gen.normal(1.0, 1.0, size=(2, d))  # a shared mean: <z, g'> > 0
        x, z = opt.x, opt.z
        eta = eta_ftrl.stepsize()
        beta = 0.0 if clamp_beta else beta_ftrl.stepsize()
        assert opt.update(g, gp) == eta
        assert np.array_equal(opt.x, x - eta * g - beta * z)
        eta_ftrl.observe_stats(dot(g, gp), sq_norm(g))
        beta_ftrl.observe_stats(dot(z, gp), sq_norm(z))
        assert opt.ftrl.sum_inner.tolist() == [eta_ftrl.sum_inner, beta_ftrl.sum_inner]
        assert opt.ftrl.sum_sq.tolist() == [eta_ftrl.sum_sq, beta_ftrl.sum_sq]
    assert opt.ftrl.stepsize().tolist() == [eta_ftrl.stepsize(), beta_ftrl.stepsize()]
    assert beta_ftrl.stepsize() not in (0.0, 0.5, 1.0)  # moved off 1/M, inside the clip


def test_sgd_step_example():
    opt = Sgd(np.zeros(2), lr=0.5)
    opt.update(*_pair([-2.0, 0.0], [99.0, 99.0]))
    assert np.array_equal(opt.x, np.array([1.0, 0.0]))
    assert Sgd.g_pair_consumed == 1


def test_adagrad_global_first_step():
    opt = AdaGradGlobal(np.zeros(2), lr=1.0)
    opt.update(*_pair([3.0, 4.0]))
    assert np.allclose(opt.x, -np.array([3.0, 4.0]) / 5.0, rtol=1e-15)


def test_adagrad_zero_gradient_start():
    opt = AdaGradGlobal(np.ones(2), lr=1.0)
    assert opt.update(*_pair([0.0, 0.0])) == 0.0
    assert np.array_equal(opt.x, np.ones(2))
    opt.update(*_pair([1.0, 0.0]))
    assert not np.array_equal(opt.x, np.ones(2))


def test_adagrad_coord_masks_silent_coordinates():
    opt = AdaGradCoord(np.zeros(2), lr=1.0)
    opt.update(*_pair([2.0, 0.0]))
    assert opt.x[1] == 0.0
    assert opt.x[0] == pytest.approx(-1.0)


def test_adam_single_step_matches_formula():
    g = np.array([0.3, -0.8])
    opt = Adam(np.zeros(2), lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    opt.update(*_pair(g))
    m_hat = (0.1 * g) / (1.0 - 0.9)
    v_hat = (0.001 * g * g) / (1.0 - 0.999)
    expected = -0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(opt.x, expected, rtol=1e-12)


def test_sgd_gl_stepsize_selection():
    noiseless = SgdGhadimiLan(np.zeros(2), M=2.0, sigma=0.0, T=100, f_gap=1.0)
    assert noiseless.lr == 0.5
    noisy = SgdGhadimiLan(np.zeros(2), M=2.0, sigma=10.0, T=100, f_gap=4.0)
    assert noisy.lr == pytest.approx(min(0.5, 2.0 / (10.0 * 10.0)))


def test_step_dimension_mismatch():
    with pytest.raises(ValueError):
        Sgd(np.zeros(2), lr=0.1).update(*_pair([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------


def test_run_single_step():
    res = run(Sgd(np.zeros(2), lr=0.1), RosenbrockOracle(), T=1, rng=RngStream(52))
    assert res.k == 1
    assert len(res.trajectory) == 1
    assert np.array_equal(res.x_k, np.zeros(2))


def test_run_is_deterministic():
    def once():
        return run(Sgdol(np.zeros(2), M=1002.0), RosenbrockOracle(sigma=5.0),
                   T=400, rng=RngStream(53), report_every=7)

    r1, r2 = once(), once()
    assert np.array_equal(r1.x_final, r2.x_final)
    assert np.array_equal(r1.trajectory.stepsize, r2.trajectory.stepsize)
    assert np.array_equal(r1.trajectory.f_value, r2.trajectory.f_value)
    assert r1.k == r2.k and np.array_equal(r1.x_k, r2.x_k)


def test_run_zero_noise_quadratic_one_step_to_optimum():
    M = 3.0
    oracle = QuadraticOracle(np.array([M, M]), sigma=0.0)
    opt = Sgdol(np.array([2.0, -1.0]), M=M)
    res = run(opt, oracle, T=1, rng=RngStream(54), report_every=1)
    assert np.array_equal(res.x_final, np.zeros(2))


def test_run_noiseless_sgdol_equals_sgd():
    oracle = RosenbrockOracle(sigma=0.0)
    r1 = run(Sgdol(np.zeros(2), M=1002.0, alpha=10.0), oracle, T=2000,
             rng=RngStream(55), report_every=1)
    r2 = run(Sgd(np.zeros(2), lr=1.0 / 1002.0), oracle, T=2000,
             rng=RngStream(55), report_every=1)
    assert np.array_equal(r1.x_final, r2.x_final)
    assert np.array_equal(r1.trajectory.f_value, r2.trajectory.f_value)
    assert np.array_equal(r1.trajectory.stepsize, r2.trajectory.stepsize)


def test_run_record_cadence():
    res = run(Sgd(np.zeros(2), lr=0.1), RosenbrockOracle(), T=103, rng=RngStream(56),
              report_every=10)
    assert len(res.trajectory) == 11  # ceil(103 / 10)
    assert list(res.trajectory.t[:3]) == [1, 11, 21]


def test_run_validates_arguments():
    with pytest.raises(ValueError):
        run(Sgd(np.zeros(2), lr=0.1), RosenbrockOracle(), T=0, rng=RngStream(1))
    with pytest.raises(ValueError):
        run(Sgd(np.zeros(3), lr=0.1), RosenbrockOracle(), T=1, rng=RngStream(1))


@pytest.mark.parametrize("make", [lambda: Sgd(np.zeros(2), lr=0.1),
                                  lambda: SgdolMomentum(np.zeros(2), M=1002.0)],
                         ids=["kernel", "engine"])
@pytest.mark.parametrize("name, kwargs", [("T", dict(T=10.0)),
                                          ("report_every", dict(T=10, report_every=2.5)),
                                          ("T", dict(T=True)),
                                          ("report_every", dict(T=10, report_every=True))])
def test_run_refuses_a_non_integer_horizon_or_stride(make, name, kwargs):
    # report_every=2.5 recorded t = 1, 3, 5, ... and T=10.0 failed inside a
    # loop; T=True ran one step.
    with pytest.raises(ValueError, match=f"{name}: must be an integer"):
        run(make(), RosenbrockOracle(), rng=RngStream(1), **kwargs)
    with pytest.raises(ValueError, match=f"{name}: must be an integer"):
        run_lanes([[make()]], RosenbrockOracle(), rngs=[RngStream(1)],
                  output_rngs=[[RngStream(2)]], **kwargs)


def test_sgdol_coord_step_leaves_the_sums_the_caller_holds_unchanged():
    opt = SgdolCoord(np.zeros(3), M=2.0)
    held = (opt.ftrl.sum_inner, opt.ftrl.sum_sq)
    opt.update(np.ones(3), np.full(3, 2.0))
    assert all(np.array_equal(a, np.zeros(3)) for a in held)
    assert np.array_equal(opt.ftrl.sum_inner, np.full(3, 2.0))


def test_run_output_iterate_capture():
    oracle = RosenbrockOracle(sigma=0.2)
    res = run(Sgd(np.zeros(2), lr=1e-3), oracle, T=50, rng=RngStream(58), report_every=1)
    assert 1 <= res.k <= 50
    # replaying the run recovers the same x_k
    res2 = run(Sgd(np.zeros(2), lr=1e-3), oracle, T=50, rng=RngStream(58), report_every=1)
    assert np.array_equal(res.x_k, res2.x_k)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------


def test_optimizer_config_validation_reports_fields():
    problems = OptimizerConfig(kind="sgdol_global").validate()
    assert any(p.startswith("M:") for p in problems)
    problems = OptimizerConfig(kind="nope").validate()
    assert "kind" in problems[0]
    assert OptimizerConfig(kind="sgd", lr=0.1).validate() == []
    assert OptimizerConfig(kind="sgd_gl").validate(deferred_ok=True) == []
    assert OptimizerConfig(kind="adam", lr=0.1, beta1=1.5).validate() != []


@pytest.mark.parametrize("field, kind", [("M", "sgdol_global"), ("alpha", "sgdol_global"),
                                         ("lr", "sgd"), ("eps", "adam"), ("sigma", "sgd_gl"),
                                         ("f_gap", "sgd_gl")])
def test_optimizer_config_reports_an_infinite_field(field, kind):
    valid = {"sgdol_global": dict(M=1.0), "sgd": dict(lr=0.1), "adam": dict(lr=0.1),
             "sgd_gl": dict(M=1.0, sigma=1.0, T=10, f_gap=1.0)}[kind]
    problems = OptimizerConfig(kind=kind, **{**valid, field: math.inf}).validate()
    assert problems == [f"{field}: must be finite, got inf"]


@pytest.mark.parametrize("T", [10.5, True, math.inf])
def test_sgd_gl_horizon_must_be_an_integer(T):
    valid = dict(M=1.0, sigma=1.0, f_gap=1.0)
    problem = f"T: must be an integer >= 1, got {T}"
    assert OptimizerConfig(kind="sgd_gl", T=T, **valid).validate() == [problem]
    with pytest.raises(ValueError, match=problem):
        SgdGhadimiLan(np.zeros(2), T=T, **valid)


@pytest.mark.parametrize("sigma", [[0.5, 1.0], np.array([0.5, 1.0])], ids=["list", "ndarray"])
def test_sgd_gl_sigma_must_be_a_scalar(sigma):
    # A per-coordinate level validated clean, then build raised TypeError on
    # the list and numpy's ambiguous-truth ValueError on the array.
    valid = dict(M=1.0, T=10, f_gap=1.0)
    problem = "sigma: must be a scalar for kind 'sgd_gl'"
    assert OptimizerConfig(kind="sgd_gl", sigma=sigma, **valid).validate() == [problem]
    with pytest.raises(ValueError, match=problem):
        OptimizerConfig(kind="sgd_gl", sigma=sigma, **valid).build(np.zeros(2))
    with pytest.raises(ValueError, match=problem):
        SgdGhadimiLan(np.zeros(2), sigma=sigma, **valid)


def test_optimizer_refuses_an_infinite_stepsize():
    with pytest.raises(ValueError, match="lr: must be finite"):
        Sgd(np.zeros(2), lr=math.inf)


@pytest.mark.parametrize("kind,kwargs,cls", [
    ("sgdol_global", dict(M=1.0), Sgdol),
    ("sgdol_coord", dict(M=1.0), SgdolCoord),
    ("sgdol_momentum", dict(M=1.0), SgdolMomentum),
    ("sgd", dict(lr=0.1), Sgd),
    ("adagrad_global", dict(lr=0.1), AdaGradGlobal),
    ("adagrad_coord", dict(lr=0.1), AdaGradCoord),
    ("adam", dict(lr=0.1), Adam),
    ("sgd_gl", dict(M=1.0, sigma=1.0, T=10, f_gap=1.0), SgdGhadimiLan),
])
def test_optimizer_config_builds_each_kind(kind, kwargs, cls):
    opt = OptimizerConfig(kind=kind, **kwargs).build(np.zeros(2))
    assert isinstance(opt, cls)
    assert opt.kind == kind


# Every config field each kind takes, at in-range values that differ from the
# constructor defaults, so a field that build drops shows.
_TAKES = {
    "sgdol_global": (Sgdol, dict(M=4.0, alpha=3.0)),
    "sgdol_coord": (SgdolCoord, dict(M=4.0, alpha=3.0)),
    "sgdol_momentum": (SgdolMomentum, dict(M=4.0, alpha=3.0)),
    "sgd": (Sgd, dict(lr=0.1)),
    "adagrad_global": (AdaGradGlobal, dict(lr=0.1)),
    "adagrad_coord": (AdaGradCoord, dict(lr=0.1)),
    "adam": (Adam, dict(lr=0.1, beta1=0.5, beta2=0.75, eps=1e-6)),
    "sgd_gl": (SgdGhadimiLan, dict(M=4.0, sigma=2.0, T=10, f_gap=1.0)),
}
# Values on both sides of each field's range, boundaries included.
_PROBES = {
    "M": (1e-300, 0.0, -1.0, math.nan),
    "alpha": (1e-300, 0.0, -1.0, math.nan),
    "lr": (1e-300, 0.0, -1.0, math.nan),
    "eps": (1e-300, 0.0, -1.0, math.nan),
    "beta1": (0.0, 0.999, 1.0, -1e-9, math.nan),
    "beta2": (0.0, 0.999, 1.0, -1e-9, math.nan),
    "sigma": (0.0, 2.0, -1e-9, math.nan),
    "T": (1, 0, -3, 10.5, True, math.inf),
    "f_gap": (0.0, 1.0, -1e-9, math.nan),
}


def test_every_kind_declares_the_fields_it_takes():
    assert set(_TAKES) == set(OPTIMIZER_KINDS)
    config_fields = set(vars(OptimizerConfig(kind="sgd")))
    for kind, (cls, valid) in _TAKES.items():
        assert set(valid) == set(inspect.signature(cls).parameters) & config_fields


@pytest.mark.parametrize("kind,name", [(k, n) for k, (_, valid) in _TAKES.items()
                                       for n in valid])
def test_config_validation_and_build_match_the_constructor(kind, name):
    cls, valid = _TAKES[kind]
    x0 = np.zeros(2)
    for value in _PROBES[name]:
        kwargs = dict(valid, **{name: value})
        named = any(p.startswith(f"{name}:")
                    for p in OptimizerConfig(kind=kind, **kwargs).validate())
        try:
            cls(x0, **kwargs)
            raised = False
        except ValueError:
            raised = True
        assert named == raised, (kind, name, value)

    built = OptimizerConfig(kind=kind, **valid).build(x0)
    direct = cls(x0, **valid)
    assert getattr(built, name, None) == getattr(direct, name, None)
    # sgd_gl keeps only the stepsize it derives from sigma, T and f_gap.
    assert getattr(built, "lr", None) == getattr(direct, "lr", None)

    default = inspect.signature(cls).parameters[name].default
    if default is not inspect.Parameter.empty:
        unset = dict(valid)
        del unset[name]
        assert getattr(OptimizerConfig(kind=kind, **unset).build(x0), name) == default
        if name == "alpha":
            assert default == DEFAULT_ALPHA


@pytest.mark.parametrize("kind", list(_TAKES))
def test_config_names_every_set_field_its_kind_does_not_take(kind):
    _, valid = _TAKES[kind]
    # An in-range value for every field the kind does not take.
    foreign = {name: probes[0] for name, probes in _PROBES.items() if name not in valid}
    expected = {f"{name}: not taken by kind {kind!r}" for name in foreign}
    problems = OptimizerConfig(kind=kind, **valid, **foreign).validate()
    assert sorted(problems) == sorted(expected)
    for name, value in foreign.items():
        config = OptimizerConfig(kind=kind, **valid, **{name: value})
        problem = f"{name}: not taken by kind {kind!r}"
        assert config.validate() == [problem]
        with pytest.raises(ValueError, match=problem):
            config.build(np.zeros(2))


# Every kind, the SGDOL learner with a regret ledger too, on two coordinates.
_EVERY_KIND = {
    "sgdol_global": lambda x: Sgdol(x, M=2.0),
    "sgdol_global_ledger": lambda x: Sgdol(x, M=2.0, record_regret=True),
    "sgdol_coord": lambda x: SgdolCoord(x, M=2.0),
    "sgdol_momentum": lambda x: SgdolMomentum(x, M=2.0),
    "sgd": lambda x: Sgd(x, lr=0.1),
    "adagrad_global": lambda x: AdaGradGlobal(x, lr=0.1),
    "adagrad_coord": lambda x: AdaGradCoord(x, lr=0.1),
    "adam": lambda x: Adam(x, lr=0.1),
    "sgd_gl": lambda x: SgdGhadimiLan(x, M=2.0, sigma=1.0, T=10, f_gap=1.0),
}


def _plays_nan(opt):
    """Whether the next FTRL play is NaN: for both of the momentum variant's
    learners, for some coordinate's learner of sgdol_coord. True for a kind
    with no learner."""
    if not hasattr(opt, "ftrl"):
        return True
    nan = np.isnan(opt.ftrl.stepsize())
    return bool(nan.all() if isinstance(opt, SgdolMomentum) else nan.any())


def test_every_kind_is_checked_with_a_non_finite_iterate():
    assert {name.removesuffix("_ledger") for name in _EVERY_KIND} == set(OPTIMIZER_KINDS)


@pytest.mark.parametrize("name", list(_EVERY_KIND))
def test_state_is_the_class_constant(name):
    # A kernel takes the state and the loops stack it, by the class's list:
    # no instance, one with a regret ledger included, names state of its own.
    opt = _EVERY_KIND[name](np.zeros(2))
    run(opt, RosenbrockOracle(sigma=1.0), T=5, rng=RngStream(3))
    assert "state" not in vars(opt) and opt.state is type(opt).state


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(_EVERY_KIND))
def test_a_non_finite_iterate_stays_non_finite(name, bad):
    # Divergence is data: no update rule or loop refuses a non-finite value,
    # and none turns one back into a finite iterate or stepsize.
    make = _EVERY_KIND[name]
    opt = make(np.zeros(2))
    opt.x = np.array([bad, 1.0])
    with np.errstate(all="ignore"):  # as every loop steps
        opt.update(*_pair([1.0, -1.0]))
        assert not np.isfinite(opt.x[0])
        # The FTRL play keeps a NaN: once a round's pair holds one, every
        # later stepsize of the learner does too.
        opt.update(*_pair([math.nan, 1.0]))
        opt.update(*_pair([1.0, -1.0]))
    assert _plays_nan(opt)
    # Each loop carries the iterate to the end: the kernel, when the kind has
    # one. A ledger, which only the loops fill, keeps a NaN as its maximum.
    for generic in (False, True):
        single = make(np.zeros(2))
        single.x = np.array([bad, 1.0])
        res = run(single, RosenbrockOracle(sigma=1.0), T=5, rng=RngStream(3), report_every=1,
                  force_generic=generic)
        assert res.diverged_at == 1
        assert not np.isfinite(res.x_final).all()
        assert _plays_nan(single)
        if getattr(single, "ledger", None) is not None:
            assert single.ledger.count == 5 and np.isnan(single.ledger.max_grad_norm())
