import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgdol import (
    FtrlState,
    RegretLedger,
    RngStream,
    Sgdol,
    dot,
    ftrl_argmin_oracle,
    sq_norm,
    surrogate_loss,
)
from sgdol.online import regret_second_term_log_cap


def test_eval_surrogate_examples():
    g = np.array([1.0, 0.0])
    assert surrogate_loss(2.0, 0.0, sq_norm(g), dot(g, g.copy())) == 0.0
    assert surrogate_loss(2.0, 0.5, sq_norm(g), dot(g, g.copy())) == pytest.approx(-0.25)


def test_eval_surrogate_minimizer_is_one_over_m_when_noiseless():
    g = np.array([0.7, -1.3])
    a, b = sq_norm(g), dot(g, g.copy())
    eta_star = 1.0 / 2.0
    for eta in (eta_star - 0.1, eta_star + 0.1, 0.0, 1.0):
        assert surrogate_loss(2.0, eta_star, a, b) <= surrogate_loss(2.0, eta, a, b)


def _percoord_loss(M, g, g_prime, eta):
    """Sum of the per-coordinate surrogates for a stepsize vector eta."""
    return float(np.sum(surrogate_loss(M, eta, g * g, g * g_prime)))


def test_eval_surrogate_percoord_examples():
    g = np.array([2.0, 3.0])
    assert _percoord_loss(1.0, g, g.copy(), np.array([1.0, 0.0])) == pytest.approx(-2.0)
    assert _percoord_loss(1.0, g, g.copy(), np.zeros(2)) == 0.0


def test_eval_surrogate_percoord_collapses_to_scalar():
    gen = RngStream(30).generator()
    for _ in range(25):
        d = int(gen.integers(1, 8))
        g = gen.uniform(-1, 1, d)
        gp = gen.uniform(-1, 1, d)
        eta = float(gen.uniform(0, 2))
        scalar = surrogate_loss(1.5, eta, sq_norm(g), dot(g, gp))
        vec = _percoord_loss(1.5, g, gp, np.full(d, eta))
        assert vec == pytest.approx(scalar, rel=1e-12)


def _coord_state(alpha, M, dim):
    """One learner per coordinate: (dim,) sums, fed the products g*g' and g*g."""
    return FtrlState(alpha=alpha, M=M, sum_inner=np.zeros(dim), sum_sq=np.zeros(dim))


def test_ftrl_stepsize_fresh_state():
    assert FtrlState(alpha=3.0, M=2.0).stepsize() == 0.5


def test_ftrl_stepsize_noiseless_history_exact():
    state = FtrlState(alpha=10.0, M=1002.0)
    gen = RngStream(31).generator()
    for _ in range(100):
        g = gen.uniform(-5, 5, size=2)
        state.observe_stats(dot(g, g.copy()), sq_norm(g))
        assert state.stepsize() == 1.0 / 1002.0


def test_ftrl_stepsize_clipping():
    low = FtrlState(alpha=1.0, M=1.0, sum_inner=-5.0, sum_sq=3.0)
    assert low.stepsize() == 0.0
    high = FtrlState(alpha=1.0, M=0.1, sum_inner=100.0, sum_sq=1.0)
    assert high.stepsize() == 2.0 / 0.1


def test_ftrl_observe_arithmetic():
    state = FtrlState(alpha=1.0, M=1.0)
    g, gp = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    state.observe_stats(dot(g, gp), sq_norm(g))
    assert state.sum_inner == 0.0
    assert state.sum_sq == 2.0


def test_ftrl_observe_zero_gradient_is_noop():
    state = FtrlState(alpha=2.0, M=1.0, sum_inner=1.0, sum_sq=3.0)
    before = state.stepsize()
    state.observe_stats(dot(np.zeros(3), np.ones(3)), sq_norm(np.zeros(3)))
    assert state.stepsize() == before


def test_ftrl_observe_order_independent_on_integers():
    pairs = [(np.array([1.0, 2.0]), np.array([3.0, -1.0])),
             (np.array([-2.0, 0.0]), np.array([1.0, 4.0]))]
    s1 = FtrlState(alpha=1.0, M=1.0)
    s2 = FtrlState(alpha=1.0, M=1.0)
    for g, gp in pairs:
        s1.observe_stats(dot(g, gp), sq_norm(g))
    for g, gp in reversed(pairs):
        s2.observe_stats(dot(g, gp), sq_norm(g))
    assert (s1.sum_inner, s1.sum_sq) == (s2.sum_inner, s2.sum_sq)


def test_ftrl_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        FtrlState(alpha=0.0, M=1.0)
    with pytest.raises(ValueError):
        FtrlState(alpha=-1.0, M=1.0)


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
def test_curvature_scale_must_be_positive_and_finite(value):
    # A scale of -1 raised ZeroDivisionError on the kernel and played
    # stepsizes on the engine.
    with pytest.raises(ValueError, match="curvature_scale"):
        FtrlState(alpha=1.0, M=1.0, curvature_scale=value)
    with pytest.raises(ValueError, match="curvature_scale"):
        RegretLedger(1.0, 1.0, value)
    with pytest.raises(ValueError, match="curvature_scale"):
        Sgdol(np.zeros(2), M=1002.0, alpha=4.0, curvature_scale=value)


def test_ftrl_observe_leaves_the_sums_the_caller_holds_unchanged():
    sums = np.zeros(3), np.ones(3)
    state = FtrlState(alpha=1.0, M=1.0, sum_inner=sums[0], sum_sq=sums[1])
    state.observe_stats(np.full(3, 2.0), np.full(3, 3.0))
    assert np.array_equal(sums[0], np.zeros(3)) and np.array_equal(sums[1], np.ones(3))
    assert np.array_equal(state.sum_inner, np.full(3, 2.0))
    assert np.array_equal(state.sum_sq, np.full(3, 4.0))


def test_ftrl_stepsize_domain_randomized():
    gen = RngStream(32).generator()
    for _ in range(200):
        alpha = float(gen.choice(np.array([0.1, 1.0, 10.0])))
        M = float(gen.choice(np.array([0.5, 1.0, 2.0])))
        state = FtrlState(alpha=alpha, M=M,
                          sum_inner=float(gen.uniform(-50, 50)),
                          sum_sq=float(gen.uniform(0, 50)))
        eta = state.stepsize()
        assert 0.0 <= eta <= 2.0 / M


def test_coord_ftrl_fresh_state():
    state = _coord_state(1.0, 2.0, 3)
    assert np.array_equal(state.stepsize(), np.full(3, 0.5))


def test_coord_ftrl_single_pair_example():
    state = _coord_state(1.0, 1.0, 2)
    g, gp = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    state.observe_stats(g * gp, g * g)
    assert np.array_equal(state.stepsize(), np.array([0.0, 1.0]))


def test_coord_ftrl_noiseless_coordinate_stays_at_one_over_m():
    state = _coord_state(10.0, 2.0, 2)
    gen = RngStream(33).generator()
    for _ in range(50):
        g = gen.uniform(-1, 1, 2)
        gp = g.copy()
        gp[1] = g[1] + gen.standard_normal()  # noise only on coordinate 2
        state.observe_stats(g * gp, g * g)
        assert state.stepsize()[0] == 0.5


def test_coord_ftrl_coordinate_isolation():
    gen = RngStream(34).generator()
    s1 = _coord_state(1.0, 1.0, 3)
    s2 = _coord_state(1.0, 1.0, 3)
    for _ in range(20):
        g = gen.uniform(-1, 1, 3)
        gp = gen.uniform(-1, 1, 3)
        g2, gp2 = g.copy(), gp.copy()
        g2[2], gp2[2] = gen.uniform(-1, 1), gen.uniform(-1, 1)  # differ in coord 3 only
        s1.observe_stats(g * gp, g * g)
        s2.observe_stats(g2 * gp2, g2 * g2)
    assert np.array_equal(s1.stepsize()[:2], s2.stepsize()[:2])


# ---------------------------------------------------------------------------
# regret bookkeeping
# ---------------------------------------------------------------------------


def _random_rounds(seed, T, alpha=1.0, M=1.0, d=3):
    """A learner's T rounds on random pairs: (eta, <g, g'>, ||g||^2, ||g'||^2) each."""
    gen = RngStream(seed).generator()
    state = FtrlState(alpha=alpha, M=M)
    rounds = []
    for _ in range(T):
        g = gen.uniform(-1, 1, d)
        gp = gen.uniform(-1, 1, d)
        rounds.append((state.stepsize(), dot(g, gp), sq_norm(g), sq_norm(gp)))
        state.observe_stats(dot(g, gp), sq_norm(g))
    return rounds


def _random_ledger(seed, T, alpha=1.0, M=1.0, d=3):
    ledger = RegretLedger(alpha, M)
    for r in _random_rounds(seed, T, alpha, M, d):
        ledger.record(*r)
    return ledger


def test_ledger_cumulative_matches_recomputation():
    ledger = _random_ledger(seed=35, T=60)
    rounds = _random_rounds(seed=35, T=60)
    total = sum(0.5 * ledger.M * e * e * a - e * b for e, b, a, _ in rounds)
    assert ledger.cumulative_loss == pytest.approx(total, rel=1e-9)


def test_regret_vs_empty_ledger_is_zero():
    ledger = RegretLedger(1.0, 1.0)
    for eta in (0.0, 0.3, 2.0):
        assert ledger.regret_vs(eta) == 0.0


def test_regret_vs_single_step_own_minimizer():
    ledger = RegretLedger(1.0, 2.0)
    g = np.array([1.0, 2.0])
    gp = np.array([0.5, 1.0])
    b = float(np.sum(g * gp))
    a = float(np.sum(g * g))
    eta_star = b / (2.0 * a)  # unconstrained argmin of the single loss
    ledger.record(eta_star, b, a, float(np.sum(gp * gp)))
    assert ledger.regret_vs(eta_star) == pytest.approx(0.0, abs=1e-15)


def test_regret_vs_comparator_minimizer_is_largest():
    # The comparator minimizing the cumulative loss maximizes the regret
    # against it; no other fixed stepsize can have larger regret.
    ledger = _random_ledger(seed=36, T=40)
    best = ledger.sum_inner / (ledger.M * ledger.sum_sq)
    best = min(max(best, 0.0), 2.0 / ledger.M)
    base = ledger.regret_vs(best)
    for eta in np.linspace(0.0, 2.0 / ledger.M, 17):
        assert ledger.regret_vs(float(eta)) <= base + 1e-12


def test_regret_bound_holds_on_random_runs():
    for seed in (37, 38, 39):
        ledger = _random_ledger(seed=seed, T=50)
        L = ledger.max_grad_norm()
        for eta in np.linspace(0.0, 2.0 / ledger.M, 32):
            assert ledger.regret_vs(float(eta)) <= ledger.regret_bound_rhs(float(eta), L)


def test_regret_bound_domain_and_record_requirements():
    ledger = _random_ledger(seed=40, T=10)
    with pytest.raises(ValueError):
        ledger.regret_bound_rhs(-0.1)
    with pytest.raises(ValueError):
        ledger.regret_bound_rhs(2.0 / ledger.M + 0.1)
    with pytest.raises(ValueError):
        ledger.regret_bound_rhs(0.5, L=ledger.max_grad_norm() * 0.5)


@pytest.mark.parametrize("rounds", [0, 10], ids=["fresh", "recorded"])
def test_regret_bound_refuses_a_nan_L(rounds):
    # NaN < max_grad_norm() is False, so a check for L below the maximum
    # passed a NaN L.
    ledger = _random_ledger(seed=40, T=rounds)
    with pytest.raises(ValueError, match="does not bound"):
        ledger.regret_bound_rhs(0.5, L=math.nan)


def test_regret_bound_refuses_any_L_once_the_ledger_saw_a_nan():
    # A diverged run's ledger keeps NaN as its largest gradient norm, which
    # no L bounds: the check used to accept L = 1e-9 and return NaN.
    ledger = _random_ledger(seed=40, T=10)
    ledger.record(0.1, math.nan, math.nan, math.nan)
    assert math.isnan(ledger.max_grad_norm())
    for L in (1e-9, 1e300, math.inf):
        with pytest.raises(ValueError, match="does not bound"):
            ledger.regret_bound_rhs(0.5, L=L)


def test_regret_second_term_log_cap():
    ledger = _random_ledger(seed=41, T=50)
    L = ledger.max_grad_norm()
    cap = regret_second_term_log_cap(ledger.alpha, ledger.M, L, ledger.count)
    assert ledger.bound_second_term() <= cap


def test_ledger_empty_bound_at_one_over_m_is_zero():
    ledger = RegretLedger(1.0, 2.0)
    assert ledger.regret_bound_rhs(0.5) == 0.0
    assert ledger.count == 0 and ledger.max_grad_norm() == 0.0


def test_ledger_keeps_a_nan_round():
    # A running max written as `if a > mx` would drop the NaN at once, and
    # every later round would hide it further.
    for nan_at in ("g_sq", "g_prime_sq"):
        ledger = _random_ledger(seed=42, T=5)
        nan_round = dict(eta=0.5, inner=0.1, g_sq=0.2, g_prime_sq=0.3)
        nan_round[nan_at] = math.nan
        ledger.record(**nan_round)
        for r in _random_rounds(seed=43, T=5):
            ledger.record(*r)
        assert ledger.count == 11
        assert math.isnan(ledger.max_grad_norm())
        if nan_at == "g_sq":
            assert math.isnan(ledger.cumulative_loss) and math.isnan(ledger.bound_second_term())


# ---------------------------------------------------------------------------
# the closed form as a property
# ---------------------------------------------------------------------------


@st.composite
def _histories(draw):
    """(alpha, M, pairs): a learner's parameters and a history of gradient pairs."""
    alpha = draw(st.sampled_from([0.1, 1.0, 10.0]))
    M = draw(st.sampled_from([0.5, 1.0, 2.0]))
    d = draw(st.integers(1, 5))
    entries = arrays(np.float64, d, elements=st.floats(-1.0, 1.0))
    pairs = draw(st.lists(st.tuples(entries, entries), max_size=30))
    return alpha, M, pairs


@settings(max_examples=100, deadline=None, database=None)
@given(history=_histories(), curvature_scale=st.sampled_from([1.0, 2.0]))
def test_ftrl_stepsize_is_the_regularized_argmin(history, curvature_scale):
    alpha, M, pairs = history
    state = FtrlState(alpha=alpha, M=M, curvature_scale=curvature_scale)
    for g, gp in pairs:
        state.observe_stats(dot(g, gp), sq_norm(g))
    expected = ftrl_argmin_oracle(alpha, M, np.array(pairs), curvature_scale=curvature_scale)
    assert abs(state.stepsize() - expected) <= 1e-8 * 2.0 / M


@settings(max_examples=100, deadline=None, database=None)
@given(history=_histories())
def test_coordinate_sums_equal_one_scalar_learner_per_coordinate(history):
    alpha, M, pairs = history
    d = len(pairs[0][0]) if pairs else 3
    coords = _coord_state(alpha, M, d)
    scalars = [FtrlState(alpha=alpha, M=M) for _ in range(d)]
    for g, gp in pairs:
        coords.observe_stats(g * gp, g * g)
        for i, state in enumerate(scalars):
            state.observe_stats(g[i] * gp[i], g[i] * g[i])
        etas = coords.stepsize()
        assert etas.tobytes() == np.array([s.stepsize() for s in scalars]).tobytes()
    assert coords.sum_inner.tobytes() == np.array([s.sum_inner for s in scalars]).tobytes()


# ---------------------------------------------------------------------------
# the running ledger against a per-step loop
# ---------------------------------------------------------------------------


class _LoopLedger:
    """The ledger's totals as one loop over its kept rounds, in Python floats: the reference."""

    def __init__(self, alpha, M, curvature_scale, rounds):
        c = curvature_scale
        self.count, self.cumulative_loss, self.sum_inner, self.sum_sq = 0, 0.0, 0.0, 0.0
        self.max_sq, second = 0.0, 0.0
        for eta, b, a, ap in rounds:
            self.count += 1
            self.cumulative_loss += 0.5 * c * M * eta * eta * a - eta * b
            self.sum_inner += b
            self.sum_sq += a
            self.max_sq = max(self.max_sq, a, ap)
            slope = c * M * eta * a - b
            second += slope * slope / (alpha + c * self.sum_sq)
        self.bound_second_term = second / (2.0 * M)
        self.max_grad_norm = float(np.sqrt(self.max_sq))


@pytest.mark.parametrize("seed", [50, 51, 52, 53])
def test_regret_ledger_matches_the_per_step_loops(seed):
    gen = RngStream(seed).generator()
    alpha = float(gen.choice(np.array([0.1, 1.0, 10.0])))
    M = float(gen.choice(np.array([0.5, 1.0, 2.0])))
    c = float(gen.choice(np.array([1.0, 2.0])))
    T = int(gen.integers(1, 400))
    state = FtrlState(alpha=alpha, M=M, curvature_scale=c)
    rounds = []
    for _ in range(T):
        g, gp = gen.uniform(-2, 2, 3), gen.uniform(-2, 2, 3)
        rounds.append((float(state.stepsize()), dot(g, gp), sq_norm(g), sq_norm(gp)))
        state.observe_stats(dot(g, gp), sq_norm(g))
    ref = _LoopLedger(alpha, M, c, rounds)
    ledger = RegretLedger(alpha, M, c)
    for r in rounds:
        ledger.record(*r)
    # The same operations in the same order, so the totals are equal exactly.
    assert ledger.count == ref.count == T
    assert ledger.max_grad_norm() == ref.max_grad_norm
    assert ledger.cumulative_loss == ref.cumulative_loss
    assert ledger.bound_second_term() == ref.bound_second_term
    for eta in (0.0, 1.0 / M, 2.0 / M):
        comparator = 0.5 * c * M * eta * eta * ref.sum_sq - eta * ref.sum_inner
        assert ledger.comparator_loss(eta) == comparator


# Raw closed-form values that the clip must map exactly as the scalar
# reference does: (sum_inner, sum_sq) at alpha = 1, M = 2 (so 2/M = 1).
_RAW_CASES = {
    "in_range": (0.5, 1.0),           # 0.375
    "minus_zero": (-5.0, np.inf),     # -4 / inf = -0.0, kept as -0.0
    "nan": (np.nan, 1.0),
    "plus_inf": (np.inf, 1.0),
    "minus_inf": (-np.inf, 1.0),
    "below_zero": (-5.0, 1.0),
    "above_two_over_m": (100.0, 0.0),
    "zero": (-1.0, 3.0),              # +0.0
}


@pytest.mark.parametrize("shape", [(), (8,), (3, 8)], ids=["float", "d", "lanes_d"])
def test_ftrl_stepsize_clip_matches_the_scalar_reference_bitwise(shape):
    # np.array_equal cannot tell -0.0 from 0.0, so compare bytes: a max/min
    # clip would turn the reference's -0.0 into 0.0.
    from types import SimpleNamespace

    from reference_generic import _ftrl_stepsize

    cases = np.array(list(_RAW_CASES.values()))
    n = int(np.prod(shape, dtype=int))
    for shift in range(len(cases)):
        rows = cases[(np.arange(n) + shift) % len(cases)]
        inner, sq = rows[:, 0].reshape(shape), rows[:, 1].reshape(shape)
        if shape == ():
            inner, sq = float(inner), float(sq)
        for c in (1.0, 2.0):
            with np.errstate(all="ignore"):
                got = FtrlState(alpha=1.0, M=2.0, sum_inner=inner, sum_sq=sq,
                                curvature_scale=c).stepsize()
                want = [_ftrl_stepsize(SimpleNamespace(alpha=1.0, M=2.0, curvature_scale=c,
                                                       sum_inner=i, sum_sq=s))
                        for i, s in zip(np.ravel(inner).tolist(), np.ravel(sq).tolist())]
            assert np.shape(got) == shape
            assert np.asarray(got, np.float64).tobytes() == np.array(want).reshape(shape).tobytes()
    minus_zero = FtrlState(alpha=1.0, M=2.0, sum_inner=-5.0, sum_sq=np.inf).stepsize()
    assert np.float64(minus_zero).tobytes() == np.float64(-0.0).tobytes()
