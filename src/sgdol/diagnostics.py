"""Independent brute-force oracles and statistical verifiers.

Everything here checks the main implementation from the outside: the FTRL
closed form against a numeric argmin search, analytic gradients against
central finite differences (all points of an objective at once), the
per-step surrogate bound by Monte Carlo (on the pairs the step engine
steps on, from the oracle's ``draw`` and ``pairs``; at minibatch size 1
each distinct drawn row is evaluated once per check), the regret-bound
inequality on recorded runs, and the linear rate on PL quadratics. Each
check evaluates each distinct input once, and all are deterministic given
their seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .core import RngStream, check_fields, row_dot, sq_norm, vector
from .online import DEFAULT_ALPHA, FtrlState, surrogate_loss
from .optimizers import Sgdol, run
from .oracles import (
    Dataset,
    QuadraticOracle,
    RosenbrockOracle,
    SigmoidLossOracle,
    StochasticOracle,
    rosenbrock_f,
    rosenbrock_grad,
    sigmoid_loss_f,
    sigmoid_loss_grad,
)

__all__ = [
    "ftrl_argmin_oracle",
    "finite_diff_grad",
    "SurrogateBoundVerdict",
    "surrogate_bound_check",
    "smoothness_probe",
    "CheckResult",
    "run_verification",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def ftrl_argmin_oracle(alpha: float, M: float, history, curvature_scale: float = 1.0,
                       tol: float = 1e-10) -> float:
    """Numerically minimize regularizer + past surrogate losses over [0, 2/M].

    ``history`` holds the past pairs as ``oracle.pairs`` lays them out, an
    array of shape (T, 2, d) with g at index 0 and g' at index 1 of each
    pair; its entries must be finite. The past losses sum to one quadratic
    in eta, (c M / 2) eta^2 A - eta B, with A = sum ||g_j||^2 and
    B = sum <g_j, g'_j> taken as correctly rounded sums, so each probe
    scores three terms whatever the history's length.
    Golden-section search down to an interval of width ``tol`` (or a few ulps
    of 2/M, where that is wider and the search can shrink no further),
    followed by one parabola fit through wide-spaced probes (the losses are
    quadratics, so the vertex refines away the flat-basin rounding noise that
    limits pure golden-section to roughly sqrt(machine epsilon)). Serves as
    the independent reference for the closed-form FTRL stepsize; an empty
    history returns the regularizer's own minimizer 1/M.
    """
    check_fields(alpha=alpha, M=M, curvature_scale=curvature_scale, tol=tol)
    history = np.asarray(history, dtype=np.float64)
    sum_sq = sum_inner = 0.0
    if history.shape != (0,):  # that of [], the empty history
        if history.ndim != 3 or history.shape[1] != 2:
            raise ValueError(f"history must have shape (T, 2, d), got {history.shape}")
        if not np.isfinite(history).all():
            raise ValueError("gradient pair entries must be finite")
        g, g_prime = history[:, 0], history[:, 1]
        sum_sq = math.fsum(row_dot(g, g).tolist())
        sum_inner = math.fsum(row_dot(g, g_prime).tolist())
    half_curv = 0.5 * curvature_scale * M

    def objective(eta: float) -> float:
        diff = eta - 1.0 / M
        return math.fsum((0.5 * M * alpha * diff * diff,
                          half_curv * eta * eta * sum_sq, -eta * sum_inner))

    span = 2.0 / M
    lo, hi = 0.0, span
    stop = max(tol, 8.0 * math.ulp(span))
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > stop:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = objective(d)
    guess = 0.5 * (lo + hi)

    def diff(x: float, y: float) -> float:
        # objective(x) - objective(y) in factored form: every term carries the
        # common factor (x - y), so the difference avoids the cancellation
        # that limits direct subtraction of nearby objective values.
        return math.fsum((0.5 * M * alpha * (x + y - 2.0 / M),
                          half_curv * (x + y) * sum_sq, -sum_inner)) * (x - y)

    h = 0.45 * span
    x1, x3 = max(0.0, guess - h), min(span, guess + h)
    x2 = guess
    if x2 <= x1 or x2 >= x3:
        x2 = 0.5 * (x1 + x3)
    d23 = diff(x2, x3)
    d21 = diff(x2, x1)
    # The offsets in units of a power of two near span, so their squares
    # cannot overflow at a tiny M; the scaling is exact, so it moves no bit.
    scale = math.ldexp(1.0, math.frexp(span)[1])
    a, b = (x2 - x1) / scale, (x2 - x3) / scale
    num = a * a * d23 - b * b * d21
    den = a * d23 - b * d21
    if den != 0.0:
        vertex = min(max(x2 - 0.5 * num / den * scale, 0.0), span)
        if diff(vertex, guess) <= 0.0:
            return vertex
    return guess


def finite_diff_grad(f: Callable[[np.ndarray], np.ndarray], x, h: float) -> np.ndarray:
    """Central-difference gradient estimate at x, shape (d,), or at every row of (..., d).

    ``x`` is taken as a float64 array; its last axis must be non-empty and
    its entries finite. ``f`` maps points (..., d) to values (...), and is
    called twice per coordinate on all the points at once, so 2 d calls
    whatever the stack's size. Where ``f`` evaluates a stacked point bit
    for bit as it evaluates that point alone, each row of the estimate is
    the bits of a call on that row alone.
    """
    check_fields(h=h)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError(f"x must have shape (..., d) with d >= 1, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x entries must be finite")
    grad = np.empty(x.shape)
    for i in range(x.shape[-1]):
        xp = x.copy()
        xm = x.copy()
        xp[..., i] += h
        xm[..., i] -= h
        grad[..., i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class SurrogateBoundVerdict:
    """Monte Carlo comparison of expected decrease against expected surrogate."""

    mean_decrease: float
    mean_surrogate: float
    std_err: float
    n: int
    passed: bool


# Pairs drawn and evaluated at a time. The dataset oracle evaluates them in
# blocks of its own, so a chunk's temporaries stay small: on the 500-row
# fixture the whole check peaks at 1.1-3.2 MB for B = 1, 50 and 500. At
# B = 1 the check's row table is sized by the dataset, one gradient and
# one decrease per row (as large as its features), not by the chunk.
_MC_CHUNK = 1024


def surrogate_bound_check(oracle: StochasticOracle, x, eta: float,
                          N: int, rng: RngStream) -> SurrogateBoundVerdict:
    """Check E[f(x - eta*g) - f(x)] <= E[surrogate(eta)] at 3 standard errors.

    Draws N fresh pairs at a fixed x with eta chosen before sampling, as the
    bound requires, through the oracle's ``draw`` and ``pairs`` like the
    step engine, ``_MC_CHUNK`` pairs at a time. ``x`` is taken as
    ``core.vector`` takes it, so it must be finite and 1-D. Where each half
    of a pair is one drawn row of a dataset (the exact class
    ``SigmoidLossOracle`` at batch size 1, not the full batch), the check
    keeps one table of each row's gradient and f(x - eta*g) - f(x): a chunk
    evaluates only the rows first drawn in it and gathers every pair from
    the table. A row's values do not depend on the rows evaluated with it,
    so the verdict holds the bits of one evaluation per draw; a subclass may
    redefine ``pairs`` or ``f_lanes``, so it takes the whole-chunk path.
    The standard error pools both sample variances, so in the zero-noise
    case it is zero up to the rounding of the variances.
    """
    if oracle.smoothness is None:
        raise ValueError("surrogate_bound_check needs the oracle's smoothness constant")
    check_fields(eta=eta, N=N)
    x = vector(x)
    gen = rng.generator()
    M = oracle.smoothness
    f0 = oracle.f(x)
    decreases = np.empty(N)
    surrogates = np.empty(N)
    # The exact class, as optimizers._run_groups picks kernels: a subclass
    # may make a row's values depend on the draw entry that holds it.
    by_row = (type(oracle) is SigmoidLossOracle and oracle.batch_size == 1
              and not oracle.full_batch)
    if by_row:
        row_grad = np.empty((len(oracle.data), len(x)))
        row_decrease = np.empty(len(oracle.data))
        seen = np.zeros(len(oracle.data), bool)
    for lo in range(0, N, _MC_CHUNK):
        hi = min(lo + _MC_CHUNK, N)
        drawn = oracle.draw(gen, hi - lo)
        if by_row:
            new = np.unique(drawn[~seen[drawn]])  # the rows first drawn in this chunk
            seen[new] = True
            if len(new):
                # pairs() takes rows two to a draw entry; an odd count repeats one.
                grads = oracle.pairs(x, np.append(new, new[:len(new) % 2]).reshape(-1, 2, 1))
                grads = grads.reshape(-1, len(x))[:len(new)]
                row_grad[new] = grads
                row_decrease[new] = oracle.f_lanes(x - eta * grads) - f0
            at = drawn.reshape(-1, 2)
            g, g_prime = row_grad[at[:, 0]], row_grad[at[:, 1]]
            decreases[lo:hi] = row_decrease[at[:, 0]]
        else:
            pairs = oracle.pairs(x, drawn)
            g, g_prime = pairs[:, 0], pairs[:, 1]
            decreases[lo:hi] = oracle.f_lanes(x - eta * g) - f0
        surrogates[lo:hi] = surrogate_loss(M, eta, row_dot(g, g), row_dot(g, g_prime))
    mean_d = float(np.mean(decreases))
    mean_s = float(np.mean(surrogates))
    if N > 1:
        se = math.sqrt((np.var(decreases, ddof=1) + np.var(surrogates, ddof=1)) / N)
    else:
        se = 0.0
    return SurrogateBoundVerdict(mean_d, mean_s, se, N, mean_d <= mean_s + 3.0 * se)


def smoothness_probe(grad: Callable[[np.ndarray], np.ndarray],
                     sample_point: Callable[[np.random.Generator], np.ndarray],
                     pairs: int, rng: RngStream) -> float:
    """Max gradient-difference ratio over sampled pairs: a lower bound on M.

    NaN once any sampled ratio is NaN, from a NaN gradient or point: such a
    sample bounds nothing, and ``max`` would drop it.
    """
    check_fields(pairs=pairs)
    gen = rng.generator()
    best = 0.0
    for _ in range(pairs):
        x1 = sample_point(gen)
        x2 = sample_point(gen)
        den = math.sqrt(sq_norm(x1 - x2))
        if den == 0.0:
            continue
        ratio = math.sqrt(sq_norm(grad(x1) - grad(x2))) / den
        if math.isnan(ratio):
            return math.nan
        best = max(best, ratio)
    return best


# ----------------------------------------------------------------------------
# Verification suite (backs the CLI's `verify` subcommand)
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_ftrl_closed_form(seed: int) -> CheckResult:
    gen = RngStream(seed, 1).generator()
    worst = 0.0
    for _ in range(60):
        T = int(gen.integers(0, 31))
        d = int(gen.integers(1, 6))
        # An index draw takes the stream's values as Generator.choice does.
        alpha = (0.1, 1.0, 10.0)[gen.integers(0, 3)]
        M = (0.5, 1.0, 2.0)[gen.integers(0, 3)]
        # One draw of the T pairs yields the values that 2T draws of d would, in order.
        draws = gen.uniform(-1.0, 1.0, size=(T, 2, d))
        g, gp = draws[:, 0], draws[:, 1]
        state = FtrlState(alpha=alpha, M=M)
        for inner, g_sq in zip(row_dot(g, gp).tolist(), row_dot(g, g).tolist()):
            state.observe_stats(inner, g_sq)
        worst = max(worst, abs(state.stepsize() - ftrl_argmin_oracle(alpha, M, draws)))
    return CheckResult("ftrl closed form vs numeric argmin",
                       bool(worst < 1e-8), f"max deviation {worst:.3e}")


def _check_gradients(seed: int) -> CheckResult:
    gen = RngStream(seed, 2).generator()
    # One draw of the stacked points yields the values that one draw per point would, in order.
    x = gen.uniform(-2.0, 2.0, size=(100, 2))
    worst = float(np.max(np.abs(finite_diff_grad(rosenbrock_f, x, 1e-6) - rosenbrock_grad(x))))
    feats = gen.uniform(-1.0, 1.0, size=(5, 4))
    labels = np.where(gen.uniform(size=5) < 0.5, -1.0, 1.0)
    data = Dataset(feats, labels)
    x = gen.uniform(-1.0, 1.0, size=(20, 4))
    fd = finite_diff_grad(lambda v: sigmoid_loss_f(v, data), x, 1e-6)
    worst = max(worst, float(np.max(np.abs(fd - sigmoid_loss_grad(x, feats, labels)))))
    return CheckResult("analytic gradients vs finite differences",
                       worst < 1e-5, f"max abs deviation {worst:.3e}")


def _check_zero_noise(seed: int) -> CheckResult:
    gen = RngStream(seed, 3).generator()
    oracle = RosenbrockOracle(sigma=0.0)
    ok = True
    for _ in range(10):
        x = gen.uniform(-2.0, 2.0, size=2)
        g, g_prime = oracle.pairs(x, oracle.draw(gen, 1))[0]
        exact = oracle.grad(x)
        ok = ok and np.array_equal(g, exact) and np.array_equal(g_prime, exact)
    return CheckResult("zero-noise oracle returns exact gradients", ok,
                       "g == g' == grad f" if ok else "mismatch found")


def _check_surrogate_bound(seed: int, n: int) -> CheckResult:
    details = []
    ok = True
    for sigma in (0.2, 5.0):
        oracle = RosenbrockOracle(sigma=sigma)
        v = surrogate_bound_check(oracle, np.array([0.3, -0.2]), 1.0 / oracle.smoothness,
                           n, RngStream(seed, 4))
        ok = ok and v.passed
        details.append(f"rosenbrock sigma={sigma}: {v.passed}")
    gen = RngStream(seed, 5).generator()
    feats = gen.uniform(-1.0, 1.0, size=(50, 8))
    labels = np.where(gen.uniform(size=50) < 0.5, -1.0, 1.0)
    oracle = SigmoidLossOracle(Dataset(feats, labels), batch_size=1)
    v = surrogate_bound_check(oracle, np.zeros(8), 1.0 / oracle.smoothness, n, RngStream(seed, 6))
    ok = ok and v.passed
    details.append(f"sigmoid batch=1: {v.passed}")
    return CheckResult("per-step surrogate bound (Monte Carlo)", ok, "; ".join(details))


def _check_smoothness_probe(seed: int) -> CheckResult:
    probe = smoothness_probe(lambda x: 2.0 * x,
                             lambda gen: gen.uniform(-1.0, 1.0, size=3),
                             pairs=50, rng=RngStream(seed, 7))
    ok = abs(probe - 2.0) < 1e-12
    return CheckResult("smoothness probe on linear field", ok, f"probe {probe:.12f}")


def _check_noiseless_fixed_point(seed: int) -> CheckResult:
    oracle = RosenbrockOracle(sigma=0.0)
    opt = Sgdol(np.zeros(2), M=1002.0, alpha=DEFAULT_ALPHA)
    res = run(opt, oracle, T=500, rng=RngStream(seed, 8), report_every=1)
    ok = bool(np.all(res.trajectory.stepsize == 1.0 / 1002.0))
    return CheckResult("noiseless stepsizes equal 1/M exactly", ok,
                       "all 500 stepsizes exact" if ok else "drift detected")


def _check_pl_rate(seed: int) -> CheckResult:
    diag = np.linspace(0.1, 1.0, 5)
    oracle = QuadraticOracle(diag, sigma=0.0)
    opt = Sgdol(np.ones(5), M=1.0, alpha=DEFAULT_ALPHA)
    res = run(opt, oracle, T=100, rng=RngStream(seed, 9), report_every=1)
    f = res.trajectory.f_value
    rate = 1.0 - oracle.pl_constant / 1.0
    f1 = f[0]
    ok = all(f[t] <= rate ** t * f1 for t in range(len(f)))
    return CheckResult("PL quadratic linear rate", bool(ok),
                       f"f after 100 steps {f[-1]:.3e} vs bound {rate ** 99 * f1:.3e}")


def _check_regret_bound(seed: int) -> CheckResult:
    oracle = RosenbrockOracle(sigma=5.0)
    opt = Sgdol(np.zeros(2), M=1002.0, alpha=DEFAULT_ALPHA, record_regret=True)
    run(opt, oracle, T=2000, rng=RngStream(seed, 10))
    ledger = opt.ledger
    L = ledger.max_grad_norm()
    grid = np.linspace(0.0, 2.0 / 1002.0, 32)
    margin = min(ledger.regret_bound_rhs(float(e), L) - ledger.regret_vs(float(e))
                 for e in grid)
    return CheckResult("regret bound inequality on recorded run",
                       bool(margin >= 0.0), f"min slack {margin:.3e}")


def run_verification(seed: int = 20190901, mc_samples: int = 20000) -> List[CheckResult]:
    """Run the full diagnostic suite; deterministic for a fixed seed."""
    check_fields(seed=seed, mc_samples=mc_samples)
    return [
        _check_ftrl_closed_form(seed),
        _check_gradients(seed),
        _check_zero_noise(seed),
        _check_surrogate_bound(seed, mc_samples),
        _check_smoothness_probe(seed),
        _check_noiseless_fixed_point(seed),
        _check_pl_rate(seed),
        _check_regret_bound(seed),
    ]
