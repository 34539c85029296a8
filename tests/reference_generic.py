"""The one-run-at-a-time step loop that preceded the lane engine: the bitwise reference.

``reference_run`` is ``sgdol.run`` with ``force_generic=True`` as it was
before the engine in ``sgdol.optimizers`` replaced it: ``_run_generic``
below is that loop, unchanged, and it drives reference subclasses whose
``step``, ``f``, ``grad`` and ``sample_pair`` are the single-point code of
that time (one ``GradientPair`` and one ``StepReport`` per step, Python
float state, per-step index and noise draws). The package steps through
``update`` alone now, so the pair and report types, and the pair's shape
checks, are kept here as they were. A non-finite pair is not refused: like
every loop of the package, this one carries inf and NaN on, silently.
``tests/test_lanes.py`` requires every lane of an engine run to equal this
loop bit for bit. This is test code only.
"""

import copy
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from sgdol import (
    AdaGradCoord,
    AdaGradGlobal,
    Adam,
    QuadraticOracle,
    RosenbrockOracle,
    Sgd,
    SgdGhadimiLan,
    Sgdol,
    SgdolCoord,
    SgdolMomentum,
    SigmoidLossOracle,
)
from sgdol.core import Trajectory, dot, sq_norm
from sgdol.optimizers import RunResult
from sgdol.oracles import sigmoid_phi, sigmoid_phi_prime


@dataclass(frozen=True)
class GradientPair:
    """Two independent stochastic gradients taken at the same query point."""

    g: np.ndarray
    g_prime: np.ndarray

    def __post_init__(self):
        if self.g.shape != self.g_prime.shape:
            raise ValueError(
                f"gradient pair dims differ: {self.g.shape} vs {self.g_prime.shape}"
            )

    @property
    def dim(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class StepReport:
    """What one optimizer step did: stepsize(s) used, pair consumption, momentum stepsize."""

    eta_used: Union[float, np.ndarray]
    g_pair_consumed: int
    beta_used: Optional[float] = None


def _check_pair(optimizer, pair):
    if pair.dim != optimizer.dim:
        raise ValueError(f"gradient pair dim {pair.dim} != iterate dim {optimizer.dim}")


def _equal(a, b):
    """Equal arrays, NaN equal to NaN, or both None."""
    return a is b is None or (a is not None and b is not None
                              and np.array_equal(a, b, equal_nan=True))


def trajectories_equal(r1, r2):
    """Bitwise equality of two RunResults: iterates, k, every recorded series and
    ``diverged_at``, a NaN equal to a NaN."""
    t1, t2 = r1.trajectory, r2.trajectory
    return (r1.k == r2.k and r1.diverged_at == r2.diverged_at
            and all(_equal(a, b) for a, b in (
                (r1.x_final, r2.x_final), (r1.x_k, r2.x_k), (t1.t, t2.t),
                (t1.f_value, t2.f_value), (t1.true_grad_sq_norm, t2.true_grad_sq_norm),
                (t1.stepsize, t2.stepsize), (t1.stepsize_coords, t2.stepsize_coords))))


# ---------------------------------------------------------------------------
# Single-point oracle code
# ---------------------------------------------------------------------------


def _analytic_sample_pair(self, x, rng):
    self._check_dim(x)
    grad = self.grad(x)
    eps = rng.standard_normal((2, self.dim))
    g = grad + self.sigma * eps[0]
    gp = grad + self.sigma * eps[1]
    return GradientPair(g, gp)


class _RosenbrockReference(RosenbrockOracle):
    exact_f = exact_grad = True

    def f(self, x):
        a = 1.0 - x[0]
        c = x[1] - x[0] * x[0]
        return float(a * a + 100.0 * (c * c))

    def grad(self, x):
        c = x[1] - x[0] * x[0]
        gx = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * c
        gy = 200.0 * c
        return np.array([gx, gy])

    sample_pair = _analytic_sample_pair


class _QuadraticReference(QuadraticOracle):
    exact_f = exact_grad = True

    def f(self, x):
        self._check_dim(x)
        return 0.5 * float(np.sum(self.diag * (x * x)))

    def grad(self, x):
        self._check_dim(x)
        return self.diag * x

    sample_pair = _analytic_sample_pair


def _sigmoid_grad(x, features, labels):
    r = features @ x - labels
    w = sigmoid_phi_prime(r)
    return (w @ features) / features.shape[0]


class _SigmoidReference(SigmoidLossOracle):
    exact_f = exact_grad = True

    def f(self, x):
        r = self.data.features @ x - self.data.labels
        return float(np.mean(sigmoid_phi(r)))

    def grad(self, x):
        self._check_dim(x)
        return _sigmoid_grad(x, self.data.features, self.data.labels)

    def _batch_grad(self, x, idx):
        return _sigmoid_grad(x, self.data.features[idx], self.data.labels[idx])

    def sample_pair(self, x, rng):
        self._check_dim(x)
        m = len(self.data)
        if self.batch_size == m:
            g = self.grad(x)
            return GradientPair(g, g.copy())
        idx = rng.integers(0, m, size=self.batch_size)
        idx2 = rng.integers(0, m, size=self.batch_size)
        return GradientPair(self._batch_grad(x, idx), self._batch_grad(x, idx2))


# ---------------------------------------------------------------------------
# Single-point update rules
# ---------------------------------------------------------------------------


def _ftrl_stepsize(ftrl):
    raw = (ftrl.alpha + ftrl.sum_inner) / (ftrl.alpha + ftrl.curvature_scale * ftrl.sum_sq) / ftrl.M
    hi = 2.0 / ftrl.M
    if raw < 0.0:
        return 0.0
    if raw > hi:
        return hi
    return raw


class _SgdolReference(Sgdol):
    def step(self, pair):
        _check_pair(self, pair)
        eta = _ftrl_stepsize(self.ftrl)
        self.x = self.x - eta * pair.g
        b = dot(pair.g, pair.g_prime)
        a = sq_norm(pair.g)
        if self.ledger is not None:
            self.ledger.record(eta, b, a, sq_norm(pair.g_prime))
        self.ftrl.observe_stats(b, a)
        return StepReport(eta_used=eta, g_pair_consumed=2)


class _SgdolCoordReference(SgdolCoord):
    def step(self, pair):
        _check_pair(self, pair)
        eta = self.ftrl.stepsize()
        self.x = self.x - eta * pair.g
        self.ftrl.observe_stats(pair.g * pair.g_prime, pair.g * pair.g)
        return StepReport(eta_used=eta, g_pair_consumed=2)


class _SgdolMomentumReference(SgdolMomentum):
    def step(self, pair):
        _check_pair(self, pair)
        eta = _ftrl_stepsize(self.ftrl_eta)
        beta = 0.0 if self.clamp_beta else _ftrl_stepsize(self.ftrl_beta)
        z_old = self.z
        self.x = self.x - eta * pair.g - beta * z_old
        decay = beta / eta if eta > 0.0 else 0.0
        self.z = decay * z_old + pair.g
        self.ftrl_eta.observe_stats(dot(pair.g, pair.g_prime), sq_norm(pair.g))
        self.ftrl_beta.observe_stats(dot(z_old, pair.g_prime), sq_norm(z_old))
        return StepReport(eta_used=eta, beta_used=beta, g_pair_consumed=2)


def _sgd_step(self, pair):
    _check_pair(self, pair)
    self.x = self.x - self.lr * pair.g
    return StepReport(eta_used=self.lr, g_pair_consumed=1)


class _SgdReference(Sgd):
    step = _sgd_step


class _SgdGhadimiLanReference(SgdGhadimiLan):
    step = _sgd_step


class _AdaGradGlobalReference(AdaGradGlobal):
    def step(self, pair):
        _check_pair(self, pair)
        self.accum += sq_norm(pair.g)
        coef = self.lr / math.sqrt(self.accum) if self.accum > 0.0 else 0.0
        self.x = self.x - coef * pair.g
        return StepReport(eta_used=coef, g_pair_consumed=1)


class _AdaGradCoordReference(AdaGradCoord):
    def step(self, pair):
        _check_pair(self, pair)
        self.accum += pair.g * pair.g
        coef = np.zeros(self.dim)
        nz = self.accum > 0.0
        coef[nz] = self.lr / np.sqrt(self.accum[nz])
        self.x = self.x - coef * pair.g
        return StepReport(eta_used=coef, g_pair_consumed=1)


class _AdamReference(Adam):
    def step(self, pair):
        _check_pair(self, pair)
        g = pair.g
        self._p1 *= self.beta1
        self._p2 *= self.beta2
        bc1 = 1.0 - self._p1
        bc2 = 1.0 - self._p2
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * (g * g)
        self.x = self.x - self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)
        return StepReport(eta_used=math.nan, g_pair_consumed=1)


_REFERENCE_CLASSES = {cls.__base__: cls for cls in (
    _RosenbrockReference, _QuadraticReference, _SigmoidReference,
    _SgdolReference, _SgdolCoordReference, _SgdolMomentumReference, _SgdReference,
    _SgdGhadimiLanReference, _AdaGradGlobalReference, _AdaGradCoordReference, _AdamReference)}


def as_reference(obj):
    """A deep copy of an optimizer or built-in oracle that runs the single-point code.

    A reference object is returned as it is, so it can run several legs.
    """
    if type(obj) in _REFERENCE_CLASSES.values():
        return obj
    ref = copy.deepcopy(obj)
    ref.__class__ = _REFERENCE_CLASSES[type(obj)]
    return ref


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def reference_run(optimizer, oracle, T, rng, report_every=None, output_rng=None):
    """``run(..., force_generic=True)`` on ``as_reference`` of optimizer and oracle."""
    optimizer, oracle = as_reference(optimizer), as_reference(oracle)
    stride = max(1, T // 500) if report_every is None else int(report_every)
    out_stream = output_rng if output_rng is not None else rng.child(0xD1CE)
    k = int(out_stream.generator().integers(1, T + 1))
    with np.errstate(all="ignore"):  # a diverging run overflows silently, as in the package
        return _run_generic(optimizer, oracle, T, rng, stride, k)


def _run_generic(optimizer, oracle, T, rng, stride, k):
    gen = rng.generator()
    n_rec = (T + stride - 1) // stride
    rec_t = np.empty(n_rec, np.int64)
    rec_f = np.empty(n_rec) if oracle.exact_f else None
    rec_gsq = np.empty(n_rec) if oracle.exact_grad else None
    rec_eta = np.empty(n_rec)
    coord = isinstance(optimizer, (SgdolCoord, AdaGradCoord))
    rec_eta_coords = np.empty((n_rec, optimizer.dim)) if coord else None

    ri = 0
    x_k = None
    for t in range(1, T + 1):
        if t == k:
            x_k = optimizer.x.copy()
        rec_here = (t - 1) % stride == 0
        if rec_here:
            if rec_f is not None:
                rec_f[ri] = oracle.f(optimizer.x)
            if rec_gsq is not None:
                rec_gsq[ri] = sq_norm(oracle.grad(optimizer.x))
        pair = oracle.sample_pair(optimizer.x, gen)
        report = optimizer.step(pair)
        if rec_here:
            rec_t[ri] = t
            if coord:
                rec_eta_coords[ri] = report.eta_used
                rec_eta[ri] = float(np.mean(report.eta_used))
            else:
                rec_eta[ri] = report.eta_used
            ri += 1

    traj = Trajectory(rec_t, rec_f, rec_gsq, rec_eta, stepsize_coords=rec_eta_coords)
    return RunResult(traj, k, x_k, optimizer.x.copy())
