"""Optimizers behind one stepping interface, and the seeded run loop.

The SGDOL family learns its stepsizes online from surrogate losses; the
baselines (SGD, AdaGrad, Adam, and the constant theoretically-tuned
stepsize) consume only the first gradient of each pair, so every optimizer
sees identical oracle call counts and random streams under a shared seed.

``run`` executes T steps and records the trajectory. On the built-in
analytic oracles it dispatches to the fused kernels in ``_kernels``, which
continue from whatever state earlier steps left; the momentum variant,
other oracles and ``force_generic`` runs go through the generic
step-by-step path. Both paths consume the random stream identically and
leave the optimizer in the same state.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Union

import numpy as np

from . import _kernels
from .core import RngStream, Trajectory, check_fields, dot, field_problems, sq_norm, vector
from .online import DEFAULT_ALPHA, CoordFtrlState, FtrlState, RegretLedger
from .oracles import (
    GradientPair,
    QuadraticOracle,
    RosenbrockOracle,
    StochasticOracle,
)

__all__ = [
    "StepReport",
    "Optimizer",
    "Sgdol",
    "SgdolCoord",
    "SgdolMomentum",
    "Sgd",
    "AdaGradGlobal",
    "AdaGradCoord",
    "Adam",
    "SgdGhadimiLan",
    "OptimizerConfig",
    "OPTIMIZER_KINDS",
    "RunResult",
    "run",
]

@dataclass(frozen=True)
class StepReport:
    """What one optimizer step did: stepsize(s) used and pair consumption."""

    eta_used: Union[float, np.ndarray]
    g_pair_consumed: int
    beta_used: Optional[float] = None
    surrogate_value: Optional[float] = None


class Optimizer:
    """Stateful optimizer over a dense iterate; one transition per pair."""

    kind: str
    # (kernel name, attributes passed in, state attributes), or None when the
    # kind has no fused kernel. The state attributes are passed in after the
    # others and the kernel's final values of them are written back, so a
    # kernel continues from whatever state earlier steps left.
    kernel: Optional[tuple] = None

    def __init__(self, x0):
        self.x = vector(x0).copy()

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def step(self, pair: GradientPair) -> StepReport:
        raise NotImplementedError

    def _check_pair(self, pair: GradientPair):
        if pair.dim != self.dim:
            raise ValueError(f"gradient pair dim {pair.dim} != iterate dim {self.dim}")


class Sgdol(Optimizer):
    """SGD whose single global stepsize is learned by FTRL on surrogate losses.

    The stepsize for round t is computed from rounds 1..t-1 only, before the
    round's pair is seen. ``curvature_scale=2.0`` selects the doubled-curvature
    surrogate family used by the momentum variant.
    """

    kind = "sgdol_global"
    kernel = ("sgdol_global", ("M", "alpha", "ftrl.curvature_scale", "logs_regret"),
              ("ftrl.sum_inner", "ftrl.sum_sq", "ftrl.t"))

    def __init__(self, x0, M: float, alpha: float = DEFAULT_ALPHA,
                 curvature_scale: float = 1.0, ledger: Optional[RegretLedger] = None):
        super().__init__(x0)
        self.ftrl = FtrlState(alpha=alpha, M=M, curvature_scale=curvature_scale)
        self.ledger = ledger

    @property
    def M(self) -> float:
        return self.ftrl.M

    @property
    def alpha(self) -> float:
        return self.ftrl.alpha

    @property
    def logs_regret(self) -> bool:
        """True when every step is recorded into ``ledger``."""
        return self.ledger is not None

    def step(self, pair: GradientPair) -> StepReport:
        self._check_pair(pair)
        eta = self.ftrl.stepsize()
        self.x = self.x - eta * pair.g
        b = dot(pair.g, pair.g_prime)
        a = sq_norm(pair.g)
        loss = 0.5 * self.ftrl.curvature_scale * self.M * eta * eta * a - eta * b
        if self.ledger is not None:
            self.ledger.record(eta, b, a, sq_norm(pair.g_prime))
        self.ftrl.observe_stats(b, a)
        return StepReport(eta_used=eta, g_pair_consumed=2, surrogate_value=loss)


class SgdolCoord(Optimizer):
    """SGDOL with one independent FTRL stepsize learner per coordinate."""

    kind = "sgdol_coord"
    kernel = ("sgdol_coord", ("M", "alpha"), ("ftrl.sum_inner", "ftrl.sum_sq", "ftrl.t"))

    def __init__(self, x0, M: float, alpha: float = DEFAULT_ALPHA):
        super().__init__(x0)
        self.ftrl = CoordFtrlState(alpha=alpha, M=M, dim=self.dim)

    @property
    def M(self) -> float:
        return self.ftrl.M

    @property
    def alpha(self) -> float:
        return self.ftrl.alpha

    def step(self, pair: GradientPair) -> StepReport:
        self._check_pair(pair)
        eta = self.ftrl.stepsize()
        self.x = self.x - eta * pair.g
        b = pair.g * pair.g_prime
        a = pair.g * pair.g
        loss = float(np.sum(0.5 * self.M * eta * eta * a - eta * b))
        self.ftrl.observe_stats(b, a)
        return StepReport(eta_used=eta, g_pair_consumed=2, surrogate_value=loss)


class SgdolMomentum(Optimizer):
    """Two-stepsize SGDOL: x <- x - eta*g - beta*z with both learned online.

    Both learners run on the doubled-curvature surrogates
    M*eta^2*||g||^2 - eta*<g, g'> and M*beta^2*||z||^2 - beta*<z, g'>,
    each with the regularizer centered at 1/M over [0, 2/M]. The buffer
    follows z_{t+1} = (beta_t/eta_t) * z_t + g_t, degrading to z_{t+1} = g_t
    when eta_t = 0. ``clamp_beta`` forces beta_t = 0 every round, which
    reproduces plain SGDOL under the doubled-curvature convention.
    """

    kind = "sgdol_momentum"

    def __init__(self, x0, M: float, alpha: float = DEFAULT_ALPHA, clamp_beta: bool = False):
        super().__init__(x0)
        self.ftrl_eta = FtrlState(alpha=alpha, M=M, curvature_scale=2.0)
        self.ftrl_beta = FtrlState(alpha=alpha, M=M, curvature_scale=2.0)
        self.z = np.zeros(self.dim)
        self.clamp_beta = clamp_beta

    @property
    def M(self) -> float:
        return self.ftrl_eta.M

    @property
    def alpha(self) -> float:
        return self.ftrl_eta.alpha

    def step(self, pair: GradientPair) -> StepReport:
        self._check_pair(pair)
        eta = self.ftrl_eta.stepsize()
        beta = 0.0 if self.clamp_beta else self.ftrl_beta.stepsize()
        z_old = self.z
        self.x = self.x - eta * pair.g - beta * z_old
        b_eta = dot(pair.g, pair.g_prime)
        a_eta = sq_norm(pair.g)
        b_beta = dot(z_old, pair.g_prime)
        a_beta = sq_norm(z_old)
        M = self.M
        loss = (M * eta * eta * a_eta - eta * b_eta) + (M * beta * beta * a_beta - beta * b_beta)
        decay = beta / eta if eta > 0.0 else 0.0
        self.z = decay * z_old + pair.g
        self.ftrl_eta.observe_stats(b_eta, a_eta)
        self.ftrl_beta.observe_stats(b_beta, a_beta)
        return StepReport(eta_used=eta, beta_used=beta, g_pair_consumed=2, surrogate_value=loss)


class Sgd(Optimizer):
    """Plain SGD with a constant stepsize; uses only g from each pair."""

    kind = "sgd"
    kernel = ("sgd", ("lr",), ())

    def __init__(self, x0, lr: float):
        super().__init__(x0)
        check_fields(lr=lr)
        self.lr = lr

    def step(self, pair: GradientPair) -> StepReport:
        self._check_pair(pair)
        self.x = self.x - self.lr * pair.g
        return StepReport(eta_used=self.lr, g_pair_consumed=1)


class AdaGradGlobal(Optimizer):
    """AdaGrad with one shared stepsize lr / sqrt(sum_j ||g_j||^2).

    The accumulator includes the current gradient. Until a nonzero gradient
    arrives the effective stepsize is 0 (no epsilon fudge term).
    """

    kind = "adagrad_global"
    kernel = ("adagrad_global", ("lr",), ("accum",))

    def __init__(self, x0, lr: float):
        super().__init__(x0)
        check_fields(lr=lr)
        self.lr = lr
        self.accum = 0.0

    def step(self, pair: GradientPair) -> StepReport:
        self._check_pair(pair)
        self.accum += sq_norm(pair.g)
        coef = self.lr / math.sqrt(self.accum) if self.accum > 0.0 else 0.0
        self.x = self.x - coef * pair.g
        return StepReport(eta_used=coef, g_pair_consumed=1)


class AdaGradCoord(Optimizer):
    """AdaGrad with per-coordinate accumulators."""

    kind = "adagrad_coord"
    kernel = ("adagrad_coord", ("lr",), ("accum",))

    def __init__(self, x0, lr: float):
        super().__init__(x0)
        check_fields(lr=lr)
        self.lr = lr
        self.accum = np.zeros(self.dim)

    def step(self, pair: GradientPair) -> StepReport:
        self._check_pair(pair)
        self.accum += pair.g * pair.g
        coef = np.zeros(self.dim)
        nz = self.accum > 0.0
        coef[nz] = self.lr / np.sqrt(self.accum[nz])
        self.x = self.x - coef * pair.g
        return StepReport(eta_used=coef, g_pair_consumed=1)


class Adam(Optimizer):
    """Adam with standard bias-corrected first and second moments."""

    kind = "adam"
    kernel = ("adam", ("lr", "beta1", "beta2", "eps"), ("m", "v", "_p1", "_p2"))

    def __init__(self, x0, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        super().__init__(x0)
        check_fields(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(self.dim)
        self.v = np.zeros(self.dim)
        self._p1 = 1.0
        self._p2 = 1.0

    def step(self, pair: GradientPair) -> StepReport:
        self._check_pair(pair)
        g = pair.g
        self._p1 *= self.beta1
        self._p2 *= self.beta2
        bc1 = 1.0 - self._p1
        bc2 = 1.0 - self._p2
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * (g * g)
        self.x = self.x - self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)
        return StepReport(eta_used=math.nan, g_pair_consumed=1)


class SgdGhadimiLan(Sgd):
    """SGD with the constant stepsize min(1/M, sqrt(f_gap) / (sigma * sqrt(T))).

    Requires knowing the noise level and the initial optimality gap, so it is
    only usable on synthetic problems. sigma = 0 degenerates to 1/M.
    """

    kind = "sgd_gl"

    def __init__(self, x0, M: float, sigma: float, T: int, f_gap: float):
        # Skips Sgd.__init__: f_gap = 0 gives lr = 0, which its range check refuses.
        Optimizer.__init__(self, x0)
        check_fields(M=M, sigma=sigma, T=T, f_gap=f_gap)
        if sigma == 0.0:
            self.lr = 1.0 / M
        else:
            self.lr = min(1.0 / M, math.sqrt(f_gap) / (sigma * math.sqrt(T)))
        self.M = M


# ----------------------------------------------------------------------------
# Declarative configuration
# ----------------------------------------------------------------------------

_CLASSES = {cls.kind: cls for cls in (Sgdol, SgdolCoord, SgdolMomentum, Sgd,
                                       AdaGradGlobal, AdaGradCoord, Adam, SgdGhadimiLan)}
OPTIMIZER_KINDS = tuple(_CLASSES)
# kind -> its constructor's parameters after x0; those without a default are required.
_PARAMETERS = {kind: {name: p for name, p in inspect.signature(cls).parameters.items()
                      if name != "x0"}
               for kind, cls in _CLASSES.items()}


@dataclass
class OptimizerConfig:
    """Validated recipe for building an optimizer at a start point.

    ``validate`` rejects a set field that the kind's constructor does not
    take and range-checks every set field; ``build`` passes the set fields,
    so an unset one takes the constructor's default.
    """

    kind: str
    M: Optional[float] = None
    alpha: Optional[float] = None
    lr: Optional[float] = None
    beta1: Optional[float] = None
    beta2: Optional[float] = None
    eps: Optional[float] = None
    sigma: Optional[float] = None
    T: Optional[int] = None
    f_gap: Optional[float] = None

    def validate(self, deferred_ok: bool = False) -> list:
        """Return a list of '<field>: <problem>' strings; empty means valid.

        With ``deferred_ok`` the sgd_gl constants (M, sigma, T, f_gap) may be
        left unset; the harness fills them from the oracle before building.
        """
        cls = _CLASSES.get(self.kind)
        if cls is None:
            return [f"kind: unknown optimizer kind {self.kind!r}"]
        problems = []
        if not (deferred_ok and cls is SgdGhadimiLan):
            problems += [f"{name}: required for kind {self.kind!r}"
                         for name, p in _PARAMETERS[self.kind].items()
                         if p.default is p.empty and getattr(self, name) is None]
        set_fields = {name: value for name, value in vars(self).items()
                      if name != "kind" and value is not None}
        problems += [f"{name}: not taken by kind {self.kind!r}"
                     for name in set_fields if name not in _PARAMETERS[self.kind]]
        return problems + field_problems(**set_fields)

    def build(self, x0) -> Optimizer:
        problems = self.validate()
        if problems:
            raise ValueError("invalid optimizer config: " + "; ".join(problems))
        return _CLASSES[self.kind](x0, **{name: value for name, value in vars(self).items()
                                          if name != "kind" and value is not None})


# ----------------------------------------------------------------------------
# Run loop
# ----------------------------------------------------------------------------


@dataclass
class RunResult:
    """Output of one seeded optimizer run."""

    trajectory: Trajectory
    k: int
    x_k: np.ndarray
    x_final: np.ndarray
    ledger: Optional[RegretLedger] = field(default=None)


def _analytic_params(oracle: StochasticOracle):
    if isinstance(oracle, RosenbrockOracle):
        return _kernels.ORACLE_ROSENBROCK, np.ones(2), oracle.sigma
    if isinstance(oracle, QuadraticOracle):
        return _kernels.ORACLE_QUADRATIC, oracle.diag, oracle.sigma
    return None


def run(
    optimizer: Optimizer,
    oracle: StochasticOracle,
    T: int,
    rng: RngStream,
    report_every: Optional[int] = None,
    record_regret: bool = False,
    output_rng: Optional[RngStream] = None,
    force_generic: bool = False,
) -> RunResult:
    """Execute T optimizer steps against the oracle, recording a trajectory.

    ``rng`` feeds the oracle's noise; ``output_rng`` (derived from ``rng``
    when omitted) picks the uniformly sampled output iterate index k. Two
    calls with identical arguments produce bitwise-identical results.
    ``record_regret`` attaches a new record-keeping ledger to the optimizer
    and returns it with the result.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if optimizer.dim != oracle.dim:
        raise ValueError(f"optimizer dim {optimizer.dim} != oracle dim {oracle.dim}")
    if record_regret and optimizer.kind != "sgdol_global":
        raise ValueError("record_regret is only supported for sgdol_global runs")
    stride = max(1, T // 500) if report_every is None else int(report_every)
    if stride < 1:
        raise ValueError(f"report_every must be >= 1, got {report_every}")

    out_stream = output_rng if output_rng is not None else rng.child(0xD1CE)
    k = int(out_stream.generator().integers(1, T + 1))

    ledger = None
    if record_regret:
        ledger = optimizer.ledger = RegretLedger(
            optimizer.alpha, optimizer.M, keep_records=True,
            curvature_scale=optimizer.ftrl.curvature_scale)
    params = _analytic_params(oracle)
    if params is not None and not force_generic and optimizer.kernel is not None:
        return _run_kernel(optimizer, params, T, rng, stride, k, ledger)
    return _run_generic(optimizer, oracle, T, rng, stride, k, ledger)


def _kernel_args(optimizer: Optimizer):
    """The optimizer's kernel name, and its parameters then state in kernel order."""
    name, inputs, state = optimizer.kernel
    return name, [attrgetter(attr)(optimizer) for attr in inputs + state]


def _run_kernel(optimizer, params, T, rng, stride, k, ledger):
    oracle_id, diag, sigma = params
    name, args = _kernel_args(optimizer)
    state = optimizer.kernel[2]
    # One bulk draw consumes the stream exactly like T per-step pair draws.
    noise = rng.generator().standard_normal((T, 2, optimizer.dim))
    x = optimizer.x  # mutated in place by the kernel
    out = _kernels.get_kernel(name)(oracle_id, diag, x, T, sigma, noise, k, stride, *args)
    *series, coords, xk = out[:8]
    for attr, value in zip(state, out[8:]):
        owner, _, leaf = attr.rpartition(".")
        setattr(attrgetter(owner)(optimizer) if owner else optimizer, leaf, value)
    steps = out[8 + len(state):]  # per-step regret statistics, sgdol_global only
    if steps and optimizer.logs_regret:
        optimizer.ledger.record_arrays(*steps)
    traj = Trajectory(*series, stepsize_coords=coords if coords.shape[1] else None)
    return RunResult(traj, k, xk, x.copy(), ledger)


def _run_generic(optimizer, oracle, T, rng, stride, k, ledger):
    gen = rng.generator()
    n_rec = (T + stride - 1) // stride
    rec_t = np.empty(n_rec, np.int64)
    rec_f = np.empty(n_rec) if oracle.exact_f else None
    rec_gsq = np.empty(n_rec) if oracle.exact_grad else None
    rec_eta = np.empty(n_rec)
    coord = isinstance(optimizer, (SgdolCoord, AdaGradCoord))
    rec_eta_coords = np.empty((n_rec, optimizer.dim)) if coord else None
    rec_surr = np.empty(n_rec)
    rec_cum = np.empty(n_rec)

    cum = 0.0
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
        loss = report.surrogate_value if report.surrogate_value is not None else 0.0
        cum += loss
        if rec_here:
            rec_t[ri] = t
            if coord:
                rec_eta_coords[ri] = report.eta_used
                rec_eta[ri] = float(np.mean(report.eta_used))
            else:
                rec_eta[ri] = report.eta_used
            rec_surr[ri] = loss
            rec_cum[ri] = cum
            ri += 1

    traj = Trajectory(rec_t, rec_f, rec_gsq, rec_eta, rec_surr, rec_cum,
                      stepsize_coords=rec_eta_coords)
    return RunResult(traj, k, x_k, optimizer.x.copy(), ledger)
