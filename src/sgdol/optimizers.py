"""Optimizers behind one update rule each, and the seeded run loops.

The SGDOL family learns its stepsizes online from surrogate losses; the
baselines (SGD, AdaGrad, Adam, and the constant theoretically-tuned
stepsize) consume only the first gradient of each pair, so every optimizer
sees identical oracle call counts and random streams under a shared seed.

Each optimizer's ``update`` is written once over an iterate of shape (d,)
or (L, d), with its state shaped to match, and returns the stepsize(s) it
used; ``step(pair)`` applies it to one pair. Every learned stepsize comes
from one ``online.FtrlState``: float sums for a global stepsize, (d,) sums
for per-coordinate stepsizes, each with a leading lane axis when stacked.
An ``Sgdol`` built with ``record_regret=True`` owns an
``online.RegretLedger`` of its own rounds, from its first: the ledger's
running values are optimizer state, which its kernel carries and the lane
engine stacks like the FTRL sums. The ledger is the only record of the
surrogate losses.

``run`` executes T steps and records the trajectory. On the
built-in analytic oracles (the exact classes) it runs the kinds that have a
fused kernel in ``_kernels`` off the lane engine, continuing from whatever
state earlier steps left: Rosenbrock on the kernel, a quadratic of any d
through the optimizer's own ``update`` in one loop, which draws its noise
in chunks and sums its records in index order as the kernels do.
Every other run (the momentum variant, the dataset oracle, user oracles,
subclasses of the built-in ones and ``force_generic`` runs) goes through
the lane engine, ``run_lanes``: it
stacks optimizers that share a kind and parameters along a lane axis and
steps all lanes of all groups in one loop, so ``harness.run_experiment``
hands it every (optimizer x repetition) run that takes no kernel at once.
The engine asks the oracle only for what ``oracles.StochasticOracle``
requires of every oracle: ``draw`` (each repetition stream's randomness,
taken in chunks and shared by the stream's lanes), ``pairs`` at the
stacked iterates, and f and the exact gradient through ``record_lanes``.
All paths consume the random streams identically and leave the
optimizers in the same state, bit for bit.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import List, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .core import RngStream, Trajectory, check_fields, field_problems, row_dot, vector
from .online import DEFAULT_ALPHA, FtrlState, RegretLedger
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
    "run_lanes",
    "takes_kernel",
]

@dataclass(frozen=True)
class StepReport:
    """What one optimizer step did: stepsize(s) used, pair consumption, momentum stepsize."""

    eta_used: Union[float, np.ndarray]
    g_pair_consumed: int
    beta_used: Optional[float] = None


def _col(v):
    """A per-lane scalar (shape () or (L,)) as a column that scales rows of (d,) or (L, d)."""
    return np.asarray(v)[..., None]


def _ratio(num, den):
    """num / den where den > 0, else 0.0 (a NaN den included), elementwise."""
    den = np.asarray(den)
    out = np.zeros(np.broadcast(num, den).shape)
    return np.divide(num, den, out=out, where=den > 0.0)[()]


class Optimizer:
    """Stateful optimizer over a dense iterate; one transition per pair.

    The iterate ``x`` has shape (d,), or (L, d) for L lanes stacked by
    ``run_lanes``; ``update`` is written for both.
    """

    kind: str
    # Attributes, besides x, that stepping changes (dotted for nested ones).
    state: tuple = ()
    # (kernel name, parameter attributes), or None when the kind has no
    # fused kernel. The kernel takes the parameters, then the state
    # attributes, and its final values of them are written back, so a
    # kernel continues from whatever state earlier steps left.
    kernel: Optional[tuple] = None
    # Gradients of each pair the update uses: g only (1) or g and g' (2).
    g_pair_consumed = 1

    def __init__(self, x0):
        self.x = vector(x0).copy()

    @property
    def dim(self) -> int:
        return self.x.shape[-1]

    def update(self, g: np.ndarray, g_prime: np.ndarray):
        """Take one step on every lane; return the stepsize(s) it used."""
        raise NotImplementedError

    def step(self, pair: GradientPair) -> StepReport:
        self._check_pair(pair)
        return StepReport(eta_used=self.update(pair.g, pair.g_prime),
                          g_pair_consumed=self.g_pair_consumed)

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
    state = ("ftrl.sum_inner", "ftrl.sum_sq", "ftrl.t")
    kernel = ("sgdol_global", ("M", "alpha", "ftrl.curvature_scale"))
    g_pair_consumed = 2

    def __init__(self, x0, M: float, alpha: float = DEFAULT_ALPHA,
                 curvature_scale: float = 1.0, record_regret: bool = False):
        super().__init__(x0)
        self.ftrl = FtrlState(alpha=alpha, M=M, curvature_scale=curvature_scale)
        self.ledger = None  # the regret ledger of every round, with record_regret
        if record_regret:
            self.ledger = RegretLedger(alpha, M, curvature_scale)
            self.state = Sgdol.state + tuple(f"ledger.{v}" for v in RegretLedger.VALUES)

    @property
    def M(self) -> float:
        return self.ftrl.M

    @property
    def alpha(self) -> float:
        return self.ftrl.alpha

    def update(self, g, g_prime):
        eta = self.ftrl.stepsize()
        self.x = self.x - _col(eta) * g
        b = row_dot(g, g_prime)
        a = row_dot(g, g)
        if self.ledger is not None:
            self.ledger.record(eta, b, a, row_dot(g_prime, g_prime))
        self.ftrl.observe_stats(b, a)
        return eta


class SgdolCoord(Optimizer):
    """SGDOL with one independent FTRL stepsize learner per coordinate.

    The learners are one ``FtrlState`` with (d,) sums, fed the
    per-coordinate products g*g' and g*g.
    """

    kind = "sgdol_coord"
    state = ("ftrl.sum_inner", "ftrl.sum_sq", "ftrl.t")
    kernel = ("sgdol_coord", ("M", "alpha"))
    g_pair_consumed = 2

    def __init__(self, x0, M: float, alpha: float = DEFAULT_ALPHA):
        super().__init__(x0)
        self.ftrl = FtrlState(alpha=alpha, M=M, sum_inner=np.zeros(self.dim),
                              sum_sq=np.zeros(self.dim))

    @property
    def M(self) -> float:
        return self.ftrl.M

    @property
    def alpha(self) -> float:
        return self.ftrl.alpha

    def update(self, g, g_prime):
        eta = self.ftrl.stepsize()
        self.x = self.x - eta * g
        self.ftrl.observe_stats(g * g_prime, g * g)
        return eta


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
    state = ("ftrl_eta.sum_inner", "ftrl_eta.sum_sq", "ftrl_eta.t",
             "ftrl_beta.sum_inner", "ftrl_beta.sum_sq", "ftrl_beta.t", "z")
    g_pair_consumed = 2

    def __init__(self, x0, M: float, alpha: float = DEFAULT_ALPHA, clamp_beta: bool = False):
        super().__init__(x0)
        self.ftrl_eta = FtrlState(alpha=alpha, M=M, curvature_scale=2.0)
        self.ftrl_beta = FtrlState(alpha=alpha, M=M, curvature_scale=2.0)
        self.z = np.zeros(self.dim)
        self.clamp_beta = clamp_beta
        self.beta = None  # the momentum stepsize of the last step

    @property
    def M(self) -> float:
        return self.ftrl_eta.M

    @property
    def alpha(self) -> float:
        return self.ftrl_eta.alpha

    def update(self, g, g_prime):
        eta = self.ftrl_eta.stepsize()
        beta = 0.0 if self.clamp_beta else self.ftrl_beta.stepsize()
        z_old = self.z
        self.x = self.x - _col(eta) * g - _col(beta) * z_old
        self.z = _col(_ratio(beta, eta)) * z_old + g
        self.ftrl_eta.observe_stats(row_dot(g, g_prime), row_dot(g, g))
        self.ftrl_beta.observe_stats(row_dot(z_old, g_prime), row_dot(z_old, z_old))
        self.beta = beta
        return eta

    def step(self, pair: GradientPair) -> StepReport:
        return replace(super().step(pair), beta_used=self.beta)


class Sgd(Optimizer):
    """Plain SGD with a constant stepsize; uses only g from each pair."""

    kind = "sgd"
    kernel = ("sgd", ("lr",))

    def __init__(self, x0, lr: float):
        super().__init__(x0)
        check_fields(lr=lr)
        self.lr = lr

    def update(self, g, g_prime):
        self.x = self.x - self.lr * g
        return self.lr


class AdaGradGlobal(Optimizer):
    """AdaGrad with one shared stepsize lr / sqrt(sum_j ||g_j||^2).

    The accumulator includes the current gradient. Until a nonzero gradient
    arrives the effective stepsize is 0 (no epsilon fudge term).
    """

    kind = "adagrad_global"
    state = ("accum",)
    kernel = ("adagrad_global", ("lr",))

    def __init__(self, x0, lr: float):
        super().__init__(x0)
        check_fields(lr=lr)
        self.lr = lr
        self.accum = 0.0

    def update(self, g, g_prime):
        self.accum = self.accum + row_dot(g, g)
        coef = _ratio(self.lr, np.sqrt(self.accum))
        self.x = self.x - _col(coef) * g
        return coef


class AdaGradCoord(Optimizer):
    """AdaGrad with per-coordinate accumulators."""

    kind = "adagrad_coord"
    state = ("accum",)
    kernel = ("adagrad_coord", ("lr",))

    def __init__(self, x0, lr: float):
        super().__init__(x0)
        check_fields(lr=lr)
        self.lr = lr
        self.accum = np.zeros(self.dim)

    def update(self, g, g_prime):
        self.accum = self.accum + g * g
        coef = _ratio(self.lr, np.sqrt(self.accum))
        self.x = self.x - coef * g
        return coef


class Adam(Optimizer):
    """Adam with standard bias-corrected first and second moments."""

    kind = "adam"
    state = ("m", "v", "_p1", "_p2")
    kernel = ("adam", ("lr", "beta1", "beta2", "eps"))

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

    def update(self, g, g_prime):
        self._p1 = self._p1 * self.beta1
        self._p2 = self._p2 * self.beta2
        bc1 = _col(1.0 - self._p1)
        bc2 = _col(1.0 - self._p2)
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * (g * g)
        self.x = self.x - self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)
        return math.nan


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


def takes_kernel(optimizer: Optimizer, oracle: StochasticOracle,
                 force_generic: bool = False) -> bool:
    """Whether ``run`` steps this optimizer on this oracle off the lane engine.

    It does for a kind with a fused kernel on a built-in analytic oracle
    (the exact classes, as a subclass may redefine the objective): on the
    kernel on Rosenbrock, through the optimizer's own ``update`` on a
    quadratic of any d. Every other run goes through the lane engine
    (``run_lanes``).
    """
    return (not force_generic and optimizer.kernel is not None
            and type(oracle) in (RosenbrockOracle, QuadraticOracle))


def _schedule(groups, oracle, T, report_every, output_rngs):
    """Check a run's arguments; return the record stride and each run's output index k."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    for optimizer in (opt for group in groups for opt in group):
        if optimizer.dim != oracle.dim:
            raise ValueError(f"optimizer dim {optimizer.dim} != oracle dim {oracle.dim}")
    stride = max(1, T // 500) if report_every is None else int(report_every)
    if stride < 1:
        raise ValueError(f"report_every must be >= 1, got {report_every}")
    ks = [[int(stream.generator().integers(1, T + 1)) for stream in row] for row in output_rngs]
    return stride, ks


def run(
    optimizer: Optimizer,
    oracle: StochasticOracle,
    T: int,
    rng: RngStream,
    report_every: Optional[int] = None,
    output_rng: Optional[RngStream] = None,
    force_generic: bool = False,
) -> RunResult:
    """Execute T optimizer steps against the oracle, recording a trajectory.

    ``rng`` feeds the oracle's noise; ``output_rng`` (derived from ``rng``
    when omitted) picks the uniformly sampled output iterate index k. Two
    calls with identical arguments produce bitwise-identical results.
    """
    out_stream = output_rng if output_rng is not None else rng.child(0xD1CE)
    stride, [[k]] = _schedule([[optimizer]], oracle, T, report_every, [[out_stream]])
    if takes_kernel(optimizer, oracle, force_generic):
        run_loop = _run_kernel if type(oracle) is RosenbrockOracle else _run_updates
        return run_loop(optimizer, oracle, T, rng, stride, k)
    [[result]] = run_lanes([[optimizer]], oracle, T, [rng], [[out_stream]], report_every)
    return result


def _kernel_args(optimizer: Optimizer):
    """The optimizer's kernel name, and its parameters then state in kernel order.

    Array state comes as copies: the kernel updates it in place, and the
    caller may still hold the optimizer's arrays.
    """
    name, inputs = optimizer.kernel
    values = (attrgetter(attr)(optimizer) for attr in inputs + optimizer.state)
    return name, [v.copy() if isinstance(v, np.ndarray) else v for v in values]


def _set_attr(obj, attr: str, value):
    owner, _, leaf = attr.rpartition(".")
    setattr(attrgetter(owner)(obj) if owner else obj, leaf, value)


def _run_kernel(optimizer, oracle, T, rng, stride, k):
    name, args = _kernel_args(optimizer)
    # The kernel draws its noise a chunk at a time; chunked draws consume the
    # stream exactly like T per-step pair draws.
    draw = functools.partial(oracle.draw, rng.generator())
    x = optimizer.x.copy()  # updated in place by the kernel
    out = _kernels.get_kernel(name)(oracle.sigma, draw, x, T, k, stride, *args)
    *series, coords, xk = out[:6]
    optimizer.x = x
    for attr, value in zip(optimizer.state, out[6:]):
        _set_attr(optimizer, attr, value)
    traj = Trajectory(*series, stepsize_coords=coords if coords.shape[1] else None)
    return RunResult(traj, k, xk, x.copy())


def _noise_rows(draw, T, sigma, pairs):
    """Iterate (t0, noise of step t0 scaled by sigma) for t0 < T, drawn as the kernels draw.

    The noise is g's (d,) row, or with ``pairs`` 2 the (2, d) rows of g
    and g'.
    """
    return itertools.chain.from_iterable(
        zip(range(c0, c0 + len(chunk)), (chunk[:, 0] if pairs == 1 else chunk) * sigma)
        for c0, chunk in _kernels._chunks(draw, T, sigma.shape[0]))


def _sum(v):
    """The sum of an array in index order from 0.0, as a Python float.

    ``accumulate`` adds strictly in sequence, where ``np.sum`` adds pairwise
    from 8 elements up, and ``+ 0.0`` turns the -0.0 that an all-(-0.0)
    array leaves into the 0.0 that a 0.0 seed gives.
    """
    return np.add.accumulate(v)[-1].item() + 0.0


def _run_updates(optimizer, oracle, T, rng, stride, k):
    """A kernel kind's run on a quadratic of any d: its own ``update`` on (d,) arrays.

    f, ||grad f||^2 and the mean of per-coordinate stepsizes are recorded in
    index order, as the kernels sum them.
    """
    diag, sigma, d = oracle.diag, oracle.sigma, oracle.dim
    for attr in optimizer.state:  # FtrlState adds into its array sums in place
        value = attrgetter(attr)(optimizer)
        if isinstance(value, np.ndarray):
            _set_attr(optimizer, attr, value.copy())
    coord = isinstance(optimizer, (SgdolCoord, AdaGradCoord))
    both = optimizer.g_pair_consumed == 2
    draw = functools.partial(oracle.draw, rng.generator())
    rec_t = array("q")
    rec_f, rec_gsq, rec_eta, rec_coords = (array("d") for _ in range(4))
    # Float arithmetic overflows silently in the kernels, and so does this loop.
    with np.errstate(all="ignore"):
        for t0, u in _noise_rows(draw, T, sigma, optimizer.g_pair_consumed):
            x = optimizer.x
            grad = diag * x
            if t0 + 1 == k:
                x_k = x.copy()
            record = t0 % stride == 0
            if record:
                rec_t.append(t0 + 1)
                rec_f.append(0.5 * _sum(diag * (x * x)))
                rec_gsq.append(_sum(grad * grad))
            g = grad + u
            eta = optimizer.update(g[0], g[1]) if both else optimizer.update(g, g)
            if record:
                if coord:
                    rec_coords.frombytes(eta.tobytes())
                    eta = _sum(eta) / d
                rec_eta.append(eta)
    coords = np.frombuffer(rec_coords).reshape(-1, d) if coord else None
    traj = Trajectory(*_kernels._series(rec_t, rec_f, rec_gsq, rec_eta), stepsize_coords=coords)
    return RunResult(traj, k, x_k, optimizer.x.copy())


# Pairs drawn ahead from each oracle stream at a time: 64 pairs of two
# 50-row minibatches are 51 kB of indices, of d=100 Gaussian noise 102 kB.
_DRAW_CHUNK = 64


def _clone(obj):
    """A shallow copy. Unlike ``copy.copy`` it caches nothing on the class."""
    twin = object.__new__(type(obj))
    twin.__dict__.update(vars(obj))
    return twin


def _stack(optimizers: Sequence[Optimizer]) -> Optimizer:
    """One optimizer whose x and state stack those of ``optimizers`` on a lane axis.

    Its parameters are the first optimizer's. Every state attribute, a
    regret ledger's running values included, gains the lane axis.
    """
    first = optimizers[0]
    if any(type(o) is not type(first) or o.state != first.state for o in optimizers):
        raise ValueError("the optimizers of one lane group must share a kind and state")
    lanes = _clone(first)
    for owner in {attr.rpartition(".")[0] for attr in first.state} - {""}:
        setattr(lanes, owner, _clone(getattr(first, owner)))
    for attr in ("x",) + first.state:
        _set_attr(lanes, attr, np.stack([attrgetter(attr)(o) for o in optimizers]))
    return lanes


def _unstack(lanes: Optimizer, optimizers: Sequence[Optimizer]):
    """Write each lane's x and state back to its optimizer."""
    for attr in ("x",) + lanes.state:
        for optimizer, value in zip(optimizers, attrgetter(attr)(lanes)):
            _set_attr(optimizer, attr, value.copy() if value.ndim else value.item())


def run_lanes(
    groups: Sequence[Sequence[Optimizer]],
    oracle: StochasticOracle,
    T: int,
    rngs: Sequence[RngStream],
    output_rngs: Sequence[Sequence[RngStream]],
    report_every: Optional[int] = None,
) -> List[List[RunResult]]:
    """Run every optimizer in ``groups`` for T steps, all in one loop.

    ``groups[i][r]`` draws its pairs from the oracle stream ``rngs[r]``,
    shared with the r-th optimizer of every other group, and its output
    index from ``output_rngs[i][r]``. The optimizers of one group share a
    kind and parameters; their iterates and state may differ. Returns
    ``results[i][r]``, equal bit for bit to ``run(groups[i][r], oracle, T,
    rngs[r], report_every, output_rng=output_rngs[i][r],
    force_generic=True)``, and leaves each optimizer in the state that run
    would.

    Each step stacks the iterates of the G groups of R lanes as X of shape
    (G, R, d), records f and ||grad f||^2 at X on record steps, gets every
    pair from one ``oracle.pairs`` call and applies each group's ``update``
    to its lanes.
    """
    if any(len(group) != len(rngs) for group in groups):
        raise ValueError("every group needs one optimizer per oracle stream")
    stride, ks = _schedule(groups, oracle, T, report_every, output_rngs)
    if not groups:
        return []
    gens = [rng.generator() for rng in rngs]
    stacks = [_stack(group) for group in groups]
    coord = [isinstance(s, (SgdolCoord, AdaGradCoord)) for s in stacks]
    n_groups, n_streams = len(groups), len(rngs)
    n_rec = (T + stride - 1) // stride
    shape = (n_rec, n_groups, n_streams)
    rec_f = np.empty(shape)
    rec_gsq = np.empty(shape)
    rec_eta = np.empty(shape)
    rec_coords = [np.empty((n_rec, n_streams, oracle.dim)) if c else None for c in coord]
    captures = defaultdict(list)  # t -> lanes whose output iterate is x_t
    for i, row in enumerate(ks):
        for r, k in enumerate(row):
            captures[k].append((i, r))
    x_k = {}

    try:
        # Overflow is silent, as in the kernels and _run_updates; a
        # non-finite pair still raises below.
        with np.errstate(all="ignore"):
            for t in range(1, T + 1):
                j = (t - 1) % _DRAW_CHUNK
                if j == 0:
                    n = min(_DRAW_CHUNK, T - t + 1)
                    draws = np.stack([oracle.draw(gen, n) for gen in gens], axis=1)
                X = np.array([lanes.x for lanes in stacks])
                for i, r in captures.get(t, ()):
                    x_k[i, r] = X[i, r].copy()
                ri, off = divmod(t - 1, stride)
                record = off == 0
                if record:
                    rec_f[ri], grad = oracle.record_lanes(X)
                    rec_gsq[ri] = row_dot(grad, grad)
                pairs = oracle.pairs(X, draws[j])
                if not np.isfinite(pairs).all():
                    raise ValueError("gradient pair entries must be finite")
                for i, lanes in enumerate(stacks):
                    eta = lanes.update(pairs[i, :, 0], pairs[i, :, 1])
                    if record:
                        if coord[i]:
                            rec_coords[i][ri] = eta
                            eta = np.add.reduce(eta, axis=-1) / oracle.dim  # np.mean
                        rec_eta[ri, i] = eta
    finally:
        # Even when a lane diverges, each optimizer keeps the steps taken.
        for lanes, group in zip(stacks, groups):
            _unstack(lanes, group)

    rec_t = np.arange(1, T + 1, stride, dtype=np.int64)
    series = (rec_f, rec_gsq, rec_eta)
    results = []
    for i, group in enumerate(groups):
        results.append([
            RunResult(Trajectory(rec_t.copy(), *(s[:, i, r].copy() for s in series),
                                 stepsize_coords=None if rec_coords[i] is None
                                 else rec_coords[i][:, r].copy()),
                      ks[i][r], x_k[i, r], optimizer.x.copy())
            for r, optimizer in enumerate(group)])
    return results
