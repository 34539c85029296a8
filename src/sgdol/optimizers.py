"""Optimizers behind one update rule each, and the seeded step loop.

The SGDOL family learns its stepsizes online from surrogate losses; the
baselines (SGD, AdaGrad, Adam, and the constant theoretically-tuned
stepsize) consume only the first gradient of each pair, so every optimizer
sees identical oracle call counts and random streams under a shared seed.

Each optimizer's ``update(g, g_prime)`` is written once over an iterate of
shape (d,) or (L, d), with its state shaped to match, and returns the
stepsize(s) it used; it is the one way to take a step, by hand on one pair
(g and g' from ``oracle.pairs``) or in a loop. Each SGDOL kind learns its
stepsizes with one ``online.FtrlState``, ``ftrl``: float sums for a global
stepsize, (d,) sums for per-coordinate stepsizes, (2,) sums for the momentum
variant's eta and beta, each with a leading lane axis when stacked.
An ``Sgdol`` built with ``record_regret=True`` owns an ``online.RegretLedger``,
the only record of its surrogate losses: the loop folds it a noise chunk at
a time, in ``_fold``, and ``update`` records no round.

``run`` executes T steps and records the trajectory, continuing from
whatever state earlier steps left. Every run goes through one step loop,
``_run_groups``: ``run`` hands it one lane, ``run_lanes`` and
``harness.run_experiment`` groups of optimizers with one per oracle
stream, and each stream's noise is drawn a chunk at a time, once for all
of them. Each group takes a chunk's steps in one of two ways: on the exact
Rosenbrock class a kind with a fused kernel in ``_kernels`` steps on it;
every other group steps through its own ``update``, which needs only the
``draw``, ``pairs`` and ``record_lanes`` of ``oracles.StochasticOracle``.
On the exact quadratic class a kind with a kernel sums its records in
index order, as the kernels' reference does. Every group records in
``_record`` and leaves the same results and state either way, bit for
bit, a diverging run's inf and NaN included: no step checks a pair.
"""

from __future__ import annotations

import functools
import inspect
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Sequence

import numpy as np

from . import _kernels
from .core import RngStream, Trajectory, check_fields, field_problems, row_dot, vector
from .online import DEFAULT_ALPHA, FtrlState, RegretLedger
from .oracles import QuadraticOracle, RosenbrockOracle, StochasticOracle

__all__ = [
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
]


def _col(v):
    """A per-lane scalar (shape () or (L,)) as a column that scales rows of (d,) or (L, d)."""
    return np.asarray(v)[..., None]


def _ratio(num, den):
    """num / den where den > 0, else 0.0 (a NaN den too); num is a scalar or den-shaped."""
    den = np.asarray(den)
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)[()]


class Optimizer:
    """Stateful optimizer over a dense iterate; one transition per pair.

    The iterate ``x`` has shape (d,), or (L, d) for L lanes stacked by
    ``run_lanes``; ``update`` is written for both.
    """

    kind: str
    # Attributes that ``update`` reads and never changes; the optimizers of
    # one lane group must agree on each.
    params: tuple = ()
    # The class's attributes, besides x, that stepping changes (dotted if nested).
    state: tuple = ()
    # The name of the kind's fused kernel, or None. It takes the parameters,
    # then the state attributes, and its final values of them are written
    # back, so a kernel continues from whatever state earlier steps left.
    kernel: Optional[str] = None
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


class _SgdolBase(Optimizer):
    """An SGDOL kind: every stepsize it plays comes from its one ``FtrlState``, ``ftrl``."""

    g_pair_consumed = 2

    @property
    def M(self) -> float:
        return self.ftrl.M

    @property
    def alpha(self) -> float:
        return self.ftrl.alpha


class Sgdol(_SgdolBase):
    """SGD whose single global stepsize is learned by FTRL on surrogate losses.

    The stepsize for round t is computed from rounds 1..t-1 only, before the
    round's pair is seen. ``curvature_scale=2.0`` selects the doubled-curvature
    surrogate family used by the momentum variant. With ``record_regret`` it
    owns a ``RegretLedger``, which the loops fill and ``update`` does not.
    """

    kind = "sgdol_global"
    params = ("M", "alpha", "ftrl.curvature_scale")
    state = ("ftrl.sum_inner", "ftrl.sum_sq")
    kernel = "sgdol_global"

    def __init__(self, x0, M: float, alpha: float = DEFAULT_ALPHA,
                 curvature_scale: float = 1.0, record_regret: bool = False):
        super().__init__(x0)
        self.ftrl = FtrlState(alpha=alpha, M=M, curvature_scale=curvature_scale)
        self.ledger = RegretLedger(alpha, M, curvature_scale) if record_regret else None

    def update(self, g, g_prime):
        eta = self.ftrl.stepsize()
        self.x = self.x - _col(eta) * g
        self.ftrl.observe_stats(row_dot(g, g_prime), row_dot(g, g))
        return eta


class SgdolCoord(_SgdolBase):
    """SGDOL with one independent FTRL stepsize learner per coordinate.

    The learners are one ``FtrlState`` with (d,) sums, fed the
    per-coordinate products g*g' and g*g.
    """

    kind = "sgdol_coord"
    params = ("M", "alpha")
    state = ("ftrl.sum_inner", "ftrl.sum_sq")
    kernel = "sgdol_coord"

    def __init__(self, x0, M: float, alpha: float = DEFAULT_ALPHA):
        super().__init__(x0)
        self.ftrl = FtrlState(alpha=alpha, M=M, sum_inner=np.zeros(self.dim),
                              sum_sq=np.zeros(self.dim))

    def update(self, g, g_prime):
        eta = self.ftrl.stepsize()
        self.x = self.x - eta * g
        self.ftrl.observe_stats(g * g_prime, g * g)
        return eta


class SgdolMomentum(_SgdolBase):
    """Two-stepsize SGDOL: x <- x - eta*g - beta*z with both learned online.

    Entries 0 and 1 of one ``FtrlState`` learn them on the doubled-curvature
    surrogates M*eta^2*||g||^2 - eta*<g, g'> and M*beta^2*||z||^2 - beta*<z, g'>,
    each with the regularizer centered at 1/M over [0, 2/M]. The buffer follows
    z_{t+1} = (beta_t/eta_t) * z_t + g_t, degrading to z_{t+1} = g_t when
    eta_t = 0. ``clamp_beta`` forces beta_t = 0 every round, which
    reproduces plain SGDOL under the doubled-curvature convention.
    """

    kind = "sgdol_momentum"
    params = ("M", "alpha", "clamp_beta")
    state = ("ftrl.sum_inner", "ftrl.sum_sq", "z")

    def __init__(self, x0, M: float, alpha: float = DEFAULT_ALPHA, clamp_beta: bool = False):
        super().__init__(x0)
        self.ftrl = FtrlState(alpha=alpha, M=M, sum_inner=np.zeros(2), sum_sq=np.zeros(2),
                              curvature_scale=2.0)
        self.z = np.zeros(self.dim)
        self.clamp_beta = clamp_beta

    def update(self, g, g_prime):
        eta, beta = self.ftrl.stepsize().T  # entries 0 and 1, with the lane axis if stacked
        beta = 0.0 if self.clamp_beta else beta
        z_old = self.z
        self.x = self.x - _col(eta) * g - _col(beta) * z_old
        self.z = _col(_ratio(beta, eta)) * z_old + g
        rows = np.stack([g, z_old], axis=-2)  # each row reduces as it would alone
        self.ftrl.observe_stats(row_dot(rows, g_prime[..., None, :]), row_dot(rows, rows))
        return eta


class Sgd(Optimizer):
    """Plain SGD with a constant stepsize; uses only g from each pair."""

    kind = "sgd"
    params = ("lr",)
    kernel = "sgd"

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
    params = ("lr",)
    state = ("accum",)
    kernel = "adagrad_global"

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
    params = ("lr",)
    state = ("accum",)
    kernel = "adagrad_coord"

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
    params = ("lr", "beta1", "beta2", "eps")
    state = ("m", "v", "_p1", "_p2")
    kernel = "adam"

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


_SCALAR_SIGMA = "sigma: must be a scalar for kind 'sgd_gl'"


class SgdGhadimiLan(Sgd):
    """SGD with the constant stepsize min(1/M, sqrt(f_gap) / (sigma * sqrt(T))).

    Requires knowing the noise level, one scalar, and the initial optimality
    gap, so it is only usable on synthetic problems. sigma = 0 degenerates to 1/M.
    """

    kind = "sgd_gl"

    def __init__(self, x0, M: float, sigma: float, T: int, f_gap: float):
        # Skips Sgd.__init__: f_gap = 0 gives lr = 0, which its range check refuses.
        Optimizer.__init__(self, x0)
        check_fields(M=M, sigma=sigma, T=T, f_gap=f_gap)
        if np.ndim(sigma):
            raise ValueError(_SCALAR_SIGMA)
        self.lr = min(1.0 / M, math.sqrt(f_gap) / (sigma * math.sqrt(T)) if sigma else math.inf)
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
        problems += field_problems(**set_fields)
        if cls is SgdGhadimiLan and np.ndim(set_fields.get("sigma", 0.0)):
            problems.append(_SCALAR_SIGMA)
        return problems

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

    @property
    def diverged_at(self) -> Optional[int]:
        """The first recorded t whose f or ||grad f||^2 is not finite; None if none is."""
        traj = self.trajectory
        bad = ~np.isfinite([traj.f_value, traj.true_grad_sq_norm]).all(axis=0)
        return int(traj.t[bad.argmax()]) if bad.any() else None


def _schedule(groups, oracle, T, rngs, output_rngs, report_every):
    """Check the loop's arguments; return the stride, ``ks[i][r]`` and each group's
    empty records."""
    if any(len(group) != len(rngs) for group in groups):
        raise ValueError("every group needs one optimizer per oracle stream")
    if len(output_rngs) != len(groups) or any(len(row) != len(rngs) for row in output_rngs):
        raise ValueError("output_rngs needs one row per group, one stream per oracle stream")
    if groups and not rngs:
        raise ValueError("the groups need at least one oracle stream")
    check_fields(T=T)
    stride = max(1, T // 500) if report_every is None else report_every
    check_fields(report_every=stride)
    for optimizer in (opt for group in groups for opt in group):
        if optimizer.dim != oracle.dim:
            raise ValueError(f"optimizer dim {optimizer.dim} != oracle dim {oracle.dim}")
    ks = [[int(stream.generator().integers(1, T + 1)) for stream in row] for row in output_rngs]
    shape = (len(rngs), len(range(0, T, stride)))
    # Per group: f, ||grad f||^2, the (mean) stepsize and the per-coordinate stepsizes.
    recs = [(np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape + (oracle.dim,))
             if isinstance(group[0], (SgdolCoord, AdaGradCoord)) else None) for group in groups]
    return stride, ks, recs


def _record(oracle, xs, etas, rec, where, index_order=False):
    """Write the records of steps with x_t ``xs`` (n, lanes, d) and stepsize(s) ``etas``
    into the (lanes, steps) block ``where`` of a group's records ``rec``. With
    ``index_order`` (an exact ``QuadraticOracle``) f, ||grad f||^2 and the mean
    stepsize sum in index order, as the kernels' references do, in place in ``etas``."""
    f, gsq, mean, coords = (a if a is None else a[where].swapaxes(0, 1) for a in rec)
    total = _index_sum if index_order else functools.partial(np.add.reduce, axis=-1)
    with np.errstate(all="ignore"):
        if index_order:  # f = 0.5 * sum(diag * x^2) in index order
            grad = oracle.grad_lanes(xs)
            f[...] = 0.5 * _index_sum(oracle.diag * (xs * xs))
        else:
            f[...], grad = oracle.record_lanes(xs)
        gsq[...] = total(grad * grad)
        if coords is not None:
            coords[...] = etas = etas.reshape(coords.shape)
            etas = total(etas) / xs.shape[-1]
        mean[...] = etas.reshape(len(etas), -1)  # a step's one stepsize for all lanes broadcasts


def _results(groups, recs, ks, x_k, T, stride):
    """``results[i][r]``: each run's records, output iterate and final iterate."""
    return [[RunResult(Trajectory(np.arange(1, T + 1, stride, dtype=np.int64), f[r], gsq[r],
                                  mean[r], None if coords is None else coords[r]),
                       ks[i][r], x_k[i, r], optimizer.x.copy())
             for r, optimizer in enumerate(group)]
            for i, (group, (f, gsq, mean, coords)) in enumerate(zip(groups, recs))]


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
    [[result]] = _run_groups([[optimizer]], oracle, T, [rng], [[out_stream]], report_every,
                             force_generic)
    return result


def _kernel_args(optimizer: Optimizer):
    """The optimizer's parameters then its state, arrays as tuples of floats."""
    values = (attrgetter(attr)(optimizer) for attr in optimizer.params + optimizer.state)
    return [tuple(v.tolist()) if isinstance(v, np.ndarray) else v for v in values]


def _set_attr(obj, attr: str, value):
    owner, _, leaf = attr.rpartition(".")
    setattr(attrgetter(owner)(obj) if owner else obj, leaf, value)


def _fold(oracle, ledger, xs, etas, draw):
    """Record in ``ledger`` the steps from x_t ``xs`` (n, d) at ``etas`` (n,) on ``draw``."""
    with np.errstate(all="ignore"):
        g, g_prime = oracle.pairs(xs, draw).swapaxes(0, 1)  # bit for bit the loops' pairs
        ledger.record(etas, row_dot(g, g_prime), row_dot(g, g), row_dot(g_prime, g_prime))


def _clone(obj):
    """A shallow copy. Unlike ``copy.copy`` it caches nothing on the class."""
    twin = object.__new__(type(obj))
    twin.__dict__.update(vars(obj))
    return twin


def _stack(optimizers: Sequence[Optimizer]) -> Optimizer:
    """One optimizer whose x and state stack those of ``optimizers`` on a lane axis.

    The optimizers must share a kind and agree on every parameter. Every
    state attribute gains the lane axis; a regret ledger is not state.
    """
    first = optimizers[0]
    if any(type(o) is not type(first) for o in optimizers):
        raise ValueError("the optimizers of one lane group must share a kind")
    for attr in first.params:
        values = [attrgetter(attr)(o) for o in optimizers]
        if any(v != values[0] for v in values):
            raise ValueError(f"the optimizers of one lane group differ in {attr}: "
                             f"{sorted(set(values))}")
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


def _index_sum(rows):
    """Each row of ``rows`` summed in index order, in place.

    accumulate adds strictly in sequence, where np.sum adds pairwise from 8
    elements up, and + 0.0 turns the -0.0 of an all-(-0.0) row into the 0.0
    that a 0.0 seed gives.
    """
    return np.add.accumulate(rows, axis=-1, out=rows)[..., -1] + 0.0


def _run_groups(groups, oracle, T, rngs, output_rngs, report_every=None, force_generic=False):
    """Step every group in one chunk loop; ``run_lanes``' arguments and results.

    Each stream's noise is drawn a chunk at a time (``_kernels._chunks``),
    once for all the groups, and each group takes the chunk's steps in one
    of two ways. On an exact ``RosenbrockOracle`` a kind with a fused kernel
    steps on it: the chunk, scaled by sigma, becomes a flat list of floats
    once per stream and noise width, and each run's x and state go from
    chunk to chunk as tuples. Every other group stacks its runs on the lane
    axis of ``update`` and takes every lane's pair from one ``oracle.pairs``
    call a step; on an exact ``QuadraticOracle`` a kind with a kernel sums
    its records in index order, as the kernels' reference does. Any other
    oracle (a subclass of a built-in one included, as it may redefine the
    objective) and ``force_generic`` take neither kernel nor index order.

    Then one path folds each regret ledger over the chunk (a group with one
    keeps every step) and keeps the record steps: a lane group records them
    at once, a kernel group holds its compact rows until the loop ends.
    Every optimizer, and its ledger, keeps the steps taken, even when a
    call raises.
    """
    stride, ks, recs = _schedule(groups, oracle, T, rngs, output_rngs, report_every)
    if not groups:
        return []
    exact = None if force_generic else type(oracle)
    gens = [rng.generator() for rng in rngs]
    R, d = len(rngs), oracle.dim
    # Per kernel group: its kernel, and each run's x, and its parameters then
    # state, as the last chunk left them. Per lane group: its lanes, where a
    # lone lane steps unstacked, on (d,) arrays, where numpy's calls cost less.
    fused, lanes, index_order, x_k = {}, {}, [], {}
    for i, group in enumerate(groups):
        kernel = group[0].kernel
        if kernel is not None and exact is RosenbrockOracle:
            fused[i] = (_kernels.get_kernel(kernel), [tuple(opt.x.tolist()) for opt in group],
                        [_kernel_args(opt) for opt in group])
        else:
            lanes[i] = _stack(group) if R > 1 else group[0]
        index_order.append(kernel is not None and exact is QuadraticOracle)
    # Per group: the (stream, ledger) of each run with a regret ledger, for which
    # it keeps every step, and the steps it kept this chunk: (x_t, stepsizes) on
    # update, rows per stream on a kernel. A kernel group's rows of record steps.
    folds = [[(r, opt.ledger) for r, opt in enumerate(group)
              if getattr(opt, "ledger", None) is not None] for group in groups]
    kept = [[] if i in lanes else [array("d") for _ in rngs] for i in range(len(groups))]
    rows = {i: [array("d") for _ in rngs] for i in fused}
    # The kernel groups by the pairs of a step's noise they read: g's, or g's and g''s.
    widths = defaultdict(list)
    for i in fused:
        widths[groups[i][0].g_pair_consumed].append(i)
    captures = defaultdict(list)  # k -> the (group, stream) of each lane run with that x_k
    for i, r in ((i, r) for i in lanes for r in range(R)):
        captures[ks[i][r]].append((i, r))
    stepping = [(lanes[i], kept[i], folds[i]) for i in lanes]
    one = len(stepping) == 1

    def draw(n):
        return [oracle.draw(gen, n) for gen in gens]

    def lane_noise(noise):
        # (n, R, *entry), laid out by step, pair entry, then stream: numpy
        # keeps that layout in pairs made by adding noise, whose g and g'
        # rows are then contiguous. One stream's draw as it comes.
        if R == 1:
            return noise[0]
        axis = min(2, noise[0].ndim)
        return np.stack(noise, axis=axis).swapaxes(1, axis)

    def taken(i, noise):
        """Group i's steps kept this chunk, cleared, each ledger's rounds folded: a
        lane group's x_t (n, R, d) and stepsizes, a kernel group's rows per stream."""
        if i in lanes:
            xs, etas = (np.array(steps) for steps in zip(*kept[i]))
            del kept[i][:]
            xs = xs.reshape(len(xs), -1, d)
            out = xs, etas
            runs = [(xs[:, r], etas.reshape(len(xs), -1)[:, r]) for r, _ in folds[i]]
        else:
            # A row is x_t, then the one stepsize or d of them.
            width = d + (1 if recs[i][3] is None else d)
            out = [np.frombuffer(steps).reshape(-1, width) for steps in kept[i]]
            kept[i][:] = [array("d") for _ in rngs]
            runs = [(out[r][:, :d], out[r][:, d]) for r, _ in folds[i]]
        for (r, ledger), (xs, etas) in zip(folds[i], runs):  # run r reads stream r's draw
            _fold(oracle, ledger, xs, etas, noise[r][:len(xs)])
        return out

    try:
        with np.errstate(all="ignore"):  # overflow is silent, as in the kernels
            for c0, noise in _kernels._chunks(draw, T, d):
                n = len(noise[0])
                for r in range(R) if fused else ():
                    chunk = oracle.sigma * noise[r]  # the products sigma * z that pairs forms
                    for w, members in widths.items():
                        flat = chunk[:, :w].ravel().tolist()
                        for i in members:
                            kernel, xs, args = fused[i]
                            steps, p = iter(flat), len(groups[i][0].params)
                            every = 1 if folds[i] else stride
                            k = ks[i][r] - 1 - c0  # x_k is the x the chunk's first k steps leave
                            for lo, hi in ((0, k), (k, n)) if 0 <= k < n else ((0, n),):
                                part, xs[r], *args[r][p:] = kernel(
                                    steps, xs[r], c0 + lo, hi - lo, every, *args[r])
                                # A ledger group's steps wait in kept for the fold.
                                (kept if folds[i] else rows)[i][r] += part
                                if hi == k:
                                    x_k[i, r] = np.array(xs[r])
                        del flat, steps  # so one flat list of floats is alive at a time
                for t0, step in enumerate(lane_noise(noise) if stepping else (), c0):
                    for i, r in captures.get(t0 + 1, ()):
                        x_k[i, r] = lanes[i].x.reshape(-1, d)[r].copy()
                    X = stepping[0][0].x if one else np.array([s[0].x for s in stepping])
                    pairs = oracle.pairs(X, step)
                    if R > 1:  # each group's g, then g', as contiguous (R, d) rows
                        pairs = np.ascontiguousarray(pairs.swapaxes(-3, -2))
                    record = t0 % stride == 0
                    for (group_lanes, steps, ledgers), p in zip(stepping,
                                                                (pairs,) if one else pairs):
                        x = group_lanes.x
                        eta = group_lanes.update(p[0], p[1])
                        if record or ledgers:  # update rebinds group_lanes.x, so x keeps x_t
                            steps.append((x, eta))
                # Each group's record steps among those it kept: every step, with a ledger.
                r0, keep = -(-c0 // stride), np.s_[-c0 % stride::stride]
                for i in range(len(groups)):
                    if i in fused and folds[i]:
                        for run_rows, steps in zip(rows[i], taken(i, noise)):
                            run_rows.frombytes(steps[keep].tobytes())
                    elif i in lanes and kept[i]:
                        xs, etas = taken(i, noise)
                        if folds[i]:
                            xs, etas = xs[keep], etas[keep]
                        if len(xs):
                            _record(oracle, xs, etas, recs[i], np.s_[:, r0:r0 + len(xs)],
                                    index_order[i])
        # Each kernel group's runs recorded at once: every run has a row per record step.
        for i in fused:
            table = np.stack([np.frombuffer(run_rows).reshape(recs[i][0].shape[1], -1)
                              for run_rows in rows[i]], axis=1)
            _record(oracle, table[..., :d], table[..., d:], recs[i], np.s_[:, :])
    finally:
        # Each optimizer, and its ledger, keeps the steps taken, even when a call raises.
        for i, (_, xs, args) in fused.items():
            for opt, x, values in zip(groups[i], xs, args):
                for attr, value in zip(("x",) + opt.state, [x, *values[len(opt.params):]]):
                    _set_attr(opt, attr, np.array(value) if isinstance(value, tuple) else value)
        for i, group_lanes in lanes.items():
            if group_lanes is not groups[i][0]:
                _unstack(group_lanes, groups[i])
        for i in range(len(groups)):
            if folds[i] and any(kept[i]):  # steps of the chunk that the call cut short
                taken(i, noise)
    return _results(groups, recs, ks, x_k, T, stride)


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
    kind and parameters (``ValueError`` otherwise); their iterates and state
    may differ. Returns ``results[i][r]``, equal bit for bit to
    ``run(groups[i][r], oracle, T, rngs[r], report_every,
    output_rng=output_rngs[i][r], force_generic=True)``, and leaves each
    optimizer in the state that run would.

    This is ``_run_groups`` with ``force_generic``: every group steps
    through ``update``. No pair is checked: a lane that diverges goes on to
    inf or NaN, silently, and moves no other lane.
    """
    return _run_groups(groups, oracle, T, rngs, output_rngs, report_every, force_generic=True)
