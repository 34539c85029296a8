"""Convex surrogate losses, the FTRL stepsize learner, and regret bookkeeping.

The per-round surrogate for a gradient pair (g, g') and stepsize eta is the
convex quadratic (M/2) * eta^2 * ||g||^2 - eta * <g, g'>. Running FTRL with
the regularizer (M*alpha/2) * (eta - 1/M)^2 restricted to [0, 2/M] has the
closed-form solution

    eta_t = clip( (alpha + sum_j <g_j, g'_j>) / (M * (alpha + sum_j ||g_j||^2)),
                  0, 2/M )

so the learner state is just the two running sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import check_fields, dot, sq_norm
from .oracles import GradientPair

__all__ = [
    "SurrogateLoss",
    "surrogate_loss",
    "eval_surrogate",
    "eval_surrogate_percoord",
    "FtrlState",
    "CoordFtrlState",
    "RegretLedger",
    "DEFAULT_ALPHA",
]

# Works well untuned across noise levels; comparable to M or smaller is fine.
DEFAULT_ALPHA = 10.0


def surrogate_loss(M, eta, g_sq, inner, curvature_scale=1.0):
    """(c*M/2) * eta^2 * g_sq - eta * inner, elementwise: the surrogate loss at eta.

    ``g_sq``, ``inner`` are ||g||^2, <g, g'> or their per-coordinate products;
    c is 1.0, or 2.0 for the doubled-curvature losses (0.5 * c * M is exact).
    """
    return 0.5 * curvature_scale * M * eta * eta * g_sq - eta * inner


@dataclass(frozen=True)
class SurrogateLoss:
    """One round's quadratic surrogate, parameterized by (M, g, g')."""

    M: float
    g: np.ndarray
    g_prime: np.ndarray

    def __post_init__(self):
        check_fields(M=self.M)
        if self.g.shape != self.g_prime.shape:
            raise ValueError("surrogate loss gradients must share a dimension")

    def value(self, eta: float) -> float:
        return eval_surrogate(self, eta)


def eval_surrogate(loss: SurrogateLoss, eta: float) -> float:
    """(M/2) * eta^2 * ||g||^2 - eta * <g, g'>; convex in eta."""
    return surrogate_loss(loss.M, eta, sq_norm(loss.g), dot(loss.g, loss.g_prime))


def eval_surrogate_percoord(M: float, g: np.ndarray, g_prime: np.ndarray, eta: np.ndarray) -> float:
    """Sum of per-coordinate surrogates for a stepsize vector eta.

    With a constant vector this collapses to the scalar surrogate.
    """
    if not (g.shape == g_prime.shape == eta.shape):
        raise ValueError(
            f"dimension mismatch: g {g.shape}, g' {g_prime.shape}, eta {eta.shape}"
        )
    return float(np.sum(surrogate_loss(M, eta, g * g, g * g_prime)))


@dataclass
class FtrlState:
    """Sufficient statistics of the FTRL stepsize learner.

    ``curvature_scale`` selects the loss family: 1.0 for the standard
    (M/2) eta^2 curvature, 2.0 for the doubled-curvature losses used by the
    two-stepsize momentum variant. The next stepsize is fully determined by
    (alpha, M, sum_inner, sum_sq). The sums and ``t`` are floats for one
    learner, or arrays of shape (L,) for L learners stepped together.
    """

    alpha: float
    M: float
    sum_inner: float = 0.0
    sum_sq: float = 0.0
    t: int = 1
    curvature_scale: float = 1.0

    def __post_init__(self):
        check_fields(alpha=self.alpha, M=self.M)

    def stepsize(self) -> float:
        """Closed-form FTRL play, clipped to [0, 2/M].

        Written as num/den/M so that a history with g_j == g'_j for all j
        keeps numerator and denominator bitwise equal and the result is
        exactly 1/M. A NaN sum gives a NaN stepsize.
        """
        raw = (self.alpha + self.sum_inner) / (self.alpha + self.curvature_scale * self.sum_sq) / self.M
        return np.where(raw < 0.0, 0.0, np.minimum(raw, 2.0 / self.M))[()]

    def observe_stats(self, inner: float, g_sq: float):
        """Fold one loss into the sums from its precomputed statistics."""
        self.sum_inner += inner
        self.sum_sq += g_sq
        self.t += 1

    def observe_pair(self, u: np.ndarray, v: np.ndarray):
        """Fold one loss into the sums: sum_inner += <u, v>, sum_sq += ||u||^2."""
        self.observe_stats(dot(u, v), sq_norm(u))

    def observe(self, loss: SurrogateLoss):
        if loss.M != self.M:
            raise ValueError(f"loss has M={loss.M}, learner has M={self.M}")
        self.observe_pair(loss.g, loss.g_prime)

    def copy(self) -> "FtrlState":
        return FtrlState(self.alpha, self.M, self.sum_inner, self.sum_sq, self.t, self.curvature_scale)


@dataclass
class CoordFtrlState:
    """One scalar FTRL learner per coordinate, with shared alpha and M.

    Coordinate i's state depends only on the i-th entries of past pairs, so
    noise in one coordinate never perturbs another coordinate's stepsize.
    The sums have shape (dim,), or (L, dim) for L learners stepped together.
    """

    alpha: float
    M: float
    dim: int
    sum_inner: np.ndarray = field(default=None)  # type: ignore[assignment]
    sum_sq: np.ndarray = field(default=None)  # type: ignore[assignment]
    t: int = 1

    def __post_init__(self):
        check_fields(alpha=self.alpha, M=self.M)
        if self.sum_inner is None:
            self.sum_inner = np.zeros(self.dim)
        if self.sum_sq is None:
            self.sum_sq = np.zeros(self.dim)

    def stepsize(self) -> np.ndarray:
        raw = (self.alpha + self.sum_inner) / (self.alpha + self.sum_sq) / self.M
        return np.clip(raw, 0.0, 2.0 / self.M)

    def observe_stats(self, inner: np.ndarray, g_sq: np.ndarray):
        """Fold one loss into the per-coordinate sums from precomputed products."""
        self.sum_inner += inner
        self.sum_sq += g_sq
        self.t += 1

    def observe_pair(self, g: np.ndarray, g_prime: np.ndarray):
        if g.shape != (self.dim,) or g_prime.shape != (self.dim,):
            raise ValueError(f"expected dim-{self.dim} gradients")
        self.observe_stats(g * g_prime, g * g)


class RegretLedger:
    """Running record of the stepsize learner's losses.

    Default mode keeps only O(1) sufficient statistics, enough for
    ``regret_vs``. With ``keep_records=True`` the per-step values needed by
    ``regret_bound_rhs`` are retained as well.
    """

    def __init__(self, alpha: float, M: float, keep_records: bool = False,
                 curvature_scale: float = 1.0):
        check_fields(alpha=alpha, M=M)
        self.alpha = alpha
        self.M = M
        self.curvature_scale = curvature_scale
        self.cumulative_loss = 0.0
        self.sum_inner = 0.0
        self.sum_sq = 0.0
        self.count = 0
        self.keep_records = keep_records
        self._etas: List[float] = []
        self._inners: List[float] = []
        self._sqs: List[float] = []
        self._sqs_prime: List[float] = []

    def record(self, eta: float, inner: float, g_sq: float, g_prime_sq: float):
        """Log one round: the played eta and the pair's inner/norm statistics."""
        self.cumulative_loss += surrogate_loss(self.M, eta, g_sq, inner, self.curvature_scale)
        self.sum_inner += inner
        self.sum_sq += g_sq
        self.count += 1
        if self.keep_records:
            self._etas.append(eta)
            self._inners.append(inner)
            self._sqs.append(g_sq)
            self._sqs_prime.append(g_prime_sq)

    def record_pair(self, eta: float, pair: GradientPair):
        self.record(eta, dot(pair.g, pair.g_prime), sq_norm(pair.g), sq_norm(pair.g_prime))

    def record_arrays(self, etas, inners, g_sqs, g_prime_sqs):
        """Log a run of rounds from per-step arrays (or scalars), one ``record`` each."""
        for eta, b, a, ap in zip(*map(np.ravel, (etas, inners, g_sqs, g_prime_sqs))):
            self.record(float(eta), float(b), float(a), float(ap))

    def comparator_loss(self, eta: float) -> float:
        """Cumulative loss of a fixed stepsize: (cM/2) eta^2 sum_sq - eta sum_inner."""
        return surrogate_loss(self.M, eta, self.sum_sq, self.sum_inner, self.curvature_scale)

    def regret_vs(self, eta: float) -> float:
        """Regret against the fixed comparator eta."""
        if not np.isfinite(eta):
            raise ValueError("comparator stepsize must be finite")
        return self.cumulative_loss - self.comparator_loss(eta)

    def _require_records(self, what: str):
        if not self.keep_records:
            raise ValueError(f"{what} requires per-step records (keep_records=True)")

    def max_grad_norm(self) -> float:
        """Largest observed ||g|| or ||g'|| across recorded rounds."""
        self._require_records("max_grad_norm")
        if not self._sqs:
            return 0.0
        return float(np.sqrt(max(max(self._sqs), max(self._sqs_prime))))

    def bound_second_term(self) -> float:
        """(1/2M) * sum_t loss_slope_t^2 / (alpha + c * cumulative sum_sq up to t).

        The denominator is the strong-convexity modulus of regularizer plus
        losses accumulated through round t, divided by M.
        """
        self._require_records("bound_second_term")
        c = self.curvature_scale
        total = 0.0
        running_sq = 0.0
        for eta, b, a in zip(self._etas, self._inners, self._sqs):
            running_sq += a
            slope = c * self.M * eta * a - b
            total += slope * slope / (self.alpha + c * running_sq)
        return total / (2.0 * self.M)

    def regret_bound_rhs(self, eta: float, L: Optional[float] = None) -> float:
        """Exact FTRL regret bound at comparator eta in [0, 2/M].

        ``L`` is only a hypothesis check and does not enter the value: when
        supplied it must dominate every recorded gradient norm (the
        hypothesis under which the closed-form logarithmic cap on the second
        term is valid), else ValueError.
        """
        self._require_records("regret_bound_rhs")
        if not 0.0 <= eta <= 2.0 / self.M:
            raise ValueError(f"comparator must lie in [0, {2.0 / self.M}], got {eta}")
        if L is not None and self.count and L < self.max_grad_norm():
            raise ValueError(
                f"L={L} is below the largest recorded gradient norm {self.max_grad_norm()}"
            )
        diff = eta - 1.0 / self.M
        first = 0.5 * self.M * self.alpha * diff * diff
        return first + self.bound_second_term()


def regret_second_term_log_cap(alpha: float, M: float, L: float, T: int) -> float:
    """Closed-form cap (5 L^2 / M) * ln(1 + L^2 T / alpha) on the summed second term."""
    return 5.0 * L * L / M * np.log(1.0 + L * L * T / alpha)
