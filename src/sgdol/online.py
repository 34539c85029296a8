"""The convex surrogate loss, the FTRL stepsize learner, and regret bookkeeping.

The per-round surrogate for a gradient pair (g, g') and stepsize eta is the
convex quadratic (M/2) * eta^2 * ||g||^2 - eta * <g, g'>. Running FTRL with
the regularizer (M*alpha/2) * (eta - 1/M)^2 restricted to [0, 2/M] has the
closed-form solution

    eta_t = clip( (alpha + sum_j <g_j, g'_j>) / (M * (alpha + sum_j ||g_j||^2)),
                  0, 2/M )

so the learner state is just the two running sums. One ``FtrlState`` holds
them for every shape of learner: a global stepsize, one per coordinate, and
either of those stacked over lanes. ``RegretLedger`` keeps a run's per-step
record and checks the FTRL regret bound against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import check_fields

__all__ = [
    "surrogate_loss",
    "FtrlState",
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


@dataclass
class FtrlState:
    """Sufficient statistics of the FTRL stepsize learner.

    ``curvature_scale`` selects the loss family: 1.0 for the standard
    (M/2) eta^2 curvature, 2.0 for the doubled-curvature losses used by the
    two-stepsize momentum variant. The next stepsize is fully determined by
    (alpha, M, sum_inner, sum_sq). The sums are floats for one global
    learner, or arrays for learners stepped together: shape (dim,) for one
    learner per coordinate, fed the per-coordinate products g*g' and g*g,
    and (L,) or (L, dim) for L lanes. Entry i of the sums depends only on
    entry i of what was observed, so learners never perturb one another.
    """

    alpha: float
    M: float
    sum_inner: Union[float, np.ndarray] = 0.0
    sum_sq: Union[float, np.ndarray] = 0.0
    t: int = 1
    curvature_scale: float = 1.0

    def __post_init__(self):
        check_fields(alpha=self.alpha, M=self.M)

    def stepsize(self):
        """Closed-form FTRL play, clipped to [0, 2/M], shaped like the sums.

        Written as num/den/M so that a history with g_j == g'_j for all j
        keeps numerator and denominator bitwise equal and the result is
        exactly 1/M. A NaN sum gives a NaN stepsize.
        """
        raw = (self.alpha + self.sum_inner) / (self.alpha + self.curvature_scale * self.sum_sq) / self.M
        return np.where(raw < 0.0, 0.0, np.minimum(raw, 2.0 / self.M))[()]

    def observe_stats(self, inner, g_sq):
        """Fold one loss into the sums: its <g, g'> and ||g||^2, or their products."""
        self.sum_inner += inner
        self.sum_sq += g_sq
        self.t += 1


class RegretLedger:
    """Per-step record of a stepsize learner's rounds, and its regret.

    ``record`` appends rounds; every total (the count, the learner's and a
    comparator's cumulative loss, the largest gradient norm, the regret
    bound) is computed from the record.
    """

    def __init__(self, alpha: float, M: float, curvature_scale: float = 1.0):
        check_fields(alpha=alpha, M=M)
        self.alpha = alpha
        self.M = M
        self.curvature_scale = curvature_scale
        # (4, n) arrays in recording order, joined when read: a run without a
        # kernel records one step at a time.
        self._chunks = []

    def record(self, etas, inners, g_sqs, g_prime_sqs):
        """Log rounds: the played stepsizes and each pair's <g, g'>, ||g||^2 and ||g'||^2.

        Each argument is a scalar for one round or an array of one entry per round.
        """
        self._chunks.append(np.array([np.ravel(v) for v in (etas, inners, g_sqs, g_prime_sqs)],
                                     dtype=np.float64))

    @property
    def steps(self) -> np.ndarray:
        """The record, shape (4, count): rows eta, <g, g'>, ||g||^2 and ||g'||^2."""
        if len(self._chunks) != 1:
            self._chunks = [np.concatenate(self._chunks, axis=1) if self._chunks
                            else np.empty((4, 0))]
        return self._chunks[0]

    @property
    def count(self) -> int:
        """Rounds recorded."""
        return self.steps.shape[1]

    @property
    def cumulative_loss(self) -> float:
        etas, inners, g_sqs, _ = self.steps
        return float(np.sum(surrogate_loss(self.M, etas, g_sqs, inners, self.curvature_scale)))

    def comparator_loss(self, eta: float) -> float:
        """Cumulative loss of a fixed stepsize: (cM/2) eta^2 sum ||g||^2 - eta sum <g, g'>."""
        _, inners, g_sqs, _ = self.steps
        return float(surrogate_loss(self.M, eta, np.sum(g_sqs), np.sum(inners),
                                    self.curvature_scale))

    def regret_vs(self, eta: float) -> float:
        """Regret against the fixed comparator eta."""
        if not np.isfinite(eta):
            raise ValueError("comparator stepsize must be finite")
        return self.cumulative_loss - self.comparator_loss(eta)

    def max_grad_norm(self) -> float:
        """Largest observed ||g|| or ||g'|| across recorded rounds."""
        if not self.count:
            return 0.0
        return float(np.sqrt(np.max(self.steps[2:])))

    def bound_second_term(self) -> float:
        """(1/2M) * sum_t loss_slope_t^2 / (alpha + c * cumulative sum_sq up to t).

        The denominator is the strong-convexity modulus of regularizer plus
        losses accumulated through round t, divided by M.
        """
        etas, inners, g_sqs, _ = self.steps
        c = self.curvature_scale
        slopes = c * self.M * etas * g_sqs - inners
        return float(np.sum(slopes * slopes / (self.alpha + c * np.cumsum(g_sqs)))) / (2.0 * self.M)

    def regret_bound_rhs(self, eta: float, L: Optional[float] = None) -> float:
        """Exact FTRL regret bound at comparator eta in [0, 2/M].

        ``L`` is only a hypothesis check and does not enter the value: when
        supplied it must dominate every recorded gradient norm (the
        hypothesis under which the closed-form logarithmic cap on the second
        term is valid), else ValueError.
        """
        if not 0.0 <= eta <= 2.0 / self.M:
            raise ValueError(f"comparator must lie in [0, {2.0 / self.M}], got {eta}")
        if L is not None and L < self.max_grad_norm():
            raise ValueError(
                f"L={L} is below the largest recorded gradient norm {self.max_grad_norm()}"
            )
        diff = eta - 1.0 / self.M
        first = 0.5 * self.M * self.alpha * diff * diff
        return first + self.bound_second_term()


def regret_second_term_log_cap(alpha: float, M: float, L: float, T: int) -> float:
    """Closed-form cap (5 L^2 / M) * ln(1 + L^2 T / alpha) on the summed second term."""
    return 5.0 * L * L / M * np.log(1.0 + L * L * T / alpha)
