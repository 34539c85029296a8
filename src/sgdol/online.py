"""The convex surrogate loss, the FTRL stepsize learner, and regret bookkeeping.

The per-round surrogate for a gradient pair (g, g') and stepsize eta is the
convex quadratic (M/2) * eta^2 * ||g||^2 - eta * <g, g'>. Running FTRL with
the regularizer (M*alpha/2) * (eta - 1/M)^2 restricted to [0, 2/M] has the
closed-form solution

    eta_t = clip( (alpha + sum_j <g_j, g'_j>) / (M * (alpha + sum_j ||g_j||^2)),
                  0, 2/M )

so the learner state is just the two running sums. One ``FtrlState`` holds
them for every shape of learner: a global stepsize, one per coordinate, and
either of those stacked over lanes. ``RegretLedger`` keeps a learner's
running totals and checks the FTRL regret bound against them.
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
    curvature_scale: float = 1.0

    def __post_init__(self):
        check_fields(alpha=self.alpha, M=self.M, curvature_scale=self.curvature_scale)

    def stepsize(self):
        """Closed-form FTRL play, clipped to [0, 2/M], shaped like the sums.

        Written as num/den/M so that a history with g_j == g'_j for all j
        keeps numerator and denominator bitwise equal and the result is
        exactly 1/M. A NaN sum gives a NaN stepsize.
        """
        c = self.curvature_scale
        sq = self.sum_sq if c == 1.0 else c * self.sum_sq  # 1.0 * s is s, bit for bit
        raw = (self.alpha + self.sum_inner) / (self.alpha + sq) / self.M
        return np.where(raw < 0.0, 0.0, np.minimum(raw, 2.0 / self.M))[()]

    def observe_stats(self, inner, g_sq):
        """Fold one loss into the sums: its <g, g'> and ||g||^2, or their products.

        The sums are rebound, never added into, so an array of sums that a
        caller holds keeps its values.
        """
        self.sum_inner = self.sum_inner + inner
        self.sum_sq = self.sum_sq + g_sq


class RegretLedger:
    """Running totals of a stepsize learner's rounds, and its regret.

    Six running values cover every quantity the ledger reports: the round
    count, the learner's cumulative surrogate loss, the sums of <g, g'> and
    ||g||^2, the largest ||g||^2 or ||g'||^2, and the running sum behind the
    bound's second term: an int, then Python floats. ``record`` folds in
    rounds by the chunk and every query is O(1), so a ledger's memory does
    not grow with the number of rounds.
    """

    # The six running values, the whole of a ledger's state.
    VALUES = ("count", "cumulative_loss", "sum_inner", "sum_sq", "max_sq", "second_sum")

    def __init__(self, alpha: float, M: float, curvature_scale: float = 1.0):
        check_fields(alpha=alpha, M=M, curvature_scale=curvature_scale)
        self.alpha = alpha
        self.M = M
        self.curvature_scale = curvature_scale
        self.count = 0
        self.cumulative_loss = 0.0
        self.sum_inner = 0.0
        self.sum_sq = 0.0
        self.max_sq = 0.0
        # sum_t slope_t^2 / (alpha + c * sum_{s<=t} ||g_s||^2); see bound_second_term
        self.second_sum = 0.0

    def record(self, eta, inner, g_sq, g_prime_sq):
        """Fold in rounds: played stepsizes and their pairs' <g, g'>, ||g||^2 and ||g'||^2.

        Each is (n,) for n rounds, or a float for one. They fold strictly in
        turn (accumulate), to the bits of n one-round calls; a NaN, once seen,
        stays the maximum. A reduce would sum pairwise, and np.maximum's can
        turn -NaN into +NaN.
        """
        c, M = self.curvature_scale, self.M
        eta, inner, g_sq, g_prime_sq = (np.asarray(v).reshape(-1)  # np.reshape is slower
                                        for v in (eta, inner, g_sq, g_prime_sq))
        sq = np.add.accumulate(np.concatenate(([self.sum_sq], g_sq)))[1:]  # after each round
        slope = c * M * eta * g_sq - inner
        self.count = self.count + len(eta)
        for name, ufunc, rounds in (
                ("cumulative_loss", np.add, surrogate_loss(M, eta, g_sq, inner, c)),
                ("sum_inner", np.add, inner), ("sum_sq", np.add, g_sq),
                ("max_sq", np.maximum, np.maximum(g_sq, g_prime_sq)),
                ("second_sum", np.add, slope * slope / (self.alpha + c * sq))):
            values = ufunc.accumulate(np.concatenate(([getattr(self, name)], rounds)))
            setattr(self, name, values[-1].item())

    def comparator_loss(self, eta: float) -> float:
        """Cumulative loss of a fixed stepsize: (cM/2) eta^2 sum ||g||^2 - eta sum <g, g'>."""
        return surrogate_loss(self.M, eta, self.sum_sq, self.sum_inner, self.curvature_scale)

    def regret_vs(self, eta: float) -> float:
        """Regret against the fixed comparator eta."""
        check_fields(eta=eta)
        return self.cumulative_loss - self.comparator_loss(eta)

    def max_grad_norm(self) -> float:
        """Largest observed ||g|| or ||g'|| across recorded rounds; 0.0 before any."""
        return np.sqrt(self.max_sq)[()]

    def bound_second_term(self) -> float:
        """(1/2M) * sum_t loss_slope_t^2 / (alpha + c * cumulative sum_sq up to t).

        The denominator is the strong-convexity modulus of regularizer plus
        losses accumulated through round t, divided by M.
        """
        return self.second_sum / (2.0 * self.M)

    def regret_bound_rhs(self, eta: float, L: Optional[float] = None) -> float:
        """Exact FTRL regret bound at comparator eta in [0, 2/M].

        ``L`` is only a hypothesis check and does not enter the value: when
        supplied it must dominate every recorded gradient norm (the
        hypothesis under which the closed-form logarithmic cap on the second
        term is valid), else ValueError; a NaN L or maximum fails the check.
        """
        if not 0.0 <= eta <= 2.0 / self.M:
            raise ValueError(f"comparator must lie in [0, {2.0 / self.M}], got {eta}")
        if L is not None and not L >= self.max_grad_norm():
            raise ValueError(
                f"L={L} does not bound the largest recorded gradient norm {self.max_grad_norm()}"
            )
        diff = eta - 1.0 / self.M
        first = 0.5 * self.M * self.alpha * diff * diff
        return first + self.bound_second_term()


def regret_second_term_log_cap(alpha: float, M: float, L: float, T: int) -> float:
    """Closed-form cap (5 L^2 / M) * ln(1 + L^2 T / alpha) on the summed second term."""
    return 5.0 * L * L / M * np.log(1.0 + L * L * T / alpha)
