"""Stochastic first-order oracles, test objectives, and LibSVM data handling.

Every oracle answers a query point with two gradient estimates drawn from
disjoint randomness, each an unbiased estimate of the true gradient, and
gives exact f and gradient for reporting and verification. One contract,
``StochasticOracle``, serves every caller: each oracle writes f, its
gradient and its pairs once, over stacked query points, with the
randomness drawn ahead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator

from .core import check_fields

__all__ = [
    "StochasticOracle",
    "RosenbrockOracle",
    "QuadraticOracle",
    "SigmoidLossOracle",
    "Dataset",
    "LibsvmParseError",
    "rosenbrock_f",
    "rosenbrock_grad",
    "sigmoid_phi",
    "sigmoid_phi_prime",
    "sigmoid_loss_f",
    "sigmoid_loss_grad",
    "load_libsvm",
    "save_libsvm",
    "balance_subsample",
]


class StochasticOracle:
    """The oracle contract: exact f and gradient, and two-sample gradient pairs.

    A subclass sets ``dim`` and defines four methods, all written over
    stacked query points: ``f_lanes`` and ``grad_lanes`` (f and the exact
    gradient at every row of an array of shape (..., dim)), ``draw`` (the
    randomness of the next pairs from a stream, drawn ahead) and ``pairs``
    (the pairs at stacked query points from drawn randomness). The step
    loops in ``optimizers`` and the Monte Carlo check in ``diagnostics``
    call them directly; ``pairs(x, draw(rng, 1))[0]`` is one pair at one
    point, g and g' stacked as (2, dim), and equals that lane's pair in the
    loops bit for bit. ``f`` and ``grad`` at one point derive from the
    stacked methods.

    Metadata read by diagnostics and the tuned SGD baseline: ``smoothness``
    (gradient Lipschitz constant), ``f_star`` (known infimum),
    ``pl_constant``.
    """

    dim: int
    f_star: Optional[float] = None
    smoothness: Optional[float] = None
    pl_constant: Optional[float] = None

    def f_lanes(self, X: np.ndarray) -> np.ndarray:
        """f at every row of X, shape (..., dim); the result has shape (...)."""
        raise NotImplementedError

    def grad_lanes(self, X: np.ndarray) -> np.ndarray:
        """The exact gradient at every row of X, shape (..., dim)."""
        raise NotImplementedError

    def draw(self, rng: Generator, n: int) -> np.ndarray:
        """The randomness of the next n pairs from rng, stacked on a leading axis of n."""
        raise NotImplementedError

    def pairs(self, X: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """The pairs at every row of X from one entry of each of R streams.

        X has shape (..., R, dim) and ``noise`` stacks one ``draw`` entry per
        stream, so lanes on one stream share its draw; a single query point
        of shape (dim,) broadcasts against all R entries. The result has
        shape (..., R, 2, dim): g at index 0 of the pair axis, g' at index 1.
        ``noise`` may also be one entry alone, with no stream axis, which
        every row of X of shape (..., dim) reads: the result is then
        (..., 2, dim).
        """
        raise NotImplementedError

    def _check_dim(self, x: np.ndarray):
        if x.shape != (self.dim,):
            raise ValueError(f"query point has shape {x.shape}, oracle dim is {self.dim}")

    def f(self, x: np.ndarray) -> float:
        self._check_dim(x)
        return float(self.f_lanes(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        self._check_dim(x)
        return self.grad_lanes(x)

    def record_lanes(self, X: np.ndarray):
        """(f, exact gradient) at every row of X, shape (..., dim)."""
        return self.f_lanes(X), self.grad_lanes(X)


# ----------------------------------------------------------------------------
# Analytic objectives with additive Gaussian noise
# ----------------------------------------------------------------------------


def _rosenbrock_coords(x: np.ndarray):
    """(x1, x2): numpy scalars at a point of shape (2,), arrays for shape (..., 2)."""
    if x.shape[-1:] != (2,):
        raise ValueError(f"rosenbrock is 2-D, got shape {x.shape}")
    return x[..., 0][()], x[..., 1][()]


def rosenbrock_f(x: np.ndarray) -> float:
    """Rosenbrock banana: (1-x1)^2 + 100*(x2-x1^2)^2, minimum 0 at (1, 1).

    At a point of shape (2,), or at every row of an array of shape (..., 2).
    """
    x1, x2 = _rosenbrock_coords(x)
    a = 1.0 - x1
    c = x2 - x1 * x1
    return a * a + 100.0 * (c * c)


def rosenbrock_grad(x: np.ndarray) -> np.ndarray:
    """Analytic Rosenbrock gradient, at a point or at every row like ``rosenbrock_f``."""
    x1, x2 = _rosenbrock_coords(x)
    c = x2 - x1 * x1
    grad = np.empty(x.shape)
    grad[..., 0] = -2.0 * (1.0 - x1) - 400.0 * x1 * c
    grad[..., 1] = 200.0 * c
    return grad


class _AnalyticNoiseOracle(StochasticOracle):
    """Exact objective plus independent additive Gaussian noise on each sample.

    Each query draws two fresh noise vectors, so the pair is conditionally
    independent given the query point and both components are unbiased.
    """

    def __init__(self, dim: int, sigma):
        check_fields(sigma=sigma)
        self.dim = dim
        sig = np.asarray(sigma, dtype=np.float64)
        if sig.ndim == 0:
            sig = np.full(dim, float(sig))
        if sig.shape != (dim,):
            raise ValueError(f"sigma must be scalar or length-{dim}, got shape {sig.shape}")
        self.sigma = sig
        # sigma for both halves of a pair: numpy multiplies one lane's (2, dim)
        # draw by it without broadcasting, in about half the time.
        self._pair_sigma = np.stack([sig, sig])

    def draw(self, rng: Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, 2, self.dim))

    def pairs(self, X: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return self.grad_lanes(X)[..., None, :] + self._pair_sigma * noise


class RosenbrockOracle(_AnalyticNoiseOracle):
    """2-D Rosenbrock with additive white Gaussian noise of level sigma.

    The default smoothness metadata is 1002, the gradient Lipschitz constant
    at the optimum and the customary choice of M for this benchmark.
    """

    f_star = 0.0

    def __init__(self, sigma: float = 0.0, smoothness: float = 1002.0):
        super().__init__(2, sigma)
        check_fields(M=smoothness)
        self.smoothness = smoothness

    def f_lanes(self, X: np.ndarray) -> np.ndarray:
        return rosenbrock_f(X)

    def grad_lanes(self, X: np.ndarray) -> np.ndarray:
        return rosenbrock_grad(X)


class QuadraticOracle(_AnalyticNoiseOracle):
    """Diagonal quadratic f(x) = 0.5 * sum(diag_i * x_i^2) with Gaussian noise.

    Satisfies the PL condition with constant min(diag); smoothness is
    max(diag). A per-coordinate sigma vector gives anisotropic noise.
    """

    f_star = 0.0

    def __init__(self, diag, sigma=0.0):
        check_fields(diag=diag)
        diag = np.asarray(diag, dtype=np.float64)
        super().__init__(len(diag), sigma)
        self.diag = diag
        self.smoothness = float(np.max(diag))
        self.pl_constant = float(np.min(diag))

    def f_lanes(self, X: np.ndarray) -> np.ndarray:
        return 0.5 * np.add.reduce(self.diag * (X * X), axis=-1)

    def grad_lanes(self, X: np.ndarray) -> np.ndarray:
        return self.diag * X


# ----------------------------------------------------------------------------
# Nonconvex classification objective on a dataset
# ----------------------------------------------------------------------------


def sigmoid_phi(theta):
    """phi(t) = t^2 / (1 + t^2): bounded, nonconvex, 1-Lipschitz, 2-smooth."""
    t2 = theta * theta
    if isinstance(t2, np.ndarray) and t2.dtype == np.float64:
        return np.divide(t2, 1.0 + t2, out=t2)  # into the square's own buffer
    return t2 / (1.0 + t2)


def sigmoid_phi_prime(theta):
    """phi'(t) = 2t / (1 + t^2)^2."""
    d = 1.0 + theta * theta
    return 2.0 * theta / (d * d)


@dataclass
class Dataset:
    """Dense binary-classification data: feature rows and labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValueError("features must be a nonempty (rows, n_features) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match the number of rows")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must be +1 or -1")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def same_as(self, other: "Dataset") -> bool:
        return np.array_equal(self.features, other.features) and np.array_equal(
            self.labels, other.labels
        )


def _residuals(x: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # A stacked matmul is one gemv per query point, so each row's residuals
    # equal features @ x for that row bit for bit (a single gemm would not).
    # Its output already has the broadcast shape, so the labels go in place.
    r = np.matmul(features, x[..., None])[..., 0]
    return np.subtract(r, labels, out=r)


def sigmoid_loss_f(x: np.ndarray, data: Dataset) -> float:
    """Mean of phi(a_i . x - y_i) over all rows, at x or at every row of (..., d)."""
    if x.shape[-1:] != (data.n_features,):
        raise ValueError(f"x has shape {x.shape}, dataset has {data.n_features} features")
    # np.mean's sum and division, minus its wrapper
    return np.add.reduce(sigmoid_phi(_residuals(x, data.features, data.labels)), axis=-1) / len(data)


def sigmoid_loss_grad(x: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean sigmoid-type loss over the given rows.

    ``features`` (..., B, d) and ``labels`` (..., B) broadcast against the
    query points ``x`` (..., d): one gradient per stacked query point and
    row subset.
    """
    if features.shape[-2] == 0:
        raise ValueError("gradient over an empty row subset")
    return _grad_from_weights(sigmoid_phi_prime(_residuals(x, features, labels)), features)


def _grad_from_weights(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """The mean of the rows of ``features`` weighted by phi'(r), ``w``."""
    return np.matmul(w[..., None, :], features)[..., 0, :] / features.shape[-2]


# The dataset oracle evaluates stacked query points a block at a time
# (``_blockwise``), so its temporaries stay small however many points come:
# f, the gradient and the records take ``_RECORD_RESIDUALS // rows`` points
# a block (16 on the 500-row fixture, 64 kB of residuals); ``pairs`` takes as
# many streams as gather at most ``_PAIR_FLOATS`` floats of minibatch rows
# (62 at B=50 over 21 features). On the 500-row fixture a lane loop's
# records took as long in blocks of 16 points as one call per record step,
# and 13-21% longer in blocks of 32 or 2 points. The Monte Carlo check took
# 1.3-2.7 times as long when it evaluated its 1024-pair chunks whole.
_RECORD_RESIDUALS = 8192
_PAIR_FLOATS = 1 << 17


def _blockwise(block, n, size, shapes, axis=0):
    """The arrays of ``shapes`` from ``block(lo, hi)``, their items lo:hi, ``size`` at a time.

    The n items lie on ``axis`` of every array. One block is
    ``block(0, n)`` as it comes, with no copy.
    """
    if n <= size:
        return block(0, n)
    outs = tuple(np.empty(shape) for shape in shapes)
    for lo in range(0, n, size):
        items = (slice(None),) * axis + (slice(lo, lo + size),)
        for out, part in zip(outs, block(lo, lo + size)):
            out[items] = part
    return outs


class SigmoidLossOracle(StochasticOracle):
    """Minibatch oracle for the sigmoid-type classification loss.

    Each half of a pair is the gradient over its own minibatch of rows drawn
    i.i.d. with replacement, so the two halves are independent and unbiased.
    batch_size equal to the dataset size short-circuits to the deterministic
    full-batch gradient for both halves (zero sampling noise) and draws
    nothing. Every stacked method evaluates its points in blocks
    (``_blockwise``), each row by the same stacked gemv, so the blocks move
    no bit.
    """

    def __init__(self, data: Dataset, batch_size: int, smoothness: Optional[float] = None):
        check_fields(batch_size=batch_size)
        if batch_size > len(data):
            raise ValueError(f"batch_size: must be <= {len(data)} (the dataset's rows), "
                             f"got {batch_size}")
        self.data = data
        self.batch_size = batch_size
        self.dim = data.n_features
        if smoothness is None:
            # Global Hessian bound: |phi''| <= 2 and Hessian = mean of
            # phi''(r_i) * a_i a_i^T over rows.
            smoothness = 2.0 * float(np.mean(np.sum(data.features**2, axis=1)))
        check_fields(M=smoothness)
        self.smoothness = smoothness
        self._block_points = max(1, _RECORD_RESIDUALS // len(data))
        self._block_streams = max(1, _PAIR_FLOATS // (2 * batch_size * self.dim))

    @property
    def full_batch(self) -> bool:
        return self.batch_size == len(self.data)

    def _by_points(self, X: np.ndarray, block, *tails):
        """``block`` over the rows of X, shape (..., dim), a block of points at a time.

        ``block`` maps stacked points (n, dim) to one array per tail, shaped
        (n, *tail); each comes back shaped (..., *tail).
        """
        points = X.reshape(-1, self.dim)
        n = len(points)
        outs = _blockwise(lambda lo, hi: block(points[lo:hi]), n, self._block_points,
                          [(n,) + tail for tail in tails])
        return [out.reshape(X.shape[:-1] + tail)[()] for out, tail in zip(outs, tails)]

    def f_lanes(self, X: np.ndarray) -> np.ndarray:
        return self._by_points(X, lambda P: (sigmoid_loss_f(P, self.data),), ())[0]

    def grad_lanes(self, X: np.ndarray) -> np.ndarray:
        return self._by_points(
            X, lambda P: (sigmoid_loss_grad(P, self.data.features, self.data.labels),),
            (self.dim,))[0]

    def record_lanes(self, X: np.ndarray):
        # f and grad share the residuals r and 1 + r^2, which both would
        # compute alike: phi(r) = r^2 / (1 + r^2), phi'(r) = 2r / (1 + r^2)^2.
        def block(P):
            r = _residuals(P, self.data.features, self.data.labels)
            t2 = r * r
            den = 1.0 + t2
            return (np.add.reduce(np.divide(t2, den, out=t2), axis=-1) / len(self.data),
                    _grad_from_weights(2.0 * r / (den * den), self.data.features))
        return tuple(self._by_points(X, block, (), (self.dim,)))

    def draw(self, rng: Generator, n: int) -> np.ndarray:
        """Row indices of both minibatches of each pair, shape (n, 2, batch_size)."""
        if self.full_batch:
            return np.empty((n, 0), np.int64)
        return rng.integers(0, len(self.data), size=(n, 2, self.batch_size))

    def pairs(self, X: np.ndarray, noise: np.ndarray) -> np.ndarray:
        if self.full_batch:
            g = self.grad_lanes(X)[..., None, :]
            lanes = np.broadcast_shapes(g.shape[:-2], noise.shape[:-1])
            return np.broadcast_to(g, lanes + (2, self.dim)).copy()
        # One entry alone, read by every row of X, or few enough streams
        # for one block: the lane loop's every step.
        if noise.ndim < 3 or len(noise) <= self._block_streams:
            return self._minibatch_grads(X, noise)
        # Blocks of streams, on the stream axis of X unless one point is shared.
        lanes = X.shape[:-1] if X.ndim > 1 else noise.shape[:1]
        return _blockwise(
            lambda lo, hi: (self._minibatch_grads(X if X.ndim == 1 else X[..., lo:hi, :],
                                                  noise[lo:hi]),),
            len(noise), self._block_streams, [lanes + (2, self.dim)], axis=len(lanes) - 1)[0]

    def _minibatch_grads(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # Rows are gathered once per stream and broadcast over its lanes;
        # take gathers them in about 60% of the time of fancy indexing.
        return sigmoid_loss_grad(X[..., None, :], self.data.features.take(rows, axis=0),
                                 self.data.labels.take(rows))


# ----------------------------------------------------------------------------
# LibSVM text format
# ----------------------------------------------------------------------------


class LibsvmParseError(ValueError):
    """Malformed LibSVM input, reported with a 1-based line number."""


def load_libsvm(
    path,
    append_bias: bool = True,
    n_features: Optional[int] = None,
) -> Dataset:
    """Parse a LibSVM text file into a dense Dataset.

    Format per line: ``<label> <index>:<value> ...`` with 1-based strictly
    increasing indices. ``#`` starts a comment; blank lines are skipped.
    When ``append_bias`` a constant 1.0 feature is added to every row.
    """
    if n_features is not None:
        check_fields(n_features=n_features)
    rows = []
    labels = []
    max_index = 0
    with open(path, "rb") as fh:
        # Lines split as in text mode (at \n, \r\n or \r), then decoded one
        # by one, so an undecodable byte is reported with its line number.
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LibsvmParseError(f"line {lineno}: not UTF-8, can't decode byte "
                                       f"{raw[exc.start]:#04x}") from None
            line = text.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise LibsvmParseError(f"line {lineno}: bad label {tokens[0]!r}") from None
            if label not in (-1.0, 1.0):
                raise LibsvmParseError(f"line {lineno}: label must be +1 or -1, got {tokens[0]!r}")
            feats = []
            prev = 0
            for tok in tokens[1:]:
                idx_str, sep, val_str = tok.partition(":")
                if not sep:
                    raise LibsvmParseError(f"line {lineno}: expected index:value, got {tok!r}")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise LibsvmParseError(f"line {lineno}: bad feature token {tok!r}") from None
                if idx <= prev:
                    raise LibsvmParseError(
                        f"line {lineno}: indices must be 1-based strictly increasing, got {idx}"
                    )
                if not math.isfinite(val):
                    raise LibsvmParseError(f"line {lineno}: non-finite value {val_str!r}")
                prev = idx
                feats.append((idx, val))
            if n_features is not None and prev > n_features:
                raise LibsvmParseError(
                    f"line {lineno}: index {prev} exceeds n_features={n_features}"
                )
            max_index = max(max_index, prev)
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise LibsvmParseError("no data rows found")
    d = n_features if n_features is not None else max_index
    if d == 0:
        raise LibsvmParseError("no features found and n_features not given")
    width = d + 1 if append_bias else d
    features = np.zeros((len(rows), width))
    for i, feats in enumerate(rows):
        for idx, val in feats:
            features[i, idx - 1] = val
    if append_bias:
        features[:, d] = 1.0
    return Dataset(features, np.array(labels))


def save_libsvm(data: Dataset, path):
    """Re-emit a Dataset as LibSVM text (zeros omitted, shortest decimals).

    Round trip: ``load_libsvm(path, append_bias=False, n_features=data.n_features)``
    reproduces the Dataset exactly.
    """
    with open(path, "w") as fh:
        for i in range(len(data)):
            label = float(data.labels[i])
            parts = ["+1" if label == 1.0 else "-1" if label == -1.0 else repr(label)]
            row = data.features[i]
            for j in np.nonzero(row)[0]:
                parts.append(f"{j + 1}:{float(row[j])!r}")
            fh.write(" ".join(parts) + "\n")


def balance_subsample(data: Dataset, rng: Generator) -> Dataset:
    """Downsample the majority class to the minority count, then shuffle.

    Sampling is uniform without replacement; the final row order comes from a
    single seeded permutation so the result is fully determined by ``rng``.
    """
    pos = np.flatnonzero(data.labels == 1.0)
    neg = np.flatnonzero(data.labels == -1.0)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("balance_subsample requires both label classes present")
    if len(pos) > len(neg):
        pos = rng.choice(pos, size=len(neg), replace=False)
    elif len(neg) > len(pos):
        neg = rng.choice(neg, size=len(pos), replace=False)
    keep = np.concatenate([pos, neg])
    keep = keep[rng.permutation(len(keep))]
    return Dataset(data.features[keep], data.labels[keep])
