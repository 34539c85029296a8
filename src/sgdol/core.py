"""Dense float64 vectors, the seeded randomness contract, shared record types,
and the range of every optimizer parameter."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "vector",
    "dot",
    "sq_norm",
    "row_dot",
    "RngStream",
    "derive_stream_id",
    "Trajectory",
    "field_problems",
    "check_fields",
    "is_integer",
]

_U64 = np.uint64


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def vector(entries) -> np.ndarray:
    """Build a finite float64 1-D array, rejecting NaN/Inf and empty input."""
    arr = np.asarray(entries, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("vector must have positive dimension")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean inner product. Raises on dimension mismatch.

    Computed as a plain sum of elementwise products (no FMA). Up to 7
    elements the result matches a sequential scalar loop exactly; from 8 up
    numpy sums pairwise, and the last bits can differ.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.add.reduce(a * b, axis=None))  # np.sum, minus its wrapper


def sq_norm(a: np.ndarray) -> float:
    """Squared Euclidean norm ``dot(a, a)``."""
    return float(np.add.reduce(a * a, axis=None))


def row_dot(a: np.ndarray, b: np.ndarray):
    """Inner products over the last axis, one per stacked row.

    Each row sums exactly like ``dot`` on that row alone: numpy reduces a
    contiguous last axis row by row in the same pairwise order.
    """
    return np.add.reduce(a * b, axis=-1)  # np.sum's reduction, minus its wrapper


# Parameter name -> (test, requirement). The one statement of each range:
# OptimizerConfig.validate reports every value that fails its test, and the
# optimizer and stepsize-learner constructors raise on the first. NaN fails
# every test, and field_problems refuses an infinite value of any float field;
# T, a step count, must be an int (a bool is not one).
_FIELD_RANGES = {
    "M": (lambda v: v > 0, "must be > 0"),
    "alpha": (lambda v: v > 0, "must be > 0"),
    "lr": (lambda v: v > 0, "must be > 0"),
    "beta1": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "beta2": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "eps": (lambda v: v > 0, "must be > 0"),
    "curvature_scale": (lambda v: v > 0, "must be > 0"),
    "sigma": (lambda v: v >= 0, "must be >= 0"),
    "T": (lambda v: is_integer(v) and v >= 1, "must be an integer >= 1"),
    "f_gap": (lambda v: v >= 0, "must be >= 0"),
}


def field_problems(**values) -> list:
    """'<name>: <requirement>, got <value>' for each value out of its range."""
    problems = []
    for name, value in values.items():
        test, need = _FIELD_RANGES[name]
        if not test(value):
            problems.append(f"{name}: {need}, got {value}")
        elif name != "T" and not math.isfinite(value):
            problems.append(f"{name}: must be finite, got {value}")
    return problems


def check_fields(**values):
    """Raise ValueError naming the first value out of its parameter's range."""
    problems = field_problems(**values)
    if problems:
        raise ValueError(problems[0])


def _splitmix64(z: int) -> int:
    # Standard splitmix64 finalizer; used to fold tuples into one stream id.
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_stream_id(*parts: int) -> int:
    """Mix integer labels (purpose, indices, ...) into a single 64-bit stream id.

    Distinct tuples map to distinct-looking ids, so (run, repetition, purpose)
    can each own an independent stream under one experiment seed.
    """
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = _splitmix64(acc ^ (int(p) & 0xFFFFFFFFFFFFFFFF))
    return acc


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream_id) pair naming one reproducible random stream.

    Streams with identical (seed, stream_id) replay the same sequence
    bit-for-bit; distinct stream ids give independent-looking sequences.
    Backed by the counter-based Philox generator keyed on both values.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not is_integer(v):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if not 0 <= v < 2**64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")

    def generator(self) -> Generator:
        """Materialize a fresh generator positioned at the stream's start."""
        key = np.array([self.seed, self.stream_id], dtype=_U64)
        return Generator(Philox(key=key))

    def child(self, *parts: int) -> "RngStream":
        """Derive a sub-stream by folding labels into this stream's id."""
        return RngStream(self.seed, derive_stream_id(self.stream_id, *parts))


@dataclass
class Trajectory:
    """Column-oriented time series of the recorded iterations of one run.

    Arrays all share length n (the number of recorded iterations): the
    iteration number t, f and ||grad f||^2 at the iterate before step t, and
    the stepsize step t used (the mean over coordinates for per-coordinate
    optimizers, NaN for Adam). ``stepsize_coords``, shape (n, d), is present
    only for per-coordinate optimizers. A learner's surrogate losses and
    regret are kept by its ``online.RegretLedger``, not here.
    """

    t: np.ndarray
    f_value: np.ndarray
    true_grad_sq_norm: np.ndarray
    stepsize: np.ndarray
    stepsize_coords: Optional[np.ndarray] = field(default=None)

    def __len__(self) -> int:
        return len(self.t)
