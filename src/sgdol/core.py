"""Dense float64 vectors, the seeded randomness contract, shared record types,
and the range of every single input parameter."""

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


def _positive_vector(v) -> bool:
    a = np.asarray(v, float)
    return a.ndim == 1 and a.size > 0 and bool((a > 0).all())


# Parameter name -> (test, requirement). The one statement of each range:
# validate methods report every value that fails its test, and constructors,
# loops and checks raise on the first. NaN fails every test, and
# field_problems refuses a value with an infinite entry unless it is an
# integer; a count or a seed must be an int (a bool is not one).
_FIELD_RANGES = {
    **dict.fromkeys(("M", "alpha", "lr", "eps", "curvature_scale", "tol", "h"),
                    (lambda v: v > 0, "must be > 0")),
    **dict.fromkeys(("beta1", "beta2"), (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")),
    "f_gap": (lambda v: v >= 0, "must be >= 0"),
    # A noise level is a scalar, or one level per coordinate; a stepsize is a scalar.
    "sigma": (lambda v: bool((np.asarray(v, float) >= 0).all()), "must be >= 0"),
    "diag": (_positive_vector, "must be 1-D with one or more entries, each > 0"),
    "eta": (lambda v: bool(np.isfinite(np.asarray(v, float))), "must be finite"),
    **dict.fromkeys(("T", "repetitions", "report_every", "batch_size", "n_features", "N",
                     "pairs", "mc_samples"),
                    (lambda v: is_integer(v) and v >= 1, "must be an integer >= 1")),
    **dict.fromkeys(("seed", "stream_id"), (lambda v: is_integer(v) and 0 <= v < 2**64,
                                            "must be a 64-bit unsigned integer")),
}


def _finite(value) -> bool:
    """Whether every entry of ``value`` is finite; an integer is, however large."""
    if isinstance(value, float):  # numpy's float64 too; math is ten times faster than numpy
        return math.isfinite(value)
    return isinstance(value, numbers.Integral) or bool(np.isfinite(np.asarray(value, float)).all())


def field_problems(**values) -> list:
    """'<name>: <requirement>, got <value>' for each value out of its range."""
    problems = []
    for name, value in values.items():
        test, need = _FIELD_RANGES[name]
        if test(value):
            if _finite(value):
                continue
            need = "must be finite"
        shown = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
        problems.append(f"{name}: {need}, got {shown!r}")
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
        check_fields(seed=self.seed, stream_id=self.stream_id)

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
