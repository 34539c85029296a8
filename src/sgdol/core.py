"""Dense float64 vectors, the seeded randomness contract, and shared record types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "vector",
    "dot",
    "sq_norm",
    "RngStream",
    "derive_stream_id",
    "TrajectoryRecord",
    "Trajectory",
]

_U64 = np.uint64


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
    return float(np.sum(a * b))


def sq_norm(a: np.ndarray) -> float:
    """Squared Euclidean norm ``dot(a, a)``."""
    return float(np.sum(a * a))


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
            if not 0 <= int(v) < 2**64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")

    def generator(self) -> Generator:
        """Materialize a fresh generator positioned at the stream's start."""
        key = np.array([self.seed, self.stream_id], dtype=_U64)
        return Generator(Philox(key=key))

    def child(self, *parts: int) -> "RngStream":
        """Derive a sub-stream by folding labels into this stream's id."""
        return RngStream(self.seed, derive_stream_id(self.stream_id, *parts))


@dataclass(frozen=True)
class TrajectoryRecord:
    """One recorded iteration of an optimizer run."""

    iteration: int
    f_value: Optional[float]
    true_grad_sq_norm: Optional[float]
    stepsize: Union[float, np.ndarray]
    surrogate_loss_value: float
    cumulative_regret_lhs: float


@dataclass
class Trajectory:
    """Column-oriented time series of TrajectoryRecords.

    Arrays all share length n (the number of recorded iterations);
    ``stepsize_coords`` is present only for per-coordinate optimizers.
    """

    t: np.ndarray
    f_value: Optional[np.ndarray]
    true_grad_sq_norm: Optional[np.ndarray]
    stepsize: np.ndarray
    surrogate_loss_value: np.ndarray
    cumulative_regret_lhs: np.ndarray
    stepsize_coords: Optional[np.ndarray] = field(default=None)

    def __len__(self) -> int:
        return len(self.t)

    def record(self, i: int) -> TrajectoryRecord:
        step = (
            self.stepsize_coords[i]
            if self.stepsize_coords is not None
            else float(self.stepsize[i])
        )
        return TrajectoryRecord(
            iteration=int(self.t[i]),
            f_value=None if self.f_value is None else float(self.f_value[i]),
            true_grad_sq_norm=(
                None
                if self.true_grad_sq_norm is None
                else float(self.true_grad_sq_norm[i])
            ),
            stepsize=step,
            surrogate_loss_value=float(self.surrogate_loss_value[i]),
            cumulative_regret_lhs=float(self.cumulative_regret_lhs[i]),
        )
