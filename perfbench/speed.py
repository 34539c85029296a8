"""CPU-speed calibration for timing on a shared, contended machine.

On the 2-vCPU VM where this benchmark was defined, the speed of identical
Python work drifts by up to 3x over seconds to minutes as other tenants load
the host. The run-to-run spread of raw wall-clock medians was 19-32% of the
median, wider than any bound worth having. A short fixed loop timed right
before and right after each execution tracks that drift (correlation 0.8
with the execution's own time), so the benchmark reports

    normalized time = wall time * REFERENCE_S / calibration time

i.e. seconds at the speed where the calibration loop takes REFERENCE_S.
With three passes on each side this cut the spread of the same medians to
about 4%. Raw wall times are still printed and saved next to the
normalized ones.

The loop mixes interpreted float arithmetic with numpy scalar element
loads and stores, the operations the plain-Python kernels and the generic
step path spend their time on.
"""

import time

import numpy as np

# Median calibration time on that VM (Intel Xeon, 2 vCPUs, Python 3.11.7,
# numpy 2.4.6). Fixed, so normalized values compare across runs.
REFERENCE_S = 0.0075

_cells = np.zeros(64)


def calibration_seconds():
    """Time one pass of the fixed calibration loop."""
    cells = _cells
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40000):
        acc += (i * 0.5) * 1.0001
    for i in range(8000):
        j = i & 63
        cells[j] = cells[j] * 0.5 + 1.0
    return time.perf_counter() - t0


PASSES = 3  # calibration passes on each side of an execution


def calibrate():
    """Mean time of PASSES calibration passes."""
    return sum(calibration_seconds() for _ in range(PASSES)) / PASSES


def speed_factor(before, after):
    """Multiplier turning a wall time into a normalized time.

    ``before`` and ``after`` are ``calibrate()`` results taken right before
    and right after the timed work.
    """
    return REFERENCE_S / (0.5 * (before + after))
