"""Fused step loops for noisy 2-D Rosenbrock, one per update rule.

Every kernel has the signature

    kernel(noise, x, c0, T, stride, *params, *state) -> (rows, x, *state)

and takes steps t0 = c0, ..., c0 + T - 1 (0-based) of a run on the
built-in Rosenbrock objective with additive Gaussian noise. ``noise``
iterates that noise, already scaled by sigma, as flat floats, g's two a
step, then g''s two for the SGDOL kernels (``g_pair_consumed`` pairs a
step); a gradient is the exact one plus them, and the kernel takes
exactly T steps' floats. ``rows`` is a flat typed buffer with a row per
step with t0 % stride == 0, which a kernel finds by comparing t0 with the
next such step: x_t, then the stepsize(s) step t used (one column for the
global-stepsize kernels, SGD's lr and Adam's NaN, one per coordinate for
the per-coordinate kernels). The step loop, ``optimizers._run_groups``,
feeds each run's kernel a noise chunk at a time, scaled once and shared
by every run on the stream, and derives the records, and all else a run
keeps, from the rows.

A kernel is a pure function: ``x`` and every array of the ``state`` its
optimizer class declares (FTRL sums, AdaGrad accumulators, Adam moments
and beta powers) come in as tuples of floats and go out as new tuples, so
a kernel continues a run from wherever the previous chunk, or generic
steps, left it.

Coordinates and state are Python float locals, four to seven times faster
than numpy scalars under CPython, with the Rosenbrock gradient inlined; f
is never computed here. Every sum is written out in index order from 0.0
(0.0 + -0.0 is 0.0). These kernels are the only copy of each update rule
besides the optimizers' ``update``; ``tests/reference_kernels.py`` holds
each as an array loop that ``tests/test_kernels.py`` requires it to match
bit for bit.

No float divisor can be zero, where a Python float would raise
ZeroDivisionError: alpha, M, eps and the curvature scale are validated
positive and the betas in [0, 1), and AdaGrad divides only by the root of
a positive accumulator. A diverging run ends in the same inf/nan as the
reference, without a warning, as float arithmetic raises none.
"""

import math
from array import array

# Noise floats drawn per chunk: 2048 floats are a 16 kB array and a 64 kB
# flat list, whatever d is (512 steps at d = 2); at 8192 the peak RSS of
# a short Rosenbrock sweep rose by 1 MB, with no gain in speed.
_CHUNK_FLOATS = 2048


def _chunks(draw, T, d):
    """Iterate (c0, draw of the pairs from c0 on), about ``_CHUNK_FLOATS`` floats a chunk.

    Exactly T pairs are drawn in all.
    """
    rows = max(1, _CHUNK_FLOATS // (2 * d))
    return ((c0, draw(min(rows, T - c0))) for c0 in range(0, T, rows))


def _steps(noise, c0, T, width):
    """Iterate (t0, *noise of step t0) for the T steps from c0, ``width`` floats a step.

    zip regroups the floats step by step, so no per-step list is built for
    the cyclic GC to track, and reuses the tuple of a step that the loop
    unpacks. It stops at the range's end, before it takes a float of step
    c0 + T.
    """
    return zip(range(c0, c0 + T), *[iter(noise)] * width)


def _sgdol_global(noise, x, c0, T, stride, M, alpha, curv, si, ss):
    """SGDOL with one global FTRL-learned stepsize; state (sum of <g,g'>, sum of ||g||^2)."""
    rec = array("d")
    hi = 2.0 / M
    x0, x1 = x
    nxt = -(-c0 // stride) * stride
    for t0, u0, u1, v0, v1 in _steps(noise, c0, T, 4):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        eta = (alpha + si) / (alpha + curv * ss) / M
        if eta < 0.0:
            eta = 0.0
        elif eta > hi:
            eta = hi
        if t0 == nxt:
            nxt += stride
            rec.extend((x0, x1, eta))
        g0 = r0 + u0
        g1 = r1 + u1
        gp0 = r0 + v0
        gp1 = r1 + v1
        x0 = x0 - eta * g0
        x1 = x1 - eta * g1
        si += 0.0 + g0 * gp0 + g1 * gp1
        ss += 0.0 + g0 * g0 + g1 * g1
    return rec, (x0, x1), si, ss


def _sgdol_coord(noise, x, c0, T, stride, M, alpha, si, ss):
    """SGDOL with one FTRL learner per coordinate; state (si, ss) as above."""
    rec = array("d")
    hi = 2.0 / M
    x0, x1 = x
    nxt = -(-c0 // stride) * stride
    si0, si1 = si
    ss0, ss1 = ss
    for t0, u0, u1, v0, v1 in _steps(noise, c0, T, 4):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        e0 = (alpha + si0) / (alpha + ss0) / M
        if e0 < 0.0:
            e0 = 0.0
        elif e0 > hi:
            e0 = hi
        e1 = (alpha + si1) / (alpha + ss1) / M
        if e1 < 0.0:
            e1 = 0.0
        elif e1 > hi:
            e1 = hi
        if t0 == nxt:
            nxt += stride
            rec.extend((x0, x1, e0, e1))
        g0 = r0 + u0
        g1 = r1 + u1
        gp0 = r0 + v0
        gp1 = r1 + v1
        x0 = x0 - e0 * g0
        x1 = x1 - e1 * g1
        si0 += g0 * gp0
        si1 += g1 * gp1
        ss0 += g0 * g0
        ss1 += g1 * g1
    return rec, (x0, x1), (si0, si1), (ss0, ss1)


def _sgd(noise, x, c0, T, stride, lr):
    """Constant-stepsize SGD (also the precomputed-stepsize variant); reads only g's noise."""
    rec = array("d")
    x0, x1 = x
    nxt = -(-c0 // stride) * stride
    for t0, u0, u1 in _steps(noise, c0, T, 2):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        if t0 == nxt:
            nxt += stride
            rec.extend((x0, x1, lr))
        x0 = x0 - lr * (r0 + u0)
        x1 = x1 - lr * (r1 + u1)
    return rec, (x0, x1)


def _adagrad_global(noise, x, c0, T, stride, lr, accum):
    """AdaGrad with one shared stepsize lr / sqrt(sum of squared grad norms)."""
    rec = array("d")
    sqrt = math.sqrt
    x0, x1 = x
    nxt = -(-c0 // stride) * stride
    for t0, u0, u1 in _steps(noise, c0, T, 2):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        g0 = r0 + u0
        g1 = r1 + u1
        accum += 0.0 + g0 * g0 + g1 * g1
        coef = lr / sqrt(accum) if accum > 0.0 else 0.0
        if t0 == nxt:
            nxt += stride
            rec.extend((x0, x1, coef))
        x0 = x0 - coef * g0
        x1 = x1 - coef * g1
    return rec, (x0, x1), accum


def _adagrad_coord(noise, x, c0, T, stride, lr, accum):
    """AdaGrad with a per-coordinate accumulator."""
    rec = array("d")
    sqrt = math.sqrt
    x0, x1 = x
    nxt = -(-c0 // stride) * stride
    q0, q1 = accum
    for t0, u0, u1 in _steps(noise, c0, T, 2):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        g0 = r0 + u0
        g1 = r1 + u1
        q0 += g0 * g0
        q1 += g1 * g1
        k0 = lr / sqrt(q0) if q0 > 0.0 else 0.0
        k1 = lr / sqrt(q1) if q1 > 0.0 else 0.0
        if t0 == nxt:
            nxt += stride
            rec.extend((x0, x1, k0, k1))
        x0 = x0 - k0 * g0
        x1 = x1 - k1 * g1
    return rec, (x0, x1), (q0, q1)


def _adam(noise, x, c0, T, stride, lr, beta1, beta2, eps, m, v, p1, p2):
    """Adam with standard bias-corrected moment estimates; it records NaN stepsizes."""
    rec = array("d")
    sqrt = math.sqrt
    nan = math.nan
    c1 = 1.0 - beta1
    c2 = 1.0 - beta2
    x0, x1 = x
    nxt = -(-c0 // stride) * stride
    m0, m1 = m
    w0, w1 = v
    for t0, u0, u1 in _steps(noise, c0, T, 2):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        if t0 == nxt:
            nxt += stride
            rec.extend((x0, x1, nan))
        p1 *= beta1
        p2 *= beta2
        bc1 = 1.0 - p1
        bc2 = 1.0 - p2
        g0 = r0 + u0
        g1 = r1 + u1
        m0 = beta1 * m0 + c1 * g0
        m1 = beta1 * m1 + c1 * g1
        w0 = beta2 * w0 + c2 * (g0 * g0)
        w1 = beta2 * w1 + c2 * (g1 * g1)
        x0 = x0 - lr * (m0 / bc1) / (sqrt(w0 / bc2) + eps)
        x1 = x1 - lr * (m1 / bc1) / (sqrt(w1 / bc2) + eps)
    return rec, (x0, x1), (m0, m1), (w0, w1), p1, p2


_KERNELS = {fn.__name__[1:]: fn for fn in (_sgdol_global, _sgdol_coord, _sgd, _adagrad_global,
                                            _adagrad_coord, _adam)}
KERNEL_NAMES = tuple(_KERNELS)


def get_kernel(name: str):
    """Return the named kernel."""
    return _KERNELS[name]


# No kernel is JIT-compiled; perfbench/run.py stamps these two into its results.
def numba_available() -> bool:
    return False


def numba_enabled() -> bool:
    return False
