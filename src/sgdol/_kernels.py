"""Fused run loops for noisy 2-D Rosenbrock, one per update rule.

Each kernel executes a full T-step optimizer run on the built-in Rosenbrock
objective with additive Gaussian noise, storing the run at a fixed stride.
Every kernel has the signature

    kernel(sigma, draw, x, T, k_index, stride, *params, *state)

and returns

    (rows, x_k, x, *state)

A kernel is a pure function of its arguments: ``x`` and every array of
``state`` come in as tuples of floats and their final values go out as new
tuples, and nothing it was handed is written to. ``state`` is the
optimizer's mutable state (FTRL sums, AdaGrad accumulators, Adam moments
and beta powers, and the six running values of a regret ledger that an
``Sgdol`` carries): it comes in, so a kernel can continue a run that
generic steps started. ``x_k`` is the iterate x_t at t = k_index, which
lies in [1, T]. ``rows`` is one flat typed buffer with a row per recorded
step t: the iterate x_t (two columns), then the stepsize(s) step t used,
one column for the global-stepsize kernels, SGD (its lr) and Adam (NaN)
and one per coordinate for the per-coordinate kernels. ``optimizers``
turns the returned values into arrays and computes t, f, ||grad f||^2 and
the mean stepsize from the rows after the loop, with the oracle's and the
lane engine's own code. ``draw(n)`` returns the standard normals of the
next n gradient pairs, shape (n, 2, 2), which the kernel scales by the
per-coordinate sigma. The kernels pull their noise from it a chunk at a
time, so memory does not grow with T, and they consume the random stream
exactly as the step-by-step oracle path does.

Coordinates and per-coordinate state are Python float locals, which CPython
handles four to seven times faster than numpy scalars, with the Rosenbrock
gradient inlined; f is never computed here. Each noise chunk is converted
into one flat list. Every sum is written out in index order from 0.0
(0.0 + -0.0 is 0.0). Quadratics of every dimension step through the
optimizer's own ``update`` in ``optimizers``; these kernels are the only
other copy of each update rule. ``tests/reference_kernels.py`` holds each
kernel as an array loop that ``tests/test_kernels.py`` requires it to match
bit for bit.

No float divisor can be zero, where a Python float would raise
ZeroDivisionError: alpha, M, eps and the curvature scale are validated
positive and the betas in [0, 1), and AdaGrad divides only by the root of
a positive accumulator. A diverging run ends in the same inf/nan as the
reference, without a warning, as float arithmetic raises none.
"""

import itertools
import math
from array import array

# Noise floats drawn per chunk: 2048 floats are a 16 kB array and a 64 kB
# flat list, whatever d is; at 8192 the peak RSS of a short Rosenbrock
# sweep rose by 1 MB, with no gain in speed.
_CHUNK_FLOATS = 2048


def _chunks(draw, T, d):
    """Iterate (c0, draw of the pairs from c0 on), about ``_CHUNK_FLOATS`` floats a chunk.

    Exactly T pairs are drawn in all.
    """
    rows = max(1, _CHUNK_FLOATS // (2 * d))
    return ((c0, draw(min(rows, T - c0))) for c0 in range(0, T, rows))


def _noise_steps(draw, T, pairs):
    """Iterate (t0, *noise of step t0) for t0 < T at d = 2, unscaled.

    A step's noise is its first ``pairs`` rows, flat: g's two floats, then
    g''s two when ``pairs`` is 2. Each chunk becomes one flat list that zip
    regroups step by step, so no per-step list is built for the cyclic GC
    to track, and zip reuses the tuple of a step that the loop unpacks.
    """
    k = 2 * pairs
    return itertools.chain.from_iterable(
        zip(range(c0, c0 + len(chunk)), *[iter(chunk[:, :pairs].ravel().tolist())] * k)
        for c0, chunk in _chunks(draw, T, 2))


def _fold_round(ledger, M, alpha, curv, eta, b, a, ap):
    """A regret ledger's running values after one more round, as ``RegretLedger.record``.

    ``b``, ``a`` and ``ap`` are <g,g'>, ||g||^2 and ||g'||^2.
    """
    n, lc, li, lq, lm, l2 = ledger
    loss = 0.5 * curv * M * eta * eta * a - eta * b
    lq += a
    # A NaN, once seen, stays the maximum, as np.maximum keeps it.
    if a > lm or a != a:
        lm = a
    if ap > lm or ap != ap:
        lm = ap
    slope = curv * M * eta * a - b
    return n + 1, lc + loss, li + b, lq, lm, l2 + slope * slope / (alpha + curv * lq)


def _sgdol_global(sigma, draw, x, T, k_index, stride, M, alpha, curv, si, ss, *ledger):
    """SGDOL with one global FTRL-learned stepsize.

    The learner state is (sum of <g,g'>, sum of ||g||^2), then a regret
    ledger's running values when the optimizer carries one: (rounds,
    cumulative surrogate loss, sum of <g,g'>, sum of ||g||^2, largest
    ||g||^2 or ||g'||^2, summed second bound term), as
    ``online.RegretLedger.record`` folds them in.
    """
    rec = array("d")
    led = bool(ledger)  # a bool tests faster than a tuple in the loops
    hi = 2.0 / M
    x0, x1 = x
    s0, s1 = sigma.tolist()
    for t0, u0, u1, v0, v1 in _noise_steps(draw, T, 2):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        if t0 + 1 == k_index:
            xk = x0, x1
        eta = (alpha + si) / (alpha + curv * ss) / M
        if eta < 0.0:
            eta = 0.0
        elif eta > hi:
            eta = hi
        if t0 % stride == 0:
            rec.extend((x0, x1, eta))
        g0 = r0 + s0 * u0
        g1 = r1 + s1 * u1
        gp0 = r0 + s0 * v0
        gp1 = r1 + s1 * v1
        x0 = x0 - eta * g0
        x1 = x1 - eta * g1
        b = 0.0 + g0 * gp0 + g1 * gp1
        a = 0.0 + g0 * g0 + g1 * g1
        si += b
        ss += a
        if led:
            ledger = _fold_round(ledger, M, alpha, curv, eta, b, a,
                                 0.0 + gp0 * gp0 + gp1 * gp1)
    return rec, xk, (x0, x1), si, ss, *ledger


def _sgdol_coord(sigma, draw, x, T, k_index, stride, M, alpha, si, ss):
    """SGDOL with one FTRL learner per coordinate; state (si, ss) as above."""
    rec = array("d")
    hi = 2.0 / M
    x0, x1 = x
    s0, s1 = sigma.tolist()
    si0, si1 = si
    ss0, ss1 = ss
    for t0, u0, u1, v0, v1 in _noise_steps(draw, T, 2):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        if t0 + 1 == k_index:
            xk = x0, x1
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
        if t0 % stride == 0:
            rec.extend((x0, x1, e0, e1))
        g0 = r0 + s0 * u0
        g1 = r1 + s1 * u1
        gp0 = r0 + s0 * v0
        gp1 = r1 + s1 * v1
        x0 = x0 - e0 * g0
        x1 = x1 - e1 * g1
        si0 += g0 * gp0
        si1 += g1 * gp1
        ss0 += g0 * g0
        ss1 += g1 * g1
    return rec, xk, (x0, x1), (si0, si1), (ss0, ss1)


def _sgd(sigma, draw, x, T, k_index, stride, lr):
    """Constant-stepsize SGD (also the precomputed-stepsize variant); reads only g's noise."""
    rec = array("d")
    x0, x1 = x
    s0, s1 = sigma.tolist()
    for t0, u0, u1 in _noise_steps(draw, T, 1):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        if t0 + 1 == k_index:
            xk = x0, x1
        if t0 % stride == 0:
            rec.extend((x0, x1, lr))
        x0 = x0 - lr * (r0 + s0 * u0)
        x1 = x1 - lr * (r1 + s1 * u1)
    return rec, xk, (x0, x1)


def _adagrad_global(sigma, draw, x, T, k_index, stride, lr, accum):
    """AdaGrad with one shared stepsize lr / sqrt(sum of squared grad norms)."""
    rec = array("d")
    sqrt = math.sqrt
    x0, x1 = x
    s0, s1 = sigma.tolist()
    for t0, u0, u1 in _noise_steps(draw, T, 1):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        if t0 + 1 == k_index:
            xk = x0, x1
        g0 = r0 + s0 * u0
        g1 = r1 + s1 * u1
        accum += 0.0 + g0 * g0 + g1 * g1
        coef = lr / sqrt(accum) if accum > 0.0 else 0.0
        if t0 % stride == 0:
            rec.extend((x0, x1, coef))
        x0 = x0 - coef * g0
        x1 = x1 - coef * g1
    return rec, xk, (x0, x1), accum


def _adagrad_coord(sigma, draw, x, T, k_index, stride, lr, accum):
    """AdaGrad with a per-coordinate accumulator."""
    rec = array("d")
    sqrt = math.sqrt
    x0, x1 = x
    s0, s1 = sigma.tolist()
    q0, q1 = accum
    for t0, u0, u1 in _noise_steps(draw, T, 1):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        if t0 + 1 == k_index:
            xk = x0, x1
        g0 = r0 + s0 * u0
        g1 = r1 + s1 * u1
        q0 += g0 * g0
        q1 += g1 * g1
        c0 = lr / sqrt(q0) if q0 > 0.0 else 0.0
        c1 = lr / sqrt(q1) if q1 > 0.0 else 0.0
        if t0 % stride == 0:
            rec.extend((x0, x1, c0, c1))
        x0 = x0 - c0 * g0
        x1 = x1 - c1 * g1
    return rec, xk, (x0, x1), (q0, q1)


def _adam(sigma, draw, x, T, k_index, stride, lr, beta1, beta2, eps, m, v, p1, p2):
    """Adam with standard bias-corrected moment estimates; it records NaN stepsizes."""
    rec = array("d")
    sqrt = math.sqrt
    nan = math.nan
    c1 = 1.0 - beta1
    c2 = 1.0 - beta2
    x0, x1 = x
    s0, s1 = sigma.tolist()
    m0, m1 = m
    w0, w1 = v
    for t0, u0, u1 in _noise_steps(draw, T, 1):
        c = x1 - x0 * x0
        r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
        r1 = 200.0 * c
        if t0 + 1 == k_index:
            xk = x0, x1
        if t0 % stride == 0:
            rec.extend((x0, x1, nan))
        p1 *= beta1
        p2 *= beta2
        bc1 = 1.0 - p1
        bc2 = 1.0 - p2
        g0 = r0 + s0 * u0
        g1 = r1 + s1 * u1
        m0 = beta1 * m0 + c1 * g0
        m1 = beta1 * m1 + c1 * g1
        w0 = beta2 * w0 + c2 * (g0 * g0)
        w1 = beta2 * w1 + c2 * (g1 * g1)
        x0 = x0 - lr * (m0 / bc1) / (sqrt(w0 / bc2) + eps)
        x1 = x1 - lr * (m1 / bc1) / (sqrt(w1 / bc2) + eps)
    return rec, xk, (x0, x1), (m0, m1), (w0, w1), p1, p2


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
