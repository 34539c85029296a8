"""Fused run loops for analytic oracles, JIT-compiled when numba is available.

Each kernel executes a full T-step optimizer run on one of the built-in
analytic objectives (0 = Rosenbrock, 1 = diagonal quadratic) with
pre-generated Gaussian noise, recording the trajectory at a fixed stride.
The objective is written once, in three helpers shared by every array
kernel: ``_grad_into`` (gradient into a buffer), ``_objective`` (f at x) and
``_sq_norm``. With numba installed they are marked ``register_jitable`` and
compiled into each ``@njit`` kernel; without it they stay plain functions.

Every kernel has the signature

    kernel(oracle_id, diag, x, T, sigma, noise, k_index, stride, *params, *state)

and returns

    (t, f, ||grad||^2, stepsize, surrogate, cumulative, stepsize_coords, x_k,
     *state, *extras)

``state`` is the optimizer's mutable state (FTRL sums and round counter,
AdaGrad accumulators, Adam moments and beta powers). It comes in, so a
kernel can continue a run that generic steps started, and its final value
goes out; array state and ``x`` are updated in place. Kernels without
per-coordinate stepsizes return ``stepsize_coords`` with zero columns. The
only extras are ``sgdol_global``'s per-step regret statistics, filled only
when its ``keep_steps`` flag is set.

Every kernel has an array source, which numba compiles with ``@njit``, and a
plain-Python variant, which is what runs without numba. For ``sgdol_global``
and ``sgd`` the plain-Python variant is a separate source on Python floats
and lists (``_py_sgdol_global``, ``_py_sgd``) with the objective inlined,
several times faster under CPython than the array source; the other four
kernels still run their array source under CPython. Which variant runs is
controlled by

    SGDOL_DISABLE_NUMBA=1   (environment, read at import)

or at runtime via ``set_backend``. All variants execute the same
floating-point operations in the same order, so their outputs are
bit-for-bit identical. ``tests/test_kernels.py`` pins this against the
generic step path on every machine, and JIT against plain Python where numba
is installed; ``benchmarks/compare_backends.py`` measures the speed
difference.

The noise argument holds raw standard normals of shape (T, 2, d), scaled
inside by the per-coordinate sigma. Pre-generating the whole array consumes
the random stream exactly as the step-by-step oracle path does, so both
paths see identical gradient pairs under one stream.
"""

from __future__ import annotations

import itertools
import math
import os
from array import array

import numpy as np

try:
    import numba
    from numba.extending import register_jitable

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is the optional ``jit`` extra
    numba = None
    _HAVE_NUMBA = False

    def register_jitable(fn):
        return fn


__all__ = ["numba_available", "numba_enabled", "set_backend", "get_kernel", "KERNEL_NAMES"]

_env_disabled = os.environ.get("SGDOL_DISABLE_NUMBA", "").strip().lower() in ("1", "true", "yes")
_use_numba = _HAVE_NUMBA and not _env_disabled


def numba_available() -> bool:
    return _HAVE_NUMBA


def numba_enabled() -> bool:
    """True when kernels dispatch to their JIT-compiled variants."""
    return _use_numba


def set_backend(use_numba: bool):
    """Select the JIT or plain-Python kernel variants at runtime."""
    global _use_numba
    if use_numba and not _HAVE_NUMBA:
        raise RuntimeError("numba is not available in this environment")
    _use_numba = bool(use_numba)


# Oracle ids shared with optimizers.run
ORACLE_ROSENBROCK = 0
ORACLE_QUADRATIC = 1


@register_jitable
def _grad_into(oracle_id, diag, x, grad):
    """Write the exact gradient at x into grad."""
    if oracle_id == ORACLE_ROSENBROCK:
        c = x[1] - x[0] * x[0]
        grad[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * c
        grad[1] = 200.0 * c
    else:
        for i in range(x.shape[0]):
            grad[i] = diag[i] * x[i]


@register_jitable
def _objective(oracle_id, diag, x):
    """The exact objective value at x."""
    if oracle_id == ORACLE_ROSENBROCK:
        a1 = 1.0 - x[0]
        cc = x[1] - x[0] * x[0]
        return a1 * a1 + 100.0 * (cc * cc)
    acc = 0.0
    for i in range(x.shape[0]):
        acc += diag[i] * (x[i] * x[i])
    return 0.5 * acc


@register_jitable
def _sq_norm(v):
    """Sum of squares, accumulated in index order from 0.0."""
    acc = 0.0
    for i in range(v.shape[0]):
        acc += v[i] * v[i]
    return acc


def _run_sgdol_global(oracle_id, diag, x, T, sigma, noise, k_index, stride,
                      M, alpha, curv, keep_steps, si, ss, t):
    """SGDOL with one global FTRL-learned stepsize.

    The learner state is (sum of <g,g'>, sum of ||g||^2, round counter).
    With ``keep_steps`` the extras are the full per-step (eta, <g,g'>,
    ||g||^2, ||g'||^2) arrays needed for regret bookkeeping; otherwise they
    are empty.
    """
    d = x.shape[0]
    n_rec = (T + stride - 1) // stride
    rec_t = np.empty(n_rec, np.int64)
    rec_f = np.empty(n_rec)
    rec_gsq = np.empty(n_rec)
    rec_eta = np.empty(n_rec)
    rec_surr = np.empty(n_rec)
    rec_cum = np.empty(n_rec)
    n_steps = T if keep_steps else 0
    etas = np.empty(n_steps)
    inners = np.empty(n_steps)
    sqs = np.empty(n_steps)
    sqps = np.empty(n_steps)
    grad = np.empty(d)
    g = np.empty(d)
    gp = np.empty(d)
    xk = np.empty(d)
    cum = 0.0
    hi = 2.0 / M
    ri = 0
    for t0 in range(T):
        _grad_into(oracle_id, diag, x, grad)
        if t0 + 1 == k_index:
            for i in range(d):
                xk[i] = x[i]
        rec_here = t0 % stride == 0
        if rec_here:
            fv = _objective(oracle_id, diag, x)
            gsq = _sq_norm(grad)
        eta = (alpha + si) / (alpha + curv * ss) / M
        if eta < 0.0:
            eta = 0.0
        elif eta > hi:
            eta = hi
        for i in range(d):
            g[i] = grad[i] + sigma[i] * noise[t0, 0, i]
            gp[i] = grad[i] + sigma[i] * noise[t0, 1, i]
        for i in range(d):
            x[i] = x[i] - eta * g[i]
        b = 0.0
        a = 0.0
        for i in range(d):
            b += g[i] * gp[i]
            a += g[i] * g[i]
        loss = 0.5 * curv * M * eta * eta * a - eta * b
        cum += loss
        si += b
        ss += a
        if keep_steps:
            etas[t0] = eta
            inners[t0] = b
            sqs[t0] = a
            sqps[t0] = _sq_norm(gp)
        if rec_here:
            rec_t[ri] = t0 + 1
            rec_f[ri] = fv
            rec_gsq[ri] = gsq
            rec_eta[ri] = eta
            rec_surr[ri] = loss
            rec_cum[ri] = cum
            ri += 1
    return (rec_t, rec_f, rec_gsq, rec_eta, rec_surr, rec_cum, np.empty((n_rec, 0)), xk,
            si, ss, t + T, etas, inners, sqs, sqps)


def _run_sgdol_coord(oracle_id, diag, x, T, sigma, noise, k_index, stride, M, alpha, si, ss, t):
    """SGDOL with one FTRL learner per coordinate; state (si, ss, t) as above."""
    d = x.shape[0]
    n_rec = (T + stride - 1) // stride
    rec_t = np.empty(n_rec, np.int64)
    rec_f = np.empty(n_rec)
    rec_gsq = np.empty(n_rec)
    rec_eta_mean = np.empty(n_rec)
    rec_eta = np.empty((n_rec, d))
    rec_surr = np.empty(n_rec)
    rec_cum = np.empty(n_rec)
    grad = np.empty(d)
    g = np.empty(d)
    gp = np.empty(d)
    eta = np.empty(d)
    xk = np.empty(d)
    cum = 0.0
    hi = 2.0 / M
    ri = 0
    for t0 in range(T):
        _grad_into(oracle_id, diag, x, grad)
        if t0 + 1 == k_index:
            for i in range(d):
                xk[i] = x[i]
        rec_here = t0 % stride == 0
        if rec_here:
            fv = _objective(oracle_id, diag, x)
            gsq = _sq_norm(grad)
        for i in range(d):
            raw = (alpha + si[i]) / (alpha + ss[i]) / M
            if raw < 0.0:
                raw = 0.0
            elif raw > hi:
                raw = hi
            eta[i] = raw
        loss = 0.0
        for i in range(d):
            g[i] = grad[i] + sigma[i] * noise[t0, 0, i]
            gp[i] = grad[i] + sigma[i] * noise[t0, 1, i]
        for i in range(d):
            x[i] = x[i] - eta[i] * g[i]
        for i in range(d):
            b = g[i] * gp[i]
            a = g[i] * g[i]
            loss += 0.5 * M * eta[i] * eta[i] * a - eta[i] * b
            si[i] += b
            ss[i] += a
        cum += loss
        if rec_here:
            rec_t[ri] = t0 + 1
            rec_f[ri] = fv
            rec_gsq[ri] = gsq
            mean_eta = 0.0
            for i in range(d):
                rec_eta[ri, i] = eta[i]
                mean_eta += eta[i]
            rec_eta_mean[ri] = mean_eta / d
            rec_surr[ri] = loss
            rec_cum[ri] = cum
            ri += 1
    return rec_t, rec_f, rec_gsq, rec_eta_mean, rec_surr, rec_cum, rec_eta, xk, si, ss, t + T


def _run_sgd(oracle_id, diag, x, T, sigma, noise, k_index, stride, lr):
    """Constant-stepsize SGD (also covers the precomputed-stepsize variant)."""
    d = x.shape[0]
    n_rec = (T + stride - 1) // stride
    rec_t = np.empty(n_rec, np.int64)
    rec_f = np.empty(n_rec)
    rec_gsq = np.empty(n_rec)
    rec_eta = np.empty(n_rec)
    grad = np.empty(d)
    xk = np.empty(d)
    ri = 0
    for t0 in range(T):
        _grad_into(oracle_id, diag, x, grad)
        if t0 + 1 == k_index:
            for i in range(d):
                xk[i] = x[i]
        if t0 % stride == 0:
            rec_t[ri] = t0 + 1
            rec_f[ri] = _objective(oracle_id, diag, x)
            rec_gsq[ri] = _sq_norm(grad)
            rec_eta[ri] = lr
            ri += 1
        for i in range(d):
            gi = grad[i] + sigma[i] * noise[t0, 0, i]
            x[i] = x[i] - lr * gi
    return rec_t, rec_f, rec_gsq, rec_eta, np.zeros(n_rec), np.zeros(n_rec), np.empty((n_rec, 0)), xk


def _run_adagrad_global(oracle_id, diag, x, T, sigma, noise, k_index, stride, lr, accum):
    """AdaGrad with one shared stepsize lr / sqrt(sum of squared grad norms)."""
    d = x.shape[0]
    n_rec = (T + stride - 1) // stride
    rec_t = np.empty(n_rec, np.int64)
    rec_f = np.empty(n_rec)
    rec_gsq = np.empty(n_rec)
    rec_eta = np.empty(n_rec)
    grad = np.empty(d)
    g = np.empty(d)
    xk = np.empty(d)
    ri = 0
    for t0 in range(T):
        _grad_into(oracle_id, diag, x, grad)
        if t0 + 1 == k_index:
            for i in range(d):
                xk[i] = x[i]
        rec_here = t0 % stride == 0
        if rec_here:
            fv = _objective(oracle_id, diag, x)
            gsq = _sq_norm(grad)
        a = 0.0
        for i in range(d):
            g[i] = grad[i] + sigma[i] * noise[t0, 0, i]
            a += g[i] * g[i]
        accum += a
        if accum > 0.0:
            coef = lr / math.sqrt(accum)
        else:
            coef = 0.0
        for i in range(d):
            x[i] = x[i] - coef * g[i]
        if rec_here:
            rec_t[ri] = t0 + 1
            rec_f[ri] = fv
            rec_gsq[ri] = gsq
            rec_eta[ri] = coef
            ri += 1
    return (rec_t, rec_f, rec_gsq, rec_eta, np.zeros(n_rec), np.zeros(n_rec), np.empty((n_rec, 0)),
            xk, accum)


def _run_adagrad_coord(oracle_id, diag, x, T, sigma, noise, k_index, stride, lr, accum):
    """AdaGrad with a per-coordinate accumulator."""
    d = x.shape[0]
    n_rec = (T + stride - 1) // stride
    rec_t = np.empty(n_rec, np.int64)
    rec_f = np.empty(n_rec)
    rec_gsq = np.empty(n_rec)
    rec_eta_mean = np.empty(n_rec)
    rec_eta = np.empty((n_rec, d))
    grad = np.empty(d)
    g = np.empty(d)
    coef = np.empty(d)
    xk = np.empty(d)
    ri = 0
    for t0 in range(T):
        _grad_into(oracle_id, diag, x, grad)
        if t0 + 1 == k_index:
            for i in range(d):
                xk[i] = x[i]
        rec_here = t0 % stride == 0
        if rec_here:
            fv = _objective(oracle_id, diag, x)
            gsq = _sq_norm(grad)
        for i in range(d):
            g[i] = grad[i] + sigma[i] * noise[t0, 0, i]
            accum[i] += g[i] * g[i]
            if accum[i] > 0.0:
                coef[i] = lr / math.sqrt(accum[i])
            else:
                coef[i] = 0.0
            x[i] = x[i] - coef[i] * g[i]
        if rec_here:
            rec_t[ri] = t0 + 1
            rec_f[ri] = fv
            rec_gsq[ri] = gsq
            mean_eta = 0.0
            for i in range(d):
                rec_eta[ri, i] = coef[i]
                mean_eta += coef[i]
            rec_eta_mean[ri] = mean_eta / d
            ri += 1
    return rec_t, rec_f, rec_gsq, rec_eta_mean, np.zeros(n_rec), np.zeros(n_rec), rec_eta, xk, accum


def _run_adam(oracle_id, diag, x, T, sigma, noise, k_index, stride, lr, beta1, beta2, eps,
              m, v, p1, p2):
    """Adam with standard bias-corrected moment estimates; it records NaN stepsizes."""
    d = x.shape[0]
    n_rec = (T + stride - 1) // stride
    rec_t = np.empty(n_rec, np.int64)
    rec_f = np.empty(n_rec)
    rec_gsq = np.empty(n_rec)
    rec_eta = np.empty(n_rec)
    grad = np.empty(d)
    g = np.empty(d)
    xk = np.empty(d)
    ri = 0
    for t0 in range(T):
        _grad_into(oracle_id, diag, x, grad)
        if t0 + 1 == k_index:
            for i in range(d):
                xk[i] = x[i]
        if t0 % stride == 0:
            rec_t[ri] = t0 + 1
            rec_f[ri] = _objective(oracle_id, diag, x)
            rec_gsq[ri] = _sq_norm(grad)
            rec_eta[ri] = math.nan
            ri += 1
        p1 *= beta1
        p2 *= beta2
        bc1 = 1.0 - p1
        bc2 = 1.0 - p2
        for i in range(d):
            g[i] = grad[i] + sigma[i] * noise[t0, 0, i]
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
            v[i] = beta2 * v[i] + (1.0 - beta2) * (g[i] * g[i])
            x[i] = x[i] - lr * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + eps)
    return (rec_t, rec_f, rec_gsq, rec_eta, np.zeros(n_rec), np.zeros(n_rec), np.empty((n_rec, 0)),
            xk, m, v, p1, p2)


# ----------------------------------------------------------------------------
# Plain-Python variants of the two hottest kernels
# ----------------------------------------------------------------------------
#
# Run by CPython, the array sources above box a numpy scalar at every element
# access. The variants below execute the same IEEE operations in the same
# order on Python floats: x, sigma and diag are unpacked once, the noise is
# converted a chunk at a time, records are appended to typed buffers that
# become arrays once at the end, and the final iterate is written back into
# x. On Rosenbrock (d = 2) the coordinates live in scalar locals. The
# objective is inlined rather than called through the shared helpers, which
# is where much of the speed comes from.

# Noise floats converted per chunk. Boxed into nested lists a float costs
# 32-80 bytes, so the copy stays under 160 kB at any d; at 8192 the peak RSS
# of a short Rosenbrock sweep rose by 1 MB, with no gain in speed.
_CHUNK_FLOATS = 2048


def _noise_rows(noise, T):
    """Iterate (t0, noise[t0].tolist()) for t0 < T, converting in chunks."""
    rows = max(1, _CHUNK_FLOATS // noise[0].size)
    return itertools.chain.from_iterable(
        enumerate(noise[c0:c0 + rows].tolist(), c0) for c0 in range(0, T, rows))


def _py_sgdol_global(oracle_id, diag, x, T, sigma, noise, k_index, stride,
                     M, alpha, curv, keep_steps, si, ss, t):
    """Plain-Python twin of ``_run_sgdol_global``."""
    d = x.shape[0]
    xk = np.empty(d)
    rec_t = array("q")
    rec_f, rec_gsq, rec_eta, rec_surr, rec_cum = (array("d") for _ in range(5))
    etas, inners, sqs, sqps = (array("d") for _ in range(4))
    cum = 0.0
    hi = 2.0 / M
    if oracle_id == ORACLE_ROSENBROCK:
        x0, x1 = x.tolist()
        s0, s1 = sigma.tolist()
        for t0, ((u0, u1), (v0, v1)) in _noise_rows(noise, T):
            c = x1 - x0 * x0
            r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
            r1 = 200.0 * c
            if t0 + 1 == k_index:
                xk[0] = x0
                xk[1] = x1
            rec_here = t0 % stride == 0
            if rec_here:
                a1 = 1.0 - x0
                fv = a1 * a1 + 100.0 * (c * c)
                gsq = 0.0 + r0 * r0 + r1 * r1
            eta = (alpha + si) / (alpha + curv * ss) / M
            if eta < 0.0:
                eta = 0.0
            elif eta > hi:
                eta = hi
            g0 = r0 + s0 * u0
            g1 = r1 + s1 * u1
            gp0 = r0 + s0 * v0
            gp1 = r1 + s1 * v1
            x0 = x0 - eta * g0
            x1 = x1 - eta * g1
            b = 0.0 + g0 * gp0 + g1 * gp1
            a = 0.0 + g0 * g0 + g1 * g1
            loss = 0.5 * curv * M * eta * eta * a - eta * b
            cum += loss
            si += b
            ss += a
            if keep_steps:
                etas.append(eta)
                inners.append(b)
                sqs.append(a)
                sqps.append(0.0 + gp0 * gp0 + gp1 * gp1)
            if rec_here:
                rec_t.append(t0 + 1)
                rec_f.append(fv)
                rec_gsq.append(gsq)
                rec_eta.append(eta)
                rec_surr.append(loss)
                rec_cum.append(cum)
        x[0] = x0
        x[1] = x1
    else:
        xs = x.tolist()
        sg = sigma.tolist()
        dg = diag.tolist()
        for t0, (u, v) in _noise_rows(noise, T):
            grad = [di * xi for di, xi in zip(dg, xs)]
            if t0 + 1 == k_index:
                xk[:] = xs
            rec_here = t0 % stride == 0
            if rec_here:
                acc = 0.0
                for di, xi in zip(dg, xs):
                    acc += di * (xi * xi)
                fv = 0.5 * acc
                gsq = 0.0
                for ri in grad:
                    gsq += ri * ri
            eta = (alpha + si) / (alpha + curv * ss) / M
            if eta < 0.0:
                eta = 0.0
            elif eta > hi:
                eta = hi
            g = [ri + s * n for ri, s, n in zip(grad, sg, u)]
            gp = [ri + s * n for ri, s, n in zip(grad, sg, v)]
            xs = [xi - eta * gi for xi, gi in zip(xs, g)]
            b = 0.0
            a = 0.0
            for gi, gpi in zip(g, gp):
                b += gi * gpi
                a += gi * gi
            loss = 0.5 * curv * M * eta * eta * a - eta * b
            cum += loss
            si += b
            ss += a
            if keep_steps:
                ap = 0.0
                for gpi in gp:
                    ap += gpi * gpi
                etas.append(eta)
                inners.append(b)
                sqs.append(a)
                sqps.append(ap)
            if rec_here:
                rec_t.append(t0 + 1)
                rec_f.append(fv)
                rec_gsq.append(gsq)
                rec_eta.append(eta)
                rec_surr.append(loss)
                rec_cum.append(cum)
        x[:] = xs
    recs = [np.frombuffer(buf) for buf in (rec_f, rec_gsq, rec_eta, rec_surr, rec_cum)]
    steps = [np.frombuffer(buf) for buf in (etas, inners, sqs, sqps)]
    return (np.frombuffer(rec_t, np.int64), *recs, np.empty((len(rec_t), 0)), xk,
            si, ss, t + T, *steps)


def _py_sgd(oracle_id, diag, x, T, sigma, noise, k_index, stride, lr):
    """Plain-Python twin of ``_run_sgd``; reads only the noise of g, not of g'."""
    d = x.shape[0]
    xk = np.empty(d)
    rec_t, rec_f, rec_gsq = array("q"), array("d"), array("d")
    if oracle_id == ORACLE_ROSENBROCK:
        x0, x1 = x.tolist()
        s0, s1 = sigma.tolist()
        for t0, (u0, u1) in _noise_rows(noise[:, 0], T):
            c = x1 - x0 * x0
            r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
            r1 = 200.0 * c
            if t0 + 1 == k_index:
                xk[0] = x0
                xk[1] = x1
            if t0 % stride == 0:
                a1 = 1.0 - x0
                rec_t.append(t0 + 1)
                rec_f.append(a1 * a1 + 100.0 * (c * c))
                rec_gsq.append(0.0 + r0 * r0 + r1 * r1)
            x0 = x0 - lr * (r0 + s0 * u0)
            x1 = x1 - lr * (r1 + s1 * u1)
        x[0] = x0
        x[1] = x1
    else:
        xs = x.tolist()
        sg = sigma.tolist()
        dg = diag.tolist()
        for t0, u in _noise_rows(noise[:, 0], T):
            grad = [di * xi for di, xi in zip(dg, xs)]
            if t0 + 1 == k_index:
                xk[:] = xs
            if t0 % stride == 0:
                acc = 0.0
                for di, xi in zip(dg, xs):
                    acc += di * (xi * xi)
                gsq = 0.0
                for ri in grad:
                    gsq += ri * ri
                rec_t.append(t0 + 1)
                rec_f.append(0.5 * acc)
                rec_gsq.append(gsq)
            xs = [xi - lr * (ri + s * n) for xi, ri, s, n in zip(xs, grad, sg, u)]
        x[:] = xs
    n_rec = len(rec_t)
    return (np.frombuffer(rec_t, np.int64), np.frombuffer(rec_f), np.frombuffer(rec_gsq),
            np.full(n_rec, lr), np.zeros(n_rec), np.zeros(n_rec), np.empty((n_rec, 0)), xk)


_IMPLS = {
    "sgdol_global": _run_sgdol_global,
    "sgdol_coord": _run_sgdol_coord,
    "sgd": _run_sgd,
    "adagrad_global": _run_adagrad_global,
    "adagrad_coord": _run_adagrad_coord,
    "adam": _run_adam,
}

KERNEL_NAMES = tuple(_IMPLS)

if _HAVE_NUMBA:
    _JITTED = {name: numba.njit(cache=True)(fn) for name, fn in _IMPLS.items()}
else:  # pragma: no cover
    _JITTED = {}


# What runs without JIT: the plain-Python twins where they exist, else the
# array source itself.
_PYTHON = dict(_IMPLS, sgdol_global=_py_sgdol_global, sgd=_py_sgd)


def get_kernel(name: str):
    """Return the active variant (JIT or plain Python) of the named kernel."""
    if _use_numba:
        return _JITTED[name]
    return _PYTHON[name]
