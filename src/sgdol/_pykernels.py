"""Plain-Python twins of the array kernels in ``_kernels``.

``_kernels.get_kernel`` returns these when numba is not in use. Run by
CPython, the array sources box a numpy scalar at every element access. Each
twin takes the same arguments and returns the same values as its array
source, and executes the same IEEE operations in the same order, on Python
floats: x, sigma, diag and array state are unpacked once, the
noise is converted a chunk at a time, records are appended to typed buffers
that become arrays once at the end, and the final iterate and array state
are written back in place. On Rosenbrock (d = 2) the coordinates and the
per-coordinate state live in scalar locals, with the objective inlined,
which is where much of the speed comes from; quadratics run on lists
through the list helpers below. Sums start from 0.0 and run in index order,
as in the array sources (0.0 + -0.0 is 0.0, not -0.0). They are written as
loops because ``sum`` of floats compensates its rounding from Python 3.12 on.

Python floats raise ZeroDivisionError where numpy scalars return inf or
nan. No divisor here can be zero: the optimizers validate alpha, M and eps
as positive and the betas as in [0, 1), so the bias corrections are
positive; the curvature scale is 1 or 2; AdaGrad divides only by the root
of a positive accumulator. A diverging run therefore ends in the same
inf/nan on both variants.
"""

import itertools
import math
from array import array

import numpy as np

# Oracle ids shared with the array kernels and optimizers.run
ORACLE_ROSENBROCK = 0
ORACLE_QUADRATIC = 1

# Noise floats converted per chunk. Boxed into nested lists a float costs
# 32-80 bytes, so the copy stays under 160 kB at any d; at 8192 the peak RSS
# of a short Rosenbrock sweep rose by 1 MB, with no gain in speed.
_CHUNK_FLOATS = 2048


def _noise_rows(noise, T):
    """Iterate (t0, noise[t0].tolist()) for t0 < T, converting in chunks."""
    rows = max(1, _CHUNK_FLOATS // noise[0].size)
    return itertools.chain.from_iterable(
        enumerate(noise[c0:c0 + rows].tolist(), c0) for c0 in range(0, T, rows))


def _grad_list(dg, xs):
    """The quadratic's gradient diag * x, as ``_grad_into`` computes it."""
    return [di * xi for di, xi in zip(dg, xs)]


def _objective_list(dg, xs):
    """The quadratic's value at x, summed as ``_objective`` sums it."""
    acc = 0.0
    for di, xi in zip(dg, xs):
        acc += di * (xi * xi)
    return 0.5 * acc


def _sq_norm_list(v):
    """Sum of squares, accumulated in index order from 0.0 like ``_sq_norm``."""
    acc = 0.0
    for vi in v:
        acc += vi * vi
    return acc


def _dot_list(u, v):
    """Inner product, accumulated in index order from 0.0."""
    acc = 0.0
    for ui, vi in zip(u, v):
        acc += ui * vi
    return acc


def _mean_list(v):
    """Mean of the per-coordinate stepsizes, summed in index order from 0.0."""
    acc = 0.0
    for vi in v:
        acc += vi
    return acc / len(v)


def _series(rec_t, *bufs):
    """The record buffers as arrays: int64 iteration numbers, then float64 columns."""
    return (np.frombuffer(rec_t, np.int64), *(np.frombuffer(buf) for buf in bufs))


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
            grad = _grad_list(dg, xs)
            if t0 + 1 == k_index:
                xk[:] = xs
            rec_here = t0 % stride == 0
            if rec_here:
                fv = _objective_list(dg, xs)
                gsq = _sq_norm_list(grad)
            eta = (alpha + si) / (alpha + curv * ss) / M
            if eta < 0.0:
                eta = 0.0
            elif eta > hi:
                eta = hi
            g = [ri + s * n for ri, s, n in zip(grad, sg, u)]
            gp = [ri + s * n for ri, s, n in zip(grad, sg, v)]
            xs = [xi - eta * gi for xi, gi in zip(xs, g)]
            b = _dot_list(g, gp)
            a = _sq_norm_list(g)
            loss = 0.5 * curv * M * eta * eta * a - eta * b
            cum += loss
            si += b
            ss += a
            if keep_steps:
                etas.append(eta)
                inners.append(b)
                sqs.append(a)
                sqps.append(_sq_norm_list(gp))
            if rec_here:
                rec_t.append(t0 + 1)
                rec_f.append(fv)
                rec_gsq.append(gsq)
                rec_eta.append(eta)
                rec_surr.append(loss)
                rec_cum.append(cum)
        x[:] = xs
    steps = [np.frombuffer(buf) for buf in (etas, inners, sqs, sqps)]
    return (*_series(rec_t, rec_f, rec_gsq, rec_eta, rec_surr, rec_cum),
            np.empty((len(rec_t), 0)), xk, si, ss, t + T, *steps)


def _py_sgdol_coord(oracle_id, diag, x, T, sigma, noise, k_index, stride, M, alpha, si, ss, t):
    """Plain-Python twin of ``_run_sgdol_coord``."""
    d = x.shape[0]
    xk = np.empty(d)
    rec_t = array("q")
    rec_f, rec_gsq, rec_eta_mean, rec_surr, rec_cum, rec_eta = (array("d") for _ in range(6))
    cum = 0.0
    hi = 2.0 / M
    hm = 0.5 * M  # the first product of 0.5 * M * eta * eta * a
    if oracle_id == ORACLE_ROSENBROCK:
        x0, x1 = x.tolist()
        s0, s1 = sigma.tolist()
        si0, si1 = si.tolist()
        ss0, ss1 = ss.tolist()
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
            g0 = r0 + s0 * u0
            g1 = r1 + s1 * u1
            gp0 = r0 + s0 * v0
            gp1 = r1 + s1 * v1
            x0 = x0 - e0 * g0
            x1 = x1 - e1 * g1
            b0 = g0 * gp0
            b1 = g1 * gp1
            q0 = g0 * g0
            q1 = g1 * g1
            loss = 0.0 + (hm * e0 * e0 * q0 - e0 * b0) + (hm * e1 * e1 * q1 - e1 * b1)
            cum += loss
            si0 += b0
            si1 += b1
            ss0 += q0
            ss1 += q1
            if rec_here:
                rec_t.append(t0 + 1)
                rec_f.append(fv)
                rec_gsq.append(gsq)
                rec_eta_mean.append((0.0 + e0 + e1) / d)
                rec_eta.append(e0)
                rec_eta.append(e1)
                rec_surr.append(loss)
                rec_cum.append(cum)
        x[0] = x0
        x[1] = x1
        si[0] = si0
        si[1] = si1
        ss[0] = ss0
        ss[1] = ss1
    else:
        xs = x.tolist()
        sg = sigma.tolist()
        dg = diag.tolist()
        sis = si.tolist()
        sss = ss.tolist()
        for t0, (u, v) in _noise_rows(noise, T):
            grad = _grad_list(dg, xs)
            if t0 + 1 == k_index:
                xk[:] = xs
            rec_here = t0 % stride == 0
            if rec_here:
                fv = _objective_list(dg, xs)
                gsq = _sq_norm_list(grad)
            raw = [(alpha + s) / (alpha + q) / M for s, q in zip(sis, sss)]
            eta = [0.0 if e < 0.0 else hi if e > hi else e for e in raw]
            g = [ri + s * n for ri, s, n in zip(grad, sg, u)]
            gp = [ri + s * n for ri, s, n in zip(grad, sg, v)]
            xs = [xi - e * gi for xi, e, gi in zip(xs, eta, g)]
            bs = [gi * gpi for gi, gpi in zip(g, gp)]
            qs = [gi * gi for gi in g]
            loss = 0.0
            for e, q, b in zip(eta, qs, bs):
                loss += hm * e * e * q - e * b
            cum += loss
            sis = [s + b for s, b in zip(sis, bs)]
            sss = [s + q for s, q in zip(sss, qs)]
            if rec_here:
                rec_t.append(t0 + 1)
                rec_f.append(fv)
                rec_gsq.append(gsq)
                rec_eta_mean.append(_mean_list(eta))
                rec_eta.extend(eta)
                rec_surr.append(loss)
                rec_cum.append(cum)
        x[:] = xs
        si[:] = sis
        ss[:] = sss
    return (*_series(rec_t, rec_f, rec_gsq, rec_eta_mean, rec_surr, rec_cum),
            np.frombuffer(rec_eta).reshape(-1, d), xk, si, ss, t + T)


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
            grad = _grad_list(dg, xs)
            if t0 + 1 == k_index:
                xk[:] = xs
            if t0 % stride == 0:
                rec_t.append(t0 + 1)
                rec_f.append(_objective_list(dg, xs))
                rec_gsq.append(_sq_norm_list(grad))
            xs = [xi - lr * (ri + s * n) for xi, ri, s, n in zip(xs, grad, sg, u)]
        x[:] = xs
    n_rec = len(rec_t)
    return (*_series(rec_t, rec_f, rec_gsq), np.full(n_rec, lr), np.zeros(n_rec),
            np.zeros(n_rec), np.empty((n_rec, 0)), xk)


def _py_adagrad_global(oracle_id, diag, x, T, sigma, noise, k_index, stride, lr, accum):
    """Plain-Python twin of ``_run_adagrad_global``; reads only the noise of g."""
    d = x.shape[0]
    xk = np.empty(d)
    rec_t, rec_f, rec_gsq, rec_eta = array("q"), array("d"), array("d"), array("d")
    sqrt = math.sqrt
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
            rec_here = t0 % stride == 0
            if rec_here:
                a1 = 1.0 - x0
                rec_t.append(t0 + 1)
                rec_f.append(a1 * a1 + 100.0 * (c * c))
                rec_gsq.append(0.0 + r0 * r0 + r1 * r1)
            g0 = r0 + s0 * u0
            g1 = r1 + s1 * u1
            accum += 0.0 + g0 * g0 + g1 * g1
            coef = lr / sqrt(accum) if accum > 0.0 else 0.0
            x0 = x0 - coef * g0
            x1 = x1 - coef * g1
            if rec_here:
                rec_eta.append(coef)
        x[0] = x0
        x[1] = x1
    else:
        xs = x.tolist()
        sg = sigma.tolist()
        dg = diag.tolist()
        for t0, u in _noise_rows(noise[:, 0], T):
            grad = _grad_list(dg, xs)
            if t0 + 1 == k_index:
                xk[:] = xs
            rec_here = t0 % stride == 0
            if rec_here:
                rec_t.append(t0 + 1)
                rec_f.append(_objective_list(dg, xs))
                rec_gsq.append(_sq_norm_list(grad))
            g = [ri + s * n for ri, s, n in zip(grad, sg, u)]
            accum += _sq_norm_list(g)
            coef = lr / sqrt(accum) if accum > 0.0 else 0.0
            xs = [xi - coef * gi for xi, gi in zip(xs, g)]
            if rec_here:
                rec_eta.append(coef)
        x[:] = xs
    n_rec = len(rec_t)
    return (*_series(rec_t, rec_f, rec_gsq, rec_eta), np.zeros(n_rec), np.zeros(n_rec),
            np.empty((n_rec, 0)), xk, accum)


def _py_adagrad_coord(oracle_id, diag, x, T, sigma, noise, k_index, stride, lr, accum):
    """Plain-Python twin of ``_run_adagrad_coord``; reads only the noise of g."""
    d = x.shape[0]
    xk = np.empty(d)
    rec_t = array("q")
    rec_f, rec_gsq, rec_eta_mean, rec_eta = (array("d") for _ in range(4))
    sqrt = math.sqrt
    if oracle_id == ORACLE_ROSENBROCK:
        x0, x1 = x.tolist()
        s0, s1 = sigma.tolist()
        q0, q1 = accum.tolist()
        for t0, (u0, u1) in _noise_rows(noise[:, 0], T):
            c = x1 - x0 * x0
            r0 = -2.0 * (1.0 - x0) - 400.0 * x0 * c
            r1 = 200.0 * c
            if t0 + 1 == k_index:
                xk[0] = x0
                xk[1] = x1
            rec_here = t0 % stride == 0
            if rec_here:
                a1 = 1.0 - x0
                rec_t.append(t0 + 1)
                rec_f.append(a1 * a1 + 100.0 * (c * c))
                rec_gsq.append(0.0 + r0 * r0 + r1 * r1)
            g0 = r0 + s0 * u0
            g1 = r1 + s1 * u1
            q0 += g0 * g0
            q1 += g1 * g1
            c0 = lr / sqrt(q0) if q0 > 0.0 else 0.0
            c1 = lr / sqrt(q1) if q1 > 0.0 else 0.0
            x0 = x0 - c0 * g0
            x1 = x1 - c1 * g1
            if rec_here:
                rec_eta_mean.append((0.0 + c0 + c1) / d)
                rec_eta.append(c0)
                rec_eta.append(c1)
        x[0] = x0
        x[1] = x1
        accum[0] = q0
        accum[1] = q1
    else:
        xs = x.tolist()
        sg = sigma.tolist()
        dg = diag.tolist()
        qs = accum.tolist()
        for t0, u in _noise_rows(noise[:, 0], T):
            grad = _grad_list(dg, xs)
            if t0 + 1 == k_index:
                xk[:] = xs
            rec_here = t0 % stride == 0
            if rec_here:
                rec_t.append(t0 + 1)
                rec_f.append(_objective_list(dg, xs))
                rec_gsq.append(_sq_norm_list(grad))
            g = [ri + s * n for ri, s, n in zip(grad, sg, u)]
            qs = [q + gi * gi for q, gi in zip(qs, g)]
            coef = [lr / sqrt(q) if q > 0.0 else 0.0 for q in qs]
            xs = [xi - ci * gi for xi, ci, gi in zip(xs, coef, g)]
            if rec_here:
                rec_eta_mean.append(_mean_list(coef))
                rec_eta.extend(coef)
        x[:] = xs
        accum[:] = qs
    n_rec = len(rec_t)
    return (*_series(rec_t, rec_f, rec_gsq, rec_eta_mean), np.zeros(n_rec), np.zeros(n_rec),
            np.frombuffer(rec_eta).reshape(-1, d), xk, accum)


def _py_adam(oracle_id, diag, x, T, sigma, noise, k_index, stride, lr, beta1, beta2, eps,
             m, v, p1, p2):
    """Plain-Python twin of ``_run_adam``; reads only the noise of g."""
    d = x.shape[0]
    xk = np.empty(d)
    rec_t, rec_f, rec_gsq = array("q"), array("d"), array("d")
    sqrt = math.sqrt
    c1 = 1.0 - beta1
    c2 = 1.0 - beta2
    if oracle_id == ORACLE_ROSENBROCK:
        x0, x1 = x.tolist()
        s0, s1 = sigma.tolist()
        m0, m1 = m.tolist()
        w0, w1 = v.tolist()
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
        x[0] = x0
        x[1] = x1
        m[0] = m0
        m[1] = m1
        v[0] = w0
        v[1] = w1
    else:
        xs = x.tolist()
        sg = sigma.tolist()
        dg = diag.tolist()
        ms = m.tolist()
        ws = v.tolist()
        for t0, u in _noise_rows(noise[:, 0], T):
            grad = _grad_list(dg, xs)
            if t0 + 1 == k_index:
                xk[:] = xs
            if t0 % stride == 0:
                rec_t.append(t0 + 1)
                rec_f.append(_objective_list(dg, xs))
                rec_gsq.append(_sq_norm_list(grad))
            p1 *= beta1
            p2 *= beta2
            bc1 = 1.0 - p1
            bc2 = 1.0 - p2
            g = [ri + s * n for ri, s, n in zip(grad, sg, u)]
            ms = [beta1 * mi + c1 * gi for mi, gi in zip(ms, g)]
            ws = [beta2 * wi + c2 * (gi * gi) for wi, gi in zip(ws, g)]
            xs = [xi - lr * (mi / bc1) / (sqrt(wi / bc2) + eps) for xi, mi, wi in zip(xs, ms, ws)]
        x[:] = xs
        m[:] = ms
        v[:] = ws
    n_rec = len(rec_t)
    return (*_series(rec_t, rec_f, rec_gsq), np.full(n_rec, math.nan), np.zeros(n_rec),
            np.zeros(n_rec), np.empty((n_rec, 0)), xk, m, v, p1, p2)
