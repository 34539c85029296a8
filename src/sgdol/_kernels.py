"""Fused run loops for the analytic oracles, one per update rule.

Each kernel executes a full T-step optimizer run on one of the built-in
analytic objectives (0 = Rosenbrock, 1 = diagonal quadratic) with
additive Gaussian noise, recording the trajectory at a fixed stride.
Every kernel has the signature

    kernel(oracle_id, diag, x, T, sigma, draw, k_index, stride, *params, *state)

and returns

    (t, f, ||grad||^2, stepsize, surrogate, cumulative, stepsize_coords, x_k, *state)

``state`` is the optimizer's mutable state (FTRL sums and round counter,
AdaGrad accumulators, Adam moments and beta powers, and the six running
values of a regret ledger that an ``Sgdol`` carries): it comes in, so a
kernel can continue a run that generic steps started, and its final value
goes out; array state and ``x`` are updated in place. ``stepsize_coords``
has zero columns for global-stepsize kernels.
``draw(n)`` returns the standard normals of the next n gradient pairs, shape
(n, 2, d), scaled inside by the per-coordinate sigma. The kernels pull their
noise from it a chunk at a time, so memory does not grow with T, and they
consume the random stream exactly as the step-by-step oracle path does.

The kernels run on Python floats, which CPython handles four to seven times
faster than numpy scalars: inputs are unpacked once, the noise is drawn and
converted a chunk at a time into one flat list, records go to typed buffers
that become arrays at the end, and the final iterate and array state are
written back in place. On Rosenbrock (d = 2) coordinates and per-coordinate
state are scalar locals with the objective inlined; quadratics run on lists
through the helpers below. Sums start from 0.0 and run in index order
(0.0 + -0.0 is 0.0), as loops because ``sum`` of floats compensates its
rounding from Python 3.12 on. ``tests/reference_kernels.py`` holds each
kernel as an array loop that ``tests/test_kernels.py`` requires it to match
bit for bit; against the generic step path the match is exact up to d = 7
(numpy sums pairwise from 8 elements up).

No divisor can be zero, where a Python float would raise ZeroDivisionError
and a numpy scalar return inf or nan: alpha, M and eps are validated
positive and the betas in [0, 1), the curvature scale is 1 or 2, and AdaGrad
divides only by the root of a positive accumulator. A diverging run ends in
the same inf/nan as the reference.
"""

import itertools
import math
from array import array

import numpy as np

# Oracle ids, passed in by optimizers.run
ORACLE_ROSENBROCK = 0
ORACLE_QUADRATIC = 1

# Noise floats drawn and converted per chunk: 2048 floats are a 16 kB array and
# a 64 kB flat list, whatever d is; at 8192 the peak RSS of a short Rosenbrock
# sweep rose by 1 MB, with no gain in speed.
_CHUNK_FLOATS = 2048


def _noise_steps(draw, T, d, pairs):
    """Iterate (t0, *noise of step t0) for t0 < T, drawing a chunk at a time.

    ``draw(n)`` returns the next n pairs' standard normals, shape (n, 2, d);
    exactly T pairs are drawn in all. A step's noise is its first ``pairs``
    rows, flat: g's d floats, then g''s d floats when ``pairs`` is 2. Each
    chunk becomes one flat list that zip regroups step by step, so no
    per-step list is built for the cyclic GC to track, and zip reuses the
    tuple of a step that the loop unpacks.
    """
    rows = max(1, _CHUNK_FLOATS // (2 * d))
    return itertools.chain.from_iterable(
        _flat_steps(draw(min(rows, T - c0))[:, :pairs], c0, pairs * d)
        for c0 in range(0, T, rows))


def _flat_steps(chunk, c0, k):
    """(c0 + i, *the k floats of row i) for every row i of the chunk."""
    return zip(range(c0, c0 + len(chunk)), *[iter(chunk.ravel().tolist())] * k)


def _grad_list(dg, xs):
    """The quadratic's gradient diag * x."""
    return [di * xi for di, xi in zip(dg, xs)]


def _objective_list(dg, xs):
    """The quadratic's value at x: 0.5 * sum of diag * x^2, in index order."""
    acc = 0.0
    for di, xi in zip(dg, xs):
        acc += di * (xi * xi)
    return 0.5 * acc


def _sq_norm_list(v):
    """Sum of squares, accumulated in index order from 0.0."""
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


def _fold_round(ledger, M, alpha, curv, eta, loss, b, a, ap):
    """A regret ledger's running values after one more round, as ``RegretLedger.record``.

    ``loss`` is the round's surrogate loss, ``b``, ``a`` and ``ap`` are
    <g,g'>, ||g||^2 and ||g'||^2.
    """
    n, lc, li, lq, lm, l2 = ledger
    lq += a
    # A NaN, once seen, stays the maximum, as np.maximum keeps it.
    if a > lm or a != a:
        lm = a
    if ap > lm or ap != ap:
        lm = ap
    slope = curv * M * eta * a - b
    return n + 1, lc + loss, li + b, lq, lm, l2 + slope * slope / (alpha + curv * lq)


def _sgdol_global(oracle_id, diag, x, T, sigma, draw, k_index, stride,
                     M, alpha, curv, si, ss, t, *ledger):
    """SGDOL with one global FTRL-learned stepsize.

    The learner state is (sum of <g,g'>, sum of ||g||^2, round counter),
    then a regret ledger's running values when the optimizer carries one:
    (rounds, cumulative surrogate loss, sum of <g,g'>, sum of ||g||^2,
    largest ||g||^2 or ||g'||^2, summed second bound term), as
    ``online.RegretLedger.record`` folds them in.
    """
    d = x.shape[0]
    xk = np.empty(d)
    rec_t = array("q")
    rec_f, rec_gsq, rec_eta, rec_surr, rec_cum = (array("d") for _ in range(5))
    led = bool(ledger)  # a bool tests faster than a tuple in the loops
    cum = 0.0
    hi = 2.0 / M
    if oracle_id == ORACLE_ROSENBROCK:
        x0, x1 = x.tolist()
        s0, s1 = sigma.tolist()
        for t0, u0, u1, v0, v1 in _noise_steps(draw, T, d, 2):
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
            if led:
                ledger = _fold_round(ledger, M, alpha, curv, eta, loss, b, a,
                                     0.0 + gp0 * gp0 + gp1 * gp1)
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
        for row in _noise_steps(draw, T, d, 2):
            t0, u, v = row[0], row[1:d + 1], row[d + 1:]
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
            if led:
                ledger = _fold_round(ledger, M, alpha, curv, eta, loss, b, a, _sq_norm_list(gp))
            if rec_here:
                rec_t.append(t0 + 1)
                rec_f.append(fv)
                rec_gsq.append(gsq)
                rec_eta.append(eta)
                rec_surr.append(loss)
                rec_cum.append(cum)
        x[:] = xs
    return (*_series(rec_t, rec_f, rec_gsq, rec_eta, rec_surr, rec_cum),
            np.empty((len(rec_t), 0)), xk, si, ss, t + T, *ledger)


def _sgdol_coord(oracle_id, diag, x, T, sigma, draw, k_index, stride, M, alpha, si, ss, t):
    """SGDOL with one FTRL learner per coordinate; state (si, ss, t) as above."""
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
        for t0, u0, u1, v0, v1 in _noise_steps(draw, T, d, 2):
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
        for row in _noise_steps(draw, T, d, 2):
            t0, u, v = row[0], row[1:d + 1], row[d + 1:]
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


def _sgd(oracle_id, diag, x, T, sigma, draw, k_index, stride, lr):
    """Constant-stepsize SGD (also the precomputed-stepsize variant); reads only g's noise."""
    d = x.shape[0]
    xk = np.empty(d)
    rec_t, rec_f, rec_gsq = array("q"), array("d"), array("d")
    if oracle_id == ORACLE_ROSENBROCK:
        x0, x1 = x.tolist()
        s0, s1 = sigma.tolist()
        for t0, u0, u1 in _noise_steps(draw, T, d, 1):
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
        for row in _noise_steps(draw, T, d, 1):
            t0, u = row[0], row[1:]
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


def _adagrad_global(oracle_id, diag, x, T, sigma, draw, k_index, stride, lr, accum):
    """AdaGrad with one shared stepsize lr / sqrt(sum of squared grad norms)."""
    d = x.shape[0]
    xk = np.empty(d)
    rec_t, rec_f, rec_gsq, rec_eta = array("q"), array("d"), array("d"), array("d")
    sqrt = math.sqrt
    if oracle_id == ORACLE_ROSENBROCK:
        x0, x1 = x.tolist()
        s0, s1 = sigma.tolist()
        for t0, u0, u1 in _noise_steps(draw, T, d, 1):
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
        for row in _noise_steps(draw, T, d, 1):
            t0, u = row[0], row[1:]
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


def _adagrad_coord(oracle_id, diag, x, T, sigma, draw, k_index, stride, lr, accum):
    """AdaGrad with a per-coordinate accumulator."""
    d = x.shape[0]
    xk = np.empty(d)
    rec_t = array("q")
    rec_f, rec_gsq, rec_eta_mean, rec_eta = (array("d") for _ in range(4))
    sqrt = math.sqrt
    if oracle_id == ORACLE_ROSENBROCK:
        x0, x1 = x.tolist()
        s0, s1 = sigma.tolist()
        q0, q1 = accum.tolist()
        for t0, u0, u1 in _noise_steps(draw, T, d, 1):
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
        for row in _noise_steps(draw, T, d, 1):
            t0, u = row[0], row[1:]
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


def _adam(oracle_id, diag, x, T, sigma, draw, k_index, stride, lr, beta1, beta2, eps,
             m, v, p1, p2):
    """Adam with standard bias-corrected moment estimates; it records NaN stepsizes."""
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
        for t0, u0, u1 in _noise_steps(draw, T, d, 1):
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
        for row in _noise_steps(draw, T, d, 1):
            t0, u = row[0], row[1:]
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
