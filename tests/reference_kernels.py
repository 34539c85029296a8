"""The array sources of each kernel kind's run: the bitwise reference.

Each ``_run_<name>`` returns the same values as a ``sgdol.run`` of that
kind on an analytic oracle: ``sgdol._kernels.get_kernel(name)`` on
Rosenbrock, the optimizer's own ``update`` on a quadratic of any d. It is
written as an array loop with the objective in three shared helpers
(``_grad_into``, ``_objective``, ``_sq_norm``), picked by an oracle id that
``reference_params`` gives, instead of on Python floats and lists. Both
execute the same IEEE operations in the same order, so
``tests/test_kernels.py`` requires their outputs to be bitwise equal. These
sources are test code only: under CPython they run four to seven times
slower than the package's kernels.
"""

import math

import numpy as np

from sgdol import QuadraticOracle, RosenbrockOracle

ORACLE_ROSENBROCK = 0
ORACLE_QUADRATIC = 1


def reference_params(oracle):
    """The (oracle_id, diag, sigma) that the reference loops take for an analytic oracle."""
    if type(oracle) is RosenbrockOracle:
        return ORACLE_ROSENBROCK, np.ones(2), oracle.sigma
    assert type(oracle) is QuadraticOracle
    return ORACLE_QUADRATIC, oracle.diag, oracle.sigma


def _grad_into(oracle_id, diag, x, grad):
    """Write the exact gradient at x into grad."""
    if oracle_id == ORACLE_ROSENBROCK:
        c = x[1] - x[0] * x[0]
        grad[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * c
        grad[1] = 200.0 * c
    else:
        for i in range(x.shape[0]):
            grad[i] = diag[i] * x[i]


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


def _sq_norm(v):
    """Sum of squares, accumulated in index order from 0.0."""
    acc = 0.0
    for i in range(v.shape[0]):
        acc += v[i] * v[i]
    return acc


def _run_sgdol_global(oracle_id, diag, x, T, sigma, noise, k_index, stride,
                      M, alpha, curv, si, ss, *ledger):
    """SGDOL with one global FTRL-learned stepsize.

    The learner state is (sum of <g,g'>, sum of ||g||^2), then a regret
    ledger's six running values when one is carried.
    """
    d = x.shape[0]
    n_rec = (T + stride - 1) // stride
    rec_t = np.empty(n_rec, np.int64)
    rec_f = np.empty(n_rec)
    rec_gsq = np.empty(n_rec)
    rec_eta = np.empty(n_rec)
    led = bool(ledger)
    n, lc, li, lq, lm, l2 = ledger if led else (0, 0.0, 0.0, 0.0, 0.0, 0.0)
    grad = np.empty(d)
    g = np.empty(d)
    gp = np.empty(d)
    xk = np.empty(d)
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
        si += b
        ss += a
        if led:
            lc += 0.5 * curv * M * eta * eta * a - eta * b
            li += b
            lq += a
            ap = _sq_norm(gp)
            if a > lm or a != a:
                lm = a
            if ap > lm or ap != ap:
                lm = ap
            slope = curv * M * eta * a - b
            l2 += slope * slope / (alpha + curv * lq)
            n += 1
        if rec_here:
            rec_t[ri] = t0 + 1
            rec_f[ri] = fv
            rec_gsq[ri] = gsq
            rec_eta[ri] = eta
            ri += 1
    return (rec_t, rec_f, rec_gsq, rec_eta, np.empty((n_rec, 0)), xk,
            si, ss, *((n, lc, li, lq, lm, l2) if led else ()))


def _run_sgdol_coord(oracle_id, diag, x, T, sigma, noise, k_index, stride, M, alpha, si, ss):
    """SGDOL with one FTRL learner per coordinate; state (si, ss) as above."""
    d = x.shape[0]
    n_rec = (T + stride - 1) // stride
    rec_t = np.empty(n_rec, np.int64)
    rec_f = np.empty(n_rec)
    rec_gsq = np.empty(n_rec)
    rec_eta_mean = np.empty(n_rec)
    rec_eta = np.empty((n_rec, d))
    grad = np.empty(d)
    g = np.empty(d)
    gp = np.empty(d)
    eta = np.empty(d)
    xk = np.empty(d)
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
        for i in range(d):
            g[i] = grad[i] + sigma[i] * noise[t0, 0, i]
            gp[i] = grad[i] + sigma[i] * noise[t0, 1, i]
        for i in range(d):
            x[i] = x[i] - eta[i] * g[i]
        for i in range(d):
            si[i] += g[i] * gp[i]
            ss[i] += g[i] * g[i]
        if rec_here:
            rec_t[ri] = t0 + 1
            rec_f[ri] = fv
            rec_gsq[ri] = gsq
            mean_eta = 0.0
            for i in range(d):
                rec_eta[ri, i] = eta[i]
                mean_eta += eta[i]
            rec_eta_mean[ri] = mean_eta / d
            ri += 1
    return rec_t, rec_f, rec_gsq, rec_eta_mean, rec_eta, xk, si, ss


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
    return rec_t, rec_f, rec_gsq, rec_eta, np.empty((n_rec, 0)), xk


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
    return rec_t, rec_f, rec_gsq, rec_eta, np.empty((n_rec, 0)), xk, accum


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
    return rec_t, rec_f, rec_gsq, rec_eta_mean, rec_eta, xk, accum


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
    return rec_t, rec_f, rec_gsq, rec_eta, np.empty((n_rec, 0)), xk, m, v, p1, p2


REFERENCE_KERNELS = {
    "sgdol_global": _run_sgdol_global,
    "sgdol_coord": _run_sgdol_coord,
    "sgd": _run_sgd,
    "adagrad_global": _run_adagrad_global,
    "adagrad_coord": _run_adagrad_coord,
    "adam": _run_adam,
}
