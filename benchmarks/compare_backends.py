"""Time each fused run kernel in every variant and check that they agree bitwise.

Every kernel in ``sgdol._kernels`` runs T steps from the same inputs (a fresh
optimizer state, pre-drawn noise) in each of its variants:

- ``array``: the array source run by CPython (what numba compiles),
- ``python``: the plain-Python twin that runs without numba
  (``_kernels._PYTHON``),
- ``jit``: the numba-compiled array source, when numba is installed.

Two problems are timed: Rosenbrock (d=2, sigma=5, recording every 200th step,
as in ``configs/rosenbrock_noisy.ini``, ``--T`` steps) and a diagonal
quadratic (d=100, diag_i = i/100, sigma=1, recording every step, ``--T`` / 10
steps, as a step there costs about 50 times more). The script prints us/step
(best of ``--repeats``), the speed-ups, and whether each variant's returned
values and in-place updates are bitwise identical to the array source's;
``--json`` also writes the table. It exits 1 if any variant differs.

Usage:  python benchmarks/compare_backends.py [--T 5000] [--repeats 3] [--json out.json]
"""

import argparse
import copy
import json
import platform
import sys
import time

import numpy as np

import sgdol._kernels as kernels

# Parameters, then the fresh state, of each kernel at dimension d.
ARGS = {
    "sgdol_global": lambda d: [1002.0, 10.0, 1.0, False, 0.0, 0.0, 1],
    "sgdol_coord": lambda d: [1002.0, 10.0, np.zeros(d), np.zeros(d), 1],
    "sgd": lambda d: [1.0 / 1002.0],
    "adagrad_global": lambda d: [1e-3, 0.0],
    "adagrad_coord": lambda d: [1e-3, np.zeros(d)],
    "adam": lambda d: [1e-3, 0.9, 0.999, 1e-8, np.zeros(d), np.zeros(d), 1.0, 1.0],
}

# name -> (oracle id, diag, sigma, stride, divisor of --T giving the steps run)
PROBLEMS = {
    "rosenbrock_d2": (kernels.ORACLE_ROSENBROCK, np.ones(2), np.full(2, 5.0), 200, 1),
    "quadratic_d100": (kernels.ORACLE_QUADRATIC, np.arange(1, 101) / 100, np.ones(100), 1, 10),
}


def _bits(value):
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def time_kernel(fn, name, problem, T, repeats):
    """Best-of-``repeats`` us/step of one variant, and the bits of what it produced."""
    oracle_id, diag, sigma, stride, _ = problem
    d = sigma.shape[0]
    noise = np.random.default_rng(1).standard_normal((T, 2, d))
    best = float("inf")
    for _ in range(repeats):
        x, args = np.zeros(d), copy.deepcopy(ARGS[name](d))
        t0 = time.perf_counter()
        out = fn(oracle_id, diag, x, T, sigma, noise, T // 2 + 1, stride, *args)
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / T, [_bits(v) for v in (*out, x, *args)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=int, default=5000,
                        help="steps per Rosenbrock run (the d=100 quadratic runs T // 10)")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument("--json", help="also write the results to this file")
    args = parser.parse_args()

    variants = {"array": kernels._IMPLS, "python": kernels._PYTHON}
    if kernels.numba_available():
        variants["jit"] = kernels._JITTED
        for name, fn in kernels._JITTED.items():  # compile outside the timed region
            for problem in PROBLEMS.values():
                time_kernel(fn, name, problem, 2, 1)

    rows = []
    print(f"{'problem':15s} {'kernel':15s} " + " ".join(f"{v + ' us':>10s}" for v in variants)
          + f" {'array/py':>9s}" + (f" {'py/jit':>8s}" if "jit" in variants else "")
          + "  identical")
    for pname, problem in PROBLEMS.items():
        T = args.T // problem[4]
        for name in kernels.KERNEL_NAMES:
            us, bits = {}, {}
            for vname, table in variants.items():
                us[vname], bits[vname] = time_kernel(table[name], name, problem, T,
                                                     args.repeats)
            identical = all(b == bits["array"] for b in bits.values())
            rows.append({"problem": pname, "kernel": name, "T": T,
                         "stride": problem[3], "us_per_step": us, "identical": identical})
            line = (f"{pname:15s} {name:15s} " + " ".join(f"{u:10.3f}" for u in us.values())
                    + f" {us['array'] / us['python']:8.1f}x")
            if "jit" in us:
                line += f" {us['python'] / us['jit']:7.1f}x"
            print(line + f"  {identical}")

    if args.json:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "numba_available": kernels.numba_available(),
               "numba_enabled": kernels.numba_enabled(), "repeats": args.repeats}
        with open(args.json, "w") as fh:
            json.dump({"env": env, "results": rows}, fh, indent=1)
    if not all(row["identical"] for row in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
