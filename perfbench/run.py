"""sgdol benchmark: run one workload in this process and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Workloads: rosenbrock_sweep, classify_b50, quad_d100_dense, verify (see
perfbench/README.md for why each exists). The seed is the experiment's
master seed; the program only sees the spec built from it.

With ``--trace 0`` the end-to-end metrics are measured with no wrappers
installed; with ``--trace 1`` executions alternate between untraced and
traced (every layer's entry points wrapped) and the per-layer metrics are
printed. Either way every output is checked (see
``workloads.py``); the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1 when
any check failed. ``--out`` also saves the result with its environment stamp
for ``perfbench/compare.py``.
"""

import os

# Pin BLAS thread pools before anything imports numpy.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import namedtuple  # noqa: E402

from layers import (  # noqa: E402
    PER_LAYER_UNITS, attribute_snapshot, instrument, layer_metrics, leaked_attributes,
    root_time,
)
from spans import END, META, NAME, PARENT, START, Tracer  # noqa: E402
from speed import REFERENCE_S, calibrate, speed_factor  # noqa: E402
from workloads import (  # noqa: E402
    HELD_OUT_SEED, ROOT, WORKLOADS, Outcome, fresh_out_dir, load_references,
)

SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
MIN_EXECUTIONS = 2  # the in-process repeat check needs two

# One timed execution: wall seconds, the speed factor from the calibration
# passes around it, the timed interval, when building its input began, and
# the checked Outcome.
Execution = namedtuple("Execution", "wall factor t0 t1 begin outcome")

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}


def import_sgdol():
    """Import the checkout's own ``src/sgdol``; never an installed copy."""
    package = os.path.join(SRC, "sgdol")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no sgdol sources at {package}")
    sys.path.insert(0, SRC)
    import sgdol

    if os.path.dirname(os.path.abspath(sgdol.__file__)) != package:
        raise SystemExit(f"perfbench: imported sgdol from {sgdol.__file__}, not {package}")
    return sgdol


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def environment(sgdol, pinned_cpu):
    import numpy

    return {
        "numba_enabled": sgdol._kernels.numba_enabled(),
        "numba_available": sgdol._kernels.numba_available(),
        "SGDOL_DISABLE_NUMBA": os.environ.get("SGDOL_DISABLE_NUMBA"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "pinned_cpu": pinned_cpu,
        "speed_reference_s": REFERENCE_S,
    }


def pin_to_current_cpu():
    """Keep this process (and the set-up probes it starts) on one CPU.

    The calibration passes then measure the CPU the execution ran on.
    Returns the CPU number, or None when it cannot be read.
    """
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        return None
    return cpu


def setup_seconds(workload):
    """SETUP_SAMPLES cold set-ups, each in a fresh interpreter: (raw, normalized)."""
    probe = [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"), SRC]
    if workload.kind == "experiment":
        probe.append(workload.config)
    raw, norm = [], []
    for _ in range(SETUP_SAMPLES):
        before = calibrate()
        proc = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=120)
        after = calibrate()
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        seconds = float(proc.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        norm.append(seconds * speed_factor(before, after))
    return raw, norm


class Runner:
    """Executes one workload repeatedly and tallies its checked operations."""

    def __init__(self, sgdol, workload, references):
        self.sgdol = sgdol
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digests = {}  # seed -> digests of its first execution

    def execute(self, seed):
        """One checked execution, timed between two calibrations."""
        w = self.workload
        begin = time.perf_counter()
        out_dir = fresh_out_dir(w.name)
        inp = w.make_input(self.sgdol, seed, out_dir)
        gc.collect()
        before = calibrate()
        t0 = time.perf_counter()
        try:
            result = w.execute(self.sgdol, inp)
        except Exception:  # an operation that raised counts as failed
            result = None
            outcome = Outcome(w.expected_ops(inp), w.expected_ops(inp), {},
                              problems=[traceback.format_exc()])
        t1 = time.perf_counter()
        factor = speed_factor(before, calibrate())
        if result is not None:
            outcome = w.check(inp, result)
            first = self.first_digests.setdefault(seed, outcome.digests)
            for name, digest in outcome.digests.items():
                if first.get(name) != digest:
                    outcome.failed += 1
                    outcome.problems.append(f"{name}: differs from this process's first "
                                            f"execution of seed {seed}")
            ref = w.reference_problems(seed, out_dir, outcome.digests, self.references)
            outcome.failed += len(ref)
            outcome.problems += ref
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        return Execution(t1 - t0, factor, t0, t1, begin, outcome)

    def timed(self, seed, seconds):
        """Execute until ``seconds`` have passed (at least MIN_EXECUTIONS times)."""
        runs = []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_EXECUTIONS or time.perf_counter() < deadline:
            runs.append(self.execute(seed))
        return runs


def normalized_walls(runs):
    return [r.wall * r.factor for r in runs]


def end_to_end(runner, seed, seconds, workload):
    setup_raw, setup = setup_seconds(workload)
    runs = runner.timed(seed, seconds)
    wall = statistics.median(normalized_walls(runs))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": wall,
        "steps_per_s": workload.steps(workload.make_input(runner.sgdol, seed, None)) / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_frac": 1.0 - runner.failed / runner.attempted,
    }
    samples = {"wall_s": normalized_walls(runs), "raw_wall_s": [r.wall for r in runs],
               "setup_s": setup, "raw_setup_s": setup_raw}
    return metrics, END_TO_END_UNITS, samples


def scale_spans(spans, runs):
    """Spans with times multiplied by the speed factor of their execution."""
    scaled, k = [], 0
    for s in spans:
        while k + 1 < len(runs) and s[START] >= runs[k + 1].begin:
            k += 1
        f = runs[k].factor
        scaled.append([s[NAME], s[START] * f, s[END] * f, s[PARENT], s[META]])
    return scaled


def per_layer(runner, seed, seconds):
    """Alternate untraced and traced executions for ``seconds``.

    Alternating keeps slow drifts of the machine out of the overhead
    estimate; the wrappers are installed only around traced executions.
    """
    tracer = Tracer()
    before = attribute_snapshot()
    plain, runs = [], []
    deadline = time.perf_counter() + seconds
    while min(len(plain), len(runs)) < MIN_EXECUTIONS or time.perf_counter() < deadline:
        if len(runs) < len(plain):
            with instrument(runner.sgdol, tracer):
                runs.append(runner.execute(seed))
        else:
            plain.append(runner.execute(seed))
    leaked = leaked_attributes(before, attribute_snapshot())
    runner.attempted += 1
    if leaked:
        runner.failed += 1
        runner.problems.append(f"attributes not restored after tracing: {leaked}")
    plain, traced = normalized_walls(plain), normalized_walls(runs)
    unattributed = [(r.wall - root_time(tracer.spans, r.t0, r.t1)) / r.wall for r in runs]
    metrics = layer_metrics(
        scale_spans(tracer.spans, runs), len(runs),
        csv_bytes=sum(r.outcome.csv_bytes for r in runs),
        checks_passed=sum(r.outcome.checks_passed for r in runs),
        overhead_frac=statistics.median(traced) / statistics.median(plain) - 1.0,
        unattributed_frac=statistics.median(unattributed),
    )
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced,
               "raw_traced_wall_s": [r.wall for r in runs]}
    return metrics, PER_LAYER_UNITS, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with environment, here")
    args = parser.parse_args(argv)

    sgdol = import_sgdol()
    workload = WORKLOADS[args.workload]
    env = environment(sgdol, pin_to_current_cpu())
    runner = Runner(sgdol, workload, load_references())
    # Recorded references: the default seed and a held-out one. These
    # executions also warm up the interpreter before anything is timed.
    for seed in (workload.default_seed(sgdol), HELD_OUT_SEED):
        runner.execute(seed)
    if args.trace:
        metrics, units, samples = per_layer(runner, args.seed, args.seconds)
    else:
        metrics, units, samples = end_to_end(runner, args.seed, args.seconds, workload)

    print("# env " + json.dumps(env, sort_keys=True))
    for name, values in samples.items():
        print(f"# {name}: n={len(values)} median={statistics.median(values):.6g} "
              f"min={min(values):.6g} max={max(values):.6g}")
    for problem in runner.problems:
        print("# FAILED " + problem.rstrip().replace("\n", "\n#   "))
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "env": env, "samples": samples, **result},
                      fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
