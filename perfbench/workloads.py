"""The benchmark's workloads: how each builds its input, runs and is checked.

Each workload builds a fresh input from a seed for every execution (never
reusing an ``ExperimentSpec``: ``run_experiment`` fills ``sgd_gl`` constants
into the caller's ``OptimizerConfig``, so a reused spec would carry a stale
T and stepsize). Library calls go through module attributes at call time, so
the traced run's wrappers see them.

Why each workload exists is documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
REFERENCE_FILE = os.path.join(HERE, "references.json")
REFERENCE_CSV_DIR = os.path.join(HERE, "reference_csv")

HELD_OUT_SEED = 4242


@dataclass
class Outcome:
    """What one execution produced and how many of its operations failed."""

    attempted: int
    failed: int
    digests: dict  # output name -> SHA-256 of its exact bytes
    csv_bytes: int = 0
    checks_passed: int = 0
    problems: list = field(default_factory=list)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_references():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def read_csv_columns(lines):
    reader = csv.reader(lines)
    header = next(reader)
    rows = list(reader)
    return header, rows


def values_within(actual_lines, reference_lines, rtol, atol):
    """Value-wise comparison of two CSV texts; returns a problem string or None.

    Headers and the ``t`` column must match exactly; every other cell must
    satisfy |a - r| <= atol + rtol * |r| (NaN only matches NaN).
    """
    header_a, rows_a = read_csv_columns(actual_lines)
    header_r, rows_r = read_csv_columns(reference_lines)
    if header_a != header_r or len(rows_a) != len(rows_r):
        return "CSV shape differs from the reference"
    for row_a, row_r in zip(rows_a, rows_r):
        if row_a[0] != row_r[0]:
            return f"t column differs: {row_a[0]} vs {row_r[0]}"
        for cell_a, cell_r in zip(row_a[1:], row_r[1:]):
            a = float(cell_a) if cell_a else math.nan
            r = float(cell_r) if cell_r else math.nan
            if math.isnan(a) or math.isnan(r):
                if not (math.isnan(a) and math.isnan(r)):
                    return f"NaN mismatch: {cell_a!r} vs {cell_r!r}"
                continue
            if abs(a - r) > atol + rtol * abs(r):
                return f"value {cell_a} differs from reference {cell_r}"
    return None


class ExperimentWorkload:
    """An INI experiment config run through ``harness.run_experiment``.

    ``T`` and ``repetitions`` scale the shipped config down; ``None`` keeps
    the config's value. With ``tolerance`` set to ``(rtol, atol)`` a CSV
    whose bytes differ from the reference still passes when every value is
    within it (see README: reordered reductions on dataset oracles).
    """

    kind = "experiment"

    def __init__(self, name, config, T=None, repetitions=None, tolerance=None):
        self.name = name
        self.config = os.path.join(ROOT, config)
        self.T = T
        self.repetitions = repetitions
        self.tolerance = tolerance

    def default_seed(self, sgdol):
        return sgdol.harness.parse_config(self.config).seed

    def make_input(self, sgdol, seed, out_dir):
        spec = sgdol.harness.parse_config(self.config)
        if self.T is not None:
            spec.T = self.T
        if self.repetitions is not None:
            spec.repetitions = self.repetitions
        if spec.oracle.dataset is not None:
            spec.oracle.dataset = os.path.join(ROOT, spec.oracle.dataset)
        spec.seed = seed
        spec.output_dir = out_dir
        spec.keep_raw = True  # per-repetition final iterates are checked
        return spec

    def steps(self, spec):
        return spec.T * spec.repetitions * len(spec.optimizers)

    def expected_ops(self, spec):
        return len(spec.optimizers) * (spec.repetitions + 1)  # runs + CSV files

    def execute(self, sgdol, spec):
        return sgdol.harness.run_experiment(spec)

    def check(self, spec, table):
        attempted = failed = csv_bytes = 0
        problems, digests = [], {}
        for name, _ in spec.optimizers:
            series = table.series.get(name)
            raws = series.raw if series is not None and series.raw else []
            attempted += spec.repetitions
            bad = spec.repetitions - len(raws)
            bad += sum(1 for r in raws if not all(math.isfinite(v) for v in r.x_final))
            if bad:
                problems.append(f"{name}: {bad} run(s) missing or with a non-finite final iterate")
            failed += bad
            attempted += 1
            path = os.path.join(spec.output_dir, f"{name}.csv")
            if not os.path.isfile(path):
                problems.append(f"{name}.csv was not written")
                failed += 1
                continue
            csv_bytes += os.path.getsize(path)
            digests[f"{name}.csv"] = sha256_file(path)
        return Outcome(attempted, failed, digests, csv_bytes=csv_bytes, problems=problems)

    def reference_problems(self, seed, out_dir, digests, references):
        """Files whose output differs from the recorded reference for ``seed``."""
        expected = references.get(self.name, {}).get(str(seed))
        if expected is None:
            return []
        problems = []
        for fname, ref_digest in expected.items():
            got = digests.get(fname)
            if got == ref_digest:
                continue
            problem = f"{fname}: SHA-256 differs from the reference"
            if got is not None and self.tolerance is not None:
                ref_path = os.path.join(REFERENCE_CSV_DIR, self.name, str(seed), fname + ".gz")
                with gzip.open(ref_path, "rt", newline="") as ref, \
                        open(os.path.join(out_dir, fname), newline="") as act:
                    problem = values_within(act, ref, *self.tolerance)
            if problem is not None:
                problems.append(problem)
        return problems


class VerifyWorkload:
    """``diagnostics.run_verification``, the ``sgdol verify`` path."""

    kind = "verify"
    name = "verify"
    default_seed_value = 20190901  # the CLI's default
    mc_samples = 20000  # the CLI's default --samples
    # The suite's three recorded runs take 500 + 100 + 2000 optimizer steps.
    run_steps = 2600
    checks = 8

    def default_seed(self, sgdol):
        return self.default_seed_value

    def make_input(self, sgdol, seed, out_dir):
        return seed

    def steps(self, seed):
        return self.run_steps

    def expected_ops(self, seed):
        return self.checks

    def execute(self, sgdol, seed):
        return sgdol.diagnostics.run_verification(seed=seed, mc_samples=self.mc_samples)

    def check(self, seed, results):
        text = "".join(f"{r.name}|{r.passed}|{r.detail}\n" for r in results)
        verdicts = "".join(f"{r.name}|{r.passed}\n" for r in results)
        failed = sum(1 for r in results if not r.passed)
        problems = [f"FAIL {r.name}: {r.detail}" for r in results if not r.passed]
        digests = {
            "checks": hashlib.sha256(text.encode()).hexdigest(),
            "verdicts": hashlib.sha256(verdicts.encode()).hexdigest(),
        }
        return Outcome(len(results), failed, digests,
                       checks_passed=len(results) - failed, problems=problems)

    def reference_problems(self, seed, out_dir, digests, references):
        # Check names and verdicts must match; the detail numbers may move
        # when a diagnostic's arithmetic is reordered, so only the in-process
        # repeat compares them.
        expected = references.get(self.name, {}).get(str(seed))
        if expected is None or digests.get("verdicts") == expected["verdicts"]:
            return []
        return ["check names or verdicts differ from the reference"]


WORKLOADS = {
    w.name: w
    for w in (
        ExperimentWorkload("rosenbrock_sweep", "configs/rosenbrock_noisy.ini",
                           T=5000, repetitions=3),
        ExperimentWorkload("classify_b50", "configs/classification_batch50.ini",
                           T=1000, repetitions=2, tolerance=(1e-9, 1e-12)),
        ExperimentWorkload("quad_d100_dense", "perfbench/quad_d100_dense.ini"),
        VerifyWorkload(),
    )
}


def fresh_out_dir(workload_name):
    path = os.path.join(OUT_ROOT, workload_name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
