"""Layer instrumentation for the traced run, and the per-layer metrics.

The traced run wraps each layer's public entry points from here; nothing in
``src/`` is edited. A function is replaced in every ``sgdol`` module that
bound it by name (``harness`` and ``diagnostics`` import ``run`` directly),
and a method is replaced on each class that defines it. Span names:

    harness.parse_config  harness.oracle_build  harness.run_experiment
    harness.write_csv     optimizers.run        optimizers.step
    kernels.<kernel>      (what ``_kernels.get_kernel`` returns)
    oracles.sample_pair   oracles.sample_pairs  oracles.f  oracles.grad
    online.stepsize       online.observe
    diagnostics.<function>
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict

from spans import END, META, NAME, PARENT, START, Patches, durations, self_times

KERNEL_NAMES = ("sgdol_global", "sgdol_coord", "sgd", "adagrad_global", "adagrad_coord", "adam")
DIAGNOSTIC_FUNCTIONS = ("ftrl_argmin_oracle", "surrogate_bound_check", "finite_diff_grad")

# name -> unit, in the order they are printed. Kept in step with BENCHMARK.json.
PER_LAYER_UNITS = {
    "harness.parse_config_s": "s",
    "harness.oracle_build_s": "s",
    "harness.average_self_s": "s",
    "harness.write_csv_s": "s",
    "harness.csv_bytes": "bytes",
    "optimizers.run_calls": "count",
    "optimizers.run_us_per_step": "us/step",
    "optimizers.run_self_us_per_step": "us/step",
    "optimizers.step_calls": "count",
    "optimizers.step_us": "us",
    "optimizers.kernel_fallbacks": "count",
    "kernels.calls": "count",
    **{f"kernels.{k}.us_per_step": "us/step" for k in KERNEL_NAMES},
    "oracles.sample_pair_calls": "count",
    "oracles.sample_pair_us": "us",
    "oracles.record_evals": "count",
    "oracles.f_us": "us",
    "oracles.grad_us": "us",
    "online.stepsize_calls": "count",
    "online.stepsize_us": "us",
    "online.observe_calls": "count",
    "online.observe_us": "us",
    "diagnostics.run_verification_s": "s",
    "diagnostics.checks_passed": "count",
    **{f"diagnostics.{f}_s": "s" for f in DIAGNOSTIC_FUNCTIONS},
    "diagnostics.sample_pairs_s": "s",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


def sgdol_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sgdol" or name.startswith("sgdol."))]


def attribute_snapshot():
    """Every attribute of the sgdol modules and of the classes they define.

    Compared by identity before and after a traced run, it shows that no
    wrapper was left behind to leak into a later untraced run.
    """
    snap = {}
    for mod in sgdol_modules():
        for key, value in list(vars(mod).items()):
            snap[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    snap[(mod.__name__, key, attr)] = member
    return snap


def leaked_attributes(before, after):
    keys = set(before) | set(after)
    return sorted(str(k) for k in keys if before.get(k) is not after.get(k))


def _patch_function(patches, module, attr, wrapper):
    original = module.__dict__[attr]
    for mod in sgdol_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, key, wrapper)


def _patch_methods(patches, tracer, module, attr, span_name):
    for obj in list(vars(module).values()):
        if isinstance(obj, type) and obj.__module__ == module.__name__ and attr in obj.__dict__:
            patches.set(obj, attr, tracer.wrap(span_name, obj.__dict__[attr]))


def instrument(sgdol, tracer):
    """Wrap every layer entry point; returns the Patches that restore them."""
    harness, optimizers, kernels = sgdol.harness, sgdol.optimizers, sgdol._kernels
    oracles, online, diagnostics = sgdol.oracles, sgdol.online, sgdol.diagnostics
    analytic = (oracles.RosenbrockOracle, oracles.QuadraticOracle)
    run_signature = inspect.signature(optimizers.run)

    def run_meta(args, kwargs):
        bound = run_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return a["T"], isinstance(a["oracle"], analytic) and not a["force_generic"]

    get_kernel = kernels.get_kernel

    def traced_get_kernel(name):
        return tracer.wrap("kernels." + name, get_kernel(name), meta=lambda a, kw: (a[3],))

    patches = Patches()
    try:
        for attr in ("parse_config", "run_experiment", "write_csv"):
            _patch_function(patches, harness, attr,
                            tracer.wrap("harness." + attr, harness.__dict__[attr]))
        patches.set(harness.OracleSpec, "build",
                    tracer.wrap("harness.oracle_build", harness.OracleSpec.__dict__["build"]))
        _patch_function(patches, optimizers, "run",
                        tracer.wrap("optimizers.run", optimizers.run, meta=run_meta))
        _patch_methods(patches, tracer, optimizers, "step", "optimizers.step")
        patches.set(kernels, "get_kernel", traced_get_kernel)
        for attr in ("sample_pair", "sample_pairs", "f", "grad"):
            _patch_methods(patches, tracer, oracles, attr, "oracles." + attr)
        _patch_methods(patches, tracer, online, "stepsize", "online.stepsize")
        _patch_methods(patches, tracer, online, "observe_stats", "online.observe")
        for attr in ("run_verification",) + DIAGNOSTIC_FUNCTIONS:
            _patch_function(patches, diagnostics, attr,
                            tracer.wrap("diagnostics." + attr, diagnostics.__dict__[attr]))
    except BaseException:
        patches.__exit__(None, None, None)
        raise
    return patches


def layer_metrics(spans, iterations, csv_bytes, checks_passed, overhead_frac,
                  unattributed_frac):
    """Per-layer metrics from the spans of ``iterations`` traced executions.

    Counts and ``*_s`` totals are per execution; ``*_us`` values are means
    per call; ``*_us_per_step`` divide by the steps the spans cover. A layer
    that never ran reports 0.
    """
    durs = durations(spans)
    selfs = self_times(spans)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)

    def total(name, values=durs):
        return sum(values[i] for i in by_name[name])

    def per_exec(x):
        return x / iterations

    def mean_us(indices):
        return 1e6 * sum(durs[i] for i in indices) / len(indices) if indices else 0.0

    def us_per_step(indices, values=durs):
        steps = sum(spans[i][META][0] for i in indices)
        return 1e6 * sum(values[i] for i in indices) / steps if steps else 0.0

    runs = by_name["optimizers.run"]
    kernel_spans = [i for i, s in enumerate(spans) if s[NAME].startswith("kernels.")]
    fallbacks = sum(1 for i in runs if spans[i][META][1]
                    and not any(spans[c][NAME].startswith("kernels.") for c in children[i]))
    run_set = set(runs)
    record = {name: [i for i in by_name[name] if spans[i][PARENT] in run_set]
              for name in ("oracles.f", "oracles.grad")}

    m = {
        "harness.parse_config_s": mean_us(by_name["harness.parse_config"]) / 1e6,
        "harness.oracle_build_s": mean_us(by_name["harness.oracle_build"]) / 1e6,
        "harness.average_self_s": per_exec(total("harness.run_experiment", selfs)),
        "harness.write_csv_s": per_exec(total("harness.write_csv")),
        "harness.csv_bytes": per_exec(csv_bytes),
        "optimizers.run_calls": per_exec(len(runs)),
        "optimizers.run_us_per_step": us_per_step(runs),
        "optimizers.run_self_us_per_step": us_per_step(runs, selfs),
        "optimizers.step_calls": per_exec(len(by_name["optimizers.step"])),
        "optimizers.step_us": mean_us(by_name["optimizers.step"]),
        "optimizers.kernel_fallbacks": per_exec(fallbacks),
        "kernels.calls": per_exec(len(kernel_spans)),
    }
    for k in KERNEL_NAMES:
        m[f"kernels.{k}.us_per_step"] = us_per_step(by_name["kernels." + k])
    m.update({
        "oracles.sample_pair_calls": per_exec(len(by_name["oracles.sample_pair"])),
        "oracles.sample_pair_us": mean_us(by_name["oracles.sample_pair"]),
        "oracles.record_evals": per_exec(len(record["oracles.f"]) + len(record["oracles.grad"])),
        "oracles.f_us": mean_us(record["oracles.f"]),
        "oracles.grad_us": mean_us(record["oracles.grad"]),
        "online.stepsize_calls": per_exec(len(by_name["online.stepsize"])),
        "online.stepsize_us": mean_us(by_name["online.stepsize"]),
        "online.observe_calls": per_exec(len(by_name["online.observe"])),
        "online.observe_us": mean_us(by_name["online.observe"]),
        "diagnostics.run_verification_s": per_exec(total("diagnostics.run_verification")),
        "diagnostics.checks_passed": per_exec(checks_passed),
    })
    for f in DIAGNOSTIC_FUNCTIONS:
        m[f"diagnostics.{f}_s"] = per_exec(total("diagnostics." + f))
    m["diagnostics.sample_pairs_s"] = per_exec(total("oracles.sample_pairs"))
    m["trace.overhead_frac"] = overhead_frac
    m["trace.unattributed_frac"] = unattributed_frac
    return m


def root_time(spans, t0, t1):
    """Time covered by root spans that started inside [t0, t1]."""
    return sum(s[END] - s[START] for s in spans
               if s[PARENT] < 0 and t0 <= s[START] <= t1)
