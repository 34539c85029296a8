"""Self-tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import io
import json
import os

import pytest

import run
from layers import PER_LAYER_UNITS, attribute_snapshot, instrument, leaked_attributes
from spans import END, NAME, PARENT, START, Patches, Tracer, self_times
from workloads import ROOT, ExperimentWorkload, fresh_out_dir, values_within

sgdol = run.import_sgdol()


def test_self_times_on_synthetic_tree():
    #   root [0, 10]
    #     a [1, 4]
    #     b [5, 9]
    #       c [6, 7]
    spans = [["root", 0.0, 10.0, -1, None],
             ["a", 1.0, 4.0, 0, None],
             ["b", 5.0, 9.0, 0, None],
             ["c", 6.0, 7.0, 2, None]]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    # self times of a tree add up to its root's duration
    assert sum(self_times(spans)) == spans[0][END] - spans[0][START]


def test_tracer_records_nesting_with_parents():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert [s[NAME] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert self_times(tracer.spans) == [5.0 - 0.0 - 2.0, 1.0, 1.0]


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans[0][END] >= tracer.spans[0][START]
    assert tracer.spans[1][PARENT] == -1


def test_patches_restore_on_error():
    class Owner:
        value = "original"

    with pytest.raises(ValueError):
        with Patches() as p:
            p.set(Owner, "value", "patched")
            assert Owner.value == "patched"
            raise ValueError
    assert Owner.value == "original"


@pytest.mark.parametrize("config, T", [("configs/rosenbrock_noisy.ini", 200),
                                        ("perfbench/quad_d100_dense.ini", 20),
                                        ("configs/classification_batch50.ini", 20)])
def test_traced_run_restores_every_wrapped_attribute(config, T):
    workload = ExperimentWorkload("selftest", config, T=T, repetitions=1)
    before = attribute_snapshot()
    tracer = Tracer()
    with instrument(sgdol, tracer):
        assert leaked_attributes(before, attribute_snapshot())  # wrappers are in place
        spec = workload.make_input(sgdol, 5, fresh_out_dir("selftest"))
        traced_outcome = workload.check(spec, workload.execute(sgdol, spec))
    assert leaked_attributes(before, attribute_snapshot()) == []
    names = {s[NAME] for s in tracer.spans}
    assert {"harness.parse_config", "harness.run_experiment", "harness.write_csv",
            "optimizers.run"} <= names
    # the same spec untraced gives byte-identical outputs
    spec = workload.make_input(sgdol, 5, fresh_out_dir("selftest"))
    plain_outcome = workload.check(spec, workload.execute(sgdol, spec))
    assert traced_outcome.failed == plain_outcome.failed == 0
    assert traced_outcome.digests == plain_outcome.digests


def test_values_within_tolerance():
    ref = "t,f\n1,1.0\n3,2.0\n"
    assert values_within(io.StringIO(ref), io.StringIO(ref), 1e-9, 0.0) is None
    close = "t,f\n1,1.0000000000001\n3,2.0\n"
    assert values_within(io.StringIO(close), io.StringIO(ref), 1e-9, 0.0) is None
    far = "t,f\n1,1.001\n3,2.0\n"
    assert values_within(io.StringIO(far), io.StringIO(ref), 1e-9, 0.0) is not None
    shifted = "t,f\n2,1.0\n3,2.0\n"
    assert values_within(io.StringIO(shifted), io.StringIO(ref), 1e-9, 0.0) is not None


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_traced_verify_run_end_to_end(capsys):
    cpus = os.sched_getaffinity(0)
    try:
        code = run.main(["--workload", "verify", "--seed", "3", "--seconds", "0.1", "--trace", "1"])
    finally:
        os.sched_setaffinity(0, cpus)  # run.main pins the process to one CPU
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(PER_LAYER_UNITS)
    assert result["metrics"]["diagnostics.checks_passed"]["value"] == 8
