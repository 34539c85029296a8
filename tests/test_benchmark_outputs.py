"""The outputs that the benchmark pins, checked in-process.

``perfbench/references.json`` records, per workload and seed, the SHA-256 of
every output file (the verify workload: of its check names and verdicts).
This test builds each recorded (workload, seed) input as
``perfbench/workloads.py`` does, writes its outputs under ``tmp_path``, and
requires every operation to succeed and every output to match its
reference. ``workloads.py`` is imported by path and only read.
"""

import importlib.util
import os
import sys

import pytest

import sgdol

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(_PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_workloads()
_REFERENCES = _WORKLOADS.load_references()
_CASES = [(name, int(seed)) for name in _WORKLOADS.WORKLOADS
          for seed in sorted(_REFERENCES.get(name, {}), key=int)]


def test_every_workload_has_a_recorded_seed():
    assert {name for name, _ in _CASES} == set(_WORKLOADS.WORKLOADS)


@pytest.mark.parametrize("name, seed", _CASES, ids=[f"{n}-{s}" for n, s in _CASES])
def test_benchmark_output_matches_reference(name, seed, tmp_path):
    workload = _WORKLOADS.WORKLOADS[name]
    out_dir = str(tmp_path)
    inp = workload.make_input(sgdol, seed, out_dir)
    outcome = workload.check(inp, workload.execute(sgdol, inp))
    assert outcome.failed == 0, outcome.problems
    assert workload.reference_problems(seed, out_dir, outcome.digests, _REFERENCES) == []
