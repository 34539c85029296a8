import os

import pytest

import sgdol.optimizers as optimizers
from sgdol import load_libsvm

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def tiny3_path():
    return os.path.join(FIXTURES, "tiny3.libsvm")


@pytest.fixture(scope="session")
def synthetic500_path():
    return os.path.join(FIXTURES, "synthetic500.libsvm")


@pytest.fixture(scope="session")
def synthetic500(synthetic500_path):
    return load_libsvm(synthetic500_path)


@pytest.fixture
def loop_calls(monkeypatch):
    """The groups ``optimizers._run_groups`` hands each step loop, a list per loop name."""
    calls = {}
    for name in ("_run_kernels", "_run_updates", "run_lanes"):
        real, seen = getattr(optimizers, name), calls.setdefault(name, [])

        def spy(groups, *args, real=real, seen=seen):
            seen.append(groups)
            return real(groups, *args)
        monkeypatch.setattr(optimizers, name, spy)
    return calls
